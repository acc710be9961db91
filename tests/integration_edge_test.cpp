// Cross-module integration tests for the corners the main suites don't
// reach: eviction-driven re-claims, Delete racing active transfers,
// chained reduces under failure, inline-cache shard failover, heterogeneous
// networks (§6), and concurrent reduces over shared sources.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/units.h"
#include "core/client.h"
#include "core/cluster.h"

namespace hoplite::core {
namespace {

HopliteCluster::Options Opts(int nodes) {
  HopliteCluster::Options options;
  options.network.num_nodes = nodes;
  options.network.failure_detection_delay = Milliseconds(100);
  return options;
}

TEST(EvictionTest, ReceiverReclaimsWhenGrantedSenderWasEvicted) {
  // Node 1 holds a replica that gets LRU-evicted; a later receiver that the
  // directory routes to node 1 must fall back via HandleSenderGone.
  auto options = Opts(4);
  options.store_capacity_bytes = MB(10);
  HopliteCluster cluster(options);
  const ObjectID hot = ObjectID::FromName("hot");
  const ObjectID filler = ObjectID::FromName("filler");
  cluster.client(0).Put(hot, store::Buffer::OfSize(MB(6)));
  cluster.client(1).Get(hot).Then([](const store::Buffer&) {});
  cluster.RunAll();
  ASSERT_TRUE(cluster.store(1).Contains(hot));
  // Evict node 1's replica by filling its store with its own primary.
  cluster.client(1).Put(filler, store::Buffer::OfSize(MB(6)));
  cluster.RunAll();
  EXPECT_FALSE(cluster.store(1).Contains(hot)) << "replica should be evicted";
  // The directory may still grant node 1; the receiver must recover.
  std::optional<store::Buffer> got;
  cluster.client(2).Get(hot).Then([&](const store::Buffer& b) { got = b; });
  cluster.RunAll();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), MB(6));
}

TEST(EvictionTest, PinnedPrimarySurvivesPressure) {
  auto options = Opts(2);
  options.store_capacity_bytes = MB(8);
  HopliteCluster cluster(options);
  const ObjectID primary = ObjectID::FromName("primary");
  cluster.client(0).Put(primary, store::Buffer::OfSize(MB(6)));
  cluster.RunAll();
  // Fetch replicas of other objects to pressure the store.
  for (int i = 0; i < 3; ++i) {
    const ObjectID other = ObjectID::FromName("other").WithIndex(i);
    cluster.client(1).Put(other, store::Buffer::OfSize(MB(5)));
    cluster.client(0).Get(other).Then([](const store::Buffer&) {});
    cluster.RunAll();
  }
  // The primary is pinned (§6 guarantees one fetchable copy) even though the
  // store is over-committed.
  EXPECT_TRUE(cluster.store(0).Contains(primary));
  std::optional<store::Buffer> got;
  cluster.client(1).Get(primary).Then([&](const store::Buffer& b) { got = b; });
  cluster.RunAll();
  EXPECT_TRUE(got.has_value());
}

TEST(DeleteTest, DeleteDuringActiveBroadcastDropsEverything) {
  HopliteCluster cluster(Opts(4));
  const ObjectID object = ObjectID::FromName("doomed");
  cluster.client(0).Put(object, store::Buffer::OfSize(MB(64)));
  int delivered = 0;
  for (NodeID r = 1; r < 4; ++r) {
    cluster.client(r).Get(object).Then([&](const store::Buffer&) { ++delivered; });
  }
  // Delete fires while transfers are mid-flight (64 MB takes ~55 ms).
  cluster.simulator().ScheduleAt(Milliseconds(10), [&] { cluster.client(0).Delete(object); });
  cluster.RunAll();
  // The framework contract says Delete only fires when no task references
  // the id; our concern here is purely that nothing crashes, no session
  // leaks, and the object is gone everywhere.
  for (NodeID n = 0; n < 4; ++n) {
    EXPECT_FALSE(cluster.store(n).Contains(object)) << "node " << n;
    EXPECT_EQ(cluster.client(n).active_push_sessions(), 0u) << "node " << n;
  }
  EXPECT_FALSE(cluster.directory().HasObject(object));
  EXPECT_LE(delivered, 3);
}

TEST(DeleteTest, DeleteEndsOnlyThePurgedObjectsPushSessions) {
  // Node 0 streams five objects to three receivers at once, so its push
  // sessions of the median id sit between other objects' sessions. Deleting
  // that object mid-flight must end its sessions and no others: a purge
  // that ended a neighbour's session would stall that neighbour's Gets.
  HopliteCluster cluster(Opts(4));
  std::vector<ObjectID> objects;
  for (int i = 0; i < 5; ++i) objects.push_back(ObjectID::FromName("pile").WithIndex(i));
  std::vector<ObjectID> by_value = objects;
  std::sort(by_value.begin(), by_value.end(),
            [](ObjectID a, ObjectID b) { return a.value() < b.value(); });
  const ObjectID doomed = by_value[2];
  std::map<std::uint64_t, int> delivered;
  for (const ObjectID object : objects) {
    cluster.client(0).Put(object, store::Buffer::OfSize(MB(64)));
    for (NodeID r = 1; r < 4; ++r) {
      cluster.client(r).Get(object).Then([&delivered, object](const store::Buffer& b) {
        if (b.size() == MB(64)) ++delivered[object.value()];
      });
    }
  }
  // Five 64 MB streams share node 0's NIC, so every one is still in flight.
  cluster.simulator().ScheduleAt(Milliseconds(10), [&] {
    EXPECT_GE(cluster.client(0).active_push_sessions(), objects.size());
    cluster.client(0).Delete(doomed);
  });
  cluster.RunAll();
  for (const ObjectID object : objects) {
    if (object == doomed) continue;
    EXPECT_EQ(delivered[object.value()], 3) << object;
  }
  EXPECT_EQ(delivered.count(doomed.value()), 0u);
  for (NodeID n = 0; n < 4; ++n) {
    EXPECT_FALSE(cluster.store(n).Contains(doomed)) << "node " << n;
    EXPECT_EQ(cluster.client(n).active_push_sessions(), 0u) << "node " << n;
  }
  EXPECT_FALSE(cluster.directory().HasObject(doomed));
}

TEST(ChainedReduceTest, FailureInUpstreamReducePropagatesCorrectly) {
  // total = reduce({partial, g4..g7}) where partial = reduce(g0..g3); kill
  // a contributor of the UPSTREAM reduce mid-flight; both reduces must
  // complete and the final sum must match the surviving membership.
  constexpr int kNodes = 10;  // spares for the upstream replacement
  HopliteCluster cluster(Opts(kNodes));
  constexpr std::size_t kElems = 4 * 1024 * 1024;  // 16 MB: Put takes ~1.7 ms
  std::vector<ObjectID> grads;
  for (NodeID n = 0; n < 8; ++n) {
    const ObjectID g = ObjectID::FromName("cg").WithIndex(n);
    grads.push_back(g);
    cluster.simulator().ScheduleAt(Milliseconds(10) * n, [&cluster, n, g] {
      cluster.client(n).Put(
          g, store::Buffer::FromValues(std::vector<float>(kElems, float(n) + 1)));
    });
  }
  const ObjectID partial = ObjectID::FromName("partial");
  const ObjectID total = ObjectID::FromName("total");
  std::optional<ReduceResult> first;
  std::vector<ObjectID> first_sources(grads.begin(), grads.begin() + 6);
  cluster.client(0)
      .Reduce(ReduceSpec{partial, first_sources, 4, store::ReduceOp::kSum})
      .Then([&](const ReduceResult& r) { first = r; });
  std::vector<ObjectID> second_sources{partial, grads[6], grads[7]};
  std::optional<store::Buffer> value;
  cluster.client(0).Reduce(ReduceSpec{total, second_sources, 0, store::ReduceOp::kSum});
  cluster.client(0).Get(total).Then([&](const store::Buffer& b) { value = b; });
  // Kill node 2 while its 16 MB gradient is still being Put (the worker->
  // store copy started at 20 ms and needs ~1.7 ms): its contribution cannot
  // have reached the tree, so a spare must replace it.
  cluster.simulator().ScheduleAt(Milliseconds(21), [&] { cluster.KillNode(2); });
  cluster.RunAll();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(value.has_value());
  float expected = 7 + 8;  // g6 + g7
  for (const ObjectID& id : first->reduced) {
    for (NodeID n = 0; n < 8; ++n) {
      if (id == ObjectID::FromName("cg").WithIndex(n)) expected += float(n) + 1;
    }
  }
  EXPECT_EQ(value->values().front(), expected);
  for (const ObjectID& id : first->reduced) {
    EXPECT_NE(id, ObjectID::FromName("cg").WithIndex(2));
  }
}

TEST(InlineShardTest, SmallObjectsSurviveShardNodeFailure) {
  HopliteCluster cluster(Opts(6));
  // Find an object whose home shard is node 3, then kill node 3 and check
  // the payload still serves (replicated-directory failover, §6).
  ObjectID victim_homed;
  for (int i = 0; i < 64; ++i) {
    const ObjectID candidate = ObjectID::FromName("probe").WithIndex(i);
    if (cluster.directory().ShardOf(candidate) == 3) {
      victim_homed = candidate;
      break;
    }
  }
  ASSERT_FALSE(victim_homed.IsNil());
  cluster.client(0).Put(victim_homed, store::Buffer::FromValues({1, 2, 3}));
  cluster.RunAll();
  cluster.KillNode(3);
  cluster.simulator().RunUntil(cluster.Now() + Milliseconds(200));
  std::optional<store::Buffer> got;
  cluster.client(1).Get(victim_homed).Then([&](const store::Buffer& b) { got = b; });
  cluster.RunAll();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->values(), (std::vector<float>{1, 2, 3}));
  // And a fresh inline Put routed at the dead shard also works.
  ObjectID fresh;
  for (int i = 64; i < 256; ++i) {
    const ObjectID candidate = ObjectID::FromName("probe").WithIndex(i);
    if (cluster.directory().ShardOf(candidate) == 3) {
      fresh = candidate;
      break;
    }
  }
  ASSERT_FALSE(fresh.IsNil());
  std::optional<store::Buffer> got2;
  cluster.client(2).Put(fresh, store::Buffer::FromValues({9}));
  cluster.client(4).Get(fresh).Then([&](const store::Buffer& b) { got2 = b; });
  cluster.RunAll();
  ASSERT_TRUE(got2.has_value());
  EXPECT_EQ(got2->values(), (std::vector<float>{9}));
}

TEST(HeterogeneityTest, SlowNodeDoesNotThrottleDisjointTransfers) {
  // §6 "Network Heterogeneity": our fabric supports per-node bandwidth.
  auto options = Opts(4);
  options.network.per_node_bandwidth = {Gbps(10), Gbps(10), Gbps(1), Gbps(10)};
  HopliteCluster cluster(options);
  const ObjectID fast_obj = ObjectID::FromName("fast");
  const ObjectID slow_obj = ObjectID::FromName("slow");
  SimTime fast_done = 0;
  SimTime slow_done = 0;
  cluster.client(0).Put(fast_obj, store::Buffer::OfSize(MB(64)));
  cluster.client(1).Get(fast_obj).Then([&](const store::Buffer&) {
    fast_done = cluster.Now();
  });
  cluster.client(2).Put(slow_obj, store::Buffer::OfSize(MB(64)));
  cluster.client(3).Get(slow_obj).Then([&](const store::Buffer&) {
    slow_done = cluster.Now();
  });
  cluster.RunAll();
  EXPECT_GT(fast_done, 0);
  EXPECT_GT(slow_done, 0);
  // The 1 Gbps node's transfer takes ~10x longer; the fast pair is unaffected.
  EXPECT_GT(ToSeconds(slow_done), 5 * ToSeconds(fast_done));
  EXPECT_LT(ToSeconds(fast_done), 0.1);
}

TEST(HeterogeneityTest, BroadcastCompletesOnHeterogeneousFabric) {
  auto options = Opts(6);
  options.network.per_node_bandwidth = {Gbps(10), Gbps(2), Gbps(10),
                                        Gbps(5),  Gbps(10), Gbps(2)};
  HopliteCluster cluster(options);
  const ObjectID object = ObjectID::FromName("mixed");
  cluster.client(0).Put(object, store::Buffer::OfSize(MB(32)));
  int got = 0;
  for (NodeID r = 1; r < 6; ++r) {
    cluster.client(r).Get(object).Then([&](const store::Buffer&) { ++got; });
  }
  cluster.RunAll();
  EXPECT_EQ(got, 5);
}

TEST(ConcurrentReduceTest, TwoReducesShareTheSameSources) {
  constexpr int kNodes = 6;
  HopliteCluster cluster(Opts(kNodes));
  std::vector<ObjectID> sources;
  for (NodeID n = 0; n < kNodes; ++n) {
    const ObjectID g = ObjectID::FromName("shared").WithIndex(n);
    sources.push_back(g);
    cluster.client(n).Put(
        g, store::Buffer::FromValues(std::vector<float>(65536, float(n) + 1)));
  }
  std::optional<store::Buffer> sum;
  std::optional<store::Buffer> maxv;
  cluster.client(0).Reduce(
      ReduceSpec{ObjectID::FromName("sum"), sources, 0, store::ReduceOp::kSum});
  cluster.client(1).Reduce(
      ReduceSpec{ObjectID::FromName("max"), sources, 0, store::ReduceOp::kMax});
  cluster.client(0).Get(ObjectID::FromName("sum")).Then([&](const store::Buffer& b) {
    sum = b;
  });
  cluster.client(1).Get(ObjectID::FromName("max")).Then([&](const store::Buffer& b) {
    maxv = b;
  });
  cluster.RunAll();
  ASSERT_TRUE(sum.has_value());
  ASSERT_TRUE(maxv.has_value());
  EXPECT_EQ(sum->values().front(), 21.0f);   // 1+..+6
  EXPECT_EQ(maxv->values().front(), 6.0f);
}

TEST(RejoinTest, RecoveredNodeServesAsBroadcastIntermediate) {
  HopliteCluster cluster(Opts(4));
  const ObjectID object = ObjectID::FromName("x");
  cluster.client(0).Put(object, store::Buffer::OfSize(MB(16)));
  cluster.client(1).Get(object).Then([](const store::Buffer&) {});
  cluster.RunAll();
  cluster.KillNode(1);
  cluster.simulator().RunUntil(cluster.Now() + Milliseconds(200));
  cluster.RecoverNode(1);
  // The recovered node fetches again (fresh store) and then serves node 2.
  int got = 0;
  cluster.client(1).Get(object).Then([&](const store::Buffer&) { ++got; });
  cluster.client(2).Get(object).Then([&](const store::Buffer&) { ++got; });
  cluster.client(3).Get(object).Then([&](const store::Buffer&) { ++got; });
  cluster.RunAll();
  EXPECT_EQ(got, 3);
}

TEST(StressTest, ManyRoundsOfAllreduceStayLeakFree) {
  constexpr int kNodes = 8;
  HopliteCluster cluster(Opts(kNodes));
  for (int round = 0; round < 10; ++round) {
    std::vector<ObjectID> sources;
    for (NodeID n = 0; n < kNodes; ++n) {
      const ObjectID g = ObjectID::FromName("s").WithIndex(n).WithIndex(round);
      sources.push_back(g);
      cluster.client(n).Put(g, store::Buffer::OfSize(MB(4)));
    }
    const ObjectID target = ObjectID::FromName("t").WithIndex(round);
    cluster.client(0).Reduce(ReduceSpec{target, sources, 0, store::ReduceOp::kSum});
    int got = 0;
    for (NodeID n = 0; n < kNodes; ++n) {
      cluster.client(n)
          .Get(target, GetOptions{.read_only = true})
          .Then([&](const store::Buffer&) { ++got; });
    }
    cluster.RunAll();
    ASSERT_EQ(got, kNodes) << "round " << round;
    // Garbage-collect the round.
    for (const ObjectID& g : sources) cluster.client(0).Delete(g);
    cluster.client(0).Delete(target);
    cluster.RunAll();
  }
  for (NodeID n = 0; n < kNodes; ++n) {
    EXPECT_EQ(cluster.client(n).active_reduce_sessions(), 0u) << "node " << n;
    EXPECT_EQ(cluster.client(n).active_coordinators(), 0u) << "node " << n;
    EXPECT_EQ(cluster.client(n).active_push_sessions(), 0u) << "node " << n;
    EXPECT_TRUE(cluster.store(n).ListObjects().empty()) << "node " << n;
  }
}

}  // namespace
}  // namespace hoplite::core
