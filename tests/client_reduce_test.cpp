// Integration tests for the Reduce protocol (§3.4.2) and its fault-tolerance
// behaviour (§3.5.2) on a simulated cluster.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/client.h"
#include "core/cluster.h"

namespace hoplite::core {
namespace {

HopliteCluster::Options TestOptions(int nodes, int forced_degree = 0) {
  HopliteCluster::Options options;
  options.network.num_nodes = nodes;
  options.network.one_way_latency = Microseconds(50);
  options.network.per_message_overhead = Microseconds(5);
  options.network.failure_detection_delay = Milliseconds(100);
  options.hoplite.forced_reduce_degree = forced_degree;
  return options;
}

/// A float vector of `n` elements, all equal to `value`.
std::vector<float> Constant(std::size_t n, float value) {
  return std::vector<float>(n, value);
}

/// Puts one valued gradient per node (node i holds value i+1), at the given
/// times, and returns the source ids.
std::vector<ObjectID> PutGradients(HopliteCluster& cluster, std::size_t elements,
                                   const std::vector<SimDuration>& at = {}) {
  std::vector<ObjectID> sources;
  for (NodeID n = 0; n < cluster.num_nodes(); ++n) {
    const ObjectID id = ObjectID::FromName("grad").WithIndex(n);
    sources.push_back(id);
    auto do_put = [&cluster, n, id, elements] {
      cluster.client(n).Put(id,
                            store::Buffer::FromValues(Constant(elements, float(n) + 1)));
    };
    if (at.empty()) {
      do_put();
    } else {
      cluster.simulator().ScheduleAt(at[static_cast<std::size_t>(n)], do_put);
    }
  }
  return sources;
}

// The sum of values 1..n.
float SumTo(int n) { return static_cast<float>(n) * (n + 1) / 2.0f; }

class ReduceDegreeTest : public ::testing::TestWithParam<int> {};

TEST_P(ReduceDegreeTest, FullReduceSumsAllSources) {
  constexpr int kNodes = 8;
  constexpr std::size_t kElems = 64 * 1024;  // 256 KB objects
  HopliteCluster cluster(TestOptions(kNodes, GetParam()));
  const auto sources = PutGradients(cluster, kElems);
  const ObjectID target = ObjectID::FromName("sum");
  std::optional<ReduceResult> result;
  std::optional<store::Buffer> value;
  cluster.client(0)
      .Reduce(ReduceSpec{target, sources, 0, store::ReduceOp::kSum})
      .Then([&](const ReduceResult& r) { result = r; });
  cluster.client(0).Get(target).Then([&](const store::Buffer& b) { value = b; });
  cluster.RunAll();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->reduced.size(), 8u);
  EXPECT_TRUE(result->unreduced.empty());
  ASSERT_TRUE(value.has_value());
  ASSERT_TRUE(value->has_values());
  EXPECT_EQ(value->values()[0], SumTo(kNodes));
  EXPECT_EQ(value->values()[kElems - 1], SumTo(kNodes));
}

INSTANTIATE_TEST_SUITE_P(AllDegrees, ReduceDegreeTest,
                         ::testing::Values(1, 2, 3, 8),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param);
                         });

TEST(ReduceTest, SubsetReduceTakesEarliestArrivals) {
  constexpr int kNodes = 8;
  HopliteCluster cluster(TestOptions(kNodes, 2));
  // Node i puts at time i*10ms; reduce 4 of 8 -> earliest four (values 1..4).
  std::vector<SimDuration> at;
  for (int i = 0; i < kNodes; ++i) at.push_back(Milliseconds(10) * i);
  const auto sources = PutGradients(cluster, 64 * 1024, at);
  const ObjectID target = ObjectID::FromName("sum4");
  std::optional<ReduceResult> result;
  std::optional<store::Buffer> value;
  cluster.client(0)
      .Reduce(ReduceSpec{target, sources, 4, store::ReduceOp::kSum})
      .Then([&](const ReduceResult& r) { result = r; });
  cluster.client(0).Get(target).Then([&](const store::Buffer& b) { value = b; });
  cluster.RunAll();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->reduced.size(), 4u);
  EXPECT_EQ(result->unreduced.size(), 4u);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->values()[0], SumTo(4));  // 1+2+3+4
}

TEST(ReduceTest, ArrivalOrderDoesNotAffectFullSum) {
  constexpr int kNodes = 7;
  Rng rng(2024);
  for (int trial = 0; trial < 5; ++trial) {
    HopliteCluster cluster(TestOptions(kNodes, 2));
    std::vector<SimDuration> at;
    for (int i = 0; i < kNodes; ++i) at.push_back(Milliseconds(5) * i);
    rng.Shuffle(at);
    const auto sources = PutGradients(cluster, 16 * 1024, at);
    const ObjectID target = ObjectID::FromName("t").WithIndex(trial);
    std::optional<store::Buffer> value;
    cluster.client(3).Reduce(ReduceSpec{target, sources, 0, store::ReduceOp::kSum});
    cluster.client(3).Get(target).Then([&](const store::Buffer& b) { value = b; });
    cluster.RunAll();
    ASSERT_TRUE(value.has_value()) << "trial " << trial;
    EXPECT_EQ(value->values()[0], SumTo(kNodes)) << "trial " << trial;
  }
}

TEST(ReduceTest, MinAndMaxOperations) {
  constexpr int kNodes = 4;
  HopliteCluster cluster(TestOptions(kNodes, kNodes));
  const auto sources = PutGradients(cluster, 32 * 1024);
  std::optional<store::Buffer> min_value;
  std::optional<store::Buffer> max_value;
  cluster.client(0).Reduce(
      ReduceSpec{ObjectID::FromName("min"), sources, 0, store::ReduceOp::kMin});
  cluster.client(1).Reduce(
      ReduceSpec{ObjectID::FromName("max"), sources, 0, store::ReduceOp::kMax});
  cluster.client(0).Get(ObjectID::FromName("min")).Then([&](const store::Buffer& b) {
    min_value = b;
  });
  cluster.client(1).Get(ObjectID::FromName("max")).Then([&](const store::Buffer& b) {
    max_value = b;
  });
  cluster.RunAll();
  ASSERT_TRUE(min_value.has_value());
  ASSERT_TRUE(max_value.has_value());
  EXPECT_EQ(min_value->values()[0], 1.0f);
  EXPECT_EQ(max_value->values()[0], 4.0f);
}

TEST(ReduceTest, SingleSourceReduceIsACopy) {
  HopliteCluster cluster(TestOptions(2));
  const ObjectID src = ObjectID::FromName("only");
  cluster.client(1).Put(src, store::Buffer::FromValues(Constant(65536, 7.0f)));
  const ObjectID target = ObjectID::FromName("copy");
  std::optional<store::Buffer> value;
  cluster.client(0).Reduce(ReduceSpec{target, {src}, 0, store::ReduceOp::kSum});
  cluster.client(0).Get(target).Then([&](const store::Buffer& b) { value = b; });
  cluster.RunAll();
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->values()[0], 7.0f);
}

TEST(ReduceTest, SmallObjectsUseInlineFastPath) {
  constexpr int kNodes = 6;
  HopliteCluster cluster(TestOptions(kNodes));
  const auto sources = PutGradients(cluster, 64);  // 256 B objects -> inline
  const ObjectID target = ObjectID::FromName("tinysum");
  std::optional<ReduceResult> result;
  std::optional<store::Buffer> value;
  cluster.client(2)
      .Reduce(ReduceSpec{target, sources, 0, store::ReduceOp::kSum})
      .Then([&](const ReduceResult& r) { result = r; });
  cluster.client(2).Get(target).Then([&](const store::Buffer& b) { value = b; });
  cluster.RunAll();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->reduced.size(), 6u);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->values()[0], SumTo(kNodes));
  // The result itself went inline: no store entry for it.
  EXPECT_TRUE(cluster.directory().IsInline(target));
}

TEST(ReduceTest, ChainedReducePipelinesThroughIntermediateTarget) {
  // reduce(grads[0..3]) -> partial; reduce({partial, grads[4..7]}) -> total.
  constexpr int kNodes = 8;
  HopliteCluster cluster(TestOptions(kNodes, 2));
  const auto sources = PutGradients(cluster, 64 * 1024);
  const ObjectID partial = ObjectID::FromName("partial");
  const ObjectID total = ObjectID::FromName("total");
  std::vector<ObjectID> first(sources.begin(), sources.begin() + 4);
  std::vector<ObjectID> second{partial};
  second.insert(second.end(), sources.begin() + 4, sources.end());
  std::optional<store::Buffer> value;
  cluster.client(0).Reduce(ReduceSpec{partial, first, 0, store::ReduceOp::kSum});
  cluster.client(0).Reduce(ReduceSpec{total, second, 0, store::ReduceOp::kSum});
  cluster.client(0).Get(total).Then([&](const store::Buffer& b) { value = b; });
  cluster.RunAll();
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->values()[0], SumTo(kNodes));
}

TEST(ReduceTest, AllReduceViaReduceThenBroadcast) {
  constexpr int kNodes = 8;
  HopliteCluster cluster(TestOptions(kNodes, 2));
  const auto sources = PutGradients(cluster, 64 * 1024);
  const ObjectID target = ObjectID::FromName("allreduce");
  int got = 0;
  cluster.client(0).Reduce(ReduceSpec{target, sources, 0, store::ReduceOp::kSum});
  for (NodeID n = 0; n < kNodes; ++n) {
    cluster.client(n).Get(target).Then([&, n](const store::Buffer& b) {
      EXPECT_EQ(b.values()[0], SumTo(kNodes)) << "node " << n;
      ++got;
    });
  }
  cluster.RunAll();
  EXPECT_EQ(got, kNodes);
}

TEST(ReduceTest, AdaptiveDegreePicksStarForSmallStoreObjects) {
  // 128 KB objects: above the inline threshold but S/B << L*log(n).
  constexpr int kNodes = 8;
  HopliteCluster cluster(TestOptions(kNodes, /*forced=*/0));
  const auto sources = PutGradients(cluster, 32 * 1024);  // 128 KB
  const ObjectID target = ObjectID::FromName("sum");
  std::optional<store::Buffer> value;
  cluster.client(0).Reduce(ReduceSpec{target, sources, 0, store::ReduceOp::kSum});
  cluster.client(0).Get(target).Then([&](const store::Buffer& b) { value = b; });
  cluster.RunAll();
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->values()[0], SumTo(kNodes));
}

TEST(ReduceTest, ChainReduceLatencyNearBandwidthBound) {
  // d=1 over n nodes with pipelining: ~ n*L + S/B, NOT n*S/B (§3.4.2).
  constexpr int kNodes = 8;
  HopliteCluster cluster(TestOptions(kNodes, 1));
  const std::int64_t size = MB(256);
  std::vector<ObjectID> sources;
  for (NodeID n = 0; n < kNodes; ++n) {
    const ObjectID id = ObjectID::FromName("g").WithIndex(n);
    sources.push_back(id);
    cluster.client(n).Put(id, store::Buffer::OfSize(size));
  }
  const ObjectID target = ObjectID::FromName("sum");
  SimTime start = 0;
  SimTime done = 0;
  start = cluster.Now();
  std::optional<store::Buffer> value;
  cluster.client(0).Reduce(ReduceSpec{target, sources, 0, store::ReduceOp::kSum});
  cluster.client(0)
      .Get(target, GetOptions{.read_only = true})
      .Then([&](const store::Buffer& b) {
        value = b;
        done = cluster.Now();
      });
  cluster.RunAll();
  ASSERT_TRUE(value.has_value());
  const double bound = ToSeconds(TransferTime(size, Gbps(10)));
  EXPECT_LT(ToSeconds(done - start), bound * 1.3)
      << "chain reduce should pay the bandwidth term roughly once";
  EXPECT_GT(ToSeconds(done - start), bound);
}

// ----------------------------------------------------------------------
// Fault tolerance (§3.5.2)
// ----------------------------------------------------------------------

TEST(ReduceFaultTest, FailedLeafIsReplacedByNextReadyObject) {
  // 10 sources, reduce 6. Kill one of the 6 earliest mid-reduce; one of the
  // 4 spares must take its position and the sum must reflect the final tree.
  constexpr int kNodes = 10;
  HopliteCluster cluster(TestOptions(kNodes, 2));
  constexpr std::size_t kElems = 1024 * 1024;  // 4 MB objects
  std::vector<SimDuration> at;
  for (int i = 0; i < kNodes; ++i) at.push_back(Milliseconds(20) * i);
  const auto sources = PutGradients(cluster, kElems, at);
  const ObjectID target = ObjectID::FromName("sum");
  std::optional<ReduceResult> result;
  std::optional<store::Buffer> value;
  // Start the reduce at t=0; first 6 arrivals are nodes 0..5.
  cluster.client(0)
      .Reduce(ReduceSpec{target, sources, 6, store::ReduceOp::kSum})
      .Then([&](const ReduceResult& r) { result = r; });
  cluster.client(0).Get(target).Then([&](const store::Buffer& b) { value = b; });
  // Kill node 3 after its object arrived but before the reduce can finish
  // (node 9 only puts at 180 ms, so the tree is still waiting).
  cluster.simulator().ScheduleAt(Milliseconds(70), [&] { cluster.KillNode(3); });
  cluster.RunAll();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(result->reduced.size(), 6u);
  // Node 3's gradient (value 4) must NOT be in the sum; exactly 6 of the
  // others must be. The replacement is the next arrival (node 6, value 7).
  float expected = 0;
  for (const ObjectID& id : result->reduced) {
    for (NodeID n = 0; n < kNodes; ++n) {
      if (id == ObjectID::FromName("grad").WithIndex(n)) expected += float(n) + 1;
    }
  }
  EXPECT_EQ(value->values()[0], expected);
  EXPECT_EQ(value->values()[kElems - 1], expected);
  for (const ObjectID& id : result->reduced) {
    EXPECT_NE(id, ObjectID::FromName("grad").WithIndex(3))
        << "failed node's object must not be reduced";
  }
}

TEST(ReduceFaultTest, FailureWaitsForRejoinWhenNoSpareExists) {
  // Reduce all 4 of 4 sources; kill node 2 mid-reduce; the reduce must stall
  // (not crash), then complete after node 2 rejoins and re-puts.
  constexpr int kNodes = 4;
  HopliteCluster cluster(TestOptions(kNodes, 2));
  constexpr std::size_t kElems = 1024 * 1024;
  const auto sources = PutGradients(cluster, kElems);
  const ObjectID target = ObjectID::FromName("sum");
  std::optional<store::Buffer> value;
  cluster.client(0).Reduce(ReduceSpec{target, sources, 0, store::ReduceOp::kSum});
  cluster.client(0).Get(target).Then([&](const store::Buffer& b) { value = b; });
  cluster.simulator().ScheduleAt(Milliseconds(1), [&] { cluster.KillNode(2); });
  cluster.simulator().ScheduleAt(Seconds(2), [&] {
    cluster.RecoverNode(2);
    // Lineage reconstruction re-runs the task that produced the gradient.
    cluster.client(2).Put(ObjectID::FromName("grad").WithIndex(2),
                          store::Buffer::FromValues(Constant(kElems, 3.0f)));
  });
  cluster.RunAll();
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->values()[0], SumTo(kNodes));
  EXPECT_GT(cluster.Now(), Seconds(2));  // really waited for the rejoin
}

TEST(ReduceFaultTest, FailedInternalNodeClearsAncestorsOnly) {
  // Build a chain (d=1) of 6; kill the host in the middle. All ancestors
  // (positions above it) must recompute; the final sum must use the
  // replacement object.
  constexpr int kNodes = 8;  // 6 in tree, 2 spares
  HopliteCluster cluster(TestOptions(kNodes, 1));
  constexpr std::size_t kElems = 1024 * 1024;
  std::vector<SimDuration> at;
  for (int i = 0; i < kNodes; ++i) at.push_back(Milliseconds(10) * i);
  const auto sources = PutGradients(cluster, kElems, at);
  const ObjectID target = ObjectID::FromName("sum");
  std::optional<ReduceResult> result;
  std::optional<store::Buffer> value;
  cluster.client(7)
      .Reduce(ReduceSpec{target, sources, 6, store::ReduceOp::kSum})
      .Then([&](const ReduceResult& r) { result = r; });
  cluster.client(7).Get(target).Then([&](const store::Buffer& b) { value = b; });
  cluster.simulator().ScheduleAt(Milliseconds(35), [&] { cluster.KillNode(1); });
  cluster.RunAll();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(value.has_value());
  float expected = 0;
  for (const ObjectID& id : result->reduced) {
    for (NodeID n = 0; n < kNodes; ++n) {
      if (id == ObjectID::FromName("grad").WithIndex(n)) expected += float(n) + 1;
    }
  }
  EXPECT_EQ(result->reduced.size(), 6u);
  EXPECT_EQ(value->values()[0], expected);
}

TEST(ReduceFaultTest, MultipleFailuresDuringOneReduce) {
  constexpr int kNodes = 12;
  HopliteCluster cluster(TestOptions(kNodes, 2));
  constexpr std::size_t kElems = 512 * 1024;  // 2 MB
  std::vector<SimDuration> at;
  for (int i = 0; i < kNodes; ++i) at.push_back(Milliseconds(15) * i);
  const auto sources = PutGradients(cluster, kElems, at);
  const ObjectID target = ObjectID::FromName("sum");
  std::optional<ReduceResult> result;
  std::optional<store::Buffer> value;
  cluster.client(0)
      .Reduce(ReduceSpec{target, sources, 8, store::ReduceOp::kSum})
      .Then([&](const ReduceResult& r) { result = r; });
  cluster.client(0).Get(target).Then([&](const store::Buffer& b) { value = b; });
  cluster.simulator().ScheduleAt(Milliseconds(40), [&] { cluster.KillNode(2); });
  cluster.simulator().ScheduleAt(Milliseconds(90), [&] { cluster.KillNode(5); });
  cluster.RunAll();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(value.has_value());
  float expected = 0;
  for (const ObjectID& id : result->reduced) {
    for (NodeID n = 0; n < kNodes; ++n) {
      if (id == ObjectID::FromName("grad").WithIndex(n)) expected += float(n) + 1;
    }
  }
  EXPECT_EQ(result->reduced.size(), 8u);
  EXPECT_EQ(value->values()[0], expected);
  for (const ObjectID& id : result->reduced) {
    EXPECT_NE(id, ObjectID::FromName("grad").WithIndex(2));
    EXPECT_NE(id, ObjectID::FromName("grad").WithIndex(5));
  }
}

TEST(ReduceFaultTest, SessionsAreTornDownAfterCompletion) {
  constexpr int kNodes = 6;
  HopliteCluster cluster(TestOptions(kNodes, 2));
  const auto sources = PutGradients(cluster, 64 * 1024);
  const ObjectID target = ObjectID::FromName("sum");
  cluster.client(0).Reduce(ReduceSpec{target, sources, 0, store::ReduceOp::kSum});
  cluster.RunAll();
  for (NodeID n = 0; n < kNodes; ++n) {
    EXPECT_EQ(cluster.client(n).active_reduce_sessions(), 0u) << "node " << n;
    EXPECT_EQ(cluster.client(n).active_coordinators(), 0u) << "node " << n;
  }
}

}  // namespace
}  // namespace hoplite::core
