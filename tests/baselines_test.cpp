// Tests for the baseline collective implementations: algorithmic structure
// (trees, rings) and the timing properties the paper's comparison relies on.
#include <gtest/gtest.h>

#include "baselines/collectives.h"
#include "baselines/ray_like.h"
#include "common/units.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace hoplite::baselines {
namespace {

net::ClusterConfig NetConfig(int nodes) {
  net::ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.nic_bandwidth = Gbps(10);
  cfg.one_way_latency = Microseconds(50);
  cfg.per_message_overhead = 0;
  cfg.memcpy_bandwidth = GBps(10);
  return cfg;
}

std::vector<Participant> AllReadyAtZero(int n) {
  std::vector<Participant> parts;
  for (int i = 0; i < n; ++i) parts.push_back(Participant{static_cast<NodeID>(i), 0});
  return parts;
}

TEST(BinomialTreeTest, ParentChildStructure) {
  EXPECT_EQ(BinomialParent(1), 0);
  EXPECT_EQ(BinomialParent(2), 0);
  EXPECT_EQ(BinomialParent(3), 1);
  EXPECT_EQ(BinomialParent(4), 0);
  EXPECT_EQ(BinomialParent(5), 1);
  EXPECT_EQ(BinomialParent(6), 2);
  EXPECT_EQ(BinomialParent(7), 3);
  EXPECT_EQ(BinomialChildren(0, 8), (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(BinomialChildren(1, 8), (std::vector<int>{3, 5}));
  EXPECT_EQ(BinomialChildren(2, 8), (std::vector<int>{6}));
  EXPECT_EQ(BinomialChildren(3, 8), (std::vector<int>{7}));
  EXPECT_EQ(BinomialChildren(7, 8), (std::vector<int>{}));
}

TEST(BinomialTreeTest, EveryRankReachable) {
  for (int n : {2, 5, 16, 33}) {
    for (int i = 1; i < n; ++i) {
      // Walking parents must terminate at the root.
      int hops = 0;
      for (int p = i; p != 0; p = BinomialParent(p)) {
        ASSERT_LT(++hops, 64);
      }
    }
  }
}

TEST(MpiBroadcastTest, CompletesAndBeatsLinear) {
  sim::Simulator sim;
  net::FlatFabric net(sim, NetConfig(16));
  MpiLikeCollectives mpi(sim, net, MpiConfig{});
  bool done = false;
  SimTime done_at = 0;
  mpi.Broadcast(AllReadyAtZero(16), GB(1)).Then([&] {
    done = true;
    done_at = sim.Now();
  });
  sim.Run();
  ASSERT_TRUE(done);
  const double serial = 15 * ToSeconds(TransferTime(GB(1), Gbps(10)));
  // Segmented binomial: ~1 object time + fan-out overlap, way below linear.
  EXPECT_LT(ToSeconds(done_at), serial / 3);
  EXPECT_GT(ToSeconds(done_at), ToSeconds(TransferTime(GB(1), Gbps(10))));
}

TEST(MpiBroadcastTest, InOrderArrivalsMakePartialProgress) {
  // Receivers arriving in rank order let upstream subtrees proceed: the
  // completion time should hug (last_arrival + remaining work), not
  // (last_arrival + full broadcast).
  const std::int64_t size = GB(1);
  const SimDuration stagger = Milliseconds(300);
  sim::Simulator sim;
  net::FlatFabric net(sim, NetConfig(16));
  MpiLikeCollectives mpi(sim, net, MpiConfig{});
  std::vector<Participant> parts;
  for (int i = 0; i < 16; ++i) {
    parts.push_back(Participant{static_cast<NodeID>(i), stagger * i});
  }
  SimTime done_at = 0;
  mpi.Broadcast(parts, size).Then([&] { done_at = sim.Now(); });
  sim.Run();
  const SimTime last_arrival = stagger * 15;
  EXPECT_GT(done_at, last_arrival);
  // The leaf that arrives last still needs ~one object transfer after it
  // shows up, but not the whole tree depth.
  EXPECT_LT(done_at, last_arrival + 2 * TransferTime(size, Gbps(10)));
}

TEST(MpiReduceTest, GatesOnLastArrival) {
  const std::int64_t size = MB(64);
  sim::Simulator sim;
  net::FlatFabric net(sim, NetConfig(8));
  MpiLikeCollectives mpi(sim, net, MpiConfig{});
  auto parts = AllReadyAtZero(8);
  parts[5].ready_at = Seconds(3);  // straggler
  SimTime done_at = 0;
  mpi.Reduce(parts, size).Then([&] { done_at = sim.Now(); });
  sim.Run();
  EXPECT_GT(done_at, Seconds(3)) << "MPI reduce cannot start before all arrive (§5.1.3)";
}

TEST(MpiReduceTest, TreeReduceNearBandwidthBound) {
  sim::Simulator sim;
  net::FlatFabric net(sim, NetConfig(16));
  MpiLikeCollectives mpi(sim, net, MpiConfig{});
  SimTime done_at = 0;
  mpi.Reduce(AllReadyAtZero(16), GB(1)).Then([&] { done_at = sim.Now(); });
  sim.Run();
  const double object_time = ToSeconds(TransferTime(GB(1), Gbps(10)));
  // Binary-tree ingress: each internal node receives from <=2 children
  // (2x serialization at the root's NIC), segmented so depth overlaps.
  EXPECT_GT(ToSeconds(done_at), object_time);
  EXPECT_LT(ToSeconds(done_at), 3 * object_time);
}

TEST(MpiGatherTest, RootIngressSerializes) {
  sim::Simulator sim;
  net::FlatFabric net(sim, NetConfig(8));
  MpiLikeCollectives mpi(sim, net, MpiConfig{});
  SimTime done_at = 0;
  mpi.Gather(AllReadyAtZero(8), MB(64)).Then([&] { done_at = sim.Now(); });
  sim.Run();
  const double expected = 7 * ToSeconds(TransferTime(MB(64), Gbps(10)));
  EXPECT_NEAR(ToSeconds(done_at), expected, expected * 0.05);
}

TEST(MpiAllreduceTest, RingWithinTenPercentOfOptimal) {
  sim::Simulator sim;
  net::FlatFabric net(sim, NetConfig(16));
  MpiLikeCollectives mpi(sim, net, MpiConfig{});
  SimTime done_at = 0;
  mpi.Allreduce(AllReadyAtZero(16), GB(1)).Then([&] { done_at = sim.Now(); });
  sim.Run();
  const double optimal = 2.0 * 15 / 16 * ToSeconds(TransferTime(GB(1), Gbps(10)));
  EXPECT_GT(ToSeconds(done_at), optimal * 0.99);
  EXPECT_LT(ToSeconds(done_at), optimal * 1.15);
}

TEST(MpiAllreduceTest, SmallSizesUseLatencyBoundAlgorithm) {
  sim::Simulator sim;
  net::FlatFabric net(sim, NetConfig(16));
  MpiLikeCollectives mpi(sim, net, MpiConfig{});
  SimTime done_at = 0;
  mpi.Allreduce(AllReadyAtZero(16), KB(1)).Then([&] { done_at = sim.Now(); });
  sim.Run();
  // Recursive doubling: 4 rounds of ~latency each, well under 1 ms.
  EXPECT_LT(done_at, Milliseconds(1));
}

TEST(GlooTest, BroadcastIsLinearInReceivers) {
  sim::Simulator sim;
  net::FlatFabric net(sim, NetConfig(8));
  GlooLikeCollectives gloo(sim, net, GlooConfig{});
  SimTime done_at = 0;
  gloo.Broadcast(AllReadyAtZero(8), MB(64)).Then([&] { done_at = sim.Now(); });
  sim.Run();
  const double expected = 7 * ToSeconds(TransferTime(MB(64), Gbps(10)));
  EXPECT_NEAR(ToSeconds(done_at), expected, expected * 0.05);
}

TEST(GlooTest, RingChunkedAllreduceNearOptimal) {
  sim::Simulator sim;
  net::FlatFabric net(sim, NetConfig(16));
  GlooLikeCollectives gloo(sim, net, GlooConfig{});
  SimTime done_at = 0;
  gloo.RingChunkedAllreduce(AllReadyAtZero(16), GB(1)).Then([&] { done_at = sim.Now(); });
  sim.Run();
  const double optimal = 2.0 * 15 / 16 * ToSeconds(TransferTime(GB(1), Gbps(10)));
  EXPECT_NEAR(ToSeconds(done_at), optimal, optimal * 0.1);
}

TEST(GlooTest, HalvingDoublingCompletes) {
  for (int n : {4, 8, 16, 12}) {  // includes a non-power-of-two
    sim::Simulator sim;
    net::FlatFabric net(sim, NetConfig(n));
    GlooLikeCollectives gloo(sim, net, GlooConfig{});
    bool done = false;
    gloo.HalvingDoublingAllreduce(AllReadyAtZero(n), MB(32)).Then([&] { done = true; });
    sim.Run();
    EXPECT_TRUE(done) << "n=" << n;
  }
}

TEST(GlooTest, HalvingDoublingBeatsRingOnLatencyBoundSizes) {
  const std::int64_t size = KB(256);
  SimTime ring = 0;
  SimTime hd = 0;
  {
    sim::Simulator sim;
    net::FlatFabric net(sim, NetConfig(16));
    GlooLikeCollectives gloo(sim, net, GlooConfig{});
    gloo.RingChunkedAllreduce(AllReadyAtZero(16), size).Then([&] { ring = sim.Now(); });
    sim.Run();
  }
  {
    sim::Simulator sim;
    net::FlatFabric net(sim, NetConfig(16));
    GlooLikeCollectives gloo(sim, net, GlooConfig{});
    gloo.HalvingDoublingAllreduce(AllReadyAtZero(16), size).Then([&] { hd = sim.Now(); });
    sim.Run();
  }
  // 30 latency-bound ring steps vs 8 halving-doubling rounds.
  EXPECT_LT(hd, ring);
}

TEST(RayLikeTest, PutGetRoundTrip) {
  sim::Simulator sim;
  net::FlatFabric net(sim, NetConfig(2));
  RayLikeTransport ray(sim, net, RayLikeConfig::Ray());
  const ObjectID id = ObjectID::FromName("x");
  bool got = false;
  ray.Put(0, id, MB(64));
  ray.Get(1, id).Then([&] { got = true; });
  sim.Run();
  EXPECT_TRUE(got);
}

TEST(RayLikeTest, GetParksUntilPut) {
  sim::Simulator sim;
  net::FlatFabric net(sim, NetConfig(2));
  RayLikeTransport ray(sim, net, RayLikeConfig::Ray());
  const ObjectID id = ObjectID::FromName("x");
  SimTime got_at = 0;
  ray.Get(1, id).Then([&] { got_at = sim.Now(); });
  sim.ScheduleAt(Milliseconds(100), [&] { ray.Put(0, id, MB(1)); });
  sim.Run();
  EXPECT_GT(got_at, Milliseconds(100));
}

TEST(RayLikeTest, TransferSlowerThanRawNetwork) {
  // The effective-bandwidth model must make Ray visibly slower than the
  // wire for large objects (Figure 6c's gap).
  sim::Simulator sim;
  net::FlatFabric net(sim, NetConfig(2));
  RayLikeTransport ray(sim, net, RayLikeConfig::Ray());
  const ObjectID id = ObjectID::FromName("x");
  SimTime got_at = 0;
  ray.Put(0, id, GB(1));
  ray.Get(1, id).Then([&] { got_at = sim.Now(); });
  sim.Run();
  const double wire = ToSeconds(TransferTime(GB(1), Gbps(10)));
  EXPECT_GT(ToSeconds(got_at), wire * 1.5);
}

TEST(RayLikeTest, BroadcastSerializesAtOwner) {
  sim::Simulator sim;
  net::FlatFabric net(sim, NetConfig(8));
  RayLikeTransport ray(sim, net, RayLikeConfig::Ray());
  const ObjectID id = ObjectID::FromName("model");
  SimTime done_at = 0;
  ray.Put(0, id, MB(64));
  ray.Broadcast(id, {1, 2, 3, 4, 5, 6, 7}).Then([&] { done_at = sim.Now(); });
  sim.Run();
  // 7 full copies leave node 0's NIC back to back.
  const double lower = 7 * ToSeconds(TransferTime(MB(64), Gbps(10)));
  EXPECT_GT(ToSeconds(done_at), lower);
}

TEST(RayLikeTest, ReduceFetchesEverythingToRoot) {
  sim::Simulator sim;
  net::FlatFabric net(sim, NetConfig(8));
  RayLikeTransport ray(sim, net, RayLikeConfig::Ray());
  std::vector<ObjectID> sources;
  for (int i = 0; i < 8; ++i) {
    const ObjectID id = ObjectID::FromName("g").WithIndex(i);
    sources.push_back(id);
    ray.Put(static_cast<NodeID>(i), id, MB(64));
  }
  SimTime done_at = 0;
  ray.Reduce(0, sources, ObjectID::FromName("sum"), MB(64)).Then([&] {
    done_at = sim.Now();
  });
  sim.Run();
  EXPECT_TRUE(ray.Has(ObjectID::FromName("sum")));
  // 7 remote objects through one ingress at effective bandwidth.
  const double lower = 7 * ToSeconds(TransferTime(MB(64), Gbps(10))) / 0.55;
  EXPECT_GT(ToSeconds(done_at), lower * 0.95);
}

TEST(RayLikeTest, DaskIsSlowerThanRay) {
  const ObjectID id = ObjectID::FromName("x");
  auto run = [&](RayLikeConfig cfg) {
    sim::Simulator sim;
    net::FlatFabric net(sim, NetConfig(2));
    RayLikeTransport transport(sim, net, cfg);
    SimTime got_at = 0;
    transport.Put(0, id, MB(64));
    transport.Get(1, id).Then([&] { got_at = sim.Now(); });
    sim.Run();
    return got_at;
  };
  EXPECT_GT(run(RayLikeConfig::Dask()), run(RayLikeConfig::Ray()));
}

}  // namespace
}  // namespace hoplite::baselines
