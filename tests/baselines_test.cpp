// Tests for the baseline collective implementations: algorithmic structure
// (trees, rings) and the timing properties the paper's comparison relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

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
  cfg.one_way_latency = Microseconds(50);
  cfg.per_message_overhead = 0;
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
  MpiLikeCollectives mpi(sim, net);
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
  MpiLikeCollectives mpi(sim, net);
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
  MpiLikeCollectives mpi(sim, net);
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
  MpiLikeCollectives mpi(sim, net);
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
  MpiLikeCollectives mpi(sim, net);
  SimTime done_at = 0;
  mpi.Gather(AllReadyAtZero(8), MB(64)).Then([&] { done_at = sim.Now(); });
  sim.Run();
  const double expected = 7 * ToSeconds(TransferTime(MB(64), Gbps(10)));
  EXPECT_NEAR(ToSeconds(done_at), expected, expected * 0.05);
}

TEST(MpiAllreduceTest, RingWithinTenPercentOfOptimal) {
  sim::Simulator sim;
  net::FlatFabric net(sim, NetConfig(16));
  MpiLikeCollectives mpi(sim, net);
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
  MpiLikeCollectives mpi(sim, net);
  SimTime done_at = 0;
  mpi.Allreduce(AllReadyAtZero(16), KB(1)).Then([&] { done_at = sim.Now(); });
  sim.Run();
  // Recursive doubling: 4 rounds of ~latency each, well under 1 ms.
  EXPECT_LT(done_at, Milliseconds(1));
}

TEST(GlooTest, BroadcastIsLinearInReceivers) {
  sim::Simulator sim;
  net::FlatFabric net(sim, NetConfig(8));
  GlooLikeCollectives gloo(sim, net);
  SimTime done_at = 0;
  gloo.Broadcast(AllReadyAtZero(8), MB(64)).Then([&] { done_at = sim.Now(); });
  sim.Run();
  const double expected = 7 * ToSeconds(TransferTime(MB(64), Gbps(10)));
  EXPECT_NEAR(ToSeconds(done_at), expected, expected * 0.05);
}

TEST(GlooTest, RingChunkedAllreduceNearOptimal) {
  sim::Simulator sim;
  net::FlatFabric net(sim, NetConfig(16));
  GlooLikeCollectives gloo(sim, net);
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
    GlooLikeCollectives gloo(sim, net);
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
    GlooLikeCollectives gloo(sim, net);
    gloo.RingChunkedAllreduce(AllReadyAtZero(16), size).Then([&] { ring = sim.Now(); });
    sim.Run();
  }
  {
    sim::Simulator sim;
    net::FlatFabric net(sim, NetConfig(16));
    GlooLikeCollectives gloo(sim, net);
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
  // 7 remote objects through one ingress at effective bandwidth.
  const double lower = 7 * ToSeconds(TransferTime(MB(64), Gbps(10))) / 0.55;
  EXPECT_GT(ToSeconds(done_at), lower * 0.95);
  // The result object was stored: a later Get of it resolves.
  bool fetched = false;
  ray.Get(0, ObjectID::FromName("sum")).Then([&] { fetched = true; });
  sim.Run();
  EXPECT_TRUE(fetched);
}

TEST(RayLikeFaultTest, RejoinInsideTheDetectionDelayIsNotReportedDeadLater) {
  // Node 1 dies at 100 ms and rejoins at 150 ms, inside the 740 ms detection
  // delay: the listener hears the death at the rejoin, just before the
  // recovery, and the notice due at 840 ms stays silent.
  sim::Simulator sim;
  net::FlatFabric net(sim, NetConfig(4));
  RayLikeTransport ray(sim, net, RayLikeConfig::Ray());
  std::vector<std::pair<SimTime, bool>> heard;
  ray.ScheduleFaults({{.at = Milliseconds(100), .node = 1, .kill = true},
                      {.at = Milliseconds(150), .node = 1, .kill = false}},
                     Milliseconds(740), [&](NodeID node, bool alive) {
                       EXPECT_EQ(node, 1);
                       heard.emplace_back(sim.Now(), alive);
                     });
  sim.Run();
  const std::vector<std::pair<SimTime, bool>> expected = {{Milliseconds(150), false},
                                                          {Milliseconds(150), true}};
  EXPECT_EQ(heard, expected);
  EXPECT_FALSE(net.IsFailed(1));
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

// ----------------------------------------------------------------------
// Golden completions: the exactness oracle of the baselines. Every
// collective runs over a grid of cluster sizes, object sizes and arrival
// patterns, and each case's (op, n, bytes, staggered, completion ns) is
// folded into an FNV-1a digest pinned below. Any change to how the
// baselines schedule or complete their work must keep it bit for bit.
// ----------------------------------------------------------------------

/// One case: a fresh engine and fabric, plus the latest settle instant over
/// every ref the case tracks.
struct GoldenRun {
  sim::Simulator sim;
  net::FlatFabric net;
  int n;
  std::int64_t bytes;
  bool staggered;
  RayLikeConfig transport;
  int pending = 0;
  SimTime last = 0;

  GoldenRun(int nodes, std::int64_t size, bool stagger, RayLikeConfig config)
      : net(sim, NetConfig(nodes)),
        n(nodes),
        bytes(size),
        staggered(stagger),
        transport(config) {}

  /// Rank i's arrival: all at zero, or a permutation of 300 us steps (7 is
  /// coprime to every n of the grid).
  [[nodiscard]] SimTime ReadyAt(int i) const {
    return staggered ? Microseconds(300) * ((7 * i + 3) % n) : 0;
  }
  /// When a single-source op's object is Put: late enough to park Gets.
  [[nodiscard]] SimTime PutAt() const { return staggered ? Microseconds(900) : 0; }

  [[nodiscard]] std::vector<Participant> Ranks() const {
    std::vector<Participant> parts;
    for (int i = 0; i < n; ++i) {
      parts.push_back(Participant{static_cast<NodeID>(i), ReadyAt(i)});
    }
    return parts;
  }
  [[nodiscard]] std::vector<NodeID> Receivers() const {
    std::vector<NodeID> receivers;
    for (int i = 1; i < n; ++i) receivers.push_back(static_cast<NodeID>(i));
    return receivers;
  }

  template <typename T>
  void Track(const Ref<T>& ref) {
    ++pending;
    ref.Then([this] {
      --pending;
      last = std::max(last, sim.Now());
    });
  }

  /// Puts source i on node i at its arrival instant.
  std::vector<ObjectID> PutSources(RayLikeTransport& ray) {
    std::vector<ObjectID> sources;
    for (int i = 0; i < n; ++i) {
      const ObjectID id = ObjectID::FromName("golden-src").WithIndex(i);
      sources.push_back(id);
      sim.ScheduleAt(ReadyAt(i), [this, &ray, i, id] {
        (void)ray.Put(static_cast<NodeID>(i), id, bytes);
      });
    }
    return sources;
  }
};

const ObjectID kGoldenObject = ObjectID::FromName("golden-obj");
const ObjectID kGoldenTarget = ObjectID::FromName("golden-sum");

/// Every rank i >= 1 sends to rank 0 at its arrival.
void MpiSend(GoldenRun& run) {
  MpiLikeCollectives mpi(run.sim, run.net);
  for (int i = 1; i < run.n; ++i) {
    run.sim.ScheduleAt(run.ReadyAt(i), [&run, &mpi, i] {
      run.Track(mpi.Send(static_cast<NodeID>(i), 0, run.bytes));
    });
  }
  run.sim.Run();
}

void MpiBroadcast(GoldenRun& run) {
  MpiLikeCollectives mpi(run.sim, run.net);
  run.Track(mpi.Broadcast(run.Ranks(), run.bytes));
  run.sim.Run();
}

void MpiReduce(GoldenRun& run) {
  MpiLikeCollectives mpi(run.sim, run.net);
  run.Track(mpi.Reduce(run.Ranks(), run.bytes));
  run.sim.Run();
}

void MpiGather(GoldenRun& run) {
  MpiLikeCollectives mpi(run.sim, run.net);
  run.Track(mpi.Gather(run.Ranks(), run.bytes));
  run.sim.Run();
}

void MpiAllreduce(GoldenRun& run) {
  MpiLikeCollectives mpi(run.sim, run.net);
  run.Track(mpi.Allreduce(run.Ranks(), run.bytes));
  run.sim.Run();
}

void GlooBroadcast(GoldenRun& run) {
  GlooLikeCollectives gloo(run.sim, run.net);
  run.Track(gloo.Broadcast(run.Ranks(), run.bytes));
  run.sim.Run();
}

void GlooRingChunked(GoldenRun& run) {
  GlooLikeCollectives gloo(run.sim, run.net);
  run.Track(gloo.RingChunkedAllreduce(run.Ranks(), run.bytes));
  run.sim.Run();
}

void GlooHalvingDoubling(GoldenRun& run) {
  GlooLikeCollectives gloo(run.sim, run.net);
  run.Track(gloo.HalvingDoublingAllreduce(run.Ranks(), run.bytes));
  run.sim.Run();
}

/// Put -> parked Get: every node Gets at its arrival, the Put lands late.
void TransportPutGet(GoldenRun& run) {
  RayLikeTransport ray(run.sim, run.net, run.transport);
  for (int i = 0; i < run.n; ++i) {
    run.sim.ScheduleAt(run.ReadyAt(i), [&run, &ray, i] {
      run.Track(ray.Get(static_cast<NodeID>(i), kGoldenObject));
    });
  }
  run.sim.ScheduleAt(run.PutAt(),
                     [&run, &ray] { (void)ray.Put(0, kGoldenObject, run.bytes); });
  run.sim.Run();
}

/// Broadcast to nodes 1..n-1, so none at n = 1.
void TransportBroadcast(GoldenRun& run) {
  RayLikeTransport ray(run.sim, run.net, run.transport);
  run.sim.ScheduleAt(run.PutAt(),
                     [&run, &ray] { (void)ray.Put(0, kGoldenObject, run.bytes); });
  run.Track(ray.Broadcast(kGoldenObject, run.Receivers()));
  run.sim.Run();
}

void TransportGather(GoldenRun& run) {
  RayLikeTransport ray(run.sim, run.net, run.transport);
  run.Track(ray.Gather(0, run.PutSources(ray)));
  run.sim.Run();
}

void TransportReduce(GoldenRun& run) {
  RayLikeTransport ray(run.sim, run.net, run.transport);
  run.Track(ray.Reduce(0, run.PutSources(ray), kGoldenTarget, run.bytes));
  run.sim.Run();
}

void TransportAllreduce(GoldenRun& run) {
  RayLikeTransport ray(run.sim, run.net, run.transport);
  run.Track(
      ray.Allreduce(0, run.PutSources(ray), kGoldenTarget, run.bytes, run.Receivers()));
  run.sim.Run();
}

struct GoldenOp {
  const char* name;
  int min_nodes;
  void (*issue)(GoldenRun&);
  RayLikeConfig transport = RayLikeConfig::Ray();
};

TEST(BaselineGoldenTest, EveryCollectiveCompletionIsPinned) {
  const std::vector<GoldenOp> ops = {
      {"mpi-send", 2, &MpiSend},
      {"mpi-broadcast", 1, &MpiBroadcast},
      {"mpi-reduce", 1, &MpiReduce},
      {"mpi-gather", 2, &MpiGather},
      {"mpi-allreduce", 2, &MpiAllreduce},
      {"gloo-broadcast", 2, &GlooBroadcast},
      {"gloo-ring-chunked", 2, &GlooRingChunked},
      {"gloo-halving-doubling", 2, &GlooHalvingDoubling},
      {"ray-put-get", 1, &TransportPutGet, RayLikeConfig::Ray()},
      {"ray-broadcast", 1, &TransportBroadcast, RayLikeConfig::Ray()},
      {"ray-gather", 1, &TransportGather, RayLikeConfig::Ray()},
      {"ray-reduce", 1, &TransportReduce, RayLikeConfig::Ray()},
      {"ray-allreduce", 1, &TransportAllreduce, RayLikeConfig::Ray()},
      {"dask-put-get", 1, &TransportPutGet, RayLikeConfig::Dask()},
      {"dask-broadcast", 1, &TransportBroadcast, RayLikeConfig::Dask()},
      {"dask-gather", 1, &TransportGather, RayLikeConfig::Dask()},
      {"dask-reduce", 1, &TransportReduce, RayLikeConfig::Dask()},
      {"dask-allreduce", 1, &TransportAllreduce, RayLikeConfig::Dask()},
  };
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  auto fold = [&digest](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (word >> (8 * byte)) & 0xff;
      digest *= 0x100000001b3ULL;
    }
  };
  int cases = 0;
  for (std::size_t op = 0; op < ops.size(); ++op) {
    for (const int n : {1, 2, 3, 5, 6, 8, 12, 16}) {
      if (n < ops[op].min_nodes) continue;
      for (const std::int64_t bytes : {KB(1), MB(1), MB(48)}) {
        for (const bool staggered : {false, true}) {
          GoldenRun run(n, bytes, staggered, ops[op].transport);
          ops[op].issue(run);
          ASSERT_EQ(run.pending, 0) << ops[op].name << " n=" << n << " bytes=" << bytes
                                    << " staggered=" << staggered << " never settled";
          fold(op);
          fold(static_cast<std::uint64_t>(n));
          fold(static_cast<std::uint64_t>(bytes));
          fold(staggered ? 1 : 0);
          fold(static_cast<std::uint64_t>(run.last));
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 828);
  EXPECT_EQ(digest, 0x653ace141240399fULL) << std::hex << "digest 0x" << digest;
}

}  // namespace
}  // namespace hoplite::baselines
