// Shared helpers for the figure-reproduction benchmarks: the paper-fabric
// cluster factory and the Hoplite collective runners the figures measure.
//
// Collective latencies follow the paper's measurement convention (§5.1.2):
// time from when the inputs are ready (or the operation starts) to when the
// last participant finishes; Get uses the read-only fast path, like the
// paper's Hoplite/Ray measurements.
//
// Runners are written against the Ref future API (core/ref.h): staggered
// starts are `At(sim, t).Then(...)` chains, and "last participant finished"
// is a `WhenAll` over the per-participant refs — no hand-rolled countdown
// state. Refs settle inline, so these runners are event-identical to their
// raw-callback predecessors.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "baselines/collectives.h"
#include "baselines/ray_like.h"
#include "common/ids.h"
#include "common/logging.h"
#include "common/units.h"
#include "core/client.h"
#include "core/cluster.h"
#include "core/ref.h"
#include "store/buffer.h"

namespace hoplite::bench {

/// Fresh cluster with the paper's fabric (10 Gbps, ~85 us RTT). The fabric
/// constants are exactly the `net::ClusterConfig` defaults and the `net`
/// bandwidth constants — only the node count varies here, so benches and
/// runtime defaults can never drift. The asserts below pin them to the
/// paper's testbed numbers.
static_assert(net::kNicBandwidth == Gbps(10));
static_assert(net::ClusterConfig{}.one_way_latency == Nanoseconds(42'500));
static_assert(net::kMemcpyBandwidth == GBps(10));
static_assert(net::ClusterConfig{}.per_message_overhead == Microseconds(5));

[[nodiscard]] inline core::HopliteCluster::Options PaperCluster(int nodes) {
  core::HopliteCluster::Options options;
  options.network.num_nodes = nodes;
  return options;
}

/// Applies the `--shards` knob (RunOptions::shards) to a cluster spec:
/// shards > 1 hosts the cluster on an owned ShardedSimulator. Results are
/// engine-independent by contract — the differential sweep enforces it.
[[nodiscard]] inline core::HopliteCluster::Options WithShards(
    core::HopliteCluster::Options options, int shards) {
  options.engine_shards = shards;
  return options;
}

/// Staggered start times: participant i becomes ready at i * interval.
[[nodiscard]] inline std::vector<SimTime> Staggered(int n, SimDuration interval) {
  std::vector<SimTime> at(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) at[static_cast<std::size_t>(i)] = interval * i;
  return at;
}

// ----------------------------------------------------------------------
// Hoplite collective runners. Each Start* runner returns a ref that settles
// when the last participant finishes; FinishCollective drains the cluster
// and turns it into the completion time in seconds (from t = 0).
// ----------------------------------------------------------------------

/// Drains the cluster and returns the settle time of `all_done` in seconds,
/// checking that every participant actually finished.
[[nodiscard]] inline double FinishCollective(
    core::HopliteCluster& cluster, const Ref<std::vector<store::Buffer>>& all_done) {
  SimTime last = 0;
  all_done.Then([&cluster, &last] { last = cluster.Now(); });
  cluster.RunAll();
  HOPLITE_CHECK(all_done.ready());
  return ToSeconds(last);
}

// The Start* runners issue a collective without driving the engine, so
// several clusters (each on its own sharded-engine domain) can be loaded
// first and then run concurrently with one engine Run(). A solo-cluster
// figure drains with FinishCollective(cluster, StartHopliteCollective(...)).

/// Broadcast: node 0 Puts at ready_at[0]; every other node Gets at its
/// ready_at. Settles when the last receiver holds the object.
[[nodiscard]] inline Ref<std::vector<store::Buffer>> StartHopliteBroadcast(
    core::HopliteCluster& cluster, std::int64_t bytes,
    const std::vector<SimTime>& ready_at) {
  const ObjectID object = ObjectID::FromName("bcast-object");
  auto& sim = cluster.simulator();
  At(sim, ready_at[0]).Then([&cluster, object, bytes] {
    cluster.client(0).Put(object, store::Buffer::OfSize(bytes));
  });
  std::vector<Ref<store::Buffer>> received;
  for (NodeID r = 1; r < cluster.num_nodes(); ++r) {
    received.push_back(
        At(sim, ready_at[static_cast<std::size_t>(r)]).Then([&cluster, r, object] {
          return cluster.client(r).Get(object, core::GetOptions{.read_only = true});
        }));
  }
  return WhenAll(received);
}

/// Gather: every node Puts at its ready_at; node 0 then Gets every object.
[[nodiscard]] inline Ref<std::vector<store::Buffer>> StartHopliteGather(
    core::HopliteCluster& cluster, std::int64_t bytes,
    const std::vector<SimTime>& ready_at) {
  auto& sim = cluster.simulator();
  std::vector<Ref<store::Buffer>> gathered;
  for (NodeID w = 1; w < cluster.num_nodes(); ++w) {
    const ObjectID object = ObjectID::FromName("gather").WithIndex(w);
    At(sim, ready_at[static_cast<std::size_t>(w)]).Then([&cluster, w, object, bytes] {
      cluster.client(w).Put(object, store::Buffer::OfSize(bytes));
    });
    gathered.push_back(
        cluster.client(0).Get(object, core::GetOptions{.read_only = true}));
  }
  return WhenAll(gathered);
}

/// Reduce: every node Puts at its ready_at; node 0 Reduces all and Gets the
/// result (read-only), per §5.1.2's measurement.
[[nodiscard]] inline Ref<std::vector<store::Buffer>> StartHopliteReduce(
    core::HopliteCluster& cluster, std::int64_t bytes,
    const std::vector<SimTime>& ready_at) {
  auto& sim = cluster.simulator();
  std::vector<ObjectID> sources;
  for (NodeID w = 0; w < cluster.num_nodes(); ++w) {
    const ObjectID object = ObjectID::FromName("reduce").WithIndex(w);
    sources.push_back(object);
    At(sim, ready_at[static_cast<std::size_t>(w)]).Then([&cluster, w, object, bytes] {
      cluster.client(w).Put(object, store::Buffer::OfSize(bytes));
    });
  }
  const ObjectID target = ObjectID::FromName("reduce-sum");
  core::ReduceSpec spec;
  spec.target = target;
  spec.sources = std::move(sources);
  cluster.client(0).Reduce(std::move(spec));
  return WhenAll(std::vector<Ref<store::Buffer>>{
      cluster.client(0).Get(target, core::GetOptions{.read_only = true})});
}

/// Allreduce: reduce at node 0 + every node Gets the result (§3.4.3).
[[nodiscard]] inline Ref<std::vector<store::Buffer>> StartHopliteAllreduce(
    core::HopliteCluster& cluster, std::int64_t bytes,
    const std::vector<SimTime>& ready_at) {
  auto& sim = cluster.simulator();
  std::vector<ObjectID> sources;
  for (NodeID w = 0; w < cluster.num_nodes(); ++w) {
    const ObjectID object = ObjectID::FromName("allreduce").WithIndex(w);
    sources.push_back(object);
    At(sim, ready_at[static_cast<std::size_t>(w)]).Then([&cluster, w, object, bytes] {
      cluster.client(w).Put(object, store::Buffer::OfSize(bytes));
    });
  }
  const ObjectID target = ObjectID::FromName("allreduce-sum");
  core::ReduceSpec spec;
  spec.target = target;
  spec.sources = std::move(sources);
  cluster.client(0).Reduce(std::move(spec));
  std::vector<Ref<store::Buffer>> received;
  for (NodeID w = 0; w < cluster.num_nodes(); ++w) {
    received.push_back(
        cluster.client(w).Get(target, core::GetOptions{.read_only = true}));
  }
  return WhenAll(received);
}


// ----------------------------------------------------------------------
// Baseline collective runners shared by the figure benches (fig7, fig14).
// `op` is one of broadcast / gather / reduce / allreduce; all participants
// are ready at t = 0. Gloo differs per figure and stays with each bench.
// ----------------------------------------------------------------------

[[nodiscard]] inline std::vector<baselines::Participant> BaselineRanks(int n) {
  std::vector<baselines::Participant> parts;
  for (int i = 0; i < n; ++i) parts.push_back({static_cast<NodeID>(i), 0});
  return parts;
}

/// A typo'd op must fail loudly, not emit a plausible 0-latency row.
inline void CheckCollectiveOp(const std::string& op) {
  HOPLITE_CHECK(op == "broadcast" || op == "gather" || op == "reduce" ||
                op == "allreduce")
      << "unknown collective op: " << op;
}

/// Drains `sim` and returns the collective ref's completion time in seconds.
[[nodiscard]] inline double FinishBaseline(sim::Simulator& sim, const Ref<SimTime>& done) {
  sim.Run();
  HOPLITE_CHECK(done.ready());
  return ToSeconds(done.value());
}

[[nodiscard]] inline double MpiCollective(const std::string& op,
                                          const net::ClusterConfig& net_config,
                                          std::int64_t bytes) {
  CheckCollectiveOp(op);
  const int nodes = net_config.num_nodes;
  sim::Simulator sim;
  const auto net = net::MakeFabric(sim, net_config);
  baselines::MpiLikeCollectives mpi(sim, *net);
  Ref<SimTime> done;
  if (op == "broadcast") done = mpi.Broadcast(BaselineRanks(nodes), bytes);
  if (op == "gather") done = mpi.Gather(BaselineRanks(nodes), bytes);
  if (op == "reduce") done = mpi.Reduce(BaselineRanks(nodes), bytes);
  if (op == "allreduce") done = mpi.Allreduce(BaselineRanks(nodes), bytes);
  return FinishBaseline(sim, done);
}

[[nodiscard]] inline double MpiCollective(const std::string& op, int nodes,
                                          std::int64_t bytes) {
  return MpiCollective(op, PaperCluster(nodes).network, bytes);
}

[[nodiscard]] inline double RayCollective(const std::string& op,
                                          const net::ClusterConfig& net_config,
                                          std::int64_t bytes,
                                          const baselines::RayLikeConfig& config) {
  CheckCollectiveOp(op);
  const int nodes = net_config.num_nodes;
  sim::Simulator sim;
  const auto net = net::MakeFabric(sim, net_config);
  baselines::RayLikeTransport transport(sim, *net, config);
  std::vector<ObjectID> sources;
  std::vector<NodeID> receivers;
  for (int i = 0; i < nodes; ++i) {
    sources.push_back(ObjectID::FromName("src").WithIndex(i));
    if (i > 0) receivers.push_back(static_cast<NodeID>(i));
  }
  const ObjectID target = ObjectID::FromName("result");
  SimTime done = 0;
  if (op == "broadcast") {
    transport.Put(0, sources[0], bytes).Then([&] {
      transport.Broadcast(sources[0], receivers).Then([&](SimTime t) { done = t; });
    });
  } else {
    for (int i = 0; i < nodes; ++i) {
      transport.Put(static_cast<NodeID>(i), sources[static_cast<std::size_t>(i)], bytes);
    }
    const auto record = [&](const Ref<SimTime>& op_done) {
      op_done.Then([&](SimTime t) { done = t; });
    };
    if (op == "gather") record(transport.Gather(0, sources));
    if (op == "reduce") record(transport.Reduce(0, sources, target, bytes));
    if (op == "allreduce") {
      record(transport.Allreduce(0, sources, target, bytes, receivers));
    }
  }
  sim.Run();
  return ToSeconds(done);
}

[[nodiscard]] inline double RayCollective(const std::string& op, int nodes,
                                          std::int64_t bytes,
                                          const baselines::RayLikeConfig& config) {
  return RayCollective(op, PaperCluster(nodes).network, bytes, config);
}

/// Issues `op` on a loaded-but-undriven cluster (see the Start* runners):
/// nothing executes until the cluster's engine is driven, so several
/// clusters on one sharded engine can be loaded first and run concurrently.
[[nodiscard]] inline Ref<std::vector<store::Buffer>> StartHopliteCollective(
    const std::string& op, core::HopliteCluster& cluster, std::int64_t bytes,
    const std::vector<SimTime>& ready_at) {
  CheckCollectiveOp(op);
  if (op == "broadcast") return StartHopliteBroadcast(cluster, bytes, ready_at);
  if (op == "gather") return StartHopliteGather(cluster, bytes, ready_at);
  if (op == "reduce") return StartHopliteReduce(cluster, bytes, ready_at);
  return StartHopliteAllreduce(cluster, bytes, ready_at);
}

[[nodiscard]] inline double HopliteCollective(const std::string& op,
                                              const core::HopliteCluster::Options& options,
                                              std::int64_t bytes) {
  core::HopliteCluster cluster(options);
  const auto ready =
      std::vector<SimTime>(static_cast<std::size_t>(cluster.num_nodes()), 0);
  return FinishCollective(cluster, StartHopliteCollective(op, cluster, bytes, ready));
}

[[nodiscard]] inline double HopliteCollective(const std::string& op, int nodes,
                                              std::int64_t bytes) {
  return HopliteCollective(op, PaperCluster(nodes), bytes);
}

}  // namespace hoplite::bench
