// pipeline_dag: a 4-stage pipeline-parallel workload written directly
// against the Ref combinators — the multi-stage DAG scenario the future API
// exists for (ROADMAP: "opens a new workload").
//
// Topology: stage s runs on node s (4 stages). Microbatch m flows through
// the stages in order; each stage processes its microbatches sequentially.
// Stage s for microbatch m is one Then chain:
//
//   free(s, m-1) -> Get activation(s-1, m) -> compute -> Put activation(s, m)
//
// with the stage-serialization edge and the data edge both expressed as
// refs (the Get simply parks until the upstream Put publishes). The figure
// reports end-to-end latency (WhenAll over the last stage's outputs) for
// Hoplite vs the Ray-like baseline across activation sizes and microbatch
// counts: Hoplite overlaps the activation transfer with the upstream copy
// (partial locations, §3.3) while Ray serializes store-copy -> transfer ->
// store-copy per hop, so the pipeline bubble per microbatch is larger.
#include <string>
#include <vector>

#include "baselines/ray_like.h"
#include "bench/bench_util.h"
#include "bench/registry.h"
#include "common/units.h"
#include "core/ref.h"

namespace hoplite::bench {
namespace {

constexpr int kStages = 4;

[[nodiscard]] ObjectID ActivationId(int stage, int micro) {
  return ObjectID::FromName("act").WithIndex(stage).WithIndex(micro);
}

/// Per-stage compute: sized against the wire time of one activation so the
/// pipeline is neither pure-compute nor pure-network.
[[nodiscard]] SimDuration StageCompute(std::int64_t bytes) {
  return TransferTime(bytes, net::kNicBandwidth) / 2;
}

double HoplitePipeline(int microbatches, std::int64_t bytes, int shards) {
  core::HopliteCluster cluster(WithShards(PaperCluster(kStages), shards));
  auto& sim = cluster.simulator();
  const SimDuration compute = StageCompute(bytes);

  // done[s][m]: stage s's output for microbatch m is stored on node s.
  std::vector<std::vector<Ref<ObjectID>>> done(
      kStages, std::vector<Ref<ObjectID>>(static_cast<std::size_t>(microbatches)));
  for (int m = 0; m < microbatches; ++m) {
    for (int s = 0; s < kStages; ++s) {
      const NodeID node = static_cast<NodeID>(s);
      // Stage-serialization edge: this stage's previous microbatch.
      Ref<Unit> free = m == 0 ? After(sim, 0)
                              : done[static_cast<std::size_t>(s)][static_cast<std::size_t>(
                                         m - 1)]
                                    .Then([](const ObjectID&) {});
      // Data edge: for s > 0, fetch the upstream activation once free (the
      // Get parks until the producer publishes, then streams pipelined).
      Ref<Unit> input =
          s == 0 ? std::move(free)
                 : free.Then([&cluster, node, s, m] {
                         return cluster.client(node).Get(
                             ActivationId(s - 1, m),
                             core::GetOptions{.read_only = true});
                       }).Then([](const store::Buffer&) {});
      done[static_cast<std::size_t>(s)][static_cast<std::size_t>(m)] =
          input.Then([&sim, compute] { return After(sim, compute); })
              .Then([&cluster, node, s, m, bytes] {
                return cluster.client(node).Put(ActivationId(s, m),
                                                store::Buffer::OfSize(bytes));
              });
    }
  }
  SimTime finished = 0;
  WhenAll(done[kStages - 1]).Then([&cluster, &finished] { finished = cluster.Now(); });
  cluster.RunAll();
  HOPLITE_CHECK_GT(finished, 0);
  return ToSeconds(finished);
}

double RayPipeline(int microbatches, std::int64_t bytes,
                   const baselines::RayLikeConfig& config) {
  sim::Simulator sim;
  const auto net = net::MakeFabric(sim, PaperCluster(kStages).network);
  baselines::RayLikeTransport transport(sim, *net, config);
  const SimDuration compute = StageCompute(bytes);

  std::vector<std::vector<Ref<ObjectID>>> done(
      kStages, std::vector<Ref<ObjectID>>(static_cast<std::size_t>(microbatches)));
  for (int m = 0; m < microbatches; ++m) {
    for (int s = 0; s < kStages; ++s) {
      const NodeID node = static_cast<NodeID>(s);
      Ref<Unit> free = m == 0 ? After(sim, 0)
                              : done[static_cast<std::size_t>(s)][static_cast<std::size_t>(
                                         m - 1)]
                                    .Then([](const ObjectID&) {});
      Ref<Unit> input =
          s == 0 ? std::move(free)
                 : free.Then([&transport, node, s, m] {
                         return transport.Get(node, ActivationId(s - 1, m));
                       }).Then([](const ObjectID&) {});
      done[static_cast<std::size_t>(s)][static_cast<std::size_t>(m)] =
          input.Then([&sim, compute] { return After(sim, compute); })
              .Then([&transport, node, s, m, bytes] {
                return transport.Put(node, ActivationId(s, m), bytes);
              });
    }
  }
  SimTime finished = 0;
  WhenAll(done[kStages - 1]).Then([&sim, &finished] { finished = sim.Now(); });
  sim.Run();
  HOPLITE_CHECK_GT(finished, 0);
  return ToSeconds(finished);
}

std::vector<Row> Run(const RunOptions& opt) {
  std::vector<Row> rows;
  std::vector<int> microbatch_counts;
  for (const int micro : {4, 8, 16}) {
    const int clamped = opt.Rounds(micro);
    if (microbatch_counts.empty() || microbatch_counts.back() != clamped) {
      microbatch_counts.push_back(clamped);
    }
  }
  for (const std::int64_t bytes : opt.ObjectSizes({MB(4), MB(16), MB(64)})) {
    for (const int micro : microbatch_counts) {
      const auto point = [&](const char* series, double seconds) {
        rows.push_back(Row{.series = series,
                           .coords = {{"bytes", static_cast<double>(bytes)},
                                      {"microbatches", static_cast<double>(micro)}},
                           .value = seconds});
      };
      point("Hoplite", HoplitePipeline(micro, bytes, opt.shards));
      point("Ray", RayPipeline(micro, bytes, baselines::RayLikeConfig::Ray()));
      point("Dask", RayPipeline(micro, bytes, baselines::RayLikeConfig::Dask()));
    }
  }
  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(pipeline_dag, "pipeline_dag",
                        "Pipeline-parallel 4-stage DAG via Ref combinators "
                        "(Hoplite vs Ray/Dask)",
                        Run);

}  // namespace hoplite::bench
