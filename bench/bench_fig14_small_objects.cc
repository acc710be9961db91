// Figure 14 (Appendix A): collective latency for small objects (1 KB and
// 32 KB) on 4-16 nodes. Objects below 64 KB take Hoplite's inline
// directory fast path (§3.2), so "there is no collective communication to
// begin with" — the directory shard serves every consumer.
//
// Paper reference: Hoplite best or close to best everywhere; Gloo fastest on
// broadcast/allreduce (static peers, no lookup); Ray and Dask trail on every
// primitive.
#include <string>
#include <vector>

#include "baselines/collectives.h"
#include "baselines/ray_like.h"
#include "bench/bench_util.h"
#include "bench/registry.h"
#include "common/units.h"

namespace hoplite::bench {
namespace {

// Gloo only fields broadcast + halving-doubling allreduce in this figure
// (the paper's Appendix A panels); the other runners are the shared
// bench_util.h baselines.
double GlooOp(const std::string& op, int nodes, std::int64_t bytes) {
  sim::Simulator sim;
  const auto net = net::MakeFabric(sim, PaperCluster(nodes).network);
  baselines::GlooLikeCollectives gloo(sim, *net);
  Ref<SimTime> done;
  if (op == "broadcast") done = gloo.Broadcast(BaselineRanks(nodes), bytes);
  if (op == "allreduce") done = gloo.HalvingDoublingAllreduce(BaselineRanks(nodes), bytes);
  return FinishBaseline(sim, done);
}

std::vector<Row> Run(const RunOptions& opt) {
  std::vector<Row> rows;
  for (const std::string op : {"broadcast", "gather", "reduce", "allreduce"}) {
    for (const std::int64_t bytes : opt.ObjectSizes({KB(1), KB(32)})) {
      for (const int n : opt.NodeCounts({4, 8, 12, 16})) {
        const auto point = [&](const char* series, double seconds) {
          rows.push_back(Row{.series = series,
                             .labels = {{"op", op}},
                             .coords = {{"bytes", static_cast<double>(bytes)},
                                        {"nodes", static_cast<double>(n)}},
                             .value = seconds});
        };
        point("Hoplite (inline)",
              HopliteCollective(op, WithShards(PaperCluster(n), opt.shards), bytes));
        point("OpenMPI", MpiCollective(op, n, bytes));
        point("Ray", RayCollective(op, n, bytes, baselines::RayLikeConfig::Ray()));
        point("Dask", RayCollective(op, n, bytes, baselines::RayLikeConfig::Dask()));
        if (op == "broadcast" || op == "allreduce") {
          point("Gloo", GlooOp(op, n, bytes));
        }
      }
    }
  }
  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(fig14, "fig14",
                        "Figure 14 (Appendix A): small-object collectives (1-32 KB)",
                        Run);

}  // namespace hoplite::bench
