// Figure 15 (Appendix B): ablation of the reduce-tree degree d in {1, 2, n}
// across object sizes (4 KB - 32 MB) and participant counts (8 - 64).
//
// Paper reference: d = n wins for small objects (latency-bound), d = 1
// (chain) wins for 16 MB+ (bandwidth-bound), and 4-8 MB mid-sizes switch
// between d = 1 and d = 2 with the participant count. Eq. (1)'s model
// prediction is reported alongside the simulated latency.
#include <vector>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "common/units.h"
#include "core/reduce_tree.h"

namespace hoplite::bench {
namespace {

double ReduceWithDegree(int nodes, std::int64_t bytes, int degree, int shards) {
  auto options = PaperCluster(nodes);
  options.engine_shards = shards;
  options.hoplite.forced_reduce_degree = degree;
  // The paper's Appendix B exercises the tree for every size; disable the
  // small-object inline path so 4-32 KB objects build real trees too.
  options.directory.inline_threshold = 1;
  core::HopliteCluster cluster(options);
  const auto ready = std::vector<SimTime>(static_cast<std::size_t>(nodes), 0);
  return FinishCollective(cluster, StartHopliteCollective("reduce", cluster, bytes, ready));
}

std::vector<Row> Run(const RunOptions& opt) {
  // Eq. (1) takes the fabric's per-hop latency and bandwidth; read them from
  // the same defaults the simulation runs on instead of restating constants.
  const net::ClusterConfig fabric;
  std::vector<Row> rows;
  for (const std::int64_t bytes :
       opt.ObjectSizes({KB(4), KB(32), KB(256), MB(1), MB(4), MB(8), MB(16), MB(32)})) {
    for (const int n : opt.NodeCounts({8, 16, 32, 48, 64})) {
      const auto point = [&](const std::string& series, double value,
                             const char* unit = "seconds") {
        rows.push_back(Row{.series = series,
                           .coords = {{"bytes", static_cast<double>(bytes)},
                                      {"nodes", static_cast<double>(n)}},
                           .value = value,
                           .unit = unit});
      };
      point("d=1", ReduceWithDegree(n, bytes, 1, opt.shards));
      point("d=2", ReduceWithDegree(n, bytes, 2, opt.shards));
      point("d=n", ReduceWithDegree(n, bytes, n, opt.shards));
      const int model_d = core::ChooseReduceDegree(
          n, ToSeconds(fabric.one_way_latency + fabric.per_message_overhead),
          net::kNicBandwidth, static_cast<double>(bytes),
          static_cast<double>(core::kChunkSize));
      point("eq1-degree", static_cast<double>(model_d), "degree");
    }
  }
  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(fig15, "fig15",
                        "Figure 15 (Appendix B): reduce latency vs tree degree d", Run);

}  // namespace hoplite::bench
