// §4 sanity check: the runtime's adaptive degree choice (Eq. 1 over
// d in {1, 2, n}) should track the empirically best degree.
//
// For every (size, nodes) cell we simulate all three forced degrees plus the
// adaptive runtime and report the adaptive/best ratio; the run is healthy
// when every ratio stays within 10% of 1.
#include <algorithm>
#include <vector>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "common/units.h"

namespace hoplite::bench {
namespace {

double ReduceWith(int nodes, std::int64_t bytes, int degree /* 0 = adaptive */,
                  int shards) {
  auto options = PaperCluster(nodes);
  options.engine_shards = shards;
  options.hoplite.forced_reduce_degree = degree;
  options.directory.inline_threshold = 1;  // force the tree path for all sizes
  core::HopliteCluster cluster(options);
  const auto ready = std::vector<SimTime>(static_cast<std::size_t>(nodes), 0);
  return FinishCollective(cluster, StartHopliteCollective("reduce", cluster, bytes, ready));
}

std::vector<Row> Run(const RunOptions& opt) {
  std::vector<Row> rows;
  int cells = 0;
  int good = 0;
  for (const std::int64_t bytes : opt.ObjectSizes({KB(128), MB(1), MB(8), MB(64)})) {
    for (const int nodes : opt.NodeCounts({8, 16, 32})) {
      const double adaptive = ReduceWith(nodes, bytes, 0, opt.shards);
      double best = ReduceWith(nodes, bytes, 1, opt.shards);
      for (const int d : {2, nodes}) {
        best = std::min(best, ReduceWith(nodes, bytes, d, opt.shards));
      }
      const double ratio = best > 0 ? adaptive / best : 0.0;
      ++cells;
      good += ratio < 1.10 ? 1 : 0;
      const std::vector<std::pair<std::string, double>> cell{
          {"bytes", static_cast<double>(bytes)}, {"nodes", static_cast<double>(nodes)}};
      rows.push_back(Row{.series = "adaptive", .coords = cell, .value = adaptive});
      rows.push_back(Row{.series = "best-forced", .coords = cell, .value = best});
      rows.push_back(
          Row{.series = "ratio", .coords = cell, .value = ratio, .unit = "ratio"});
    }
  }
  rows.push_back(Row{.series = "cells-within-10pct",
                     .coords = {{"cells", static_cast<double>(cells)}},
                     .value = static_cast<double>(good),
                     .unit = "count"});
  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(adaptive_d, "adaptive-d",
                        "Adaptive reduce degree vs best forced degree (Eq. 1 check)",
                        Run);

}  // namespace hoplite::bench
