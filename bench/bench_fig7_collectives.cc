// Figure 7: latency of broadcast / gather / reduce / allreduce for 1 MB,
// 32 MB and 1 GB objects on 4-16 nodes, comparing Hoplite, OpenMPI, Ray,
// Dask and Gloo (broadcast + two allreduce algorithms).
//
// Paper reference shapes:
//  * Broadcast: Hoplite ~ OpenMPI best at every size; Gloo/Ray/Dask linear.
//  * Gather:    OpenMPI ~ Hoplite best (root-ingress bound).
//  * Reduce:    OpenMPI ~ Hoplite best; Ray/Dask fetch-everything.
//  * Allreduce: group (i) Hoplite >> Ray/Dask; group (ii) Gloo ring-chunked
//    fastest for large objects, Hoplite comparable to OpenMPI.
#include <string>
#include <utility>
#include <vector>

#include "baselines/collectives.h"
#include "baselines/ray_like.h"
#include "bench/bench_util.h"
#include "bench/registry.h"
#include "common/units.h"

namespace hoplite::bench {
namespace {

double GlooOp(const std::string& op, int nodes, std::int64_t bytes) {
  sim::Simulator sim;
  const auto net = net::MakeFabric(sim, PaperCluster(nodes).network);
  baselines::GlooLikeCollectives gloo(sim, *net);
  Ref<SimTime> done;
  if (op == "broadcast") done = gloo.Broadcast(BaselineRanks(nodes), bytes);
  if (op == "ring") done = gloo.RingChunkedAllreduce(BaselineRanks(nodes), bytes);
  if (op == "hd") done = gloo.HalvingDoublingAllreduce(BaselineRanks(nodes), bytes);
  return FinishBaseline(sim, done);
}

std::vector<Row> Run(const RunOptions& opt) {
  std::vector<Row> rows;
  for (const std::string op : {"broadcast", "gather", "reduce", "allreduce"}) {
    for (const std::int64_t bytes : opt.ObjectSizes({MB(1), MB(32), GB(1)})) {
      for (const int n : opt.NodeCounts({4, 8, 12, 16})) {
        const auto point = [&](const char* series, double seconds) {
          rows.push_back(Row{.series = series,
                             .labels = {{"op", op}},
                             .coords = {{"bytes", static_cast<double>(bytes)},
                                        {"nodes", static_cast<double>(n)}},
                             .value = seconds});
        };
        point("Hoplite",
              HopliteCollective(op, WithShards(PaperCluster(n), opt.shards), bytes));
        point("OpenMPI", MpiCollective(op, n, bytes));
        point("Ray", RayCollective(op, n, bytes, baselines::RayLikeConfig::Ray()));
        point("Dask", RayCollective(op, n, bytes, baselines::RayLikeConfig::Dask()));
        if (op == "broadcast") {
          point("Gloo (Broadcast)", GlooOp("broadcast", n, bytes));
        }
        if (op == "allreduce") {
          point("Gloo (Ring Chunked)", GlooOp("ring", n, bytes));
          point("Gloo (Halving Doubling)", GlooOp("hd", n, bytes));
        }
      }
    }
  }
  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(fig7, "fig7",
                        "Figure 7: collective communication latency (4-16 nodes)", Run);

}  // namespace hoplite::bench
