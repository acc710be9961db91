// Figure 8: latency of a 1 GB broadcast / reduce / allreduce on 16 nodes
// when participants arrive sequentially with a fixed interval (0 .. 0.3 s).
//
// Paper reference: Hoplite's dynamic schedules make progress as participants
// arrive, so its latency hugs (last-arrival + remaining work). OpenMPI's
// broadcast makes progress only along static rank order; its reduce and
// allreduce (and Gloo's) cannot start until the last participant is ready.
#include <string>
#include <vector>

#include "baselines/collectives.h"
#include "bench/bench_util.h"
#include "bench/registry.h"
#include "common/units.h"

namespace hoplite::bench {
namespace {

std::vector<baselines::Participant> StaggeredRanks(int nodes, SimDuration interval) {
  std::vector<baselines::Participant> parts;
  for (int i = 0; i < nodes; ++i) {
    parts.push_back({static_cast<NodeID>(i), interval * i});
  }
  return parts;
}

double MpiOp(const std::string& op, int nodes, std::int64_t bytes, SimDuration interval) {
  sim::Simulator sim;
  const auto net = net::MakeFabric(sim, PaperCluster(nodes).network);
  baselines::MpiLikeCollectives mpi(sim, *net);
  Ref<SimTime> done;
  if (op == "broadcast") done = mpi.Broadcast(StaggeredRanks(nodes, interval), bytes);
  if (op == "reduce") done = mpi.Reduce(StaggeredRanks(nodes, interval), bytes);
  if (op == "allreduce") done = mpi.Allreduce(StaggeredRanks(nodes, interval), bytes);
  return FinishBaseline(sim, done);
}

double GlooRing(int nodes, std::int64_t bytes, SimDuration interval) {
  sim::Simulator sim;
  const auto net = net::MakeFabric(sim, PaperCluster(nodes).network);
  baselines::GlooLikeCollectives gloo(sim, *net);
  return FinishBaseline(sim,
                        gloo.RingChunkedAllreduce(StaggeredRanks(nodes, interval), bytes));
}

double HopliteOp(const std::string& op, int nodes, std::int64_t bytes,
                 SimDuration interval, int shards) {
  core::HopliteCluster cluster(WithShards(PaperCluster(nodes), shards));
  const auto ready = Staggered(nodes, interval);
  return FinishCollective(cluster, StartHopliteCollective(op, cluster, bytes, ready));
}

std::vector<Row> Run(const RunOptions& opt) {
  const int nodes = opt.Nodes(16);
  const std::int64_t bytes = opt.Bytes(GB(1));
  std::vector<Row> rows;
  for (const std::string op : {"broadcast", "reduce", "allreduce"}) {
    for (const SimDuration interval :
         {SimDuration{0}, Milliseconds(50), Milliseconds(100), Milliseconds(150),
          Milliseconds(200), Milliseconds(250), Milliseconds(300)}) {
      const auto point = [&](const char* series, double seconds) {
        rows.push_back(
            Row{.series = series,
                .labels = {{"op", op}},
                .coords = {{"interval_s", ToSeconds(interval)},
                           {"last_arrival_s", ToSeconds(interval * (nodes - 1))}},
                .value = seconds});
      };
      point("Hoplite", HopliteOp(op, nodes, bytes, interval, opt.shards));
      point("OpenMPI", MpiOp(op, nodes, bytes, interval));
      if (op == "allreduce") {
        point("Gloo (Ring Chunked)", GlooRing(nodes, bytes, interval));
      }
    }
  }
  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(fig8, "fig8",
                        "Figure 8: 1 GB collectives with staggered arrivals (16 nodes)",
                        Run);

}  // namespace hoplite::bench
