// Parallel-engine scaling figure: wall-clock speedup and simulated-time
// equivalence versus shard count.
//
// Three identical 1024-node rack collective jobs are composed on one
// ShardedSimulator — one cluster per domain (each domain its own reference
// Simulator), each cluster running broadcast, reduce and allreduce
// concurrently — and the whole composition runs at shards in {1, 2, 4, 8}.
// Identical jobs keep the shards balanced, so the wall-clock rows measure
// the engine's parallelism, not the job mix. Two row families:
//
//   * `sim-<op>` rows (unit `seconds`): each job's simulated finish time.
//     These must be identical at every shard count — the determinism sweep
//     diffs them, so a domain whose run depended on its placement shows up
//     as a byte diff.
//   * `wall` / `wall-speedup` rows: how long the engine took and the
//     speedup over the same composition at shards=1. The ROADMAP target is
//     >= 2x at 4 shards on a host with >= 4 cores; on fewer cores the rows
//     still record the trajectory (a 1-core box pins speedup near 1.0, by
//     physics, not by engine design — the shards do drain concurrently).
//
// Run: bench_all --figure scale_shards (scale: --max-nodes, --max-bytes).
//
// hoplite-lint: allow-file(nondet-source) -- the wall-clock rows are this
// bench's payload; nothing here feeds back into simulated behavior.
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "common/units.h"
#include "core/cluster.h"
#include "net/fabric.h"
#include "sim/sharded_simulator.h"
#include "store/buffer.h"

namespace hoplite::bench {
namespace {

[[nodiscard]] core::HopliteCluster::Options RackJob(int nodes, sim::Engine* engine) {
  core::HopliteCluster::Options options = PaperCluster(nodes);
  options.network.fabric.topology = net::TopologyKind::kRack;
  options.network.fabric.num_racks = std::max(2, nodes / 32);
  options.network.fabric.oversubscription = 4.0;
  options.engine = engine;
  return options;
}

std::vector<Row> Run(const RunOptions& opt) {
  const int nodes = opt.Nodes(1024);
  const std::int64_t bytes = opt.Bytes(MB(32));
  const std::vector<std::string> ops = {"broadcast", "reduce", "allreduce"};
  constexpr int kJobs = 3;
  std::vector<Row> rows;

  double base_wall = 0;
  for (const int shards : {1, 2, 4, 8}) {
    const auto start = std::chrono::steady_clock::now();
    sim::ShardedSimulator eng({shards});
    std::vector<std::unique_ptr<core::HopliteCluster>> clusters;
    std::vector<Ref<std::vector<store::Buffer>>> done;
    // finish[op]: job 0's per-op finish time (every job is identical).
    std::vector<SimTime> finish(ops.size(), 0);
    for (int job = 0; job < kJobs; ++job) {
      clusters.push_back(
          std::make_unique<core::HopliteCluster>(RackJob(nodes, &eng.AddDomain())));
      core::HopliteCluster& cluster = *clusters.back();
      for (std::size_t i = 0; i < ops.size(); ++i) {
        done.push_back(bench::StartHopliteCollective(ops[i], cluster, bytes,
                                                     Staggered(nodes, Microseconds(10))));
        if (job == 0) {
          SimTime& out = finish[i];
          done.back().Then([&cluster, &out] { out = cluster.Now(); });
        }
      }
    }
    eng.Run();
    const auto stop = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(stop - start).count();
    if (shards == 1) base_wall = wall;

    for (std::size_t i = 0; i < ops.size(); ++i) {
      rows.push_back(Row{.series = "sim-" + ops[i],
                         .coords = {{"shards", static_cast<double>(shards)},
                                    {"nodes", static_cast<double>(nodes)},
                                    {"bytes", static_cast<double>(bytes)}},
                         .value = ToSeconds(finish[i]),
                         .unit = "seconds"});
    }
    rows.push_back(Row{.series = "wall",
                       .coords = {{"shards", static_cast<double>(shards)}},
                       .value = wall,
                       .unit = "wall_seconds"});
    rows.push_back(Row{.series = "wall-speedup",
                       .coords = {{"shards", static_cast<double>(shards)}},
                       .value = wall > 0 ? base_wall / wall : 0.0,
                       .unit = "x_wall"});
  }
  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(scale_shards, "scale_shards",
                        "Parallel engine: three 1024-node rack collectives "
                        "composed on 1-8 shards (speedup + equivalence)",
                        Run);

}  // namespace hoplite::bench
