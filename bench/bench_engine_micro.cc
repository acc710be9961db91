// Engine micro-benchmarks: wall-clock performance of the hot paths
// everything else is built on — event queue throughput, NIC scheduling,
// full collective simulations, reduce-tree math, and RNG draws.
//
// Unlike the figure benches these measure *real* time (how fast the
// simulator itself runs), so values vary with the host machine; each
// workload reports the best of `repeats` timed runs.
//
// hoplite-lint: allow-file(nondet-source) -- wall-clock readings are this
// bench's payload; nothing here feeds back into simulated behavior.
#include <chrono>
#include <cstdint>
#include <limits>
#include <vector>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "common/rng.h"
#include "common/logging.h"
#include "core/reduce_tree.h"
#include "net/fabric.h"
#include "net/rack_fabric.h"
#include "sim/simulator.h"

namespace hoplite::bench {
namespace {

/// Best-of-N wall-clock seconds for one invocation of `fn`.
template <typename Fn>
double BestWallSeconds(int repeats, Fn&& fn) {
  double best = std::numeric_limits<double>::max();
  for (int i = 0; i < repeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(stop - start).count());
  }
  // Sub-resolution timings still count as one clock tick so rates stay finite.
  return std::max(best, 1e-9);
}

std::vector<Row> Run(const RunOptions& opt) {
  const int repeats = opt.Repeats(3);
  const int nodes = opt.Nodes(16);
  const std::int64_t bytes = opt.Bytes(MB(256));
  std::vector<Row> rows;

  volatile std::uint64_t sink = 0;

  {
    const int n = 100'000;
    const double secs = BestWallSeconds(repeats, [&] {
      sim::Simulator sim;
      Rng rng(7);
      int fired = 0;
      for (int i = 0; i < n; ++i) {
        sim.ScheduleAt(static_cast<SimTime>(rng.NextBounded(1'000'000)), [&] { ++fired; });
      }
      sim.Run();
      sink = sink + static_cast<std::uint64_t>(fired);
    });
    rows.push_back(Row{.series = "event-queue",
                       .coords = {{"events", n}},
                       .value = n / secs,
                       .unit = "events_per_second"});
  }

  {
    const int n = 10'000;
    const double secs = BestWallSeconds(repeats, [&] {
      sim::Simulator sim;
      const auto net = net::MakeFabric(sim, PaperCluster(nodes).network);
      int delivered = 0;
      for (int i = 0; i < n; ++i) {
        net->Send(static_cast<NodeID>(i % nodes), static_cast<NodeID>((i + 1) % nodes),
                 MB(1), [&] { ++delivered; });
      }
      sim.Run();
      sink = sink + static_cast<std::uint64_t>(delivered);
    });
    rows.push_back(Row{.series = "nic-sends",
                       .coords = {{"sends", n}, {"nodes", static_cast<double>(nodes)}},
                       .value = n / secs,
                       .unit = "sends_per_second"});
  }

  {
    const double secs = BestWallSeconds(repeats, [&] {
      core::HopliteCluster cluster(PaperCluster(nodes));
      const auto ready = std::vector<SimTime>(static_cast<std::size_t>(nodes), 0);
      const auto done = StartHopliteCollective("broadcast", cluster, bytes, ready);
      sink = sink + static_cast<std::uint64_t>(FinishCollective(cluster, done) * 1e9);
    });
    rows.push_back(Row{.series = "broadcast-sim",
                       .coords = {{"nodes", static_cast<double>(nodes)},
                                  {"bytes", static_cast<double>(bytes)}},
                       .value = secs,
                       .unit = "wall_seconds"});
  }

  {
    const double secs = BestWallSeconds(repeats, [&] {
      core::HopliteCluster cluster(PaperCluster(nodes));
      const auto ready = std::vector<SimTime>(static_cast<std::size_t>(nodes), 0);
      const auto done = StartHopliteCollective("reduce", cluster, bytes, ready);
      sink = sink + static_cast<std::uint64_t>(FinishCollective(cluster, done) * 1e9);
    });
    rows.push_back(Row{.series = "reduce-sim",
                       .coords = {{"nodes", static_cast<double>(nodes)},
                                  {"bytes", static_cast<double>(bytes)}},
                       .value = secs,
                       .unit = "wall_seconds"});
  }

  {
    const int n = 4096;
    const int iters = 100;
    const double secs = BestWallSeconds(repeats, [&] {
      for (int i = 0; i < iters; ++i) {
        core::ReduceTreeShape shape(n, 2);
        sink = sink + shape.FillSequence().size();
      }
    });
    rows.push_back(Row{.series = "reduce-tree-fill",
                       .coords = {{"positions", n}},
                       .value = iters / secs,
                       .unit = "fills_per_second"});
  }

  {
    // The lazy fill path the reduce coordinator actually takes: draw the
    // first k positions of a (much larger) tree from a FillCursor instead
    // of materializing the whole O(n) FillSequence. A 1M-position binary
    // tree here streams its first 64 positions in O(k * depth) work — the
    // win recorded vs the row above (which pays O(n) per reduce).
    const int n = 1 << 20;
    const int k = 64;
    const int iters = 1000;
    const double secs = BestWallSeconds(repeats, [&] {
      for (int i = 0; i < iters; ++i) {
        core::ReduceTreeShape shape(n, 2);
        core::ReduceTreeShape::FillCursor cursor(shape);
        std::uint64_t acc = 0;
        for (int j = 0; j < k; ++j) acc += static_cast<std::uint64_t>(cursor.Next());
        sink = sink + acc;
      }
    });
    rows.push_back(Row{.series = "reduce-tree-lazy-first-k",
                       .coords = {{"positions", n}, {"k", k}},
                       .value = iters / secs,
                       .unit = "fills_per_second"});
  }

  {
    // Rack-fabric fair-share stress: one concurrent flow per node (1024 at
    // paper scale) on a 4:1-oversubscribed rack fabric with datacenter-style
    // locality — 7 of 8 flows stay inside their rack, the rest cross the
    // core. Flows start staggered and carry varied sizes, so completions
    // cascade as distinct events; every start/finish re-shares bandwidth.
    // This is the workload the incremental (dirty-link, component-local)
    // fair-share bookkeeping exists for: the pre-rewrite full-recompute
    // engine revisited every flow and link on each of those events.
    const int rf_nodes = opt.Nodes(1024);
    const int rf_racks = std::max(2, rf_nodes / 32);
    net::ClusterConfig rf_cfg;
    rf_cfg.num_nodes = rf_nodes;
    rf_cfg.fabric.topology = net::TopologyKind::kRack;
    rf_cfg.fabric.num_racks = rf_racks;
    rf_cfg.fabric.oversubscription = 4.0;
    const int per_rack = (rf_nodes + rf_racks - 1) / rf_racks;
    const double secs = BestWallSeconds(repeats, [&] {
      sim::Simulator sim;
      net::RackFabric net(sim, rf_cfg);
      Rng rng(23);
      int delivered = 0;
      for (int i = 0; i < rf_nodes; ++i) {
        const NodeID src = static_cast<NodeID>(i);
        // Rack-local peer: a non-self node of the same rack block. The last
        // rack may be ragged (fewer than per_rack nodes) or, at tiny smoke
        // scales, hold a single node — fall back to cross-rack then.
        const int rack_base = (i / per_rack) * per_rack;
        const int rack_size = std::min(per_rack, rf_nodes - rack_base);
        NodeID dst;
        if (i % 8 != 0 && rack_size >= 2) {
          const int offset = 1 + static_cast<int>(rng.NextBounded(
                                     static_cast<std::uint64_t>(rack_size - 1)));
          dst = static_cast<NodeID>(rack_base + (i - rack_base + offset) % rack_size);
        } else {
          dst = static_cast<NodeID>((i + rf_nodes / 2 + 3) % rf_nodes);
        }
        const std::int64_t bytes =
            MB(2) + static_cast<std::int64_t>(rng.NextBounded(64)) * KB(64);
        sim.ScheduleAt(static_cast<SimTime>(i) * 1'000,
                       [&net, &delivered, src, dst, bytes] {
                         net.Send(src, dst, bytes, [&delivered] { ++delivered; });
                       });
      }
      sim.Run();
      HOPLITE_CHECK_EQ(delivered, rf_nodes);
      sink = sink + static_cast<std::uint64_t>(sim.executed_events());
    });
    rows.push_back(Row{.series = "rack-fair-share",
                       .coords = {{"flows", static_cast<double>(rf_nodes)},
                                  {"racks", static_cast<double>(rf_racks)}},
                       .value = rf_nodes / secs,
                       .unit = "flows_per_second"});
  }

  {
    // Rack-fabric incast: 1,024 flows from the 8 nodes of one rack into the
    // other across its 16:1 uplink, staggered so hundreds pile up on the
    // link. Few (src, dst) pairs means few flow classes, the fair-share
    // unit — the counterpart of the row above, where nearly every flow is
    // its own class.
    const int flows = opt.Nodes(1024);
    net::ClusterConfig ic_cfg;
    ic_cfg.num_nodes = 16;
    ic_cfg.fabric.topology = net::TopologyKind::kRack;
    ic_cfg.fabric.num_racks = 2;
    ic_cfg.fabric.oversubscription = 16.0;
    const double secs = BestWallSeconds(repeats, [&] {
      sim::Simulator sim;
      net::RackFabric net(sim, ic_cfg);
      Rng rng(29);
      int delivered = 0;
      for (int i = 0; i < flows; ++i) {
        const auto src = static_cast<NodeID>(i % 8);
        const auto dst = static_cast<NodeID>(8 + (i / 8) % 2);
        const std::int64_t bytes =
            KB(256) + static_cast<std::int64_t>(rng.NextBounded(16)) * KB(64);
        sim.ScheduleAt(static_cast<SimTime>(i) * 2'000,
                       [&net, &delivered, src, dst, bytes] {
                         net.Send(src, dst, bytes, [&delivered] { ++delivered; });
                       });
      }
      sim.Run();
      HOPLITE_CHECK_EQ(delivered, flows);
      sink = sink + static_cast<std::uint64_t>(sim.executed_events());
    });
    rows.push_back(Row{.series = "rack-incast",
                       .coords = {{"flows", static_cast<double>(flows)}, {"racks", 2}},
                       .value = flows / secs,
                       .unit = "flows_per_second"});
  }

  {
    const int n = 1'000'000;
    Rng rng(1);
    const double secs = BestWallSeconds(repeats, [&] {
      std::uint64_t acc = 0;
      for (int i = 0; i < n; ++i) acc ^= rng.NextU64();
      sink = sink + acc;
    });
    rows.push_back(Row{.series = "rng",
                       .coords = {{"draws", n}},
                       .value = n / secs,
                       .unit = "draws_per_second"});
  }

  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(engine_micro, "engine-micro",
                        "Engine micro-benchmarks: simulator hot paths (wall clock)", Run);

}  // namespace hoplite::bench
