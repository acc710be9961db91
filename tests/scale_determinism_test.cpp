// Determinism at scale: the incremental fair-share bookkeeping in
// RackFabric (dirty-link components, lazy progress, heap-scheduled
// completions) must preserve bit-reproducibility — the property the whole
// simulator is built on. Two identical 256-node runs must execute the same
// number of events and produce bit-identical completion times.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench/bench_util.h"
#include "common/units.h"
#include "net/fabric.h"

namespace hoplite::bench {
namespace {

struct RunResult {
  double broadcast_s = 0;
  double reduce_s = 0;
  double allreduce_s = 0;
  std::uint64_t executed_events = 0;
  std::int64_t node0_bytes_sent = 0;
};

RunResult RunCollectives(int nodes) {
  core::HopliteCluster::Options options = PaperCluster(nodes);
  options.network.fabric.topology = net::TopologyKind::kRack;
  options.network.fabric.num_racks = nodes / 32;
  options.network.fabric.oversubscription = 4.0;

  RunResult result;
  {
    core::HopliteCluster cluster(options);
    const auto ready = std::vector<SimTime>(static_cast<std::size_t>(nodes), 0);
    result.broadcast_s =
        FinishCollective(cluster, StartHopliteCollective("broadcast", cluster, MB(8), ready));
    result.executed_events += cluster.simulator().executed_events();
    result.node0_bytes_sent += cluster.network().TrafficOf(0).bytes_sent;
  }
  {
    core::HopliteCluster cluster(options);
    const auto ready = Staggered(nodes, Microseconds(5));
    result.reduce_s =
        FinishCollective(cluster, StartHopliteCollective("reduce", cluster, MB(8), ready));
    result.executed_events += cluster.simulator().executed_events();
    result.node0_bytes_sent += cluster.network().TrafficOf(0).bytes_sent;
  }
  {
    core::HopliteCluster cluster(options);
    const auto ready = std::vector<SimTime>(static_cast<std::size_t>(nodes), 0);
    result.allreduce_s =
        FinishCollective(cluster, StartHopliteCollective("allreduce", cluster, MB(8), ready));
    result.executed_events += cluster.simulator().executed_events();
    result.node0_bytes_sent += cluster.network().TrafficOf(0).bytes_sent;
  }
  return result;
}

TEST(ScaleDeterminismTest, RackFabricCollectivesAreBitReproducibleAt256Nodes) {
  const RunResult a = RunCollectives(256);
  const RunResult b = RunCollectives(256);
  // Bit-identical timing (EXPECT_EQ on doubles is exact equality) and
  // identical event counts: the incremental rewrite may not introduce any
  // hash-order, heap-order or floating-point nondeterminism.
  EXPECT_EQ(a.broadcast_s, b.broadcast_s);
  EXPECT_EQ(a.reduce_s, b.reduce_s);
  EXPECT_EQ(a.allreduce_s, b.allreduce_s);
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.node0_bytes_sent, b.node0_bytes_sent);
  // And the runs actually did scale-sized work.
  EXPECT_GT(a.broadcast_s, 0.0);
  EXPECT_GT(a.reduce_s, 0.0);
  EXPECT_GT(a.allreduce_s, 0.0);
  EXPECT_GT(a.executed_events, 10'000u);
}

}  // namespace
}  // namespace hoplite::bench
