// Unit tests for the rack-topology fabric with max-min fair sharing.
#include "net/rack_fabric.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace hoplite::net {
namespace {

/// 2 racks, 1:1 by default; per_message_overhead zeroed for exact arithmetic.
ClusterConfig RackConfig(int nodes, int racks, double oversubscription) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.nic_bandwidth = Gbps(10);
  cfg.one_way_latency = Microseconds(50);
  cfg.per_message_overhead = 0;
  cfg.memcpy_bandwidth = GBps(10);
  cfg.failure_detection_delay = Milliseconds(100);
  cfg.fabric.topology = TopologyKind::kRack;
  cfg.fabric.num_racks = racks;
  cfg.fabric.oversubscription = oversubscription;
  return cfg;
}

/// Fair-share completion times carry ceil-rounding per recompute; a couple
/// of nanoseconds of slack absorbs it without hiding real errors.
constexpr SimTime kRoundingSlackNs = 4;

TEST(RackFabricTest, MakeFabricSelectsImplementationByTopology) {
  sim::Simulator sim;
  ClusterConfig flat;
  flat.num_nodes = 4;
  const auto a = MakeFabric(sim, flat);
  EXPECT_NE(dynamic_cast<FlatFabric*>(a.get()), nullptr);
  const auto b = MakeFabric(sim, RackConfig(4, 2, 2.0));
  EXPECT_NE(dynamic_cast<RackFabric*>(b.get()), nullptr);
}

TEST(RackFabricTest, RackAssignmentIsContiguousBlocks) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(8, 2, 1.0));
  EXPECT_EQ(net.num_racks(), 2);
  for (NodeID n = 0; n < 4; ++n) EXPECT_EQ(net.RackOf(n), 0) << n;
  for (NodeID n = 4; n < 8; ++n) EXPECT_EQ(net.RackOf(n), 1) << n;
  // Uplink carries the rack's aggregate NIC bandwidth at 1:1.
  EXPECT_DOUBLE_EQ(net.UplinkCapacityOf(0), 4 * Gbps(10));
}

TEST(RackFabricTest, SoleIntraRackFlowRunsAtNicRate) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(4, 2, 8.0));
  SimTime delivered_at = -1;
  net.Send(0, 1, MB(64), [&] { delivered_at = sim.Now(); });
  sim.Run();
  const SimTime expect = TransferTime(MB(64), Gbps(10)) + Microseconds(50);
  EXPECT_NEAR(delivered_at, expect, kRoundingSlackNs);
}

TEST(RackFabricTest, CrossRackFlowIsBottleneckedByOversubscribedUplink) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(4, 2, 8.0));
  // Uplink capacity: 2 NICs * 10 Gbps / 8 = 2.5 Gbps — the bottleneck.
  SimTime delivered_at = -1;
  net.Send(0, 2, MB(64), [&] { delivered_at = sim.Now(); });
  sim.Run();
  const SimTime expect = TransferTime(MB(64), Gbps(2.5)) + Microseconds(50);
  EXPECT_NEAR(delivered_at, expect, kRoundingSlackNs);
}

TEST(RackFabricTest, ConcurrentFlowsOnSharedUplinkSplitItFairly) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(4, 2, 4.0));
  // Uplink: 20 Gbps / 4 = 5 Gbps shared by two flows from rack 0 to rack 1.
  std::vector<SimTime> delivered;
  net.Send(0, 2, MB(32), [&] { delivered.push_back(sim.Now()); });
  net.Send(1, 3, MB(32), [&] { delivered.push_back(sim.Now()); });
  sim.Run();
  ASSERT_EQ(delivered.size(), 2u);
  const SimTime expect = TransferTime(MB(32), Gbps(2.5)) + Microseconds(50);
  EXPECT_NEAR(delivered[0], expect, kRoundingSlackNs);
  EXPECT_NEAR(delivered[1], expect, kRoundingSlackNs);
}

TEST(RackFabricTest, MaxMinGivesUnusedShareToUnconstrainedFlow) {
  // Heterogeneous NICs: the slow sender cannot use its full fair share of
  // the uplink; progressive filling hands the residue to the fast flow.
  ClusterConfig cfg = RackConfig(4, 2, 2.0);
  cfg.per_node_bandwidth = {Gbps(2), Gbps(10), Gbps(10), Gbps(10)};
  // Uplink of rack 0: (2 + 10) Gbps / 2 = 6 Gbps. Flow A (node 0 -> 2) is
  // frozen at its 2 Gbps NIC; flow B (node 1 -> 3) gets the remaining 4.
  sim::Simulator sim;
  RackFabric net(sim, cfg);
  const TransferId a = net.Send(0, 2, GB(1), [] {});
  const TransferId b = net.Send(1, 3, GB(1), [] {});
  EXPECT_DOUBLE_EQ(net.CurrentRate(a), Gbps(2));
  EXPECT_DOUBLE_EQ(net.CurrentRate(b), Gbps(4));
  sim.Run();
}

TEST(RackFabricTest, FinishedFlowReleasesItsShareToTheSurvivor) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(4, 2, 4.0));
  // Uplink 5 Gbps. Short flow and long flow share it (2.5 Gbps each) until
  // the short one drains; the long one then speeds up to 5 Gbps.
  SimTime long_done = -1;
  net.Send(0, 2, MB(16), [] {});
  net.Send(1, 3, MB(48), [&] { long_done = sim.Now(); });
  sim.Run();
  // Phase 1: both at 2.5 Gbps until the 16 MB flow drains (it finishes its
  // wire time when 16 MB left at 2.5 Gbps). The long flow has sent 16 MB by
  // then and pushes the remaining 32 MB at the full 5 Gbps.
  const SimTime expect = TransferTime(MB(16), Gbps(2.5)) +
                         TransferTime(MB(32), Gbps(5)) + Microseconds(50);
  EXPECT_NEAR(long_done, expect, 2 * kRoundingSlackNs);
}

TEST(RackFabricTest, IntraRackTrafficDoesNotTouchTheUplink) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(4, 2, 8.0));
  // One cross-rack flow plus one intra-rack flow between disjoint node
  // pairs: the intra-rack flow keeps full NIC rate, the cross-rack flow
  // keeps the whole (oversubscribed) uplink.
  const TransferId cross = net.Send(0, 2, MB(64), [] {});
  const TransferId intra = net.Send(1, 0, MB(64), [] {});
  EXPECT_DOUBLE_EQ(net.CurrentRate(cross), Gbps(2.5));
  EXPECT_DOUBLE_EQ(net.CurrentRate(intra), Gbps(10));
  sim.Run();
}

TEST(RackFabricTest, ZeroByteControlMessageCostsOnlyLatency) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(4, 2, 8.0));
  SimTime delivered_at = -1;
  net.Send(0, 2, 0, [&] { delivered_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(delivered_at, Microseconds(50));
  EXPECT_EQ(net.wire_flows(), 0u);
}

TEST(RackFabricTest, CrossRackExtraLatencyIsCharged) {
  ClusterConfig cfg = RackConfig(4, 2, 1.0);
  cfg.fabric.cross_rack_extra_latency = Microseconds(10);
  sim::Simulator sim;
  RackFabric net(sim, cfg);
  SimTime intra = -1;
  SimTime cross = -1;
  net.Send(0, 1, 0, [&] { intra = sim.Now(); });
  net.Send(0, 2, 0, [&] { cross = sim.Now(); });
  sim.Run();
  EXPECT_EQ(intra, Microseconds(50));
  EXPECT_EQ(cross, Microseconds(60));
}

TEST(RackFabricTest, SelfSendGoesThroughMemcpy) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(4, 2, 8.0));
  SimTime delivered_at = -1;
  net.Send(1, 1, MB(10), [&] { delivered_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(delivered_at, TransferTime(MB(10), GBps(10)));
}

TEST(RackFabricTest, CancelReleasesBandwidthImmediately) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(4, 2, 4.0));
  bool cancelled_flow_delivered = false;
  const TransferId victim =
      net.Send(0, 2, GB(1), [&] { cancelled_flow_delivered = true; });
  const TransferId survivor = net.Send(1, 3, MB(32), [] {});
  EXPECT_DOUBLE_EQ(net.CurrentRate(survivor), Gbps(2.5));
  EXPECT_TRUE(net.CancelTransfer(victim));
  EXPECT_FALSE(net.CancelTransfer(victim));
  EXPECT_DOUBLE_EQ(net.CurrentRate(survivor), Gbps(5));
  sim.Run();
  EXPECT_FALSE(cancelled_flow_delivered);
}

TEST(RackFabricTest, FailNodeAbortsFlowsAndNotifiesSurvivorAfterDelay) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(4, 2, 4.0));
  bool delivered = false;
  NodeID reported = kInvalidNode;
  SimTime reported_at = -1;
  net.Send(0, 2, GB(1), [&] { delivered = true; },
           [&](NodeID dead) {
             reported = dead;
             reported_at = sim.Now();
           });
  const TransferId survivor = net.Send(1, 3, MB(32), [] {});
  sim.ScheduleAt(Milliseconds(1), [&] { net.FailNode(2); });
  sim.RunUntil(Milliseconds(1));
  // The aborted flow's uplink share is released to the survivor.
  EXPECT_DOUBLE_EQ(net.CurrentRate(survivor), Gbps(5));
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(reported, 2);
  EXPECT_EQ(reported_at, Milliseconds(1) + Milliseconds(100));
}

TEST(RackFabricTest, SendToFailedNodeFailsAfterDetectionDelay) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(4, 2, 4.0));
  net.FailNode(3);
  bool delivered = false;
  NodeID reported = kInvalidNode;
  net.Send(0, 3, MB(1), [&] { delivered = true; }, [&](NodeID dead) { reported = dead; });
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(reported, 3);
  // No wire bandwidth was occupied and no traffic was counted.
  EXPECT_EQ(net.wire_flows(), 0u);
  EXPECT_EQ(net.TrafficOf(0).bytes_sent, 0);
}

TEST(RackFabricTest, DeterministicAcrossRuns) {
  const auto run_once = [] {
    sim::Simulator sim;
    RackFabric net(sim, RackConfig(8, 2, 4.0));
    std::vector<SimTime> deliveries;
    for (NodeID src = 0; src < 4; ++src) {
      for (NodeID dst = 4; dst < 8; ++dst) {
        net.Send(src, dst, MB(8) + src * KB(64) + dst * KB(16),
                 [&deliveries, &sim] { deliveries.push_back(sim.Now()); });
      }
    }
    sim.Run();
    return deliveries;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(RackFabricTest, ManyTinyStaggeredFlowsDrainWithoutEventStorm) {
  // Regression for the near-zero-residue loop: flows whose remaining bytes
  // shrink to sub-byte residues (tiny payloads, rates in the GB/s range,
  // heavy event churn from staggered starts) must never reschedule a
  // zero-length completion event at the current instant forever. The clamp
  // floors every rescheduled completion at one nanosecond, so the whole
  // batch drains with a bounded number of executed events.
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(8, 2, 2.0));
  const int kFlows = 512;
  int delivered = 0;
  for (int i = 0; i < kFlows; ++i) {
    const NodeID src = static_cast<NodeID>(i % 4);
    const NodeID dst = static_cast<NodeID>(4 + (i + 1) % 4);
    const std::int64_t bytes = 1 + i % 3;  // 1-3 byte payloads
    sim.ScheduleAt(static_cast<SimTime>(i), [&net, &delivered, src, dst, bytes] {
      net.Send(src, dst, bytes, [&delivered] { ++delivered; });
    });
  }
  sim.Run();
  EXPECT_EQ(delivered, kFlows);
  EXPECT_EQ(net.wire_flows(), 0u);
  // Starts + completions + deliveries plus bounded rescheduling slack; a
  // same-instant completion loop would trip this by orders of magnitude.
  EXPECT_LT(sim.executed_events(), 20u * kFlows);
}

TEST(RackFabricTest, DisjointComponentFlowKeepsItsRateAcrossForeignChurn) {
  // A start or finish only re-shares bandwidth on the component of flows
  // reachable from the changed links. An intra-rack flow in rack 1 shares
  // nothing with intra-rack traffic in rack 0, so rack-0 churn must leave
  // its fair share untouched (and, by max-min componentwise factorization,
  // its delivery time exactly as if rack 0 were idle).
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(8, 2, 8.0));
  const TransferId loner = net.Send(4, 5, MB(64), [] {});
  EXPECT_DOUBLE_EQ(net.CurrentRate(loner), Gbps(10));
  // Churn in rack 0: two flows sharing node 0's egress, then a cancel.
  const TransferId a = net.Send(0, 1, MB(32), [] {});
  const TransferId b = net.Send(0, 2, MB(32), [] {});
  EXPECT_DOUBLE_EQ(net.CurrentRate(a), Gbps(5));
  EXPECT_DOUBLE_EQ(net.CurrentRate(b), Gbps(5));
  EXPECT_DOUBLE_EQ(net.CurrentRate(loner), Gbps(10)) << "foreign start re-rated the loner";
  EXPECT_TRUE(net.CancelTransfer(a));
  EXPECT_DOUBLE_EQ(net.CurrentRate(b), Gbps(10));
  EXPECT_DOUBLE_EQ(net.CurrentRate(loner), Gbps(10)) << "foreign cancel re-rated the loner";
  sim.Run();
}

TEST(RackFabricTest, SoloFlowDeliveryIsExactRegardlessOfForeignEvents) {
  // The lazy progress accounting books a flow's remaining bytes only when
  // its own rate changes; interleaving unrelated events in another rack
  // must not shift the flow's completion by even a nanosecond.
  const auto run = [](bool with_foreign_churn) {
    sim::Simulator sim;
    RackFabric net(sim, RackConfig(8, 2, 8.0));
    SimTime delivered_at = -1;
    net.Send(4, 5, MB(64), [&] { delivered_at = sim.Now(); });
    if (with_foreign_churn) {
      for (int i = 0; i < 100; ++i) {
        sim.ScheduleAt(Microseconds(1) * (i + 1), [&net] { net.Send(0, 1, KB(64), [] {}); });
      }
    }
    sim.Run();
    return delivered_at;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(RackFabricTest, AggregateCrossRackThroughputMatchesUplink) {
  // 4 concurrent cross-rack flows over a 5 Gbps uplink must take ~4x the
  // single-flow time: the fabric enforces the shared-link capacity, not
  // just per-NIC limits (which FlatFabric would allow to run in parallel).
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(8, 2, 8.0));
  SimTime last = 0;
  for (int i = 0; i < 4; ++i) {
    net.Send(static_cast<NodeID>(i), static_cast<NodeID>(4 + i), MB(16),
             [&] { last = sim.Now(); });
  }
  sim.Run();
  const SimTime expect = TransferTime(4 * MB(16), Gbps(5)) + Microseconds(50);
  EXPECT_NEAR(last, expect, 4 * kRoundingSlackNs);
}

TEST(RackFabricTest, IncastWorkScalesWithFlowClassesNotFlows) {
  // 1,000 flows from 4 senders to 4 receivers across one 16:1 uplink: at
  // most 16 (src, dst) classes however many flows pile up. Each recompute
  // re-rates classes and pushes one completion record per class, so heap
  // pushes per recompute stay at the class count, never the flow count.
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(8, 2, 16.0));
  constexpr int kFlows = 1000;
  constexpr std::uint64_t kMaxClasses = 16;
  int delivered = 0;
  std::size_t peak_wire_flows = 0;
  for (int i = 0; i < kFlows; ++i) {
    const auto src = static_cast<NodeID>(i % 4);
    const auto dst = static_cast<NodeID>(4 + (i / 4) % 4);
    const std::int64_t bytes = KB(64) + static_cast<std::int64_t>(i % 7) * KB(16);
    sim.ScheduleAt(static_cast<SimTime>(i) * Microseconds(2),
                   [&net, &delivered, &peak_wire_flows, src, dst, bytes] {
                     net.Send(src, dst, bytes, [&delivered] { ++delivered; });
                     peak_wire_flows = std::max(peak_wire_flows, net.wire_flows());
                   });
  }
  sim.Run();
  EXPECT_EQ(delivered, kFlows);
  EXPECT_GT(peak_wire_flows, 200u) << "the uplink never piled up";

  const RackFabric::WorkCounters& work = net.work_counters();
  ASSERT_GT(work.recomputes, 0u);
  EXPECT_LE(work.classes_visited, kMaxClasses * work.recomputes);
  EXPECT_LE(work.heap_pushes, kMaxClasses * work.recomputes);
  // Per-member arithmetic still happens (progress is booked per flow); only
  // the hash, heap and sort work collapsed onto classes.
  EXPECT_GT(work.members_touched, work.classes_visited);
}

// ----------------------------------------------------------------------
// Golden trace: the exactness oracle of the fair-share engine. One seeded
// mix is replayed and every observable outcome — each delivery's
// (TransferId, ns), each failure notice and each AQM backpressure notice,
// in occurrence order — is folded into a digest pinned below. Any change
// to the engine's bookkeeping must keep these digests bit for bit.
// ----------------------------------------------------------------------

struct GoldenTrace {
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  int delivered = 0;
  int failed = 0;
  int backpressured = 0;
  std::int64_t aqm_marks = 0;

  void Fold(std::uint64_t kind, std::uint64_t a, std::uint64_t b, SimTime at) {
    for (const std::uint64_t word : {kind, a, b, static_cast<std::uint64_t>(at)}) {
      for (int byte = 0; byte < 8; ++byte) {
        digest ^= (word >> (8 * byte)) & 0xff;
        digest *= 0x100000001b3ULL;
      }
    }
  }
};

/// 400 flows on 8 nodes behind a 16:1 uplink (2.5 Gbps shared by rack 0's
/// four 10 Gbps senders), three tenants, so each (src, dst, tenant) class
/// carries many concurrent flows. The mix staggers starts in bursts,
/// cancels every seventh flow mid-air, fails and recovers two nodes, and
/// sprinkles in 1-3 B sub-residue flows and some intra-rack and reverse
/// traffic.
GoldenTrace ReplayGoldenMix(bool wfq, bool aqm) {
  ClusterConfig cfg = RackConfig(8, 2, 16.0);
  cfg.qos.wfq = wfq;
  cfg.qos.aqm = aqm;
  sim::Simulator sim;
  RackFabric net(sim, cfg);
  GoldenTrace trace;
  net.SetBackpressureHandler([&](NodeID src, qos::TenantId tenant) {
    ++trace.backpressured;
    trace.Fold(3, static_cast<std::uint64_t>(src), static_cast<std::uint64_t>(tenant),
               sim.Now());
  });

  Rng rng(20211);
  std::vector<TransferId> ids(400, kInvalidTransfer);
  for (int i = 0; i < 400; ++i) {
    const SimTime at = static_cast<SimTime>(i / 4) * Microseconds(1500) +
                       static_cast<SimTime>(rng.NextBounded(3)) * Microseconds(1);
    auto src = static_cast<NodeID>(rng.NextBounded(4));
    auto dst = static_cast<NodeID>(4 + rng.NextBounded(2));
    const std::uint64_t shape = rng.NextBounded(16);
    if (shape == 0) dst = static_cast<NodeID>((src + 1) % 4);  // intra-rack
    if (shape == 1) std::swap(src, dst);                      // reverse uplink
    const auto tenant = static_cast<qos::TenantId>(rng.NextBounded(3));
    const std::int64_t bytes =
        rng.NextBounded(6) == 0
            ? 1 + static_cast<std::int64_t>(rng.NextBounded(3))
            : KB(64) + static_cast<std::int64_t>(rng.NextBounded(64)) * KB(32);
    const SimDuration cancel_after =
        i % 7 == 3
            ? Microseconds(200) + static_cast<SimDuration>(rng.NextBounded(20'000)) * 1000
            : 0;
    const auto slot = static_cast<std::size_t>(i);
    sim.ScheduleAt(at, [&net, &sim, &trace, &ids, slot, src, dst, bytes, tenant,
                        cancel_after] {
      const TransferId id = net.Send(
          src, dst, bytes,
          [&sim, &trace, &ids, slot] {
            ++trace.delivered;
            trace.Fold(1, ids[slot], 0, sim.Now());
          },
          [&sim, &trace, &ids, slot](NodeID dead) {
            ++trace.failed;
            trace.Fold(2, ids[slot], static_cast<std::uint64_t>(dead), sim.Now());
          },
          tenant);
      ids[slot] = id;
      trace.Fold(0, id, static_cast<std::uint64_t>(bytes), sim.Now());
      if (cancel_after > 0) {
        sim.ScheduleAfter(cancel_after, [&net, id] { net.CancelTransfer(id); });
      }
    });
  }
  sim.ScheduleAt(Milliseconds(40), [&net] { net.FailNode(5); });
  sim.ScheduleAt(Milliseconds(70), [&net] { net.RecoverNode(5); });
  sim.ScheduleAt(Milliseconds(110), [&net] { net.FailNode(1); });
  sim.ScheduleAt(Milliseconds(125), [&net] { net.RecoverNode(1); });
  sim.Run();
  EXPECT_EQ(net.wire_flows(), 0u);
  trace.aqm_marks = net.aqm_marks();
  return trace;
}

TEST(RackFabricGoldenTest, PlainMaxMinTraceIsPinned) {
  const GoldenTrace trace = ReplayGoldenMix(/*wfq=*/false, /*aqm=*/false);
  EXPECT_EQ(trace.digest, 0x6567600bda3d6ab1ULL);
  EXPECT_EQ(trace.delivered, 251);
  EXPECT_EQ(trace.failed, 112);
  EXPECT_EQ(trace.backpressured, 0);
  EXPECT_EQ(trace.aqm_marks, 0);
}

TEST(RackFabricGoldenTest, WfqTraceIsPinned) {
  const GoldenTrace trace = ReplayGoldenMix(/*wfq=*/true, /*aqm=*/false);
  EXPECT_EQ(trace.digest, 0x5060c4e8885c3f5aULL);
  EXPECT_EQ(trace.delivered, 252);
  EXPECT_EQ(trace.failed, 111);
  EXPECT_EQ(trace.backpressured, 0);
  EXPECT_EQ(trace.aqm_marks, 0);
}

TEST(RackFabricGoldenTest, WfqAqmTraceIsPinned) {
  const GoldenTrace trace = ReplayGoldenMix(/*wfq=*/true, /*aqm=*/true);
  EXPECT_EQ(trace.digest, 0x0d45c50e6c239eb8ULL);
  EXPECT_EQ(trace.delivered, 251);
  EXPECT_EQ(trace.failed, 112);
  EXPECT_EQ(trace.backpressured, 144);
  EXPECT_EQ(trace.aqm_marks, 38);
}

}  // namespace
}  // namespace hoplite::net
