// Tests for the open-loop workload engine: trace determinism, driver
// accounting (including the error-tolerant keep-counting contract), the
// canonical scenario registry, matched-load backend comparisons, and the
// bit-for-bit determinism of whole scenario runs.
#include "workload/driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/units.h"
#include "workload/backend.h"
#include "workload/scenario.h"
#include "workload/scenarios.h"

namespace hoplite::workload {
namespace {

ScenarioSpec SmallMixedSpec() {
  ScenarioTuning tuning;
  tuning.num_nodes = 8;
  tuning.load_scale = 1.0;
  tuning.horizon = Milliseconds(300);
  tuning.seed = 7;
  tuning.max_object_bytes = MB(1);
  return BuildScenario("mixed", tuning);
}

bool SameOp(const WorkloadOp& a, const WorkloadOp& b) {
  return a.tenant == b.tenant && a.at == b.at && a.kind == b.kind &&
         a.bytes == b.bytes && a.home == b.home && a.peers == b.peers &&
         a.id == b.id && a.fresh == b.fresh && a.delete_after == b.delete_after &&
         a.get_timeout == b.get_timeout;
}

TEST(WorkloadTraceTest, SameSeedYieldsBitIdenticalTraces) {
  const ScenarioSpec spec = SmallMixedSpec();
  const WorkloadTrace one = BuildTrace(spec);
  const WorkloadTrace two = BuildTrace(spec);
  ASSERT_EQ(one.ops.size(), two.ops.size());
  ASSERT_FALSE(one.ops.empty());
  for (std::size_t i = 0; i < one.ops.size(); ++i) {
    EXPECT_TRUE(SameOp(one.ops[i], two.ops[i])) << "op " << i << " diverged";
  }

  ScenarioSpec reseeded = spec;
  reseeded.seed = 8;
  const WorkloadTrace other = BuildTrace(reseeded);
  bool any_diff = other.ops.size() != one.ops.size();
  for (std::size_t i = 0; !any_diff && i < one.ops.size(); ++i) {
    any_diff = !SameOp(one.ops[i], other.ops[i]);
  }
  EXPECT_TRUE(any_diff) << "a different seed must draw a different trace";
}

TEST(WorkloadTraceTest, OpsAreWellFormed) {
  const ScenarioSpec spec = SmallMixedSpec();
  const WorkloadTrace trace = BuildTrace(spec);
  std::set<std::uint64_t> fresh_ids;
  SimTime last = 0;
  for (const WorkloadOp& op : trace.ops) {
    EXPECT_GE(op.at, last) << "ops must be sorted by arrival";
    last = op.at;
    EXPECT_LE(op.at, spec.horizon);
    EXPECT_GT(op.bytes, 0);
    EXPECT_LE(op.bytes, MB(1)) << "max_object_bytes cap must hold";
    EXPECT_GE(op.home, 0);
    EXPECT_LT(op.home, spec.num_nodes);
    for (const NodeID peer : op.peers) {
      EXPECT_NE(peer, op.home);
      EXPECT_GE(peer, 0);
      EXPECT_LT(peer, spec.num_nodes);
    }
    EXPECT_TRUE(std::is_sorted(op.peers.begin(), op.peers.end()));
    EXPECT_EQ(std::adjacent_find(op.peers.begin(), op.peers.end()), op.peers.end());
    if (op.fresh) {
      EXPECT_TRUE(fresh_ids.insert(op.id.value()).second)
          << "fresh ops must create distinct objects";
    } else {
      EXPECT_TRUE(fresh_ids.count(op.id.value()) > 0)
          << "a reuse op must reference an earlier object";
    }
    switch (op.kind) {
      case OpKind::kPut:
        EXPECT_TRUE(op.peers.empty());
        break;
      case OpKind::kGet:
        EXPECT_LE(op.peers.size(), 1u);
        break;
      case OpKind::kBroadcast:
      case OpKind::kReduce:
        EXPECT_GE(op.peers.size(), 1u);
        break;
    }
  }
}

TEST(WorkloadDriverTest, MixedScenarioDrainsOnBothBackendsAtMatchedLoad) {
  const WorkloadTrace trace = BuildTrace(SmallMixedSpec());
  const auto hoplite = MakeBackend(BackendKind::kHoplite, trace.spec);
  const LoadReport hop = RunTrace(trace, *hoplite);
  const auto ray = MakeBackend(BackendKind::kRay, trace.spec);
  const LoadReport ray_report = RunTrace(trace, *ray);

  for (const LoadReport& report : {hop, ray_report}) {
    SCOPED_TRACE(report.backend);
    EXPECT_TRUE(report.all_settled);
    EXPECT_EQ(report.total.offered, trace.ops.size());
    EXPECT_EQ(report.total.completed, trace.ops.size());
    EXPECT_EQ(report.total.failed, 0u);
    EXPECT_EQ(report.total.unsettled, 0u);
    EXPECT_GT(report.total.latency.p50, 0.0);
    EXPECT_GE(report.total.latency.p99, report.total.latency.p50);
    EXPECT_GT(report.fairness, 0.0);
    EXPECT_LE(report.fairness, 1.0 + 1e-12);
    // Aggregates are consistent.
    std::size_t tenant_sum = 0;
    for (const TenantLoad& tenant : report.tenants) tenant_sum += tenant.completed;
    EXPECT_EQ(tenant_sum, report.total.completed);
    std::size_t kind_sum = 0;
    for (const KindLoad& kind : report.kinds) kind_sum += kind.completed;
    EXPECT_EQ(kind_sum, report.total.completed);
  }
  // Everyone completed everything, so fairness is exactly 1 on both.
  EXPECT_DOUBLE_EQ(hop.fairness, 1.0);
  // The paper's regime: at matched offered load Hoplite's tail beats the
  // point-to-point baseline's.
  EXPECT_LE(hop.total.latency.p99, ray_report.total.latency.p99);
}

TEST(WorkloadDriverTest, SameSeedScenarioRunIsBitForBitDeterministic) {
  const ScenarioSpec spec = SmallMixedSpec();
  const LoadReport one = RunScenario(spec, BackendKind::kHoplite);
  const LoadReport two = RunScenario(spec, BackendKind::kHoplite);
  ASSERT_EQ(one.ops.size(), two.ops.size());
  for (std::size_t i = 0; i < one.ops.size(); ++i) {
    EXPECT_EQ(one.ops[i].settled_at, two.ops[i].settled_at) << "op " << i;
    EXPECT_EQ(one.ops[i].ok, two.ops[i].ok) << "op " << i;
  }
  EXPECT_EQ(one.end_time, two.end_time);
  EXPECT_EQ(one.store.evictions, two.store.evictions);
  EXPECT_EQ(one.store.peak_used_bytes, two.store.peak_used_bytes);
  ASSERT_EQ(one.tenants.size(), two.tenants.size());
  for (std::size_t t = 0; t < one.tenants.size(); ++t) {
    EXPECT_EQ(one.tenants[t].completed, two.tenants[t].completed);
    EXPECT_EQ(one.tenants[t].latency.count, two.tenants[t].latency.count);
  }
}

TEST(WorkloadDriverTest, KeepsCountingPastTimedOutOps) {
  // A tenant whose Gets cannot possibly finish in time: every op fails with
  // kTimeout, and the driver reports all of them instead of rejecting at
  // the first failure (the WhenAllSettled contract).
  ScenarioSpec spec;
  spec.name = "doomed";
  spec.num_nodes = 4;
  spec.horizon = Milliseconds(50);
  spec.seed = 3;
  TenantSpec tenant;
  tenant.name = "impatient";
  tenant.arrivals = {ArrivalProcess::Kind::kPeriodic, 200.0};
  tenant.mix = OpMix{0.0, 1.0, 0.0, 0.0};
  tenant.sizes = SizeDistribution::Fixed(MB(1));
  tenant.get_timeout = Microseconds(1);  // transfers need far longer
  spec.tenants.push_back(tenant);

  const LoadReport report = RunScenario(spec, BackendKind::kHoplite);
  EXPECT_TRUE(report.all_settled);
  EXPECT_GT(report.total.offered, 0u);
  EXPECT_EQ(report.total.completed, 0u);
  EXPECT_EQ(report.total.failed, report.total.offered);
  EXPECT_EQ(report.total.unsettled, 0u);
  for (const OpOutcome& outcome : report.ops) {
    EXPECT_EQ(outcome.error, RefErrorCode::kTimeout);
  }
}

TEST(WorkloadDriverTest, ClosedLoopTenantsChainIssueOnSettle) {
  // One closed-loop tenant of back-to-back Puts: op k+1 must go out exactly
  // think_gap after op k settled, never at its pre-drawn arrival.
  ScenarioSpec spec;
  spec.name = "closed";
  spec.num_nodes = 4;
  spec.horizon = Milliseconds(50);
  spec.seed = 5;
  TenantSpec tenant;
  tenant.name = "interactive";
  tenant.closed_loop = true;
  tenant.arrivals = {ArrivalProcess::Kind::kPeriodic, 1000.0};
  tenant.mix = OpMix{1.0, 0.0, 0.0, 0.0};
  tenant.sizes = SizeDistribution::Fixed(MB(4));  // ~0.4 ms store write each
  spec.tenants.push_back(tenant);

  const WorkloadTrace trace = BuildTrace(spec);
  ASSERT_GT(trace.ops.size(), 2u);
  const auto backend = MakeBackend(BackendKind::kHoplite, spec);
  const LoadReport report = RunTrace(trace, *backend);

  EXPECT_TRUE(report.all_settled);
  EXPECT_EQ(report.total.completed, trace.ops.size());
  for (std::size_t i = 0; i < trace.ops.size(); ++i) {
    const OpOutcome& outcome = report.ops[i];
    ASSERT_TRUE(outcome.settled());
    if (i == 0) {
      EXPECT_EQ(outcome.issued_at, trace.ops[i].at);
      continue;
    }
    // The chain rule, exactly: settle + think = next issue.
    EXPECT_EQ(outcome.issued_at,
              report.ops[i - 1].settled_at + trace.ops[i].think_gap)
        << "op " << i;
    // And with a think rate faster than the op latency, the chain must lag
    // the open-loop schedule the trace pre-drew.
    EXPECT_GT(outcome.issued_at, trace.ops[i].at) << "op " << i;
  }
}

TEST(WorkloadDriverTest, FaultScheduleKillsAndRecoversMidRun) {
  // A pinned-home Put tenant; its node dies for the middle third of the
  // run. Ops issued in the dead window reject kProducerLost, ops after the
  // recovery complete again, and the driver drains everything.
  ScenarioSpec spec;
  spec.name = "faulted";
  spec.num_nodes = 4;
  spec.horizon = Milliseconds(90);
  spec.seed = 6;
  spec.faults.push_back(net::FaultEvent{Milliseconds(30), 1, /*kill=*/true});
  spec.faults.push_back(net::FaultEvent{Milliseconds(60), 1, /*kill=*/false});
  TenantSpec tenant;
  tenant.name = "steady";
  tenant.arrivals = {ArrivalProcess::Kind::kPeriodic, 500.0};
  tenant.mix = OpMix{1.0, 0.0, 0.0, 0.0};
  tenant.sizes = SizeDistribution::Fixed(KB(64));
  tenant.pinned_home = 1;
  spec.tenants.push_back(tenant);

  const LoadReport report = RunScenario(spec, BackendKind::kHoplite);
  EXPECT_TRUE(report.all_settled);
  EXPECT_EQ(report.total.unsettled, 0u);
  EXPECT_GT(report.total.failed, 0u);
  EXPECT_GT(report.total.completed, 0u);
  for (const OpOutcome& outcome : report.ops) {
    // Inclusive on both edges: an op issued at the kill instant issues
    // first (schedule order) and then dies mid-flight; one issued at the
    // recovery instant still sees the node down.
    const bool in_dead_window = outcome.issued_at >= Milliseconds(30) &&
                                outcome.issued_at <= Milliseconds(60);
    EXPECT_EQ(outcome.ok, !in_dead_window) << "op issued at " << outcome.issued_at;
    if (!outcome.ok) {
      EXPECT_EQ(outcome.error, RefErrorCode::kProducerLost);
    }
  }
}

TEST(WorkloadDriverTest, RedundantFaultEventsAreNoOps) {
  // A schedule may name a node that is already in the requested state: a
  // second kill of a dead node and a recovery of a live one change nothing
  // (the cluster CHECK-fails on either if the backend forwards it). Ops on
  // node 1 fail exactly while its one real outage lasts.
  ScenarioSpec spec;
  spec.name = "redundant-faults";
  spec.num_nodes = 4;
  spec.horizon = Milliseconds(90);
  spec.seed = 6;
  spec.faults.push_back(net::FaultEvent{Milliseconds(20), 2, /*kill=*/false});
  spec.faults.push_back(net::FaultEvent{Milliseconds(30), 1, /*kill=*/true});
  spec.faults.push_back(net::FaultEvent{Milliseconds(45), 1, /*kill=*/true});
  spec.faults.push_back(net::FaultEvent{Milliseconds(60), 1, /*kill=*/false});
  spec.faults.push_back(net::FaultEvent{Milliseconds(75), 1, /*kill=*/false});
  TenantSpec tenant;
  tenant.name = "steady";
  tenant.arrivals = {ArrivalProcess::Kind::kPeriodic, 500.0};
  tenant.mix = OpMix{1.0, 0.0, 0.0, 0.0};
  tenant.sizes = SizeDistribution::Fixed(KB(64));
  tenant.pinned_home = 1;
  spec.tenants.push_back(tenant);

  const LoadReport report = RunScenario(spec, BackendKind::kHoplite);
  EXPECT_TRUE(report.all_settled);
  EXPECT_GT(report.total.failed, 0u);
  EXPECT_GT(report.total.completed, 0u);
  for (const OpOutcome& outcome : report.ops) {
    const bool in_dead_window = outcome.issued_at >= Milliseconds(30) &&
                                outcome.issued_at <= Milliseconds(60);
    EXPECT_EQ(outcome.ok, !in_dead_window) << "op issued at " << outcome.issued_at;
  }
}

TEST(WorkloadScenarioRegistryTest, CanonicalScenariosAreRegistered) {
  EXPECT_NE(ScenarioRegistry::Instance().Find("serving"), nullptr);
  EXPECT_NE(ScenarioRegistry::Instance().Find("mixed"), nullptr);
  EXPECT_NE(ScenarioRegistry::Instance().Find("memory-pressure"), nullptr);
  EXPECT_EQ(ScenarioRegistry::Instance().Find("no-such-scenario"), nullptr);
  EXPECT_GE(ScenarioRegistry::Instance().scenarios().size(), 3u);
}

TEST(WorkloadScenarioRegistryTest, ServingScenarioReExpressesTheRequestLoop) {
  ScenarioTuning tuning;
  tuning.num_nodes = 5;
  tuning.horizon = Milliseconds(500);
  tuning.max_object_bytes = MB(1);
  const ScenarioSpec spec = BuildScenario("serving", tuning);
  ASSERT_EQ(spec.tenants.size(), 2u);
  EXPECT_EQ(spec.tenants[0].name, "queries");
  EXPECT_EQ(spec.tenants[1].name, "votes");

  const LoadReport report = RunScenario(spec, BackendKind::kHoplite);
  EXPECT_TRUE(report.all_settled);
  EXPECT_EQ(report.total.failed, 0u);
  EXPECT_GT(report.tenants[0].completed, 0u) << "queries must flow";
  EXPECT_GT(report.tenants[1].completed, 0u) << "votes must flow";
  // Query broadcasts carry ~1 MB to 4 replicas; votes are 1 KB inline
  // objects — the tail must reflect that ordering.
  EXPECT_GT(report.tenants[0].latency.p50, report.tenants[1].latency.p50);
}

TEST(WorkloadScenarioRegistryTest, MemoryPressureDrivesEvictionUnderLoad) {
  ScenarioTuning tuning;
  tuning.num_nodes = 4;
  tuning.horizon = Milliseconds(400);
  tuning.seed = 11;
  ScenarioSpec spec = BuildScenario("memory-pressure", tuning);
  spec.store_capacity_bytes = MB(2);  // tiny stores: force the regime
  const LoadReport report = RunScenario(spec, BackendKind::kHoplite);
  EXPECT_TRUE(report.all_settled);
  EXPECT_EQ(report.total.unsettled, 0u);
  EXPECT_EQ(report.total.failed, 0u)
      << "re-reads must survive eviction via the stale-location retry path";
  EXPECT_GT(report.store.evictions, 0u) << "capacity pressure must evict";
  EXPECT_GT(report.store.peak_used_bytes, spec.store_capacity_bytes)
      << "pinned primaries must overshoot the capacity";
}

}  // namespace
}  // namespace hoplite::workload
