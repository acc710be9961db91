// The open-loop workload driver and its result, the LoadReport.
//
// `RunTrace` replays one materialized trace against one backend: each
// open-loop op is one event at its arrival instant that issues the op and
// observes its completion ref for the latency sample; a closed-loop
// tenant's chain schedules its next op from that observer. A failed op
// records its error and the replay goes on: the driver counts every op
// until the engine drains instead of giving up at the first timeout.
//
// The report carries what the paper's §5 workload sections report:
// throughput, p50/p95/p99 latency (per tenant, per op kind, and overall),
// cross-tenant fairness (Jain's index over achieved/offered ratios), and
// the store-pressure high-water marks (evictions, peak used bytes) that
// only emerge under sustained load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/units.h"
#include "core/ref.h"
#include "workload/backend.h"
#include "workload/scenario.h"

namespace hoplite::workload {

/// What happened to one op of the trace.
struct OpOutcome {
  int tenant = 0;
  OpKind kind = OpKind::kPut;
  std::int64_t bytes = 0;
  SimTime issued_at = 0;
  SimTime settled_at = -1;  ///< -1: never settled (the run drained first)
  bool ok = false;
  RefErrorCode error = RefErrorCode::kProducerLost;  ///< iff settled && !ok

  [[nodiscard]] bool settled() const noexcept { return settled_at >= 0; }
  [[nodiscard]] double latency_s() const noexcept {
    return ToSeconds(settled_at - issued_at);
  }
};

/// Aggregated service one tenant (or the whole run) received.
struct TenantLoad {
  std::string name;
  std::size_t offered = 0;    ///< arrivals in the trace
  std::size_t completed = 0;  ///< settled ok
  std::size_t failed = 0;     ///< settled with an error (timeout, lost, ...)
  std::size_t unsettled = 0;  ///< never settled before the run drained
  double offered_ops_per_s = 0.0;
  double completed_ops_per_s = 0.0;
  LatencySummary latency;  ///< over completed ops only
};

/// Per-op-kind latency line (completed ops only).
struct KindLoad {
  OpKind kind = OpKind::kPut;
  std::size_t completed = 0;
  LatencySummary latency;
};

/// The result of one scenario run on one backend.
struct LoadReport {
  std::string scenario;
  std::string backend;
  SimDuration horizon = 0;
  SimTime end_time = 0;   ///< last op settle instant (>= horizon drain)
  double fairness = 1.0;  ///< Jain over per-tenant completed/offered
  StoreHighWater store;
  TenantLoad total;  ///< name = "total"
  std::vector<TenantLoad> tenants;
  std::vector<KindLoad> kinds;  ///< only kinds that completed >= 1 op
  std::vector<OpOutcome> ops;   ///< per-op detail, trace order
};

/// Replays `trace` on `backend`. Must be called on a fresh backend (virtual
/// time zero); runs the simulation to completion. Deterministic: same trace
/// + same backend kind -> bit-identical report.
[[nodiscard]] LoadReport RunTrace(const WorkloadTrace& trace, WorkloadBackend& backend);

/// Convenience: BuildTrace + MakeBackend + RunTrace.
[[nodiscard]] LoadReport RunScenario(const ScenarioSpec& spec, BackendKind kind);

}  // namespace hoplite::workload
