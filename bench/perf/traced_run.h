// The traced replay: the same trace on a benchmark-owned backend whose
// cluster runs on a timing engine decorator, so each layer's work can be
// read from outside through public getters and the scheduled callables.
//
// Attribution rule: an event belongs to the src/ namespace of the callable
// that was scheduled (std::function::target_type), and its wall time
// includes every synchronous call it makes into other layers. So
// `net.event_wall_s` means "host time in events the net layer scheduled",
// not net's self time; self time needs spans inside the program. Events in
// which a workload op was issued are charged to `workload`.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workload/driver.h"
#include "workload/scenario.h"

namespace hoplite::perf {

/// One named measurement.
using Metric = std::pair<std::string, double>;

struct TracedRun {
  /// Outcomes of the traced replay; the caller checks them against the
  /// untraced run's.
  workload::LoadReport report;
  /// Host seconds spent inside RunTrace.
  double replay_wall_s = 0.0;
  /// Bytes all nodes put on the wire (self-sends excluded).
  std::int64_t wire_bytes = 0;
  /// Largest (simulated issue instant - due instant) over open-loop ops, ns.
  std::int64_t issue_lag_ns = 0;
  /// Per-layer metrics, in report order.
  std::vector<Metric> layers;
};

/// Replays `trace` once on the traced backend (one fresh cluster, engine
/// shards fixed at 1).
[[nodiscard]] TracedRun RunTraced(const workload::WorkloadTrace& trace);

}  // namespace hoplite::perf
