// Workload backends: the substrate a trace is replayed against.
//
// A backend owns its whole simulated world (event engine, fabric, stores)
// and exposes exactly one verb: `Issue(op)` — start this operation now and
// hand back a ref that settles when it completes (or rejects when part of
// it failed or timed out). The driver stays backend-agnostic, which is what
// makes "Hoplite vs Ray-like at matched offered load" a one-trace, two-run
// comparison.
#pragma once

#include <cstdint>
#include <memory>

#include "core/ref.h"
#include "sim/simulator.h"
#include "workload/scenario.h"

namespace hoplite::workload {

/// Aggregated store-pressure counters (zeros for backends with no store
/// model, i.e. the task-framework baselines).
struct StoreHighWater {
  std::uint64_t evictions = 0;        ///< total policy evictions across nodes
  std::int64_t peak_used_bytes = 0;   ///< max per-node used_bytes high-water
  std::int64_t final_used_bytes = 0;  ///< sum of used_bytes when the run drained
  std::uint64_t hits = 0;    ///< Gets served by an already-local copy
  std::uint64_t misses = 0;  ///< Gets that had to fetch
  /// Gets that coalesced onto in-flight supply instead of starting their
  /// own origin fetch (directory interest-table attaches).
  std::int64_t coalesced_attaches = 0;
};

class WorkloadBackend {
 public:
  virtual ~WorkloadBackend() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual sim::Engine& simulator() = 0;

  /// Issues `op` at the current simulated instant. The returned ref settles
  /// when the op's measured portion completes: Put -> local copy published,
  /// Get -> payload at home, broadcast -> every receiver holds the object,
  /// Reduce -> the reduced result read back at home. Failures (timeouts,
  /// killed producers) reject the ref instead of parking it.
  [[nodiscard]] virtual Ref<Unit> Issue(const WorkloadOp& op) = 0;

  /// Applies one `net::FaultEvent` at the current instant: kill = true takes
  /// the node down (in-flight transfers fail, its ops reject), kill = false
  /// brings it back with fresh stores (HopliteCluster::ApplyFault on the
  /// Hoplite backend). Default: no failure model, ignored.
  virtual void InjectFault(NodeID node, bool kill) { (void)node, (void)kill; }

  [[nodiscard]] virtual StoreHighWater store_high_water() { return {}; }
};

enum class BackendKind {
  kHoplite,  ///< the paper's system on a full HopliteCluster
  kRay,      ///< Ray 0.8.6-style point-to-point transport
  kDask,     ///< Dask 2.25-style scheduler-mediated transport
};

/// Builds a fresh backend world for `spec` (node count, fabric topology,
/// and — Hoplite only — per-node store capacity).
[[nodiscard]] std::unique_ptr<WorkloadBackend> MakeBackend(BackendKind kind,
                                                           const ScenarioSpec& spec);

}  // namespace hoplite::workload
