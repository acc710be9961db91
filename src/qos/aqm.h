// Flow-queuing AQM controller state (CoDel lineage, deterministic).
//
// The fabric models one virtual queue per (oversubscribed uplink, tenant):
// its sojourn estimate is the tenant's backlog on that link divided by the
// rate the fair-share engine allocated it. This class owns only the control
// state machine — when a queue first goes above the sojourn target the
// fabric arms a check `interval` out; if the queue is still above target
// when the check fires, the controller says "mark" (the fabric pauses the
// queue's fattest transfer and delivers backpressure to its sender) and the
// cadence tightens to interval/sqrt(marks), CoDel's control law. A check
// that finds the queue back under target resets the queue to quiescent.
//
// Everything is driven by fabric recomputes and scheduled check events on
// the owning cluster's domain: no clocks, no randomness, bit-reproducible.
#pragma once

#include <utility>

#include "common/annotations.h"
#include "common/det.h"
#include "common/units.h"
#include "qos/qos.h"

namespace hoplite::qos {

/// A mark pauses every in-flight transfer of the marked per-tenant queue
/// for this long (the deterministic stand-in for an early drop + sender
/// re-rate: under WFQ, pausing less than the whole queue would leave the
/// tenant's link share — and so everyone else's — unchanged).
inline constexpr SimDuration kAqmPause = Milliseconds(10);

/// Per-fabric AQM control state. Owned by the fabric it instruments, so
/// every call arrives on the owning cluster's domain.
class HOPLITE_DOMAIN_CONFINED CodelAqm {
 public:
  CodelAqm() = default;
  explicit CodelAqm(AqmConfig config) : config_(config) {}

  /// What a fired check should do to its queue.
  // hoplite-sa: value-type(Verdict) -- plain result returned by value.
  struct Verdict {
    bool mark = false;           ///< pause the fattest transfer + backpressure
    SimDuration next_check = 0;  ///< > 0: stay armed, re-check this far out
  };

  /// An above-target sojourn was observed for queue (link, tenant). Returns
  /// true when this observation arms the queue (no check pending yet) — the
  /// caller then schedules the first check `interval()` out.
  [[nodiscard]] bool Arm(int link, TenantId tenant);

  /// The armed check for (link, tenant) fired; `above_target` is the
  /// queue's freshly computed sojourn state. Below target the queue resets
  /// to quiescent; above target it marks and tightens the cadence.
  [[nodiscard]] Verdict OnCheck(int link, TenantId tenant, bool above_target);

  [[nodiscard]] SimDuration sojourn_target() const noexcept {
    return config_.sojourn_target;
  }
  [[nodiscard]] SimDuration interval() const noexcept { return config_.interval; }

  /// Lifetime mark count (introspection for tests and figures).
  [[nodiscard]] std::int64_t marks() const noexcept { return marks_; }

 private:
  struct Queue {
    int mark_count = 0;  ///< marks in the current above-target episode
    bool armed = false;  ///< a check event is pending
  };

  AqmConfig config_;
  det::Map<std::pair<int, TenantId>, Queue> queues_;
  std::int64_t marks_ = 0;
};

}  // namespace hoplite::qos
