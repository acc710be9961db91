// Rack-topology fabric with progressive max-min fair bandwidth sharing.
//
// Nodes are grouped into racks behind top-of-rack (ToR) uplinks. A flow
// from `src` to `dst` traverses:
//
//   src NIC egress --> [ToR uplink of src's rack --> core -->
//                       ToR downlink of dst's rack] --> dst NIC ingress
//
// where the bracketed links are only crossed by inter-rack flows. Each ToR
// uplink/downlink carries (sum of the rack's NIC bandwidth) divided by the
// configured oversubscription ratio, so at 1:1 the fabric is non-blocking
// and at 8:1 the core is the bottleneck the moment more than 1/8 of a
// rack's NIC capacity wants out.
//
// Unlike FlatFabric's serialized per-node queues, concurrent flows here
// share links fluidly: rates follow progressive filling (max-min fairness),
// recomputed event-driven whenever a flow starts, finishes, is cancelled or
// fails. Iteration orders are fixed (classes by their smallest live
// TransferId, members and completions by ascending TransferId), so runs stay
// bit-reproducible. This is the regime of inter-datacenter congestion
// studies (Zeng; Sander et al. for flow-rate fairness) that the flat testbed
// model cannot express.
//
// The fair-share bookkeeping is incremental, which is what lets 1024-node
// clusters simulate in seconds instead of minutes:
//
//  * The unit of fair sharing is a *flow class*: all wire flows with one
//    (src, dst, tenant). They cross the same links in the same tenant
//    group, so max-min (and WFQ) gives them the same rate by symmetry.
//    Links list classes, the filling runs over classes, and a class
//    freezing at level L adds L to each link's frozen sum once per member
//    — the same float additions a per-flow pass makes — so rates are
//    bit-identical to treating every flow alone. An incast of a thousand
//    flows between a few node pairs costs a handful of classes per event.
//  * Max-min allocations factorize over connected components of the
//    class/link sharing graph, so a flow start/finish/cancel only
//    recomputes the component reachable from the links it touched
//    (dirty-link BFS). Rates are assigned as per-bottleneck water levels —
//    a direct (capacity - frozen) / unfrozen division — so a
//    component-local pass produces bit-identical rates to a whole-fabric
//    pass.
//  * Per-flow progress is lazy: each member keeps `remaining` anchored at
//    its last rate change (`anchor`) and is evaluated as
//    max(0, remaining - rate * dt) on demand, in a contiguous per-class
//    array, so untouched components never get booked per event.
//  * Completion scans are heap-based over classes: one indexed min-heap of
//    predicted completion times drives the single scheduled
//    wire-completion event, and a second over "could already count as
//    done" times reproduces the full per-event sweep that lets sub-residue
//    flows piggyback on a concurrent completion. One record per class is
//    exact: both predicted times are monotone non-decreasing in
//    `remaining` at a common anchor and rate, and a recompute leaves every
//    member of a class at one anchor and rate — so the class's
//    smallest-remaining member carries the class minimum. (A member that
//    is re-anchored alone after a conservative sweep window leaves its
//    class off the common anchor until the next recompute; that class's
//    record is then the minimum over every member.) A due class is
//    scanned member by member with the per-flow test, so which flows
//    complete at an instant is exactly what a per-flow heap would give.
//
// With `ClusterConfig::qos.wfq` the filling becomes hierarchical: contended
// links divide capacity max-min across *tenants* first (weighted by
// QosConfig::tenant_weights), then across each tenant's flows — same dirty
// component machinery, different water-level solver (qos/wfq.h). With
// `qos.aqm` each (ToR uplink, tenant) pair carries a CoDel-style virtual
// queue (qos/aqm.h): sustained above-target sojourn pauses the tenant's
// transfers on that uplink and raises ECN-like backpressure to the sending
// clients. Both default off, leaving behaviour bit-identical.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/det.h"
#include "common/ids.h"
#include "common/units.h"
#include "net/fabric.h"
#include "qos/aqm.h"
#include "qos/qos.h"
#include "qos/wfq.h"
#include "sim/simulator.h"

namespace hoplite::net {

/// Racks behind oversubscribed ToR uplinks with event-driven progressive
/// max-min fair sharing (see the file header).
// hoplite-sa: owner(RackFabric) -- same lifetime contract as the Fabric
// base: built before the first event, destroyed after the engine drains.
class HOPLITE_DOMAIN_CONFINED RackFabric final : public Fabric {
 public:
  /// Deterministic work counters of the fair-share engine, cumulative over
  /// the fabric's life. They depend only on the simulated event sequence, so
  /// tests can gate on them where wall time would be noise.
  struct WorkCounters {
    std::uint64_t recomputes = 0;       ///< component passes that re-rated classes
    std::uint64_t classes_visited = 0;  ///< classes re-rated, summed over passes
    std::uint64_t members_touched = 0;  ///< member flows materialized or scanned
    std::uint64_t heap_pushes = 0;      ///< class records placed in the completion heaps
  };

  RackFabric(sim::Engine& simulator, ClusterConfig config);

  bool CancelTransfer(TransferId id) override;

  // ---------------- introspection for tests and benches ----------------

  [[nodiscard]] int num_racks() const noexcept { return num_racks_; }
  [[nodiscard]] int RackOf(NodeID node) const;
  /// Capacity of the ToR uplink (== downlink) of `rack`, bytes per second.
  [[nodiscard]] BytesPerSecond UplinkCapacityOf(int rack) const;
  /// Current fair-share rate of an in-flight transfer in bytes per second
  /// (0 if unknown or already past the wire stage).
  [[nodiscard]] double CurrentRate(TransferId id) const;
  /// Number of flows currently occupying wire bandwidth.
  [[nodiscard]] std::size_t wire_flows() const noexcept { return wire_flow_count_; }
  /// Cumulative AQM early-mark count (0 unless `qos.aqm` is on).
  [[nodiscard]] std::int64_t aqm_marks() const noexcept { return aqm_.marks(); }
  [[nodiscard]] const WorkCounters& work_counters() const noexcept { return work_; }

 protected:
  void StartTransfer(TransferId id, NodeID src, NodeID dst, std::int64_t bytes,
                     DeliveryCallback on_delivered, FailureCallback on_failed,
                     qos::TenantId tenant) override;
  void AbortTransfersOf(NodeID node) override;

 private:
  /// A shared resource: one NIC direction or one ToR uplink/downlink.
  struct Link {
    double capacity = 0;               ///< bytes per second
    std::vector<std::size_t> classes;  ///< flow classes crossing this link
    int flows = 0;                     ///< wire flows crossing it: its classes' sizes summed
    // Scratch state for the component-local progressive filling:
    int unfrozen = 0;
    double frozen_sum = 0;  ///< total rate already granted to frozen flows
    bool saturated = false;
    std::uint64_t mark = 0;  ///< BFS epoch stamp
    /// Scratch per-tenant demand groups (WFQ mode only), rebuilt per
    /// Recompute in first-appearance order of the sorted component classes.
    std::vector<qos::TenantDemand> wfq;
  };

  enum class Stage {
    kWire,      ///< occupying link bandwidth as a member of its flow class
    kPaused,    ///< AQM-paused: off the links, residue frozen, resume scheduled
    kDelivery,  ///< past the wire; propagation latency event scheduled
  };

  struct Flow {
    NodeID src = kInvalidNode;
    NodeID dst = kInvalidNode;
    Stage stage = Stage::kWire;
    qos::TenantId tenant = qos::kNoTenant;
    std::size_t cls = 0;   ///< flow class slot while kWire
    double remaining = 0;  ///< wire residue while kPaused
    sim::EventId delivery_event;  ///< valid in kDelivery; doubles as the
                                  ///< resume event while kPaused
    DeliveryCallback on_delivered;
    FailureCallback on_failed;  // may be empty
  };

  /// One wire flow inside its class: all that per-flow progress needs.
  struct Member {
    double remaining = 0;  ///< bytes left on the wire as of `anchor`
    SimTime anchor = 0;    ///< virtual time `remaining` was last materialized
    TransferId id = 0;
  };

  static constexpr std::size_t kNotInHeap = SIZE_MAX;

  /// The fair-share unit: every wire flow with one (src, dst, tenant).
  struct FlowClass {
    NodeID src = kInvalidNode;
    NodeID dst = kInvalidNode;
    qos::TenantId tenant = qos::kNoTenant;
    std::array<std::size_t, 4> link_slots{};
    std::size_t num_links = 0;
    double rate = 0;           ///< fair share of each member, bytes per second
    bool frozen = false;       ///< scratch state for progressive filling
    std::uint64_t mark = 0;    ///< BFS epoch stamp
    double min_remaining = 0;  ///< scratch: smallest member residue at the pass
    std::vector<Member> members;  ///< ascending TransferId; empty when the slot is free
    /// Completion record: the earliest own / piggyback-window time over the
    /// members (kSimTimeMax while the class has none), and the class's
    /// positions in the two completion heaps.
    SimTime t_own = kSimTimeMax;
    SimTime t_half = kSimTimeMax;
    std::size_t own_pos = kNotInHeap;
    std::size_t half_pos = kNotInHeap;

    [[nodiscard]] std::span<const std::size_t> links() const {
      return {link_slots.data(), num_links};
    }
  };

  /// Predicted completion of one member: `own` when its residue drains,
  /// `half` from when it already counts as done (the piggyback window).
  struct Record {
    SimTime own = kSimTimeMax;
    SimTime half = kSimTimeMax;
  };

  /// Indexed binary min-heap of class slots keyed by one of the class's
  /// record times; each class sits in it at most once, at its stored
  /// position, so a record update is one sift and nothing goes stale.
  struct RecordHeap {
    SimTime FlowClass::*time;
    std::size_t FlowClass::*pos;
    std::vector<std::size_t> slots;
  };

  // Link index layout: [0, n) egress NICs, [n, 2n) ingress NICs,
  // [2n, 2n + r) ToR uplinks, [2n + r, 2n + 2r) ToR downlinks.
  [[nodiscard]] std::size_t EgressLink(NodeID node) const {
    return static_cast<std::size_t>(node);
  }
  [[nodiscard]] std::size_t IngressLink(NodeID node) const {
    return static_cast<std::size_t>(config_.num_nodes + node);
  }
  [[nodiscard]] std::size_t UplinkLink(int rack) const {
    return static_cast<std::size_t>(2 * config_.num_nodes + rack);
  }
  [[nodiscard]] std::size_t DownlinkLink(int rack) const {
    return static_cast<std::size_t>(2 * config_.num_nodes + num_racks_ + rack);
  }
  /// Key of the (src, dst, tenant) class in `class_of_key_`.
  [[nodiscard]] std::uint64_t ClassKey(NodeID src, NodeID dst, qos::TenantId tenant) const;

  /// Bytes left on the wire at virtual time `t` (>= member.anchor).
  [[nodiscard]] static double RemainingAt(const Member& member, double rate, SimTime t);
  /// Books progress up to `t` and re-anchors the member there.
  static void Materialize(Member& member, double rate, SimTime t);
  /// The member's completion record at its anchor and `rate`.
  [[nodiscard]] static Record RecordOf(const Member& member, double rate);
  /// The class's record taken member by member: exact whatever the
  /// members' anchors.
  [[nodiscard]] static Record MinRecordOf(const FlowClass& fc);

  /// Puts a wire flow with `remaining` bytes into its (src, dst, tenant)
  /// class — creating the class and registering it on its links if it is
  /// the first — appends those links to `dirty` and counts the wire flow.
  /// Shared by StartTransfer and the AQM resume path.
  void JoinClass(TransferId id, Flow& flow, double remaining,
                 std::vector<std::size_t>& dirty);
  /// Takes a wire flow out of its class (releasing the class once empty),
  /// appends the class's links to `dirty` and returns the flow's residue as
  /// of now (what an AQM pause carries over).
  double LeaveClass(TransferId id, const Flow& flow, std::vector<std::size_t>& dirty);
  /// Drops `count` members' worth of link load after they left `cls`, and
  /// frees the class if it is now empty.
  void ShrinkClass(std::size_t cls, int count, std::vector<std::size_t>& dirty);

  /// Recomputes rates for the component reachable from `dirty` links via
  /// progressive filling, re-anchors its members and refreshes its classes'
  /// completion records. Classes sharing no (transitive) link with a dirty
  /// one keep their rates — their allocation cannot have changed.
  void Recompute(const std::vector<std::size_t>& dirty);
  /// The plain (per-flow) progressive-filling water levels over the
  /// prepared component's classes; assigns every comp class's rate.
  void FillMaxMin(int unfrozen_flows);
  /// The two-level (tenant-weighted, then per-flow) water levels of WFQ
  /// mode: contended links divide capacity max-min across tenants first
  /// (per QosConfig::tenant_weights), then across each tenant's flows.
  void FillWeighted(int unfrozen_flows);

  // ----------------------------- AQM hooks ------------------------------

  /// End-of-Recompute scan (aqm mode): arms a CoDel check on every
  /// (uplink, tenant) virtual queue of the component whose sojourn —
  /// queued bytes over allocated rate — exceeds the target.
  void ArmAqmChecks();
  /// Whether the tenant's virtual queue on `link` sojourns past the target
  /// now: its queued bytes over its allocated rate.
  [[nodiscard]] bool SojournAboveTarget(std::size_t link, qos::TenantId tenant) const;
  /// The scheduled CoDel control-law check for one (uplink, tenant) queue.
  void OnAqmCheck(std::size_t link, qos::TenantId tenant);
  /// Takes a wire flow off the links for the configured AQM pause, then
  /// resumes it with its residue.
  void PauseFlow(TransferId id);
  void ResumeFlow(TransferId id);

  // ------------------------ completion records --------------------------

  /// Sets the class's completion record and its place in both heaps.
  void SetRecord(std::size_t cls, Record record);
  /// Restores heap order around `index` after its class's key changed.
  void HeapSift(RecordHeap& heap, std::size_t index);
  /// (Re)schedules the single completion event at the earliest predicted
  /// wire completion.
  void RescheduleCompletion();
  void OnWireCompletion();
  /// Moves a finished wire flow into the delivery (latency) stage.
  void EnterDeliveryStage(TransferId id, Flow& flow);
  /// Whole-fabric fair-share audit (audit builds): per-link rate
  /// conservation, max-min bottleneck optimality, class membership,
  /// completion records and counter cross-consistency. Runs after every
  /// Recompute.
  void AuditFairShare() const;

  int num_racks_ = 0;
  int nodes_per_rack_ = 0;
  std::vector<Link> links_;
  std::unordered_map<TransferId, Flow> flows_;
  std::size_t wire_flow_count_ = 0;
  std::uint64_t epoch_ = 0;  ///< BFS visit stamp for Recompute
  /// Class slots (reused through `free_classes_`) and the live ones by
  /// (src, dst, tenant) key.
  std::vector<FlowClass> classes_;
  std::vector<std::size_t> free_classes_;
  std::unordered_map<std::uint64_t, std::size_t> class_of_key_;
  /// Completion heaps over classes: earliest predicted own completion, and
  /// earliest time a residue drops under the done threshold (the piggyback
  /// sweep window).
  RecordHeap own_heap_{&FlowClass::t_own, &FlowClass::own_pos, {}};
  RecordHeap half_heap_{&FlowClass::t_half, &FlowClass::half_pos, {}};
  // Scratch buffers reused across events (one mutation runs at a time and
  // nothing here re-enters, so plain members avoid a per-event allocation
  // on the hottest path).
  std::vector<std::size_t> comp_classes_;
  std::vector<std::size_t> comp_links_;
  std::vector<std::size_t> dirty_scratch_;
  std::vector<std::size_t> bfs_stack_;
  std::vector<std::size_t> due_scratch_;
  std::vector<TransferId> done_scratch_;
  sim::EventId completion_event_;
  WorkCounters work_;
  /// CoDel state machines of the per-(uplink, tenant) virtual queues
  /// (inert unless `config_.qos.aqm`).
  qos::CodelAqm aqm_;
};

}  // namespace hoplite::net
