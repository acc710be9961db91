#include "net/rack_fabric.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "common/audit.h"

namespace hoplite::net {

namespace {

/// Wire residue below which a flow counts as finished. Completion events are
/// scheduled at the ceiling nanosecond of remaining/rate, so a finished
/// flow's booked residue is at most rounding error — well under half a byte.
constexpr double kDoneBytes = 0.5;

/// Floor on a WFQ-frozen rate, bytes per second. A float-tie edge case can
/// otherwise freeze a flow at a zero water level, and a zero rate breaks the
/// completion-time division. One byte per second is twelve orders of
/// magnitude under a NIC — scheduling-wise it is "stopped", numerically it
/// is safe.
constexpr double kMinRate = 1.0;

/// Relative tolerance for "this demand group ties the global minimum"
/// when freezing a WFQ round.
constexpr double kFreezeEps = 1e-9;

/// Adds `value` to each of `sums` once per member of a class, one addition
/// at a time: exactly the float additions the class's flows would make one
/// by one (`count * value` would round differently). The sums' chains are
/// independent, so stepping them together keeps every result and hides the
/// add latency; lanes past a class's links just absorb unused additions.
template <std::size_t N>
void AddPerMember(std::array<double, N>& sums, double value, int count) {
  for (int k = 0; k < count; ++k) {
    for (double& sum : sums) sum += value;
  }
}

/// The demand group of `tenant` on a link (WFQ mode), or null.
template <typename LinkT>
auto* GroupOf(LinkT& link, qos::TenantId tenant) {
  const auto it = std::find_if(link.wfq.begin(), link.wfq.end(), [tenant](const auto& g) {
    return g.tenant == tenant;
  });
  return it == link.wfq.end() ? nullptr : &*it;
}

}  // namespace

RackFabric::RackFabric(sim::Engine& simulator, ClusterConfig config)
    : Fabric(simulator, std::move(config)), aqm_(config_.qos.aqm_tuning) {
  HOPLITE_CHECK_GT(config_.fabric.num_racks, 0);
  HOPLITE_CHECK_GT(config_.fabric.oversubscription, 0.0);
  HOPLITE_CHECK_LE(config_.num_nodes, 65535) << "class keys pack src * n + dst in 32 bits";
  num_racks_ = std::min(config_.fabric.num_racks, config_.num_nodes);
  nodes_per_rack_ = (config_.num_nodes + num_racks_ - 1) / num_racks_;

  links_.assign(static_cast<std::size_t>(2 * config_.num_nodes + 2 * num_racks_), Link{});
  for (NodeID node = 0; node < config_.num_nodes; ++node) {
    const BytesPerSecond nic = config_.BandwidthOf(node);
    HOPLITE_CHECK_GT(nic, 0.0);
    links_[EgressLink(node)].capacity = nic;
    links_[IngressLink(node)].capacity = nic;
  }
  for (int rack = 0; rack < num_racks_; ++rack) {
    double rack_nic_sum = 0;
    for (NodeID node = 0; node < config_.num_nodes; ++node) {
      if (RackOf(node) == rack) rack_nic_sum += config_.BandwidthOf(node);
    }
    const double tor = rack_nic_sum / config_.fabric.oversubscription;
    links_[UplinkLink(rack)].capacity = tor;
    links_[DownlinkLink(rack)].capacity = tor;
  }
}

int RackFabric::RackOf(NodeID node) const {
  CheckNode(node);
  return std::min(static_cast<int>(node) / nodes_per_rack_, num_racks_ - 1);
}

BytesPerSecond RackFabric::UplinkCapacityOf(int rack) const {
  HOPLITE_CHECK_GE(rack, 0);
  HOPLITE_CHECK_LT(rack, num_racks_);
  return links_[UplinkLink(rack)].capacity;
}

double RackFabric::CurrentRate(TransferId id) const {
  const auto it = flows_.find(id);
  if (it == flows_.end() || it->second.stage != Stage::kWire) return 0;
  return classes_[it->second.cls].rate;
}

std::uint64_t RackFabric::ClassKey(NodeID src, NodeID dst, qos::TenantId tenant) const {
  const auto n = static_cast<std::uint64_t>(config_.num_nodes);
  const auto pair = static_cast<std::uint64_t>(src) * n + static_cast<std::uint64_t>(dst);
  return pair << 32 | static_cast<std::uint32_t>(tenant);
}

double RackFabric::RemainingAt(const Member& member, double rate, SimTime t) {
  if (t == member.anchor) return member.remaining;
  const double dt = static_cast<double>(t - member.anchor) * 1e-9;
  return std::max(0.0, member.remaining - rate * dt);
}

void RackFabric::Materialize(Member& member, double rate, SimTime t) {
  member.remaining = RemainingAt(member, rate, t);
  member.anchor = t;
}

RackFabric::Record RackFabric::RecordOf(const Member& member, double rate) {
  const SimTime now = member.anchor;
  if (member.remaining <= kDoneBytes) return Record{now, now};
  if (!(rate > 0)) return Record{};  // no rate: waits for the next recompute
  const double own_ns = std::ceil(member.remaining / rate * 1e9);
  if (!(own_ns < static_cast<double>(kSimTimeMax - now))) return Record{};
  // Floor of one nanosecond: a residue that rounds to a zero-length
  // completion must still move time forward, or the completion event
  // reschedules itself at `now` forever.
  const SimTime t_own = now + std::max<SimTime>(1, static_cast<SimTime>(own_ns));
  const double half_ns = std::ceil((member.remaining - kDoneBytes) / rate * 1e9);
  SimTime t_half = now + std::max<SimTime>(1, static_cast<SimTime>(std::max(0.0, half_ns)));
  // ceil() worked on rounded quotients; nudge onto the exact boundary of the
  // booked-remaining test so the sweep window matches a full per-event scan.
  // At most a couple of probes each way.
  for (int probe = 0;
       probe < 4 && t_half > now + 1 && RemainingAt(member, rate, t_half - 1) <= kDoneBytes;
       ++probe) {
    --t_half;
  }
  for (int probe = 0;
       probe < 4 && t_half < t_own && RemainingAt(member, rate, t_half) > kDoneBytes;
       ++probe) {
    ++t_half;
  }
  return Record{t_own, std::min(t_half, t_own)};
}

RackFabric::Record RackFabric::MinRecordOf(const FlowClass& fc) {
  Record least;
  for (const Member& m : fc.members) {
    const Record record = RecordOf(m, fc.rate);
    least.own = std::min(least.own, record.own);
    least.half = std::min(least.half, record.half);
  }
  return least;
}

void RackFabric::StartTransfer(TransferId id, NodeID src, NodeID dst, std::int64_t bytes,
                               DeliveryCallback on_delivered, FailureCallback on_failed,
                               qos::TenantId tenant) {
  Flow flow;
  flow.src = src;
  flow.dst = dst;
  flow.tenant = tenant;
  flow.on_delivered = std::move(on_delivered);
  flow.on_failed = std::move(on_failed);
  auto [it, inserted] = flows_.emplace(id, std::move(flow));
  HOPLITE_CHECK(inserted);
  Flow& f = it->second;

  if (bytes == 0) {
    // Control message: pure latency, no wire bandwidth.
    EnterDeliveryStage(id, f);
    return;
  }

  std::vector<std::size_t>& dirty = dirty_scratch_;
  dirty.clear();
  JoinClass(id, f, static_cast<double>(bytes), dirty);

  Recompute(dirty);
  RescheduleCompletion();
}

void RackFabric::JoinClass(TransferId id, Flow& flow, double remaining,
                           std::vector<std::size_t>& dirty) {
  const auto [it, inserted] =
      class_of_key_.try_emplace(ClassKey(flow.src, flow.dst, flow.tenant), classes_.size());
  if (inserted) {
    if (free_classes_.empty()) {
      classes_.emplace_back();
    } else {
      it->second = free_classes_.back();
      free_classes_.pop_back();
    }
    FlowClass& fc = classes_[it->second];
    fc.src = flow.src;
    fc.dst = flow.dst;
    fc.tenant = flow.tenant;
    fc.rate = 0;
    fc.num_links = 0;
    fc.link_slots[fc.num_links++] = EgressLink(flow.src);
    fc.link_slots[fc.num_links++] = IngressLink(flow.dst);
    const int src_rack = RackOf(flow.src);
    const int dst_rack = RackOf(flow.dst);
    if (src_rack != dst_rack) {
      fc.link_slots[fc.num_links++] = UplinkLink(src_rack);
      fc.link_slots[fc.num_links++] = DownlinkLink(dst_rack);
    }
    for (const std::size_t link : fc.links()) links_[link].classes.push_back(it->second);
  }
  flow.cls = it->second;
  FlowClass& fc = classes_[flow.cls];
  // A new transfer carries the largest id yet and lands at the back; a
  // resumed one slots back into id order.
  const auto pos =
      std::upper_bound(fc.members.begin(), fc.members.end(), id,
                       [](TransferId value, const Member& m) { return value < m.id; });
  fc.members.insert(pos, Member{remaining, sim_.Now(), id});
  for (const std::size_t link : fc.links()) {
    links_[link].flows += 1;
    dirty.push_back(link);
  }
  wire_flow_count_ += 1;
}

double RackFabric::LeaveClass(TransferId id, const Flow& flow,
                              std::vector<std::size_t>& dirty) {
  FlowClass& fc = classes_[flow.cls];
  const auto pos =
      std::lower_bound(fc.members.begin(), fc.members.end(), id,
                       [](const Member& m, TransferId value) { return m.id < value; });
  HOPLITE_CHECK(pos != fc.members.end() && pos->id == id);
  const double residue = RemainingAt(*pos, fc.rate, sim_.Now());
  fc.members.erase(pos);
  ShrinkClass(flow.cls, 1, dirty);
  return residue;
}

void RackFabric::ShrinkClass(std::size_t cls, int count, std::vector<std::size_t>& dirty) {
  FlowClass& fc = classes_[cls];
  for (const std::size_t link : fc.links()) {
    links_[link].flows -= count;
    dirty.push_back(link);
  }
  wire_flow_count_ -= static_cast<std::size_t>(count);
  if (!fc.members.empty()) return;
  // Last member gone: unlist the class (a link carries a handful of classes,
  // so the linear find is cheap) and free its slot.
  for (const std::size_t link : fc.links()) {
    auto& on_link = links_[link].classes;
    const auto pos = std::find(on_link.begin(), on_link.end(), cls);
    HOPLITE_CHECK(pos != on_link.end());
    *pos = on_link.back();
    on_link.pop_back();
  }
  SetRecord(cls, Record{});
  class_of_key_.erase(ClassKey(fc.src, fc.dst, fc.tenant));
  free_classes_.push_back(cls);
}

bool RackFabric::CancelTransfer(TransferId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return false;
  Flow& flow = it->second;
  if (flow.stage != Stage::kWire) {
    // kDelivery and kPaused both hold exactly one pending event (the
    // delivery, or the AQM resume) and occupy no links.
    sim_.Cancel(flow.delivery_event);
    flows_.erase(it);
    return true;
  }
  std::vector<std::size_t>& dirty = dirty_scratch_;
  dirty.clear();
  LeaveClass(id, flow, dirty);
  flows_.erase(it);
  Recompute(dirty);
  RescheduleCompletion();
  return true;
}

void RackFabric::AbortTransfersOf(NodeID node) {
  // Deterministic order: walk the flow table by ascending id and collect the
  // victims before processing (failure callbacks may start new transfers).
  std::vector<TransferId> victims;
  for (const TransferId id : det::SortedKeys(flows_)) {
    const Flow& flow = flows_.find(id)->second;
    if (flow.src == node || flow.dst == node) victims.push_back(id);
  }
  // Collect callbacks before notifying.
  std::vector<FailureCallback> to_notify;
  std::vector<std::size_t>& dirty = dirty_scratch_;
  dirty.clear();
  for (const TransferId id : victims) {
    auto it = flows_.find(id);
    Flow& flow = it->second;
    if (flow.stage != Stage::kWire) {
      sim_.Cancel(flow.delivery_event);  // delivery, or the AQM resume
    } else {
      LeaveClass(id, flow, dirty);
    }
    if (flow.on_failed != nullptr) to_notify.push_back(std::move(flow.on_failed));
    flows_.erase(it);
  }
  if (!dirty.empty()) {
    Recompute(dirty);
    RescheduleCompletion();
  }
  for (auto& cb : to_notify) {
    ScheduleFailureNotice(std::move(cb), node);
  }
}

void RackFabric::Recompute(const std::vector<std::size_t>& dirty) {
  const SimTime now = sim_.Now();
  ++epoch_;
  comp_links_.clear();
  comp_classes_.clear();

  // BFS over the sharing graph: every class on a dirty link, every link of
  // such a class, transitively.
  std::vector<std::size_t>& stack = bfs_stack_;
  stack.clear();
  const auto visit_link = [&](std::size_t link) {
    if (links_[link].mark == epoch_) return;
    links_[link].mark = epoch_;
    comp_links_.push_back(link);
    stack.push_back(link);
  };
  for (const std::size_t link : dirty) visit_link(link);
  while (!stack.empty()) {
    const std::size_t link = stack.back();
    stack.pop_back();
    for (const std::size_t cls : links_[link].classes) {
      FlowClass& fc = classes_[cls];
      if (fc.mark == epoch_) continue;
      fc.mark = epoch_;
      comp_classes_.push_back(cls);
      for (const std::size_t cl : fc.links()) visit_link(cl);
    }
  }
  if (comp_classes_.empty()) return;
  // Ascending smallest live TransferId (members are id-sorted): the
  // deterministic iteration order of the filling. It reproduces the
  // first-appearance order of an id-sorted per-flow pass, which is what the
  // WFQ solver's float sums depend on.
  std::sort(comp_classes_.begin(), comp_classes_.end(), [this](std::size_t a, std::size_t b) {
    return classes_[a].members.front().id < classes_[b].members.front().id;
  });

  int comp_flows = 0;
  for (const std::size_t cls : comp_classes_) {
    FlowClass& fc = classes_[cls];
    fc.min_remaining = std::numeric_limits<double>::infinity();
    for (Member& m : fc.members) {
      Materialize(m, fc.rate, now);
      fc.min_remaining = std::min(fc.min_remaining, m.remaining);
    }
    fc.frozen = false;
    comp_flows += static_cast<int>(fc.members.size());
  }
  for (const std::size_t link : comp_links_) {
    Link& l = links_[link];
    l.unfrozen = l.flows;
    l.frozen_sum = 0;
    l.saturated = false;
  }
  work_.recomputes += 1;
  work_.classes_visited += comp_classes_.size();
  work_.members_touched += static_cast<std::uint64_t>(comp_flows);

  if (config_.qos.wfq) {
    FillWeighted(comp_flows);
  } else {
    FillMaxMin(comp_flows);
  }

  // Every member now sits at `now` under its class's rate, so the class
  // record is its smallest-remaining member's (see the file header).
  for (const std::size_t cls : comp_classes_) {
    const FlowClass& fc = classes_[cls];
    SetRecord(cls, RecordOf(Member{fc.min_remaining, now, 0}, fc.rate));
  }
  if (config_.qos.aqm) ArmAqmChecks();
  HOPLITE_AUDIT_SCOPE(AuditFairShare());
}

void RackFabric::FillMaxMin(int unfrozen_flows) {
  // Progressive filling by water levels: every round, the lowest per-link
  // fair share among unsaturated links is the level at which those links
  // saturate; their flows freeze at exactly that level. Assigning the level
  // directly (instead of accumulating per-round deltas) makes the result
  // independent of which other components happen to be recomputed alongside
  // — the component-local pass is bit-identical to a whole-fabric pass.
  int guard = static_cast<int>(comp_classes_.size() + comp_links_.size()) + 1;
  while (unfrozen_flows > 0 && guard-- > 0) {
    double level = std::numeric_limits<double>::infinity();
    for (const std::size_t link : comp_links_) {
      const Link& l = links_[link];
      if (l.unfrozen == 0 || l.saturated) continue;
      const double share = std::max(0.0, l.capacity - l.frozen_sum) / l.unfrozen;
      level = std::min(level, share);
    }
    HOPLITE_CHECK(std::isfinite(level)) << "unfrozen flow with no unsaturated link";
    for (const std::size_t link : comp_links_) {
      Link& l = links_[link];
      if (l.unfrozen == 0 || l.saturated) continue;
      const double headroom = l.capacity - (l.frozen_sum + level * l.unfrozen);
      if (headroom <= l.capacity * 1e-9) l.saturated = true;
    }
    const auto saturated = [this](std::size_t link) { return links_[link].saturated; };
    for (const std::size_t cls : comp_classes_) {
      FlowClass& fc = classes_[cls];
      if (fc.frozen || std::none_of(fc.links().begin(), fc.links().end(), saturated)) {
        continue;
      }
      const int size = static_cast<int>(fc.members.size());
      fc.frozen = true;
      fc.rate = level;
      unfrozen_flows -= size;
      std::array<double, 4> sums{};
      for (std::size_t i = 0; i < fc.num_links; ++i) {
        sums[i] = links_[fc.link_slots[i]].frozen_sum;
      }
      AddPerMember(sums, level, size);
      for (std::size_t i = 0; i < fc.num_links; ++i) {
        links_[fc.link_slots[i]].unfrozen -= size;
        links_[fc.link_slots[i]].frozen_sum = sums[i];
      }
    }
  }
  HOPLITE_CHECK_EQ(unfrozen_flows, 0) << "progressive filling did not converge";
}

void RackFabric::FillWeighted(int unfrozen_flows) {
  // Hierarchical (two-level) max-min: each contended link divides capacity
  // across *tenant demand groups* in proportion to QosConfig weights, then
  // evenly across each group's flows. Each round solves every contended
  // link's tenant water level nu (sum over groups of max(frozen, w * nu) ==
  // capacity), derives each group's per-flow candidate rate, and freezes the
  // flows of the globally tightest group(s) at that minimum: those flows are
  // at their hierarchical bottleneck, and every other link they cross can
  // sustain the granted rate (its own candidate was no smaller). Candidates
  // are monotone non-decreasing across rounds, so assigning the global
  // minimum level directly keeps the component-local pass bit-identical to
  // a whole-fabric pass, exactly like FillMaxMin.
  for (const std::size_t link : comp_links_) links_[link].wfq.clear();
  // Build each link's demand groups in first-appearance order of the sorted
  // component classes: a deterministic order, so the solver's float-sum
  // order is reproducible run to run.
  for (const std::size_t cls : comp_classes_) {
    const FlowClass& fc = classes_[cls];
    for (const std::size_t link : fc.links()) {
      Link& l = links_[link];
      qos::TenantDemand* group = GroupOf(l, fc.tenant);
      if (group == nullptr) {
        group = &l.wfq.emplace_back(qos::TenantDemand{
            fc.tenant, config_.qos.WeightOf(fc.tenant), /*frozen=*/0.0, /*unfrozen=*/0,
            /*cand=*/0.0});
      }
      group->unfrozen += static_cast<int>(fc.members.size());
    }
  }

  int guard = static_cast<int>(comp_classes_.size() + comp_links_.size()) + 1;
  while (unfrozen_flows > 0 && guard-- > 0) {
    double best = std::numeric_limits<double>::infinity();
    for (const std::size_t link : comp_links_) {
      Link& l = links_[link];
      if (l.unfrozen == 0) continue;
      const double nu = qos::SolveTenantWaterLevel(l.wfq, l.capacity);
      for (qos::TenantDemand& g : l.wfq) {
        if (g.unfrozen == 0) continue;
        g.cand = std::max(0.0, g.weight * nu - g.frozen) / g.unfrozen;
        best = std::min(best, g.cand);
      }
    }
    HOPLITE_CHECK(std::isfinite(best)) << "unfrozen flow with no contended link";
    const double rate = std::max(best, kMinRate);
    const double cut = best + std::max(best, 1.0) * kFreezeEps;
    for (const std::size_t cls : comp_classes_) {
      FlowClass& fc = classes_[cls];
      const auto tightest = [&](std::size_t link) {
        const qos::TenantDemand* group = GroupOf(links_[link], fc.tenant);
        return group->unfrozen > 0 && group->cand <= cut;
      };
      if (fc.frozen || std::none_of(fc.links().begin(), fc.links().end(), tightest)) continue;
      const int size = static_cast<int>(fc.members.size());
      fc.frozen = true;
      fc.rate = rate;
      unfrozen_flows -= size;
      for (const std::size_t link : fc.links()) {
        Link& l = links_[link];
        qos::TenantDemand* group = GroupOf(l, fc.tenant);
        l.unfrozen -= size;
        group->unfrozen -= size;
        std::array<double, 2> sums{l.frozen_sum, group->frozen};
        AddPerMember(sums, rate, size);
        l.frozen_sum = sums[0];
        group->frozen = sums[1];
      }
    }
  }
  HOPLITE_CHECK_EQ(unfrozen_flows, 0) << "weighted filling did not converge";
}

void RackFabric::ArmAqmChecks() {
  // Only ToR uplinks carry AQM queues (the oversubscribed resource).
  for (const std::size_t link : comp_links_) {
    if (link < UplinkLink(0) || link >= DownlinkLink(0)) continue;
    det::Set<qos::TenantId> tenants;
    for (const std::size_t cls : links_[link].classes) tenants.insert(classes_[cls].tenant);
    for (const qos::TenantId tenant : tenants) {
      if (SojournAboveTarget(link, tenant) && aqm_.Arm(static_cast<int>(link), tenant)) {
        sim_.ScheduleAfter(aqm_.interval(),
                           [this, link, tenant] { OnAqmCheck(link, tenant); });
      }
    }
  }
}

bool RackFabric::SojournAboveTarget(std::size_t link, qos::TenantId tenant) const {
  const SimTime now = sim_.Now();
  double bytes = 0;
  double rate = 0;
  for (const std::size_t cls : links_[link].classes) {
    const FlowClass& fc = classes_[cls];
    if (fc.tenant != tenant) continue;
    for (const Member& m : fc.members) {
      bytes += RemainingAt(m, fc.rate, now);
      rate += fc.rate;
    }
  }
  return rate > 0.0 && bytes * 1e9 > static_cast<double>(aqm_.sojourn_target()) * rate;
}

void RackFabric::OnAqmCheck(std::size_t link, qos::TenantId tenant) {
  const qos::CodelAqm::Verdict verdict =
      aqm_.OnCheck(static_cast<int>(link), tenant, SojournAboveTarget(link, tenant));
  if (!verdict.mark) return;  // back under target: queue reset to quiescent

  // CoDel's early "drop", applied to the queue the sojourn was measured
  // over: every flow of the tenant's virtual queue on this link leaves the
  // wire for one pause, and each distinct sending client hears about it.
  // Pausing a single flow could not help anyone under WFQ — the tenant's
  // link share is unchanged while its other flows stay on the wire — so
  // the mark backs the whole per-tenant queue off, the flow-queuing
  // analogue of CE-marking the aggregate. Flows pause in ascending id.
  std::vector<TransferId> queue;
  det::Set<NodeID> senders;
  for (const std::size_t cls : links_[link].classes) {
    const FlowClass& fc = classes_[cls];
    if (fc.tenant != tenant) continue;
    senders.insert(fc.src);
    for (const Member& m : fc.members) queue.push_back(m.id);
  }
  std::sort(queue.begin(), queue.end());
  for (const TransferId id : queue) PauseFlow(id);
  for (const NodeID src : senders) NotifyBackpressure(src, tenant);
  sim_.ScheduleAfter(verdict.next_check,
                     [this, link, tenant] { OnAqmCheck(link, tenant); });
}

void RackFabric::PauseFlow(TransferId id) {
  auto it = flows_.find(id);
  HOPLITE_CHECK(it != flows_.end());
  Flow& flow = it->second;
  HOPLITE_CHECK(flow.stage == Stage::kWire);
  std::vector<std::size_t>& dirty = dirty_scratch_;
  dirty.clear();
  flow.remaining = LeaveClass(id, flow, dirty);
  flow.stage = Stage::kPaused;
  flow.delivery_event =
      sim_.ScheduleAfter(aqm_.pause(), [this, id] { ResumeFlow(id); });
  Recompute(dirty);
  RescheduleCompletion();
}

void RackFabric::ResumeFlow(TransferId id) {
  auto it = flows_.find(id);
  HOPLITE_CHECK(it != flows_.end());
  Flow& flow = it->second;
  HOPLITE_CHECK(flow.stage == Stage::kPaused);
  flow.stage = Stage::kWire;
  flow.delivery_event = sim::EventId{};
  std::vector<std::size_t>& dirty = dirty_scratch_;
  dirty.clear();
  JoinClass(id, flow, flow.remaining, dirty);
  Recompute(dirty);
  RescheduleCompletion();
}

void RackFabric::AuditFairShare() const {
  // Covers the whole fabric, not just the recomputed component: untouched
  // components keep their rates, so their invariants must still hold.
  const double eps = 1e-3;
  std::vector<double> rate_sum(links_.size(), 0);
  std::vector<double> rate_max(links_.size(), 0);
  for (std::size_t link = 0; link < links_.size(); ++link) {
    int flows_on_link = 0;
    for (const std::size_t cls : links_[link].classes) {
      const FlowClass& fc = classes_[cls];
      rate_sum[link] += fc.rate * static_cast<double>(fc.members.size());
      rate_max[link] = std::max(rate_max[link], fc.rate);
      flows_on_link += static_cast<int>(fc.members.size());
    }
    // Counts every listing, so a class listed on a foreign link shows too.
    HOPLITE_AUDIT(flows_on_link == links_[link].flows) << "link " << link << " flow count";
    // Rate conservation: granted fair shares never exceed the link capacity.
    // WFQ mode clamps frozen rates to kMinRate, which can numerically
    // overshoot by up to one clamp per flow on the link.
    const double clamp_slack = config_.qos.wfq ? links_[link].flows * kMinRate : 0.0;
    HOPLITE_AUDIT(rate_sum[link] <= links_[link].capacity * (1 + 1e-6) + eps + clamp_slack)
        << "link " << link << " oversubscribed: " << rate_sum[link] << " of "
        << links_[link].capacity;
  }
  std::size_t class_members = 0;
  for (std::size_t cls = 0; cls < classes_.size(); ++cls) {
    const FlowClass& fc = classes_[cls];
    class_members += fc.members.size();
    if (fc.members.empty()) continue;  // a free slot
    // Membership: each member is a live wire flow of this class, ids
    // ascending, and the class is listed once on each of its links.
    for (std::size_t i = 0; i < fc.members.size(); ++i) {
      const Member& m = fc.members[i];
      const auto it = flows_.find(m.id);
      HOPLITE_AUDIT(it != flows_.end() && it->second.stage == Stage::kWire &&
                    it->second.cls == cls && (i == 0 || fc.members[i - 1].id < m.id) &&
                    m.remaining >= 0)
          << "flow " << m.id << " misfiled in class " << cls;
    }
    for (const std::size_t link : fc.links()) {
      const auto& on_link = links_[link].classes;
      HOPLITE_AUDIT(std::count(on_link.begin(), on_link.end(), cls) == 1)
          << "class " << cls << " not listed once on link " << link;
    }
    // The class record is the per-member minimum (monotonicity at a common
    // anchor makes Recompute's smallest-remaining shortcut exact), and the
    // class sits in the heaps exactly when it has one.
    const Record least = MinRecordOf(fc);
    HOPLITE_AUDIT(least.own == fc.t_own && least.half == fc.t_half &&
                  (fc.own_pos != kNotInHeap) == (fc.t_own != kSimTimeMax) &&
                  (fc.half_pos != kNotInHeap) == (fc.t_own != kSimTimeMax))
        << "class " << cls << " record (" << fc.t_own << ", " << fc.t_half
        << ") vs member minimum (" << least.own << ", " << least.half << ")";
    // Max-min optimality: every class is bottlenecked somewhere — it crosses
    // a link with no slack where no concurrent flow gets more. Per-flow
    // equality does not hold under WFQ (shares are weighted by tenant and
    // split within the tenant, so concurrent flows on the bottleneck
    // legitimately differ); conservation, membership and the counters are
    // the audited invariants in that mode.
    HOPLITE_AUDIT(config_.qos.wfq ||
                  std::any_of(fc.links().begin(), fc.links().end(), [&](std::size_t link) {
                    return links_[link].capacity - rate_sum[link] <=
                               links_[link].capacity * 1e-6 + eps &&
                           fc.rate >= rate_max[link] - eps;
                  }))
        << "class " << cls << " (rate " << fc.rate << ") has no max-min bottleneck";
  }
  std::size_t wire_count = 0;
  for (const TransferId id : det::SortedKeys(flows_)) {
    if (flows_.find(id)->second.stage == Stage::kWire) ++wire_count;
  }
  HOPLITE_AUDIT(wire_count == wire_flow_count_ && class_members == wire_flow_count_)
      << "(" << wire_count << " wire flows, " << class_members << " class members vs counter "
      << wire_flow_count_ << ")";
}

void RackFabric::SetRecord(std::size_t cls, Record record) {
  FlowClass& fc = classes_[cls];
  fc.t_own = record.own;
  fc.t_half = record.half;
  const bool listed = record.own != kSimTimeMax;
  if (listed) work_.heap_pushes += 1;
  for (RecordHeap* heap : {&own_heap_, &half_heap_}) {
    std::size_t& pos = fc.*heap->pos;
    if (listed) {
      if (pos == kNotInHeap) {
        pos = heap->slots.size();
        heap->slots.push_back(cls);
      }
      HeapSift(*heap, pos);
    } else if (pos != kNotInHeap) {
      // Unlist: the tail slot fills the hole and sifts from there.
      const std::size_t hole = std::exchange(pos, kNotInHeap);
      heap->slots[hole] = heap->slots.back();
      heap->slots.pop_back();
      if (hole < heap->slots.size()) HeapSift(*heap, hole);
    }
  }
}

void RackFabric::HeapSift(RecordHeap& heap, std::size_t index) {
  // A changed key moves one way only: up past later parents, else down past
  // earlier children. Ties break by slot, so the order is strict.
  std::vector<std::size_t>& slots = heap.slots;
  const std::size_t cls = slots[index];
  const auto before = [&](std::size_t a, std::size_t b) {
    const SimTime ta = classes_[a].*heap.time;
    const SimTime tb = classes_[b].*heap.time;
    return ta != tb ? ta < tb : a < b;
  };
  const auto place = [&](std::size_t at, std::size_t slot) {
    slots[at] = slot;
    classes_[slot].*heap.pos = at;
  };
  while (index > 0 && before(cls, slots[(index - 1) / 2])) {
    place(index, slots[(index - 1) / 2]);
    index = (index - 1) / 2;
  }
  for (std::size_t child = 2 * index + 1; child < slots.size(); child = 2 * index + 1) {
    if (child + 1 < slots.size() && before(slots[child + 1], slots[child])) ++child;
    if (!before(slots[child], cls)) break;
    place(index, slots[child]);
    index = child;
  }
  place(index, cls);
}

void RackFabric::RescheduleCompletion() {
  if (completion_event_.IsValid()) {
    sim_.Cancel(completion_event_);
    completion_event_ = sim::EventId{};
  }
  if (own_heap_.slots.empty()) return;
  const SimTime now = sim_.Now();
  SimTime at = std::max(classes_[own_heap_.slots.front()].t_own, now);
  // A flow whose residue has already drained under the done threshold
  // completes at the very next opportunity: any mutation that lands while
  // it is sub-residue fires the completion sweep immediately, exactly like
  // a per-event full scan's `remaining <= done -> at = now` rule.
  if (classes_[half_heap_.slots.front()].t_half <= now) at = now;
  completion_event_ = sim_.ScheduleAt(at, [this] { OnWireCompletion(); });
}

void RackFabric::OnWireCompletion() {
  completion_event_ = sim::EventId{};
  const SimTime now = sim_.Now();
  // Due classes: those whose piggyback window opened for some member. They
  // leave the heaps here; each gets a fresh record below or in Recompute.
  std::vector<std::size_t>& due = due_scratch_;
  due.clear();
  while (!half_heap_.slots.empty() && classes_[half_heap_.slots.front()].t_half <= now) {
    due.push_back(half_heap_.slots.front());
    SetRecord(due.back(), Record{});
  }

  // The per-flow sweep over each due class: a member whose window opened
  // completes if its residue is under the threshold; finished members are
  // compacted out in place (the rest stay id-sorted).
  std::vector<TransferId>& done = done_scratch_;
  done.clear();
  std::vector<std::size_t>& dirty = dirty_scratch_;
  dirty.clear();
  for (const std::size_t cls : due) {
    FlowClass& fc = classes_[cls];
    std::vector<Member>& members = fc.members;
    work_.members_touched += members.size();
    // At one anchor and rate the window opens monotonically in the residue
    // (see the file header), so a residue at or above one whose window is
    // still shut is shut too: most members skip RecordOf.
    const SimTime bound_anchor = members.front().anchor;
    double shut_from = std::numeric_limits<double>::infinity();
    std::size_t kept = 0;
    for (Member m : members) {
      const bool bounded = m.anchor == bound_anchor;
      if (bounded && m.remaining >= shut_from) {
        // still shut: keep
      } else if (RecordOf(m, fc.rate).half > now) {
        if (bounded) shut_from = std::min(shut_from, m.remaining);
      } else if (RemainingAt(m, fc.rate, now) <= kDoneBytes) {
        done.push_back(m.id);
        continue;
      } else {
        // Residue not under the threshold yet (the sweep window was
        // conservative): re-anchor the member alone so the next event still
        // sees it. A Recompute of its class would re-anchor it identically.
        Materialize(m, fc.rate, now);
      }
      members[kept++] = m;
    }
    const auto finished = static_cast<int>(members.size() - kept);
    members.resize(kept);
    if (finished > 0) {
      ShrinkClass(cls, finished, dirty);  // the Recompute below re-rates the class
    } else {
      // Only re-anchored members: the class left its common anchor, so its
      // record is taken member by member.
      work_.members_touched += members.size();
      SetRecord(cls, MinRecordOf(fc));
    }
  }
  // Completions run in ascending TransferId order, exactly like a whole-map
  // sweep.
  std::sort(done.begin(), done.end());
  for (const TransferId id : done) EnterDeliveryStage(id, flows_.find(id)->second);
  if (!dirty.empty()) Recompute(dirty);
  RescheduleCompletion();
}

void RackFabric::EnterDeliveryStage(TransferId id, Flow& flow) {
  flow.stage = Stage::kDelivery;
  SimDuration latency = config_.one_way_latency + config_.per_message_overhead;
  if (RackOf(flow.src) != RackOf(flow.dst)) {
    latency += config_.fabric.cross_rack_extra_latency;
  }
  flow.delivery_event = sim_.ScheduleAfter(latency, [this, id] {
    auto it = flows_.find(id);
    HOPLITE_CHECK(it != flows_.end());
    DeliveryCallback cb = std::move(it->second.on_delivered);
    flows_.erase(it);
    cb();
  });
}

}  // namespace hoplite::net
