#include "core/reduce.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "core/client.h"
#include "core/cluster.h"

namespace hoplite::core {

namespace {
/// Sentinel for "tree position has no source assigned".
constexpr std::size_t kNoSource = static_cast<std::size_t>(-1);
}  // namespace

// ======================================================================
// ReduceCoordinator
// ======================================================================

ReduceCoordinator::ReduceCoordinator(HopliteClient& client, ReduceId id, ReduceSpec spec,
                                     RefPromise<ReduceResult> promise)
    : client_(client), id_(id), spec_(std::move(spec)), promise_(std::move(promise)) {
  num_objects_ = spec_.num_objects;
  HOPLITE_CHECK_GE(num_objects_, 1u);
  HOPLITE_CHECK_LE(num_objects_, spec_.sources.size());
  sources_.reserve(spec_.sources.size());
  for (std::size_t i = 0; i < spec_.sources.size(); ++i) {
    SourceInfo info;
    info.id = spec_.sources[i];
    sources_.push_back(info);
    const bool fresh = source_index_by_id_.emplace(info.id.value(), i).second;
    HOPLITE_CHECK(fresh) << "duplicate source " << info.id << " in Reduce";
  }
}

ReduceCoordinator::~ReduceCoordinator() {
  auto& dir = client_.cluster().directory();
  for (const SourceInfo& source : sources_) {
    if (source.subscription != 0) dir.Unsubscribe(source.id, source.subscription);
  }
}

void ReduceCoordinator::Start() {
  auto& dir = client_.cluster().directory();
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    // Route through the client's coordinator table so that a coordinator
    // destroyed mid-flight (node death, completion) never dangles.
    sources_[i].subscription = dir.Subscribe(
        sources_[i].id,
        [client = &client_, id = id_, i](const directory::LocationEvent& event) {
          if (auto* self = client->LiveCoordinator(id)) self->OnLocationEvent(i, event);
        });
  }
}

void ReduceCoordinator::OnLocationEvent(std::size_t source_index,
                                        const directory::LocationEvent& event) {
  if (done_) return;
  SourceInfo& source = sources_[source_index];

  if (event.removed) {
    // A pending (not yet placed) arrival lost its only copy; forget it.
    // Placed sources are handled by OnNodeFailed (which has the full
    // failure context).
    if (source.arrived && source.position < 0 && source.host == event.node) {
      source.arrived = false;
      source.host = kInvalidNode;
      pending_arrivals_.erase(
          std::remove(pending_arrivals_.begin(), pending_arrivals_.end(), source_index),
          pending_arrivals_.end());
    }
    return;
  }

  if (source.arrived) return;  // additional copies don't matter
  source.arrived = true;
  source.host = event.node;
  source.is_inline = event.is_inline;

  if (object_size_ < 0) {
    object_size_ = event.object_size;
    small_path_ = event.is_inline;
    if (!small_path_) InitializeTree(event.object_size);
  }
  HOPLITE_CHECK_EQ(event.object_size, object_size_)
      << "Reduce sources must have equal sizes (source " << source.id << ")";
  HOPLITE_CHECK_EQ(event.is_inline, small_path_)
      << "mixing inline and store-resident sources in one Reduce";

  if (small_path_) {
    SmallPathFetch(source_index);
  } else {
    ProcessArrival(source_index);
  }
}

void ReduceCoordinator::InitializeTree(std::int64_t object_size) {
  const auto& net_cfg = client_.cluster().network().config();
  const int n = static_cast<int>(num_objects_);
  const int forced = client_.config().forced_reduce_degree;
  int degree = 0;
  if (forced > 0) {
    degree = std::min(forced, n);
  } else {
    const double latency_s =
        ToSeconds(net_cfg.one_way_latency + net_cfg.per_message_overhead);
    degree = ChooseReduceDegree(n, latency_s, net::kNicBandwidth,
                                static_cast<double>(object_size),
                                static_cast<double>(kChunkSize));
  }
  shape_.emplace(n, degree);
  fill_cursor_.emplace(*shape_);
  position_source_.assign(static_cast<std::size_t>(n), kNoSource);
  position_epoch_.assign(static_cast<std::size_t>(n), 0);
  total_chunks_ = store::ChunkLayout{object_size, kChunkSize}.num_chunks();

  // Materialize the sink: the target object starts life as a partial copy in
  // the caller's store, immediately visible to the directory so downstream
  // consumers (broadcast, chained Reduce) can begin streaming it (§3.3).
  auto& st = client_.local_store();
  HOPLITE_CHECK(!st.Contains(spec_.target))
      << "Reduce target " << spec_.target << " already exists";
  st.CreatePartial(spec_.target, object_size, store::CopyKind::kReduced, kChunkSize);
  client_.cluster().directory().RegisterPartial(spec_.target, client_.node(), object_size);
  sink_created_ = true;
}

void ReduceCoordinator::ProcessArrival(std::size_t source_index) {
  if (!vacant_positions_.empty()) {
    // Repair first: a vacant position blocks its whole ancestor chain.
    const int position = vacant_positions_.back();
    vacant_positions_.pop_back();
    AssignPosition(position, source_index);
    return;
  }
  if (filled_ < TreeSize()) {
    ++filled_;
    AssignPosition(fill_cursor_->Next(), source_index);
    return;
  }
  pending_arrivals_.push_back(source_index);
}

void ReduceCoordinator::AssignPosition(int position, std::size_t source_index) {
  position_source_[static_cast<std::size_t>(position)] = source_index;
  sources_[source_index].position = position;
  SendAssignment(position);
  // Children that are already placed need to learn their (possibly new)
  // parent host.
  for (const int child : shape_->Children(position)) {
    if (position_source_[static_cast<std::size_t>(child)] != kNoSource) {
      SendAssignment(child);
    }
  }
}

ReduceAssignment ReduceCoordinator::MakeAssignment(int position) const {
  const std::size_t source_index = position_source_[static_cast<std::size_t>(position)];
  HOPLITE_CHECK_NE(source_index, kNoSource);
  ReduceAssignment a;
  a.reduce_id = id_;
  a.coordinator = client_.node();
  a.tree_index = position;
  a.source = sources_[source_index].id;
  a.op = spec_.op;
  a.object_size = object_size_;
  a.total_chunks = total_chunks_;
  const std::vector<int> children = shape_->Children(position);
  a.num_children = static_cast<int>(children.size());
  const int parent = shape_->Parent(position);
  a.parent_index = parent;
  if (parent == -1) {
    a.parent_host = client_.node();  // the sink
    a.parent_epoch = position_epoch_[0];
  } else if (position_source_[static_cast<std::size_t>(parent)] != kNoSource) {
    a.parent_host = sources_[position_source_[static_cast<std::size_t>(parent)]].host;
    a.parent_epoch = position_epoch_[static_cast<std::size_t>(parent)];
  } else {
    a.parent_host = kInvalidNode;  // parent not placed yet; update follows
    a.parent_epoch = position_epoch_[static_cast<std::size_t>(parent)];
  }
  a.out_epoch = position_epoch_[static_cast<std::size_t>(position)];
  a.child_epochs.reserve(children.size());
  for (const int child : children) {
    a.child_epochs.emplace_back(child, position_epoch_[static_cast<std::size_t>(child)]);
  }
  a.tenant = spec_.tenant;
  return a;
}

void ReduceCoordinator::SendAssignment(int position) {
  const ReduceAssignment assignment = MakeAssignment(position);
  const NodeID host = sources_[position_source_[static_cast<std::size_t>(position)]].host;
  auto& cluster = client_.cluster();
  cluster.SendControl(client_.node(), host, [&cluster, host, assignment] {
    cluster.client(host).HandleReduceAssign(assignment);
  });
}

void ReduceCoordinator::OnNodeFailed(NodeID node) {
  if (done_ || small_path_) return;  // small path survives via the directory
  if (!shape_) return;               // nothing placed yet

  // Drop pending arrivals hosted on the dead node.
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    SourceInfo& source = sources_[i];
    if (source.arrived && source.position < 0 && source.host == node) {
      source.arrived = false;
      source.host = kInvalidNode;
      pending_arrivals_.erase(
          std::remove(pending_arrivals_.begin(), pending_arrivals_.end(), i),
          pending_arrivals_.end());
    }
  }

  // Vacate every placed position hosted on the dead node.
  std::vector<int> vacated;
  for (int position = 0; position < static_cast<int>(TreeSize()); ++position) {
    const std::size_t source_index = position_source_[static_cast<std::size_t>(position)];
    if (source_index == kNoSource) continue;
    SourceInfo& source = sources_[source_index];
    if (source.host != node) continue;
    source.arrived = false;  // the object itself is gone; a rejoin re-creates it
    source.host = kInvalidNode;
    source.position = -1;
    position_source_[static_cast<std::size_t>(position)] = kNoSource;
    position_epoch_[static_cast<std::size_t>(position)] += 1;
    vacated.push_back(position);
  }
  if (!vacated.empty()) RepairAfterFailure(vacated);
}

void ReduceCoordinator::RepairAfterFailure(const std::vector<int>& vacated) {
  // §3.5.2: the failed position is replaced by the next ready object; every
  // ancestor clears its partially reduced result (at most log_d n of them),
  // and unaffected siblings re-send their retained outputs.
  det::Set<int> resets;
  for (const int position : vacated) {
    for (const int ancestor : shape_->Ancestors(position)) resets.insert(ancestor);
  }
  // Epoch bumps first so all messages below carry consistent numbers.
  bool root_affected = false;
  for (const int position : resets) {
    position_epoch_[static_cast<std::size_t>(position)] += 1;
    if (position == 0) root_affected = true;
  }
  for (const int position : vacated) {
    if (position == 0) root_affected = true;
  }

  auto& cluster = client_.cluster();
  for (const int position : resets) {
    const std::size_t source_index = position_source_[static_cast<std::size_t>(position)];
    if (source_index == kNoSource) continue;  // ancestor itself vacated
    const NodeID host = sources_[source_index].host;
    const ReduceEpoch out_epoch = position_epoch_[static_cast<std::size_t>(position)];
    std::vector<std::pair<int, ReduceEpoch>> child_epochs;
    for (const int child : shape_->Children(position)) {
      child_epochs.emplace_back(child, position_epoch_[static_cast<std::size_t>(child)]);
    }
    const ReduceId id = id_;
    const int tree_index = position;
    cluster.SendControl(client_.node(), host,
                        [&cluster, host, id, tree_index, out_epoch, child_epochs] {
                          cluster.client(host).HandleReduceReset(id, tree_index, out_epoch,
                                                                 child_epochs);
                        });
    // Siblings of the failure path keep their outputs; ask them to re-send.
    for (const int child : shape_->Children(position)) {
      if (resets.count(child) > 0) continue;  // will regenerate on its own
      const std::size_t child_source = position_source_[static_cast<std::size_t>(child)];
      if (child_source == kNoSource) continue;  // vacated; replacement streams fresh
      const NodeID child_host = sources_[child_source].host;
      const int child_index = child;
      cluster.SendControl(client_.node(), child_host, [&cluster, child_host, id = id_,
                                                       child_index] {
        cluster.client(child_host).HandleReduceRepush(id, child_index);
      });
    }
  }

  if (root_affected) ResetSink();

  // Finally, splice replacements into the vacated positions (next ready
  // objects — possibly the rejoined ones, §3.5.2).
  for (const int position : vacated) {
    if (!pending_arrivals_.empty()) {
      const std::size_t source_index = pending_arrivals_.front();
      pending_arrivals_.pop_front();
      AssignPosition(position, source_index);
    } else {
      vacant_positions_.push_back(position);
    }
  }
}

void ReduceCoordinator::ResetSink() {
  sink_chunks_ = 0;
  auto& st = client_.local_store();
  if (sink_created_ && st.Contains(spec_.target) && !st.IsComplete(spec_.target)) {
    st.ResetProgress(spec_.target);
    client_.ResetDeliveries(spec_.target);
    client_.CascadeObjectReset(spec_.target);
  }
}

void ReduceCoordinator::OnSinkChunk(const ReduceChunkMsg& msg) {
  if (done_ || !sink_created_) return;
  if (msg.epoch != position_epoch_[0]) return;  // stale root stream
  auto& st = client_.local_store();
  if (!st.Contains(spec_.target)) return;
  if (msg.final) {
    st.MarkComplete(spec_.target, msg.payload);
    client_.cluster().directory().MarkComplete(spec_.target, client_.node());
    Finish();
  } else {
    sink_chunks_ = std::max(sink_chunks_, msg.chunk_upto);
    st.AdvanceChunks(spec_.target, msg.chunk_upto);
  }
}

void ReduceCoordinator::Finish() {
  HOPLITE_CHECK(!done_);
  done_ = true;
  ReduceResult result;
  result.target = spec_.target;
  if (small_path_) {
    for (const SourceInfo& source : sources_) {
      (source.fetched ? result.reduced : result.unreduced).push_back(source.id);
    }
  } else {
    std::unordered_set<std::uint64_t> in_tree;
    for (std::size_t position = 0; position < TreeSize(); ++position) {
      const std::size_t source_index = position_source_[position];
      HOPLITE_CHECK_NE(source_index, kNoSource);
      result.reduced.push_back(sources_[source_index].id);
      in_tree.insert(sources_[source_index].id.value());
    }
    for (const SourceInfo& source : sources_) {
      if (in_tree.count(source.id.value()) == 0) result.unreduced.push_back(source.id);
    }
    // Tear down the sessions on every host that took part.
    auto& cluster = client_.cluster();
    std::unordered_set<NodeID> hosts;
    for (std::size_t position = 0; position < TreeSize(); ++position) {
      hosts.insert(sources_[position_source_[position]].host);
    }
    // hoplite-lint: allow(unordered-iter) -- teardown message order is pinned
    // to the frozen figure baselines: any other deterministic order (sorted,
    // first-position, reverse) shifts control-message contention during the
    // broadcast half of allreduce and moves fig7/fig13 values. The order is
    // still reproducible run-to-run (fixed insertion sequence, no hash
    // randomization); only cross-stdlib portability is waived. Re-migrate to
    // det::Set the next time the figure baselines are re-frozen.
    for (const NodeID host : hosts) {
      if (!cluster.IsAlive(host)) continue;
      cluster.SendControl(client_.node(), host, [&cluster, host, id = id_] {
        cluster.client(host).HandleReduceTeardown(id);
      });
    }
  }
  promise_.Resolve(std::move(result));
  client_.FinishCoordinator(id_);
}

// ----------------------------------------------------------------------
// Small-object fast path (§3.2 / Appendix A): all sources live in the
// directory's inline cache; fetch the first num_objects payloads and fold.
// ----------------------------------------------------------------------

void ReduceCoordinator::SmallPathFetch(std::size_t source_index) {
  if (small_fetched_ >= num_objects_) return;  // enough inputs already
  SourceInfo& source = sources_[source_index];
  if (source.fetched) return;
  source.fetched = true;
  ++small_fetched_;
  RefPromise<store::Buffer> fetched(&client_.cluster().simulator(), source.id);
  client_.IssueGet(source.id, GetOptions{.read_only = true, .tenant = spec_.tenant}, fetched);
  fetched.ref().Then(
      [client = &client_, id = id_, source_index](const store::Buffer& payload) {
        if (auto* self = client->LiveCoordinator(id)) {
          self->OnSmallPayload(source_index, payload);
        }
      });
}

void ReduceCoordinator::OnSmallPayload(std::size_t source_index,
                                       const store::Buffer& payload) {
  small_payloads_.emplace_back(source_index, payload);
  MaybeFinishSmallPath();
}

void ReduceCoordinator::MaybeFinishSmallPath() {
  if (done_ || small_payloads_.size() < num_objects_) return;
  // Fold deterministically by source index (ops are commutative+associative).
  std::sort(small_payloads_.begin(), small_payloads_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  store::Buffer result = small_payloads_[0].second;
  for (std::size_t i = 1; i < small_payloads_.size(); ++i) {
    result = store::Buffer::Reduce(result, small_payloads_[i].second, spec_.op);
  }
  RefPromise<ObjectID> stored(&client_.cluster().simulator(), spec_.target);
  client_.IssuePut(spec_.target, std::move(result), stored, spec_.tenant);
  stored.ref().Then([client = &client_, id = id_] {
    if (auto* self = client->LiveCoordinator(id)) self->Finish();
  });
}

// ======================================================================
// ReduceSession
// ======================================================================

ReduceSession::ReduceSession(HopliteClient& client, ReduceAssignment assignment)
    : client_(client), assignment_(std::move(assignment)) {
  for (const auto& [child, epoch] : assignment_.child_epochs) {
    expected_child_epoch_[child] = epoch;
    child_upto_[child] = 0;
  }
  SubscribeOwnObject();
}

ReduceSession::~ReduceSession() {
  if (subscribed_ && client_.local_store().Contains(assignment_.source)) {
    client_.local_store().Unsubscribe(assignment_.source, own_subscription_);
  }
}

void ReduceSession::SubscribeOwnObject() {
  auto& st = client_.local_store();
  if (!st.Contains(assignment_.source)) {
    // Stale assignment from before a local restart; the coordinator has (or
    // will) vacate this position. Stay inert.
    HOPLITE_LOG(Warning) << "reduce session for missing object " << assignment_.source;
    return;
  }
  subscribed_ = true;
  own_subscription_ = st.OnChunkProgress(
      assignment_.source, [this](std::int64_t chunks_ready) {
        own_ready_ = chunks_ready;
        auto& store_ref = client_.local_store();
        if (store_ref.Contains(assignment_.source) &&
            store_ref.IsComplete(assignment_.source)) {
          own_complete_ = true;
          own_payload_ = store_ref.PayloadOf(assignment_.source);
        }
        Pump();
      });
}

void ReduceSession::UpdateAssignment(const ReduceAssignment& assignment) {
  HOPLITE_CHECK_EQ(assignment.tree_index, assignment_.tree_index);
  HOPLITE_CHECK(assignment.source == assignment_.source)
      << "tree position reassigned to a different object must create a new session";
  const bool parent_changed = assignment.parent_host != assignment_.parent_host ||
                              assignment.parent_epoch != assignment_.parent_epoch;
  const bool epoch_changed = assignment.out_epoch != assignment_.out_epoch;
  assignment_ = assignment;
  for (const auto& [child, epoch] : assignment.child_epochs) {
    auto it = expected_child_epoch_.find(child);
    if (it == expected_child_epoch_.end() || it->second != epoch) {
      expected_child_epoch_[child] = epoch;
      child_upto_[child] = 0;
      child_payload_.erase(child);
    }
  }
  if (parent_changed || epoch_changed) {
    pushed_upto_ = 0;
    final_sent_ = false;
    // Chunks in flight to the old (possibly dead) parent will never ack;
    // release the window so the redirected stream can start immediately.
    // Acks from a still-alive old parent are clamped in OnChunkDelivered.
    in_flight_ = 0;
  }
  Pump();
}

void ReduceSession::OnChildChunk(const ReduceChunkMsg& msg) {
  auto expected = expected_child_epoch_.find(msg.from_index);
  if (expected == expected_child_epoch_.end() || expected->second != msg.epoch) return;
  auto& upto = child_upto_[msg.from_index];
  upto = std::max(upto, msg.chunk_upto);
  if (msg.final) child_payload_[msg.from_index] = msg.payload;
  Pump();
}

void ReduceSession::Reset(ReduceEpoch out_epoch,
                          std::vector<std::pair<int, ReduceEpoch>> child_epochs) {
  assignment_.out_epoch = out_epoch;
  expected_child_epoch_.clear();
  child_upto_.clear();
  child_payload_.clear();
  for (const auto& [child, epoch] : child_epochs) {
    expected_child_epoch_[child] = epoch;
    child_upto_[child] = 0;
  }
  pushed_upto_ = 0;
  final_sent_ = false;
  in_flight_ = 0;  // pre-reset chunks will never be (meaningfully) acked
  Pump();
}

void ReduceSession::Repush() {
  pushed_upto_ = 0;
  final_sent_ = false;
  in_flight_ = 0;  // outstanding chunks belong to the previous epoch
  Pump();
}

void ReduceSession::OnChunkDelivered() {
  in_flight_ = std::max(0, in_flight_ - 1);
  Pump();
}

std::int64_t ReduceSession::OutputReady() const {
  std::int64_t ready = own_ready_;
  for (const auto& [child, upto] : child_upto_) {
    ready = std::min(ready, upto);
  }
  return ready;
}

store::Buffer ReduceSession::ComputeFinalPayload() const {
  HOPLITE_CHECK(own_complete_);
  HOPLITE_CHECK_EQ(child_payload_.size(), expected_child_epoch_.size());
  // Deterministic fold order: own object, then children by tree index
  // (det::Map iterates in ascending key order by construction).
  store::Buffer result = own_payload_;
  for (const auto& [child, payload] : child_payload_) {
    result = store::Buffer::Reduce(result, payload, assignment_.op);
  }
  return result;
}

void ReduceSession::Pump() {
  if (!subscribed_ || final_sent_) return;
  if (assignment_.parent_host == kInvalidNode) return;  // parent not placed yet
  const std::int64_t ready = OutputReady();
  const store::ChunkLayout layout{assignment_.object_size, kChunkSize};
  while (pushed_upto_ < ready && in_flight_ < kTransferWindow) {
    const std::int64_t i = pushed_upto_++;
    const bool final = i + 1 == assignment_.total_chunks;
    ReduceChunkMsg msg;
    msg.reduce_id = assignment_.reduce_id;
    msg.to_index = assignment_.parent_index;
    msg.from_index = assignment_.tree_index;
    msg.epoch = assignment_.out_epoch;
    msg.chunk_upto = i + 1;
    msg.final = final;
    if (final) {
      msg.payload = ComputeFinalPayload();
      final_sent_ = true;
    }
    ++in_flight_;
    client_.SendReduceChunk(assignment_.parent_host, layout.ChunkBytes(i), std::move(msg),
                            assignment_.tenant);
    if (final) break;
  }
}

}  // namespace hoplite::core
