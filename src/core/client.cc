#include "core/client.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "common/det.h"
#include "common/logging.h"
#include "core/cluster.h"
#include "core/reduce.h"

namespace hoplite::core {

namespace {
/// Tokens debited from a tenant's bucket per ECN-like backpressure mark from
/// the fabric's AQM: each mark pushes the tenant's future admissions later.
constexpr double kBackpressurePenaltyOps = 4.0;
}  // namespace

HopliteClient::HopliteClient(HopliteCluster& cluster, NodeID node, HopliteConfig config)
    : cluster_(cluster), node_(node), config_(config) {}

HopliteClient::~HopliteClient() = default;

store::LocalStore& HopliteClient::local_store() { return cluster_.store(node_); }

// ======================================================================
// Public Table 1 surface. Each op builds its promise, registers it so node
// death (and, for Gets, Delete) can fail it, and hands it to the protocol,
// which settles it inline where the work finishes.
// ======================================================================

Ref<ObjectID> HopliteClient::Put(ObjectID object, store::Buffer payload,
                                 qos::TenantId tenant) {
  RefPromise<ObjectID> promise(&cluster_.simulator(), object);
  if (DoomIfDead(promise)) return promise.ref();
  TrackPromise(promise);
  Admit(tenant, promise,
        [this, object, tenant, payload = std::move(payload), promise]() mutable {
          IssuePut(object, std::move(payload), promise, tenant);
        });
  return promise.ref();
}

Ref<store::Buffer> HopliteClient::Get(ObjectID object, GetOptions options) {
  RefPromise<store::Buffer> promise(&cluster_.simulator(), object);
  if (DoomIfDead(promise)) return promise.ref();
  TrackGetPromise(object, promise);
  Admit(options.tenant, promise,
        [this, object, options, promise] { IssueGet(object, options, promise); });
  Ref<store::Buffer> ref = promise.ref();
  if (options.timeout > 0 && !ref.settled()) {
    // Reject the tracked promise itself (not a mirror) so the entry settles
    // and gets pruned; the underlying fetch keeps running — late data can
    // still complete the local copy, only the future gives up. Settling
    // first cancels the timer so a drained run is not held open.
    sim::Engine* sim = &cluster_.simulator();
    const sim::EventId timer = sim->ScheduleAfter(options.timeout, [promise, options] {
      promise.Reject(RefError{RefErrorCode::kTimeout,
                              "Get unsettled after " + std::to_string(options.timeout) +
                                  " ns"});
    });
    ref.OnSettled([sim, timer](const Ref<store::Buffer>&) { sim->Cancel(timer); });
  }
  return ref;
}

Ref<ObjectID> HopliteClient::Delete(ObjectID object) {
  RefPromise<ObjectID> promise(&cluster_.simulator(), object);
  if (DoomIfDead(promise)) return promise.ref();
  TrackPromise(promise);
  const std::uint64_t inc = incarnation_;
  cluster_.directory().DeleteObject(
      object, [this, inc, object, promise](std::vector<NodeID> holders) {
        if (inc != incarnation_) return;
        for (const NodeID holder : holders) {
          if (!cluster_.IsAlive(holder)) continue;
          if (holder == node_) {
            PurgeObject(object);
            continue;
          }
          cluster_.SendControl(node_, holder, [this, holder, object] {
            cluster_.client(holder).HandleDeleteLocal(object);
          });
        }
        promise.Resolve(object);
      });
  return promise.ref();
}

Ref<ReduceResult> HopliteClient::Reduce(ReduceSpec spec) {
  HOPLITE_CHECK(!spec.sources.empty()) << "Reduce needs at least one source";
  if (spec.num_objects == 0 || spec.num_objects > spec.sources.size()) {
    spec.num_objects = spec.sources.size();
  }
  RefPromise<ReduceResult> promise(&cluster_.simulator(), spec.target);
  if (DoomIfDead(promise)) return promise.ref();
  TrackPromise(promise);
  const qos::TenantId tenant = spec.tenant;
  Admit(tenant, promise, [this, spec = std::move(spec), promise]() mutable {
    const ReduceId id =
        (static_cast<ReduceId>(static_cast<std::uint64_t>(node_) + 1) << 40) |
        next_reduce_id_seed_++;
    auto coordinator =
        std::make_unique<ReduceCoordinator>(*this, id, std::move(spec), promise);
    auto* raw = coordinator.get();
    coordinators_.emplace(id, std::move(coordinator));
    raw->Start();
  });
  return promise.ref();
}

template <typename T>
bool HopliteClient::DoomIfDead(const RefPromise<T>& promise) {
  if (cluster_.IsAlive(node_)) return false;
  // Observed deaths pop their batch, so the back one, if any, is this death's.
  if (doomed_batches_.empty()) {
    promise.Reject(RefError{RefErrorCode::kProducerLost,
                            "op issued on dead node " + std::to_string(node_)});
  } else {
    doomed_batches_.back().emplace_back(promise);
  }
  return true;
}

void HopliteClient::TrackGetPromise(ObjectID object,
                                    const RefPromise<store::Buffer>& promise) {
  PrunePromises();
  get_promises_[object].push_back(promise);
}

void HopliteClient::PrunePromises() {
  // Amortized: called on every registration, so neither table accumulates
  // settled entries across long runs. The next sweep waits for as many
  // registrations as this one kept (at least kMinPrunePeriod), so each
  // sweep's work is spread over at least as many registrations as it
  // visits, and the tables never hold more than twice that period.
  // Dropping a settled promise is invisible: rejecting it is a no-op and
  // its state holds no continuations.
  if (++prune_countdown_ < prune_period_) return;
  prune_countdown_ = 0;
  std::size_t kept = 0;
  for (const ObjectID object : det::SortedKeys(get_promises_)) {
    auto& vec = get_promises_.find(object)->second;
    std::erase_if(vec, [](const RefPromise<store::Buffer>& p) { return p.settled(); });
    kept += vec.size();
    if (vec.empty()) get_promises_.erase(object);
  }
  std::erase_if(misc_promises_, [](const TrackedPromise& p) { return p.settled(); });
  prune_period_ = std::max(kMinPrunePeriod, kept + misc_promises_.size());
}

void HopliteClient::RejectGetPromises(ObjectID object, const RefError& error) {
  auto it = get_promises_.find(object);
  if (it == get_promises_.end()) return;
  auto promises = std::move(it->second);
  get_promises_.erase(it);
  for (const auto& promise : promises) promise.Reject(error);
}

// ======================================================================
// Admission control (QoS layer 3): per-tenant token-bucket pacing plus an
// outstanding-op cap, applied before an op touches the protocol. Shaping
// first (admitted ops are delayed to the bucket's grant time), policing
// only at the cap (kThrottled with a retry-after hint) — so a moderately
// bursty tenant is smoothed, and only a runaway one sees failures.
// ======================================================================

HopliteClient::TenantAdmission* HopliteClient::AdmissionOf(qos::TenantId tenant) {
  if (tenant == qos::kNoTenant) return nullptr;
  const qos::QosConfig& qos = cluster_.options().network.qos;
  if (!qos.admission) return nullptr;
  auto it = admission_.find(tenant);
  if (it == admission_.end()) {
    it = admission_
             .emplace(tenant,
                      TenantAdmission{qos::TokenBucket(qos.admission_tuning.RateFor(tenant),
                                                       qos.admission_tuning.burst_ops),
                                      0})
             .first;
  }
  return &it->second;
}

template <typename T>
void HopliteClient::Admit(qos::TenantId tenant, const RefPromise<T>& promise,
                          std::function<void()> start) {
  TenantAdmission* adm = AdmissionOf(tenant);
  if (adm == nullptr) {
    start();
    return;
  }
  const SimTime now = cluster_.Now();
  if (adm->outstanding >= cluster_.options().network.qos.admission_tuning.max_outstanding_ops) {
    ++throttled_ops_;
    promise.Reject(RefError{RefErrorCode::kThrottled,
                            "tenant " + std::to_string(tenant) + " over outstanding-op cap",
                            std::max<SimDuration>(adm->bucket.NextAdmission(now) - now, 1)});
    return;
  }
  adm->outstanding += 1;
  const SimTime grant = adm->bucket.Acquire(now);
  const std::uint64_t inc = incarnation_;
  if (grant <= now) {
    start();
  } else {
    ++paced_ops_;
    cluster_.simulator().ScheduleAt(grant, [this, inc, promise, start = std::move(start)] {
      // Shed, don't send: an op that settled (timed out) while it waited
      // for its token is dead to the caller — issuing it anyway would burn
      // fabric capacity on an answer nobody reads.
      if (inc == incarnation_ && !promise.settled()) start();
    });
  }
  promise.ref().OnSettled([this, inc, tenant](const Ref<T>& ref) {
    if (inc == incarnation_) OnOpSettled(tenant, !ref.failed());
  });
}

void HopliteClient::OnOpSettled(qos::TenantId tenant, bool ok) {
  auto it = admission_.find(tenant);
  if (it == admission_.end()) return;  // admission toggled off or wiped by a kill
  it->second.outstanding = std::max(0, it->second.outstanding - 1);
  // A failed op never moved its bytes; hand the token back so failures do
  // not count against the tenant's rate.
  if (!ok) it->second.bucket.Refund();
}

void HopliteClient::OnBackpressure(qos::TenantId tenant) {
  TenantAdmission* adm = AdmissionOf(tenant);
  if (adm == nullptr) return;  // admission off: AQM marks only pause flows
  adm->bucket.Penalize(kBackpressurePenaltyOps);
}

int HopliteClient::outstanding_ops(qos::TenantId tenant) const {
  const auto it = admission_.find(tenant);
  return it == admission_.end() ? 0 : it->second.outstanding;
}

// ======================================================================
// Put
// ======================================================================

void HopliteClient::IssuePut(ObjectID object, store::Buffer payload,
                             const RefPromise<ObjectID>& promise, qos::TenantId tenant) {
  auto& dir = cluster_.directory();
  if (payload.size() < dir.config().inline_threshold) {
    // Small-object fast path: the payload lives in the directory (§3.2). The
    // node->shard upload is wire traffic, charged to the putter's tenant.
    dir.PutInline(
        object, node_, std::move(payload), [promise, object] { promise.Resolve(object); },
        tenant);
    return;
  }

  auto& st = local_store();
  HOPLITE_CHECK(!st.Contains(object))
      << "Put of " << object << " on node " << node_ << ": object already exists "
      << "(objects are immutable; use a fresh ObjectID)";
  st.CreatePartial(object, payload.size(), store::CopyKind::kPrimary, kChunkSize);
  // Publish before the worker->store copy completes so remote fetches can
  // begin immediately (§3.3).
  dir.RegisterPartial(object, node_, payload.size());

  const store::ChunkLayout layout{payload.size(), kChunkSize};
  const std::int64_t total = layout.num_chunks();
  const std::uint64_t inc = incarnation_;

  if (!config_.pipeline_worker_copies) {
    // Ablation mode: one monolithic blocking copy, then publish completion.
    cluster_.network().Memcpy(
        node_, payload.size(), [this, inc, object, payload, promise] {
          if (inc != incarnation_ || !local_store().Contains(object)) return;
          local_store().MarkComplete(object, payload);
          cluster_.directory().MarkComplete(object, node_);
          promise.Resolve(object);
        });
    return;
  }

  for (std::int64_t i = 0; i < total; ++i) {
    const bool last = i + 1 == total;
    cluster_.network().Memcpy(
        node_, layout.ChunkBytes(i), [this, inc, object, payload, promise, i, last] {
          if (inc != incarnation_ || !local_store().Contains(object)) return;
          if (last) {
            local_store().MarkComplete(object, payload);
            cluster_.directory().MarkComplete(object, node_);
            promise.Resolve(object);
          } else {
            local_store().AdvanceChunks(object, i + 1);
          }
        });
  }
}

// ======================================================================
// Get (fetch side of broadcast)
// ======================================================================

void HopliteClient::IssueGet(ObjectID object, GetOptions options,
                             const RefPromise<store::Buffer>& promise) {
  if (local_store().Contains(object)) {
    local_store().NoteHit();
    // The read is the replacement policy's recency signal: a re-read hit is
    // what distinguishes a hot replica from one-touch scan pollution.
    local_store().Touch(object);
    DeliverLocal(object, options, promise);
    return;
  }
  local_store().NoteMiss();
  auto it = fetches_.find(object);
  if (it != fetches_.end()) {
    it->second.early_waiters.emplace_back(options, promise);
    return;
  }
  FetchSession session;
  session.object = object;
  // First Get wins: waiters attaching to an in-flight fetch above do not
  // re-tag it — the window-opening tenant pays for the shared transfer.
  session.tenant = options.tenant;
  session.early_waiters.emplace_back(options, promise);
  fetches_.emplace(object, std::move(session));
  StartFetch(object);
}

void HopliteClient::StartFetch(ObjectID object) {
  auto it = fetches_.find(object);
  if (it == fetches_.end()) return;
  it->second.claiming = true;
  it->second.sender = kInvalidNode;
  const std::uint64_t inc = incarnation_;
  cluster_.directory().ClaimSender(
      object, node_,
      [this, inc](const directory::ClaimReply& reply) {
        if (inc != incarnation_) return;
        OnClaimReply(reply);
      },
      it->second.tenant);
}

void HopliteClient::OnClaimReply(const directory::ClaimReply& reply) {
  auto it = fetches_.find(reply.object);
  if (it == fetches_.end()) {
    // The fetch was purged while the claim was in flight; release the grant
    // so the sender does not stay busy forever.
    if (!reply.inline_payload && !reply.deleted) {
      cluster_.directory().TransferAborted(reply.object, reply.sender, node_,
                                           /*sender_alive=*/true);
    }
    return;
  }
  FetchSession& session = it->second;

  if (reply.deleted) {
    // Our claim was attached to a coalesced in-flight fetch and the object
    // was deleted before the fetch landed: fail the waiting Gets kDeleted
    // (same contract as a delete push racing a local copy).
    PurgeObject(reply.object);
    return;
  }

  if (reply.local_copy) {
    // The object is materializing in our own store (e.g. a Reduce sink).
    if (local_store().Contains(reply.object)) {
      auto waiters = std::move(session.early_waiters);
      fetches_.erase(it);
      for (const auto& [options, promise] : waiters) {
        DeliverLocal(reply.object, options, promise);
      }
    } else {
      // Stale self-location: our replica was LRU-evicted (or purged in a
      // Delete race) after the directory recorded it. Retract the stale
      // location and re-claim — an evicted object is re-fetched from a
      // surviving holder; a truly deleted one leaves the claim parked on
      // the id (the documented Delete contract; pair with a Get timeout).
      HOPLITE_LOG(Debug) << "stale local-copy claim for " << reply.object << " on node "
                         << node_ << "; retracting and re-claiming";
      cluster_.directory().RemoveLocation(reply.object, node_);
      StartFetch(reply.object);
    }
    return;
  }

  if (reply.inline_payload) {
    auto waiters = std::move(session.early_waiters);
    fetches_.erase(it);
    const std::uint64_t inc = incarnation_;
    if (cluster_.network().config().cache.coalescing &&
        !local_store().Contains(reply.object)) {
      // Serving cache: keep the inline payload as an evictable complete
      // store copy and announce it, so claims attached to this object's
      // pending-interest window fan out from us (and from every holder the
      // fan-out creates in turn) instead of re-paying the shard's egress,
      // and later local Gets hit without any wire traffic.
      auto& st = local_store();
      st.CreatePartial(reply.object, reply.payload.size(), store::CopyKind::kCached,
                       kChunkSize);
      st.MarkComplete(reply.object, reply.payload);
      cluster_.directory().RegisterCachedCopy(
          reply.object, node_, [this, inc, object = reply.object] {
            // Deleted while our payload was in flight: the purge wave could
            // not see us, so reap the cached copy ourselves.
            if (inc == incarnation_) PurgeObject(object);
          });
    }
    for (const auto& [options, promise] : waiters) {
      if (options.read_only) {
        promise.Resolve(reply.payload);
      } else {
        cluster_.network().Memcpy(node_, reply.payload.size(),
                                  [this, inc, promise, payload = reply.payload] {
                                    if (inc == incarnation_) promise.Resolve(payload);
                                  });
      }
    }
    return;
  }

  session.claiming = false;
  session.sender = reply.sender;
  session.sender_chain = reply.sender_chain;
  session.object_size = reply.object_size;
  const std::uint32_t epoch = session.expected_epoch;

  auto& st = local_store();
  if (!st.Contains(reply.object)) {
    st.CreatePartial(reply.object, reply.object_size, store::CopyKind::kReplica, kChunkSize);
  }
  // Deliver from a moved-out snapshot: DeliverLocal may re-enter the client
  // and rehash/mutate fetches_, which would invalidate `session`.
  auto waiters = std::exchange(session.early_waiters, {});
  for (const auto& [options, promise] : waiters) {
    DeliverLocal(reply.object, options, promise);
  }

  const std::int64_t resume = st.ChunksReady(reply.object);
  const ObjectID object = reply.object;
  const NodeID sender = reply.sender;
  const NodeID receiver = node_;
  // The sender's push stream charges *our* tenant: relays in the broadcast
  // tree forward on behalf of the requesting receiver, not themselves.
  const qos::TenantId tenant = session.tenant;
  cluster_.SendControl(node_, sender,
                       [this, object, sender, receiver, resume, epoch, tenant] {
                         cluster_.client(sender).HandleStartPush(object, receiver, resume,
                                                                 epoch, tenant);
                       });
}

void HopliteClient::AbortFetchAndReclaim(ObjectID object, bool sender_alive,
                                         bool sender_holds_copy) {
  auto it = fetches_.find(object);
  if (it == fetches_.end() || it->second.claiming) return;
  const NodeID old_sender = it->second.sender;
  it->second.sender = kInvalidNode;
  it->second.claiming = true;
  cluster_.directory().TransferAborted(object, old_sender, node_, sender_alive,
                                       sender_holds_copy);
  if (sender_alive) {
    const NodeID receiver = node_;
    cluster_.SendControl(node_, old_sender, [this, object, old_sender, receiver] {
      cluster_.client(old_sender).HandleStopPush(object, receiver);
    });
  }
  StartFetch(object);
}

void HopliteClient::FinishFetch(ObjectID object, store::Buffer payload) {
  auto it = fetches_.find(object);
  HOPLITE_CHECK(it != fetches_.end());
  const NodeID sender = it->second.sender;
  fetches_.erase(it);
  // MarkComplete fires worker deliveries and any downstream push sessions.
  local_store().MarkComplete(object, std::move(payload));
  cluster_.directory().TransferFinished(object, sender, node_);
}

// ======================================================================
// Worker-side delivery (store -> worker copy, pipelined)
// ======================================================================

void HopliteClient::DeliverLocal(ObjectID object, GetOptions options,
                                 const RefPromise<store::Buffer>& promise) {
  auto& st = local_store();
  HOPLITE_CHECK(st.Contains(object));
  const std::uint64_t inc = incarnation_;

  if (options.read_only) {
    // Immutable get (§3.3): hand out a reference into the store, no copy.
    if (st.IsComplete(object)) {
      promise.Resolve(st.PayloadOf(object));
      return;
    }
    st.OnCompletion(object, [this, inc, promise](const store::Buffer& payload) {
      if (inc == incarnation_) promise.Resolve(payload);
    });
    return;
  }

  auto delivery = std::make_shared<Delivery>();
  delivery->object = object;
  delivery->options = options;
  delivery->promise = promise;
  delivery->total_chunks = st.StateOf(object).layout.num_chunks();
  st.Ref(object);
  delivery->store_reffed = true;
  deliveries_[object].push_back(delivery);

  if (!config_.pipeline_worker_copies) {
    // Ablation mode: wait for the full object, then one blocking copy.
    st.OnCompletion(object, [this, inc, delivery](const store::Buffer& payload) {
      if (inc != incarnation_ || delivery->cancelled) return;
      cluster_.network().Memcpy(node_, payload.size(), [this, inc, delivery, payload] {
        if (inc != incarnation_ || delivery->cancelled) return;
        delivery->finished = true;
        ReleaseDelivery(delivery);
        delivery->promise.Resolve(payload);
      });
    });
    return;
  }

  delivery->store_sub =
      st.OnChunkProgress(object, [this, delivery](std::int64_t) { PumpDelivery(delivery); });
  PumpDelivery(delivery);
}

void HopliteClient::PumpDelivery(const std::shared_ptr<Delivery>& delivery) {
  if (delivery->cancelled || delivery->finished) return;
  auto& st = local_store();
  if (!st.Contains(delivery->object)) {
    delivery->cancelled = true;
    return;
  }
  const auto& state = st.StateOf(delivery->object);
  const std::uint64_t inc = incarnation_;
  const std::uint32_t epoch = delivery->epoch;
  while (delivery->copies_issued < state.chunks_ready) {
    const std::int64_t i = delivery->copies_issued++;
    cluster_.network().Memcpy(node_, state.layout.ChunkBytes(i),
                              [this, inc, epoch, delivery] {
                                if (inc != incarnation_ || delivery->cancelled ||
                                    epoch != delivery->epoch) {
                                  return;
                                }
                                ++delivery->copies_done;
                                MaybeFinishDelivery(delivery);
                              });
  }
}

void HopliteClient::MaybeFinishDelivery(const std::shared_ptr<Delivery>& delivery) {
  if (delivery->finished || delivery->cancelled) return;
  auto& st = local_store();
  if (!st.Contains(delivery->object) || !st.IsComplete(delivery->object)) return;
  if (delivery->copies_done < delivery->total_chunks) return;
  delivery->finished = true;
  st.Unsubscribe(delivery->object, delivery->store_sub);
  auto map_it = deliveries_.find(delivery->object);
  if (map_it != deliveries_.end()) {
    auto& vec = map_it->second;
    vec.erase(std::remove(vec.begin(), vec.end(), delivery), vec.end());
    if (vec.empty()) deliveries_.erase(map_it);
  }
  // Copy the payload handle before releasing the eviction guard.
  const store::Buffer payload = st.PayloadOf(delivery->object);
  ReleaseDelivery(delivery);
  delivery->promise.Resolve(payload);
}

void HopliteClient::ReleaseDelivery(const std::shared_ptr<Delivery>& delivery) {
  if (!delivery->store_reffed) return;
  delivery->store_reffed = false;
  local_store().Unref(delivery->object);
}

void HopliteClient::ResetDeliveries(ObjectID object) {
  auto it = deliveries_.find(object);
  if (it == deliveries_.end()) return;
  for (const auto& delivery : it->second) {
    if (delivery->finished || delivery->cancelled) continue;
    delivery->epoch += 1;  // invalidates in-flight memcpy completions
    delivery->copies_issued = 0;
    delivery->copies_done = 0;
  }
}

// ======================================================================
// Push side (sender of broadcast streams)
// ======================================================================

void HopliteClient::HandleStartPush(ObjectID object, NodeID receiver,
                                    std::int64_t from_chunk, std::uint32_t epoch,
                                    qos::TenantId tenant) {
  auto& st = local_store();
  if (!st.Contains(object)) {
    // Evicted (or deleted) since the directory granted us: tell the receiver
    // to claim elsewhere.
    const NodeID sender = node_;
    cluster_.SendControl(node_, receiver, [this, object, sender, receiver] {
      cluster_.client(receiver).HandleSenderGone(object, sender);
    });
    return;
  }
  const PushKey key{object.value(), receiver};
  if (pushes_.count(key) > 0) return;  // duplicate request
  PushSession session;
  session.object = object;
  session.receiver = receiver;
  session.tenant = tenant;
  session.next_chunk = from_chunk;
  session.total_chunks = st.StateOf(object).layout.num_chunks();
  session.epoch = epoch;
  st.Ref(object);
  session.store_reffed = true;
  session.store_sub =
      st.OnChunkProgress(object, [this, key](std::int64_t) { PumpPush(key); });
  pushes_.emplace(key, session);
  PumpPush(key);
}

void HopliteClient::PumpPush(PushKey key) {
  auto it = pushes_.find(key);
  if (it == pushes_.end()) return;
  PushSession& push = it->second;
  auto& st = local_store();
  if (!st.Contains(push.object)) {
    EndPush(key);
    return;
  }
  const auto& state = st.StateOf(push.object);
  while (push.next_chunk < state.chunks_ready && push.in_flight < kTransferWindow &&
         !push.final_sent) {
    const std::int64_t i = push.next_chunk;
    const bool final = i + 1 == push.total_chunks;
    if (final && !state.complete) break;  // payload not attached yet
    ++push.next_chunk;
    ++push.in_flight;
    const ObjectID object = push.object;
    const NodeID sender = node_;
    const NodeID receiver = push.receiver;
    const std::uint32_t epoch = push.epoch;
    const std::int64_t upto = i + 1;
    store::Buffer payload = final ? state.payload : store::Buffer{};
    cluster_.SendData(node_, receiver, state.layout.ChunkBytes(i),
                      [this, key, object, sender, receiver, epoch, upto, final,
                       payload = std::move(payload)] {
                        cluster_.client(receiver).HandleObjectChunk(
                            object, sender, epoch, upto, final, payload);
                        // Flow-control ack back to the sender (same instant;
                        // the wire is drained once the last byte arrived).
                        cluster_.client(sender).OnPushChunkDelivered(key);
                      },
                      push.tenant);
    if (final) push.final_sent = true;
  }
  if (push.final_sent && push.in_flight == 0) EndPush(key);
}

void HopliteClient::OnPushChunkDelivered(PushKey key) {
  auto it = pushes_.find(key);
  if (it == pushes_.end()) return;  // session ended (reset/stop/death)
  it->second.in_flight -= 1;
  PumpPush(key);
}

void HopliteClient::EndPush(PushKey key) {
  auto it = pushes_.find(key);
  if (it == pushes_.end()) return;
  PushSession& push = it->second;
  auto& st = local_store();
  if (st.Contains(push.object)) {
    st.Unsubscribe(push.object, push.store_sub);
    if (push.store_reffed) st.Unref(push.object);
  }
  pushes_.erase(it);
}

void HopliteClient::HandleStopPush(ObjectID object, NodeID receiver) {
  EndPush(PushKey{object.value(), receiver});
}

void HopliteClient::HandleSenderGone(ObjectID object, NodeID sender) {
  auto it = fetches_.find(object);
  if (it == fetches_.end() || it->second.sender != sender) return;
  AbortFetchAndReclaim(object, /*sender_alive=*/true, /*sender_holds_copy=*/false);
}

void HopliteClient::HandleObjectChunk(ObjectID object, NodeID sender, std::uint32_t epoch,
                                      std::int64_t chunk_upto, bool final,
                                      store::Buffer payload) {
  auto it = fetches_.find(object);
  if (it == fetches_.end()) return;  // stray chunk after abort/purge
  FetchSession& session = it->second;
  if (session.sender != sender || session.expected_epoch != epoch) return;  // stale
  auto& st = local_store();
  if (!st.Contains(object)) return;
  if (final) {
    FinishFetch(object, std::move(payload));
  } else {
    st.AdvanceChunks(object, chunk_upto);
  }
}

void HopliteClient::HandleFetchReset(ObjectID object, std::uint32_t new_epoch) {
  auto it = fetches_.find(object);
  if (it != fetches_.end()) {
    it->second.expected_epoch = new_epoch;
  }
  auto& st = local_store();
  if (!st.Contains(object)) return;
  if (st.IsComplete(object)) {
    // Can only happen for a reset racing a finished broadcast of a finished
    // reduce — the content is final by then, so the reset is stale.
    HOPLITE_LOG(Warning) << "ignoring reset of complete object " << object;
    return;
  }
  st.ResetProgress(object);
  ResetDeliveries(object);
  CascadeObjectReset(object);
}

void HopliteClient::CascadeObjectReset(ObjectID object) {
  const std::vector<PushKey> keys = PushKeysOf(object);
  for (const PushKey& key : keys) {
    PushSession& push = pushes_.find(key)->second;
    push.epoch += 1;
    push.next_chunk = 0;
    push.final_sent = false;
    const NodeID receiver = push.receiver;
    const std::uint32_t epoch = push.epoch;
    cluster_.SendControl(node_, receiver, [this, object, receiver, epoch] {
      cluster_.client(receiver).HandleFetchReset(object, epoch);
    });
  }
  // Progress may already allow re-sending chunk 0 onwards.
  for (const PushKey& key : keys) PumpPush(key);
}

std::vector<HopliteClient::PushKey> HopliteClient::PushKeysOf(ObjectID object) const {
  std::vector<PushKey> keys;
  for (auto it = pushes_.lower_bound({object.value(), std::numeric_limits<NodeID>::min()});
       it != pushes_.end() && it->first.first == object.value(); ++it) {
    keys.push_back(it->first);
  }
  return keys;
}

// ======================================================================
// Delete
// ======================================================================

void HopliteClient::HandleDeleteLocal(ObjectID object) { PurgeObject(object); }

void HopliteClient::PurgeObject(ObjectID object) {
  // A future chained off a Delete'd object must observe the deletion, not
  // silently never fire (§6: the framework guarantees no task references the
  // id, so a pending Get here is a programming error worth surfacing). This
  // reaches every node the purge fan-out reaches — holders and in-flight
  // fetchers; a claim parked before the object existed stays pending by
  // design (it resolves on re-create; see Delete's doc).
  RejectGetPromises(object, RefError{RefErrorCode::kDeleted,
                                     "object was Delete'd while the Get was pending"});
  fetches_.erase(object);
  for (const PushKey& key : PushKeysOf(object)) EndPush(key);
  if (auto it = deliveries_.find(object); it != deliveries_.end()) {
    for (const auto& delivery : it->second) delivery->cancelled = true;
    deliveries_.erase(it);
  }
  local_store().Remove(object);
}

// ======================================================================
// Reduce
// ======================================================================

void HopliteClient::HandleReduceAssign(const ReduceAssignment& assignment) {
  const std::pair<ReduceId, int> key{assignment.reduce_id, assignment.tree_index};
  auto it = reduce_sessions_.find(key);
  if (it != reduce_sessions_.end()) {
    it->second->UpdateAssignment(assignment);
    return;
  }
  auto [new_it, inserted] =
      reduce_sessions_.emplace(key, std::make_unique<ReduceSession>(*this, assignment));
  // Replay child chunks that arrived before the assignment (no cross-pair
  // FIFO guarantee); stale epochs are filtered inside the session.
  if (auto pending = pending_reduce_chunks_.find(key);
      pending != pending_reduce_chunks_.end()) {
    auto msgs = std::move(pending->second);
    pending_reduce_chunks_.erase(pending);
    for (const auto& msg : msgs) new_it->second->OnChildChunk(msg);
  }
}

void HopliteClient::HandleReduceChunk(const ReduceChunkMsg& msg) {
  if (msg.to_index == -1) {
    RouteSinkChunk(msg);
    return;
  }
  const std::pair<ReduceId, int> key{msg.reduce_id, msg.to_index};
  auto it = reduce_sessions_.find(key);
  if (it == reduce_sessions_.end()) {
    pending_reduce_chunks_[key].push_back(msg);
    return;
  }
  it->second->OnChildChunk(msg);
}

void HopliteClient::HandleReduceReset(ReduceId id, int tree_index, ReduceEpoch out_epoch,
                                      std::vector<std::pair<int, ReduceEpoch>> child_epochs) {
  auto it = reduce_sessions_.find({id, tree_index});
  if (it == reduce_sessions_.end()) return;
  it->second->Reset(out_epoch, std::move(child_epochs));
}

void HopliteClient::HandleReduceRepush(ReduceId id, int tree_index) {
  auto it = reduce_sessions_.find({id, tree_index});
  if (it == reduce_sessions_.end()) return;
  it->second->Repush();
}

void HopliteClient::HandleReduceTeardown(ReduceId id) {
  reduce_sessions_.erase(reduce_sessions_.lower_bound({id, INT32_MIN}),
                         reduce_sessions_.lower_bound({id + 1, INT32_MIN}));
  pending_reduce_chunks_.erase(pending_reduce_chunks_.lower_bound({id, INT32_MIN}),
                               pending_reduce_chunks_.lower_bound({id + 1, INT32_MIN}));
}

void HopliteClient::RouteSinkChunk(const ReduceChunkMsg& msg) {
  auto it = coordinators_.find(msg.reduce_id);
  if (it == coordinators_.end()) return;  // finished or never ours
  it->second->OnSinkChunk(msg);
}

void HopliteClient::SendReduceChunk(NodeID to, std::int64_t bytes, ReduceChunkMsg msg,
                                    qos::TenantId tenant) {
  const ReduceId id = msg.reduce_id;
  const int from_index = msg.from_index;
  cluster_.SendData(
      node_, to, bytes,
      [this, to, id, from_index, msg = std::move(msg)] {
        cluster_.client(to).HandleReduceChunk(msg);
        OnReduceChunkDelivered(id, from_index);
      },
      tenant);
}

void HopliteClient::OnReduceChunkDelivered(ReduceId id, int tree_index) {
  auto it = reduce_sessions_.find({id, tree_index});
  if (it == reduce_sessions_.end()) return;  // torn down / reassigned
  it->second->OnChunkDelivered();
}

ReduceCoordinator* HopliteClient::LiveCoordinator(ReduceId id) {
  const auto it = coordinators_.find(id);
  return it == coordinators_.end() || it->second->done() ? nullptr : it->second.get();
}

void HopliteClient::FinishCoordinator(ReduceId id) {
  // Deferred: the coordinator calls this from inside its own methods.
  const std::uint64_t inc = incarnation_;
  cluster_.simulator().ScheduleAfter(0, [this, inc, id] {
    if (inc != incarnation_) return;
    coordinators_.erase(id);
  });
}

// ======================================================================
// Failure handling
// ======================================================================

void HopliteClient::OnPeerFailed(NodeID failed) {
  // Broadcast fetches streaming from the dead node: re-claim and resume, in
  // ascending object order so the re-claim sequence is deterministic.
  std::vector<ObjectID> to_reclaim;
  for (const ObjectID object : det::SortedKeys(fetches_)) {
    const FetchSession& session = fetches_.find(object)->second;
    if (!session.claiming && session.sender == failed) to_reclaim.push_back(object);
  }
  for (const ObjectID object : to_reclaim) {
    AbortFetchAndReclaim(object, /*sender_alive=*/false);
  }

  // Push streams towards the dead node are pointless now.
  std::vector<PushKey> dead_pushes;
  for (const auto& [key, push] : pushes_) {
    if (push.receiver == failed) dead_pushes.push_back(key);
  }
  for (const auto& key : dead_pushes) EndPush(key);

  // Reduce coordinators repair their trees (ascending id: repairs emit
  // control messages, so their order is simulation-visible).
  for (const ReduceId id : det::SortedKeys(coordinators_)) {
    const auto it = coordinators_.find(id);
    if (it != coordinators_.end()) it->second->OnNodeFailed(failed);
  }

  // Reduce sessions whose coordinator died are orphans.
  for (auto it = reduce_sessions_.begin(); it != reduce_sessions_.end();) {
    if (it->second->coordinator_node() == failed) {
      it = reduce_sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void HopliteClient::OnKilled() {
  ++incarnation_;
  // Park the pending refs for OnDeathObserved: they reject only once the
  // failure-detection delay elapsed (when the death becomes observable),
  // and a recovered incarnation's fresh promises must not be swept up. Each
  // death gets its own batch so back-to-back deaths reject independently.
  std::vector<TrackedPromise> batch;
  for (const ObjectID object : det::SortedKeys(get_promises_)) {
    for (const auto& promise : get_promises_.find(object)->second) {
      batch.emplace_back(promise);
    }
  }
  get_promises_.clear();
  batch.insert(batch.end(), std::make_move_iterator(misc_promises_.begin()),
               std::make_move_iterator(misc_promises_.end()));
  misc_promises_.clear();
  doomed_batches_.push_back(std::move(batch));
  fetches_.clear();
  pushes_.clear();  // store is wiped below; no need to unsubscribe
  for (const ObjectID object : det::SortedKeys(deliveries_)) {
    for (const auto& delivery : deliveries_.find(object)->second) delivery->cancelled = true;
  }
  deliveries_.clear();
  coordinators_.clear();
  reduce_sessions_.clear();
  pending_reduce_chunks_.clear();
  // A restarted process starts with full token buckets and zero outstanding
  // ops; the incarnation guard keeps stale OnSettled hooks from decrementing
  // the fresh ledgers.
  admission_.clear();
  auto& st = local_store();
  for (const ObjectID object : st.ListObjects()) st.Remove(object);
}

void HopliteClient::OnDeathObserved() {
  // One batch per death, in kill order: KillNode schedules exactly one
  // observation event per kill, so the front batch is this death's.
  HOPLITE_CHECK(!doomed_batches_.empty());
  auto doomed = std::move(doomed_batches_.front());
  doomed_batches_.pop_front();
  const RefError error{RefErrorCode::kProducerLost,
                       "node " + std::to_string(node_) + " died with the ref pending"};
  for (const auto& promise : doomed) promise.reject(error);
}

}  // namespace hoplite::core
