// Per-node Hoplite client: the public object-store API of Table 1 plus the
// wire-level protocol handlers that the receiver-driven coordination scheme
// (§3.4) runs between nodes.
//
// One HopliteClient runs on every node of the cluster. The public surface is
// exactly the paper's core interface (Table 1), every call returning an
// object future immediately (§2.1):
//
//   Put(id, buffer)  -> Ref<ObjectID>      store an immutable object, publish
//                                          immediately; ready when the local
//                                          copy is complete
//   Get(id [, opts]) -> Ref<Buffer>        fetch an object into worker memory
//                                          (broadcast is implicit: concurrent
//                                          Gets form a dynamic distribution
//                                          tree via the directory); with
//                                          opts.timeout set, fails instead of
//                                          parking forever
//   Delete(id)       -> Ref<ObjectID>      drop all copies cluster-wide;
//                                          pending Gets of the object fail
//                                          with kDeleted
//   Reduce(spec)     -> Ref<ReduceResult>  build a new object by reducing a
//                                          set of objects over a dynamically
//                                          constructed d-ary tree
//
// Each op settles its one promise inline, at the simulated instant its work
// finishes (see core/ref.h), so the future surface adds no events and no
// latency. When this node is killed, its still-pending refs fail with
// kProducerLost at the instant the rest of the cluster observes the death
// (the failure-detection delay of §5.5). An op issued on a dead node never
// starts: its ref fails the same way, at once if the death was already
// observed.
//
// Everything else on this class is protocol machinery: push/fetch sessions
// for chunk-pipelined object transfer, reduce session routing, and failure
// notifications. Those methods are public because in the real system they
// are RPC endpoints; they are invoked through HopliteCluster::SendControl /
// SendData, never called directly by applications.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/det.h"
#include "common/ids.h"
#include "common/units.h"
#include "core/ref.h"
#include "core/types.h"
#include "directory/object_directory.h"
#include "qos/qos.h"
#include "qos/token_bucket.h"
#include "store/buffer.h"
#include "store/local_store.h"

namespace hoplite::core {

class HopliteCluster;
class ReduceCoordinator;
class ReduceSession;

// hoplite-sa: owner(HopliteClient) -- one client per node, owned by
// HopliteCluster for the engine's whole run; its detection/claim events
// all resolve before the cluster tears down.
class HopliteClient {
 public:
  HopliteClient(HopliteCluster& cluster, NodeID node, HopliteConfig config);
  ~HopliteClient();
  HopliteClient(const HopliteClient&) = delete;
  HopliteClient& operator=(const HopliteClient&) = delete;

  // ------------------------------------------------------------------
  // Public API (Table 1). Every call returns an object future immediately.
  // ------------------------------------------------------------------

  /// Stores `payload` under `object`. The location is published to the
  /// directory immediately (before the worker->store copy finishes) so
  /// receivers can start pipelined fetches (§3.3). Small objects take the
  /// directory inline fast path instead (§3.2). The ref becomes ready (with
  /// the object id) when the local copy is complete. `tenant` charges the
  /// op's wire traffic (and, under admission control, its token) to that
  /// tenant; kNoTenant bypasses both.
  Ref<ObjectID> Put(ObjectID object, store::Buffer payload,
                    qos::TenantId tenant = qos::kNoTenant);

  /// Fetches `object` into worker memory; the ref becomes ready with the
  /// payload. With options.read_only, the copy out of the local store is
  /// skipped ("immutable get", §3.3). With options.timeout > 0, the ref
  /// fails with kTimeout after that much simulated time instead of parking
  /// forever when no producer exists. With options.tenant set, the fetch's
  /// wire traffic is charged to that tenant; under admission control the op
  /// may be paced (issued at the token grant) or rejected kThrottled.
  [[nodiscard]] Ref<store::Buffer> Get(ObjectID object, GetOptions options = {});

  /// Deletes all copies of `object` across the cluster (Table 1; §6). Must
  /// only be called once the framework knows no task references the id.
  /// Gets pending on any node that holds (or is fetching) a copy fail with
  /// kDeleted when the purge reaches them. A Get whose claim was parked
  /// before the object was ever produced deliberately stays pending — a
  /// parked claim is proof the id is still referenced, and it resolves if
  /// the object is re-created (see ObjectDirectory::DeleteObject); pair
  /// such Gets with GetOptions::timeout. The ref becomes ready once the
  /// cluster-wide purge has been issued.
  Ref<ObjectID> Delete(ObjectID object);

  /// Reduces `spec.num_objects` of `spec.sources` into `spec.target` over a
  /// dynamically built tree (§3.4.2). The result object materializes in this
  /// node's local store (and the directory), so a subsequent Get — from this
  /// node or any other — streams it out, possibly before it is complete.
  Ref<ReduceResult> Reduce(ReduceSpec spec);

  [[nodiscard]] NodeID node() const noexcept { return node_; }
  [[nodiscard]] const HopliteConfig& config() const noexcept { return config_; }
  [[nodiscard]] HopliteCluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] store::LocalStore& local_store();

  // ------------------------------------------------------------------
  // Protocol handlers (RPC endpoints; invoked via HopliteCluster).
  // ------------------------------------------------------------------

  /// Receiver asked this node to stream `object` starting at `from_chunk`,
  /// tagging chunks with `epoch` (bumped across failure resets). The relay
  /// flows are charged to `tenant` — the *requesting* Get's tenant, not this
  /// (sending) node's: broadcast-tree relays inherit the requester's tenant.
  void HandleStartPush(ObjectID object, NodeID receiver, std::int64_t from_chunk,
                       std::uint32_t epoch, qos::TenantId tenant);

  /// Receiver no longer wants the stream (re-claimed elsewhere / deleted).
  void HandleStopPush(ObjectID object, NodeID receiver);

  /// The node we asked to push no longer holds the object (evicted).
  void HandleSenderGone(ObjectID object, NodeID sender);

  /// One chunk of a broadcast/get stream arrived from `sender`.
  void HandleObjectChunk(ObjectID object, NodeID sender, std::uint32_t epoch,
                         std::int64_t chunk_upto, bool final, store::Buffer payload);

  /// Upstream content was invalidated (reduce reset): roll the local partial
  /// copy back to zero and cascade to our own downstream receivers.
  void HandleFetchReset(ObjectID object, std::uint32_t new_epoch);

  /// Framework-initiated local purge (Delete fan-out).
  void HandleDeleteLocal(ObjectID object);

  /// Reduce plumbing: position assignment, data chunks, failure resets.
  void HandleReduceAssign(const ReduceAssignment& assignment);
  void HandleReduceChunk(const ReduceChunkMsg& msg);
  void HandleReduceReset(ReduceId id, int tree_index, ReduceEpoch out_epoch,
                         std::vector<std::pair<int, ReduceEpoch>> child_epochs);
  void HandleReduceRepush(ReduceId id, int tree_index);
  void HandleReduceTeardown(ReduceId id);

  // ------------------------------------------------------------------
  // Failure notifications (from HopliteCluster).
  // ------------------------------------------------------------------

  /// A peer died (socket liveness noticed after the detection delay).
  void OnPeerFailed(NodeID failed);
  /// This node died: wipe all volatile state. Pending refs are parked until
  /// OnDeathObserved (failure is only *observable* after the detection
  /// delay, so rejecting earlier would leak information the system cannot
  /// have yet).
  void OnKilled();
  /// The failure-detection delay for this node's death elapsed: fail every
  /// ref that was pending when it died with kProducerLost.
  void OnDeathObserved();

  // ------------------------------------------------------------------
  // QoS admission (per-tenant token buckets + outstanding-op caps).
  // ------------------------------------------------------------------

  /// ECN-like backpressure from the fabric's AQM: one of this node's
  /// transfers for `tenant` was marked. Debits the tenant's token bucket by
  /// a fixed penalty, slowing its future admissions. No-op when admission
  /// control is off or the tenant is untagged.
  void OnBackpressure(qos::TenantId tenant);

  // ------------------------------------------------------------------
  // Introspection for tests and benches.
  // ------------------------------------------------------------------

  [[nodiscard]] bool HasFetchSession(ObjectID object) const {
    return fetches_.count(object) > 0;
  }
  /// Ops of `tenant` admitted on this node and not yet settled.
  [[nodiscard]] int outstanding_ops(qos::TenantId tenant) const;
  /// Ops rejected kThrottled (lifetime) and ops delayed to their token
  /// grant instant (lifetime), across all tenants on this node.
  [[nodiscard]] std::int64_t throttled_ops() const noexcept { return throttled_ops_; }
  [[nodiscard]] std::int64_t paced_ops() const noexcept { return paced_ops_; }
  [[nodiscard]] std::size_t active_push_sessions() const noexcept { return pushes_.size(); }
  [[nodiscard]] std::size_t active_reduce_sessions() const noexcept {
    return reduce_sessions_.size();
  }
  [[nodiscard]] std::size_t active_coordinators() const noexcept {
    return coordinators_.size();
  }

 private:
  // The reduce protocol's two halves reach the session plumbing below
  // (coordinator table, unadmitted entry points, delivery resets, chunk
  // streaming). Making that plumbing public would let callers bypass
  // admission, so it stays private behind these grants.
  friend class ReduceCoordinator;
  friend class ReduceSession;

  // ------------------------------------------------------------------
  // Unadmitted op entry points. The inline small-object Reduce fetches its
  // sources and Puts its result on behalf of a Reduce that was already
  // admitted, so it enters here; admitting them again would charge the
  // tenant twice for one op.
  // ------------------------------------------------------------------

  void IssuePut(ObjectID object, store::Buffer payload, const RefPromise<ObjectID>& promise,
                qos::TenantId tenant);
  void IssueGet(ObjectID object, GetOptions options,
                const RefPromise<store::Buffer>& promise);

  // ------------------------------------------------------------------
  // Admission layer (QoS): token pacing + outstanding-op policing.
  // ------------------------------------------------------------------

  struct TenantAdmission {
    qos::TokenBucket bucket;
    int outstanding = 0;
  };

  /// Lazily creates the tenant's bucket. Null when the op bypasses admission.
  TenantAdmission* AdmissionOf(qos::TenantId tenant);
  /// The one admission gate of Put/Get/Reduce. An untagged op (or any op
  /// with admission off) starts inline with no accounting. Beyond the
  /// tenant's outstanding-op cap the promise is rejected kThrottled with a
  /// retry-after hint (policing). Otherwise the op holds one slot until its
  /// ref settles and starts now if a token is free, else at the bucket's
  /// grant instant (shaping) — unless it settled while it waited (a Get
  /// timeout), in which case it is shed, never sent.
  template <typename T>
  void Admit(qos::TenantId tenant, const RefPromise<T>& promise, std::function<void()> start);
  void OnOpSettled(qos::TenantId tenant, bool ok);

  /// A type-erased pending promise, registered so node death can fail it.
  struct TrackedPromise {
    std::function<bool()> settled;
    std::function<void(const RefError&)> reject;

    template <typename T>
    explicit TrackedPromise(const RefPromise<T>& promise)
        : settled([promise] { return promise.settled(); }),
          reject([promise](const RefError& error) { promise.Reject(error); }) {}
  };

  /// Registers a pending Get promise (also failed by a Delete of `object`).
  void TrackGetPromise(ObjectID object, const RefPromise<store::Buffer>& promise);
  /// Registers any other pending promise (failed only by node death).
  template <typename T>
  void TrackPromise(const RefPromise<T>& promise) {
    PrunePromises();
    misc_promises_.emplace_back(promise);
  }
  /// Keeps an op issued on a dead node from starting: returns true after
  /// parking `promise` with the refs that die with this node (rejected when
  /// the death is observed), or rejecting it at once if it already was.
  template <typename T>
  bool DoomIfDead(const RefPromise<T>& promise);
  /// Drops settled entries (amortized cleanup, called on registration).
  void PrunePromises();
  /// Fails every pending get promise of `object` (Delete observed locally).
  void RejectGetPromises(ObjectID object, const RefError& error);

  /// One worker-side delivery of an object (the store->worker copy of a Get),
  /// chunk-pipelined against the object's network arrival.
  struct Delivery {
    ObjectID object;
    GetOptions options;
    RefPromise<store::Buffer> promise;
    std::int64_t total_chunks = 0;
    std::int64_t copies_issued = 0;
    std::int64_t copies_done = 0;
    std::uint32_t epoch = 0;  ///< bumped on content resets
    std::uint64_t store_sub = 0;
    bool cancelled = false;
    bool finished = false;
    /// Deliveries hold a store reference so LRU eviction cannot reap the
    /// entry between completion and the last worker memcpy.
    bool store_reffed = false;
  };

  /// Receiver side of an in-flight object fetch.
  struct FetchSession {
    ObjectID object;
    NodeID sender = kInvalidNode;  ///< invalid while (re-)claiming
    std::vector<NodeID> sender_chain;
    std::int64_t object_size = -1;
    std::uint32_t expected_epoch = 0;
    bool claiming = true;
    /// Tenant of the Get that opened this fetch; every wire byte the fetch
    /// pulls (including via re-claims) is charged here.
    qos::TenantId tenant = qos::kNoTenant;
    /// Gets that arrived before the object size (and store entry) existed.
    std::vector<std::pair<GetOptions, RefPromise<store::Buffer>>> early_waiters;
  };

  /// Sender side of an object stream to one receiver.
  struct PushSession {
    ObjectID object;
    NodeID receiver = kInvalidNode;
    std::int64_t next_chunk = 0;
    std::int64_t total_chunks = 0;
    std::uint32_t epoch = 0;
    std::uint64_t store_sub = 0;
    bool store_reffed = false;
    int in_flight = 0;  ///< chunks on the wire (bounded by kTransferWindow)
    bool final_sent = false;
    /// The requesting receiver's tenant (relays inherit it), not ours.
    qos::TenantId tenant = qos::kNoTenant;
  };

  using PushKey = std::pair<std::uint64_t, NodeID>;  // (object id value, receiver)

  /// The keys of `object`'s push sessions, in pushes_ order: the map sorts
  /// by object first, so they are one contiguous run of it.
  [[nodiscard]] std::vector<PushKey> PushKeysOf(ObjectID object) const;

  void StartFetch(ObjectID object);
  void OnClaimReply(const directory::ClaimReply& reply);
  /// `sender_holds_copy` is false when the (alive) sender told us it no
  /// longer has the object — its directory location is stale and must go.
  void AbortFetchAndReclaim(ObjectID object, bool sender_alive,
                            bool sender_holds_copy = true);
  void FinishFetch(ObjectID object, store::Buffer payload);

  /// Attaches a worker delivery to an existing local store entry.
  void DeliverLocal(ObjectID object, GetOptions options,
                    const RefPromise<store::Buffer>& promise);
  void PumpDelivery(const std::shared_ptr<Delivery>& delivery);
  void MaybeFinishDelivery(const std::shared_ptr<Delivery>& delivery);
  void ReleaseDelivery(const std::shared_ptr<Delivery>& delivery);
  void ResetDeliveries(ObjectID object);

  void PumpPush(PushKey key);
  void OnPushChunkDelivered(PushKey key);
  void EndPush(PushKey key);
  /// Flow-control acknowledgement for a reduce session's output stream.
  void OnReduceChunkDelivered(ReduceId id, int tree_index);

  /// Invalidate downstream copies after a local content reset (reduce).
  void CascadeObjectReset(ObjectID object);

  /// Drops sessions, deliveries and the store entry for `object`.
  void PurgeObject(ObjectID object);

  /// Hands a sink chunk to the owning coordinator (to_index == -1).
  void RouteSinkChunk(const ReduceChunkMsg& msg);

  /// Streams one reduce chunk to the session/sink on `to`, charged to the
  /// owning ReduceSpec's tenant.
  void SendReduceChunk(NodeID to, std::int64_t bytes, ReduceChunkMsg msg,
                       qos::TenantId tenant);

  void FinishCoordinator(ReduceId id);
  /// The coordinator of reduce `id` while it still runs; null once it
  /// finished or this node died. Reduce callbacks route through it so a
  /// destroyed coordinator never dangles.
  ReduceCoordinator* LiveCoordinator(ReduceId id);

  HopliteCluster& cluster_;
  NodeID node_;
  HopliteConfig config_;

  /// Bumped when this node dies; stale callbacks from a previous life check
  /// it and bail out.
  std::uint64_t incarnation_ = 0;

  std::unordered_map<ObjectID, FetchSession> fetches_;
  std::map<PushKey, PushSession> pushes_;
  std::unordered_map<ObjectID, std::vector<std::shared_ptr<Delivery>>> deliveries_;

  /// Pending Get promises by object (failed by Delete or node death) and
  /// all other pending promises (failed by node death). OnKilled moves both
  /// into a fresh doomed batch; the matching OnDeathObserved (one detection
  /// delay later) rejects exactly that batch, plus any op issued on the dead
  /// node meanwhile (DoomIfDead). Batches are FIFO per death, so a
  /// kill/recover/kill sequence inside one detection window fails each
  /// incarnation's refs at its own death's observation instant.
  std::unordered_map<ObjectID, std::vector<RefPromise<store::Buffer>>> get_promises_;
  std::vector<TrackedPromise> misc_promises_;
  std::deque<std::vector<TrackedPromise>> doomed_batches_;
  /// Registrations between sweeps of settled promises (see PrunePromises).
  static constexpr std::size_t kMinPrunePeriod = 64;
  std::size_t prune_period_ = kMinPrunePeriod;
  std::size_t prune_countdown_ = 0;

  ReduceId next_reduce_id_seed_ = 1;
  std::unordered_map<ReduceId, std::unique_ptr<ReduceCoordinator>> coordinators_;
  std::map<std::pair<ReduceId, int>, std::unique_ptr<ReduceSession>> reduce_sessions_;
  /// Chunks that raced ahead of their session's assignment message (child
  /// streams and assignments travel on different sender->receiver pairs, so
  /// there is no FIFO guarantee between them). Replayed on assignment.
  std::map<std::pair<ReduceId, int>, std::vector<ReduceChunkMsg>> pending_reduce_chunks_;

  /// Admission state per tenant (created on first tagged op; wiped with the
  /// rest of the volatile state when the node dies).
  det::Map<qos::TenantId, TenantAdmission> admission_;
  std::int64_t throttled_ops_ = 0;
  std::int64_t paced_ops_ = 0;
};

}  // namespace hoplite::core
