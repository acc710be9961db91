// Distributed object directory service (§3.2).
//
// Logically a sharded hash table mapping ObjectID -> {size, locations}; each
// location carries a single progress bit (partial / complete) so partial
// copies can act as senders for broadcast and reduce. The directory also
// implements:
//
//  * the small-object fast path: objects below `inline_threshold` bytes are
//    cached inside the directory itself and location queries return the
//    payload directly (§3.2 "Optimization for small objects");
//  * synchronous location queries that park until a suitable sender exists,
//    and asynchronous subscriptions that publish every future location update
//    (used by the Reduce coordinator to learn object arrivals);
//  * the receiver-driven claim protocol of §3.4.1: a claim atomically removes
//    the chosen sender from the available set (bounding per-node fan-out to
//    one receiver at a time), registers the receiver as a partial location,
//    and records the receiver's upstream dependency chain so that failure
//    recovery never creates cyclic fetches (§3.5.1).
//
// Timing: every read costs 177 us and every write 167 us, the latencies the
// paper measures on its testbed (§5.1.1); parked-query wakeups are pushed
// after 85 us. Inline payload bytes
// additionally travel through the simulated NICs of the shard node, so e.g. a
// 16-node small-object broadcast serializes at the shard's egress exactly as
// it would on the real system.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cache/interest.h"
#include "common/annotations.h"
#include "common/ids.h"
#include "common/logging.h"
#include "common/units.h"
#include "net/fabric.h"
#include "sim/simulator.h"
#include "store/buffer.h"

namespace hoplite::directory {

struct DirectoryConfig {
  /// Objects strictly smaller than this are cached inline (§3.2: 64 KB).
  std::int64_t inline_threshold = 64 * 1024;
};

/// Availability state of one copy of one object.
enum class LocationState {
  kAvailablePartial,   ///< holds a prefix; may serve one receiver
  kAvailableComplete,  ///< holds the whole object; may serve one receiver
  kBusy,               ///< currently serving a receiver (removed from pool)
};

/// Reply to a sender claim (synchronous location query).
struct ClaimReply {
  ObjectID object;
  std::int64_t object_size = 0;
  /// True when the claim failed because the object was deleted while the
  /// claimant was attached to an in-flight coalesced fetch. No sender, no
  /// payload: the receiver must fail the waiting Gets with kDeleted.
  bool deleted = false;
  /// True when the payload was served from the inline small-object cache;
  /// `payload` is set and no sender/transfer is involved.
  bool inline_payload = false;
  store::Buffer payload;
  /// True when the receiver itself is (or became) a location of the object
  /// — e.g. a Get of a Reduce target on the coordinator node. No transfer
  /// is needed; the receiver reads its own store.
  bool local_copy = false;
  /// The node to fetch from (invalid only for inline replies).
  NodeID sender = kInvalidNode;
  /// Whether the granted sender holds a complete copy.
  bool sender_complete = false;
  /// The sender's upstream dependency chain, including the sender itself;
  /// the receiver inherits this chain plus the sender.
  std::vector<NodeID> sender_chain;
};

/// A location update published to subscribers.
struct LocationEvent {
  ObjectID object;
  NodeID node = kInvalidNode;
  std::int64_t object_size = 0;
  bool complete = false;
  bool removed = false;    ///< location disappeared (failure or Delete)
  bool is_inline = false;  ///< object lives in the directory's inline cache
};

/// The directory service. One logical instance serves the whole cluster;
/// shard placement only matters for where inline payload bytes travel from.
// hoplite-sa: owner(ObjectDirectory) -- constructed and destroyed by
// HopliteCluster around the engine's whole run; every detection-delay event
// it schedules resolves before the cluster (and the directory with it) dies.
class HOPLITE_DOMAIN_CONFINED ObjectDirectory {
 public:
  using ClaimCallback = std::function<void(const ClaimReply&)>;
  using SubscriptionCallback = std::function<void(const LocationEvent&)>;
  using SubscriptionId = std::uint64_t;

  ObjectDirectory(net::Fabric& network, DirectoryConfig config);
  ObjectDirectory(const ObjectDirectory&) = delete;
  ObjectDirectory& operator=(const ObjectDirectory&) = delete;

  // ------------------------------------------------------------------
  // Write path (fire-and-forget, applied after the write latency).
  // ------------------------------------------------------------------

  /// Announces that `node` is about to hold `object` (partial copy).
  /// Idempotent if the node is already registered.
  void RegisterPartial(ObjectID object, NodeID node, std::int64_t size);

  /// Marks `node`'s copy complete (clears its dependency chain).
  void MarkComplete(ObjectID object, NodeID node);

  /// Removes `node` as a location of `object` (eviction, failure cleanup).
  void RemoveLocation(ObjectID object, NodeID node);

  /// Small-object fast path: caches the payload inside the directory.
  /// `creator` pays NIC serialization to the shard node; the upload's wire
  /// bytes are charged to `tenant` (the putter's).
  void PutInline(ObjectID object, NodeID creator, store::Buffer payload,
                 std::function<void()> on_stored,
                 qos::TenantId tenant = qos::kNoTenant);

  /// Drops every trace of `object` (Delete). Returns (via callback, after
  /// the write latency) the set of nodes that held copies so the caller can
  /// purge local stores. Claims parked at delete time stay parked (on the
  /// object id, exactly as a claim issued after the delete would): dropping
  /// them would strand the claimants' callbacks forever, and a parked claim
  /// is proof the id is still referenced — it resolves when the object is
  /// re-created.
  void DeleteObject(ObjectID object, std::function<void(std::vector<NodeID>)> on_deleted);

  // ------------------------------------------------------------------
  // Read path.
  // ------------------------------------------------------------------

  /// Synchronous location query + claim (§3.4.1). Parks until a suitable
  /// sender exists if necessary. The claim:
  ///   * prefers complete copies over partial ones,
  ///   * never grants the receiver itself,
  ///   * never grants a sender whose dependency chain contains the receiver,
  ///   * marks the granted sender busy (one receiver per sender),
  ///   * registers the receiver as an available partial location whose chain
  ///     is the sender's chain plus the sender.
  /// Small objects resolve through the inline cache instead (payload reply).
  /// `tenant` charges the claim's shard-egress bytes (inline path only):
  /// under coalescing the claim that *opens* a pending-interest window pays
  /// for the shared shard fetch; attached claimants ride it for free and are
  /// charged only for the fan-out transfers they individually receive.
  void ClaimSender(ObjectID object, NodeID receiver, ClaimCallback callback,
                   qos::TenantId tenant = qos::kNoTenant);

  /// Announces that `node` holds a complete cached copy of an *inline*
  /// object (the serving cache retained the payload). Resolves the object's
  /// pending-interest window, registers the node as a complete location so
  /// attached waiters fan out from cached holders, and serves parked claims.
  /// If the object was deleted while the payload was in flight, the copy
  /// must not outlive it: `on_deleted` (optional) is notified so the caller
  /// purges the just-cached copy instead of serving a dead id forever.
  void RegisterCachedCopy(ObjectID object, NodeID node,
                          std::function<void()> on_deleted = nullptr);

  /// After a successful transfer: the sender returns to the available pool
  /// (complete if it was complete, otherwise still partial) and the receiver
  /// is marked complete.
  void TransferFinished(ObjectID object, NodeID sender, NodeID receiver);

  /// After a failed transfer: the receiver keeps its partial location (its
  /// received prefix remains valid data) but its chain is cleared pending a
  /// re-claim; the sender is only re-added if it is alive AND still holds
  /// the copy. An alive sender that reported the copy gone (LRU-evicted or
  /// locally deleted since the grant) must be *removed* instead — returning
  /// its stale location to the pool would let the deterministic claim scan
  /// grant the same empty sender forever.
  void TransferAborted(ObjectID object, NodeID sender, NodeID receiver, bool sender_alive,
                       bool sender_holds_copy = true);

  /// Asynchronous location query: immediately publishes the current
  /// locations, then every future update, until Unsubscribe.
  SubscriptionId Subscribe(ObjectID object, SubscriptionCallback callback);
  void Unsubscribe(ObjectID object, SubscriptionId id);

  // ------------------------------------------------------------------
  // Failure hooks and introspection.
  // ------------------------------------------------------------------

  /// Drops every location hosted by `node` and cancels its parked claims.
  /// Visits only the objects in `node`'s index, by ascending id, so a death
  /// costs what the node held rather than what the directory knows.
  /// Inline cache entries whose shard landed on `node` survive: the real
  /// system replicates directory shards for durability (§6, "Framework's
  /// fault tolerance"), which we model as the shard content staying
  /// reachable.
  void NodeFailed(NodeID node);

  [[nodiscard]] bool HasObject(ObjectID object) const;
  [[nodiscard]] std::optional<std::int64_t> SizeOf(ObjectID object) const;
  [[nodiscard]] std::optional<LocationState> StateOf(ObjectID object, NodeID node) const;
  [[nodiscard]] std::vector<NodeID> LocationsOf(ObjectID object) const;
  [[nodiscard]] bool IsInline(ObjectID object) const;
  [[nodiscard]] NodeID ShardOf(ObjectID object) const;
  /// The node whose NIC carries the shard's inline traffic right now: the
  /// home shard, or — when that node is down — the next alive node (the
  /// replicated directory fails over, §6 "Framework's fault tolerance").
  [[nodiscard]] NodeID LiveShardOf(ObjectID object) const;
  [[nodiscard]] const DirectoryConfig& config() const noexcept { return config_; }

  /// Total directory operations served (reads + writes), for benches.
  [[nodiscard]] std::uint64_t ops_served() const noexcept { return ops_served_; }

  /// Objects NodeFailed has visited, summed over every death.
  [[nodiscard]] std::uint64_t failure_visits() const noexcept { return failure_visits_; }

  /// Length of `node`'s failure index: a superset of the objects it holds,
  /// is being served, or has claims parked on (see `node_objects_`).
  [[nodiscard]] std::size_t IndexedObjectsOf(NodeID node) const {
    return node_objects_.at(static_cast<std::size_t>(node)).ids.size();
  }

  /// Request-coalescing counters (windows opened/resolved, claims attached).
  [[nodiscard]] const cache::InterestStats& interest_stats() const noexcept {
    return interests_.stats();
  }

  /// Coalescing windows currently open (first fetch still in flight).
  [[nodiscard]] std::size_t pending_interests() const noexcept {
    return interests_.pending_count();
  }

  /// Full table-shape walk (audit builds; also directly callable from tests):
  /// every location table sorted strictly ascending, busy/serving bits
  /// cross-consistent, complete copies with empty chains, no copy in its own
  /// dependency chain, subscriber lists in id order.
  void AuditDirectory() const;

 private:
  struct Location {
    LocationState state = LocationState::kAvailablePartial;
    bool complete = false;      ///< the single progress bit of §3.2
    std::vector<NodeID> chain;  ///< upstream dependencies, empty if complete
    NodeID serving = kInvalidNode;  ///< receiver being served while kBusy
    /// True when the copy was created by a fetch grant (it fills via the
    /// transfer protocol); false when locally produced (Put, reduce sink).
    /// Claims by the holder itself resolve locally only for locally-produced
    /// or complete copies — a stalled fetch partial needs an external sender.
    bool fetch_origin = false;

    [[nodiscard]] LocationState AvailableState() const noexcept {
      return complete ? LocationState::kAvailableComplete
                      : LocationState::kAvailablePartial;
    }
  };
  struct ParkedClaim {
    NodeID receiver = kInvalidNode;
    ClaimCallback callback;
    /// True when the claim parked while supply for the object was already in
    /// flight (request coalescing): the claimant attached to the pending
    /// fetch instead of starting its own. A Delete fails attached claims
    /// with `deleted` replies; plain pre-production parks stay parked.
    bool attached = false;
    /// Tenant the claim's inline shard egress is charged to if this claim
    /// ends up opening (or restarting) a coalescing window.
    qos::TenantId tenant = qos::kNoTenant;
  };
  /// One copy of the object: flat record in the per-object location table.
  struct LocationRecord {
    NodeID node = kInvalidNode;
    Location loc;
  };
  struct ObjectEntry {
    std::int64_t size = -1;  ///< -1 until first registration
    bool is_inline = false;
    store::Buffer inline_payload;
    /// Sorted by node id. The location table is scanned far more often than
    /// it is mutated (every claim walks it; cluster-wide ops walk it per
    /// object), so a flat sorted vector beats a node-keyed hash map: scans
    /// are contiguous, and iteration order is deterministic by construction
    /// instead of by hash-table accident.
    std::vector<LocationRecord> locations;
    /// Claims waiting for a sender, FIFO. A vector, so the many entries
    /// that never park a claim allocate nothing for the queue.
    std::vector<ParkedClaim> parked;
    /// Sorted by subscription id (ids are handed out in increasing order and
    /// only ever appended, so insertion order == id order).
    std::vector<std::pair<SubscriptionId, SubscriptionCallback>> subscribers;

    /// Binary-search lookup; nullptr if `node` holds no copy.
    [[nodiscard]] Location* FindLocation(NodeID node);
    [[nodiscard]] const Location* FindLocation(NodeID node) const;
    /// Inserts (sorted) or finds the record for `node`; second is true when
    /// newly inserted.
    std::pair<Location*, bool> AddLocation(NodeID node);
    /// Removes `node`'s record; returns whether it existed.
    bool RemoveLocation(NodeID node);
  };

  /// Applies a mutation after the directory write latency.
  void ApplyWrite(std::function<void()> mutation);

  /// Per-object slice of AuditDirectory, run after claim-path mutations.
  void AuditEntry(const ObjectEntry& entry) const;

  /// Picks the best available sender for `receiver`, or kInvalidNode. The
  /// scan starts at a deterministic per-object rotation of the sorted table
  /// so copy-serving load spreads across replicas instead of always landing
  /// on the lowest node id. Under coalescing, fetch-origin partials are not
  /// grantable: their claimants attach to the in-flight fetch instead.
  [[nodiscard]] NodeID PickSender(ObjectID object, const ObjectEntry& entry,
                                  NodeID receiver) const;

  /// True when the cluster runs with request coalescing enabled.
  [[nodiscard]] bool coalescing() const noexcept { return network_.config().cache.coalescing; }

  /// True if some location can supply bytes now or soon (complete, busy
  /// mid-transfer, or locally produced). Fetch-origin partials alone are
  /// not supply: the coalescing window must (re)open rather than park
  /// claims on a fetch whose source may already be gone.
  [[nodiscard]] static bool HasSupply(const ObjectEntry& entry);

  /// Serves as many parked claims as possible after a state change.
  void ServeParked(ObjectID object);

  /// Records that `node` took a role on `object` (a location, a receiver
  /// being served, a parked claim), pruning its index when it has doubled.
  void NoteRole(NodeID node, ObjectID object);

  /// Whether `node` holds, is being served, or has a claim parked on `entry`.
  [[nodiscard]] static bool HasRole(const ObjectEntry& entry, NodeID node);

  /// Sends `entry`'s inline payload from the live shard node to `receiver`
  /// (charged to `tenant`) and schedules the payload reply on arrival.
  void ServeInlineFromShard(ObjectID object, const ObjectEntry& entry, NodeID receiver,
                            ClaimCallback callback, qos::TenantId tenant);

  /// Grants `sender` to `receiver` and schedules the reply callback.
  void Grant(ObjectID object, ObjectEntry& entry, NodeID sender, NodeID receiver,
             ClaimCallback callback, SimDuration reply_latency);

  void Publish(ObjectID object, const ObjectEntry& entry, const LocationEvent& event);

  ObjectEntry& EntryOf(ObjectID object) { return objects_[object]; }

  net::Fabric& network_;
  sim::Engine& sim_;
  DirectoryConfig config_;
  std::unordered_map<ObjectID, ObjectEntry> objects_;
  /// Per node, ids of the objects it may have a role on: what NodeFailed
  /// visits instead of every object. Ids are appended as roles begin and
  /// never removed one by one, so the list is a superset; NoteRole dedupes
  /// and filters it whenever it reaches twice what survived its last prune,
  /// plus 64, which bounds the lists of nodes that never die.
  struct NodeObjects {
    std::vector<ObjectID> ids;
    std::size_t kept = 0;  ///< ids left by the last prune
  };
  std::vector<NodeObjects> node_objects_;
  /// Pending-interest windows for coalesced inline fetches + counters.
  cache::InterestTable interests_;
  SubscriptionId next_subscription_ = 1;
  std::uint64_t ops_served_ = 0;
  std::uint64_t failure_visits_ = 0;
};

}  // namespace hoplite::directory
