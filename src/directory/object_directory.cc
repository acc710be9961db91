#include "directory/object_directory.h"

#include <algorithm>

#include "common/audit.h"
#include "common/det.h"

namespace hoplite::directory {

namespace {

/// Latency of a location write as measured in §5.1.1 (167 us).
constexpr SimDuration kWriteLatency = Microseconds(167);
/// Latency of a location read as measured in §5.1.1 (177 us).
constexpr SimDuration kReadLatency = Microseconds(177);
/// One-way push latency for parked-query wakeups and subscriptions.
constexpr SimDuration kNotifyLatency = Microseconds(85);

/// Sorted-insert position for `node` in the flat location table.
template <typename Records>
[[nodiscard]] auto LowerBound(Records& records, NodeID node) {
  return std::lower_bound(records.begin(), records.end(), node,
                          [](const auto& rec, NodeID n) { return rec.node < n; });
}

/// SplitMix64 finalizer: turns an object id into a well-mixed scan offset so
/// PickSender's rotation start is deterministic per object but uncorrelated
/// with the id's low bits (which also pick the shard).
[[nodiscard]] std::uint64_t MixForRotation(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

/// True if some location can supply bytes now or soon: a landed complete
/// copy, a busy copy mid-transfer, or a locally produced partial (which
/// streams as it is written). A fetch-origin partial alone is NOT supply —
/// it is itself waiting on a fetch, and if that fetch's source vanished
/// (sender evicted and retracted), coalescing a window onto it would wedge
/// every attached claim forever.
bool ObjectDirectory::HasSupply(const ObjectEntry& entry) {
  for (const auto& rec : entry.locations) {
    if (rec.loc.complete || rec.loc.state == LocationState::kBusy ||
        !rec.loc.fetch_origin) {
      return true;
    }
  }
  return false;
}

ObjectDirectory::Location* ObjectDirectory::ObjectEntry::FindLocation(NodeID node) {
  const auto it = LowerBound(locations, node);
  return it != locations.end() && it->node == node ? &it->loc : nullptr;
}

const ObjectDirectory::Location* ObjectDirectory::ObjectEntry::FindLocation(
    NodeID node) const {
  const auto it = LowerBound(locations, node);
  return it != locations.end() && it->node == node ? &it->loc : nullptr;
}

std::pair<ObjectDirectory::Location*, bool> ObjectDirectory::ObjectEntry::AddLocation(
    NodeID node) {
  auto it = LowerBound(locations, node);
  if (it != locations.end() && it->node == node) return {&it->loc, false};
  it = locations.insert(it, LocationRecord{node, Location{}});
  return {&it->loc, true};
}

bool ObjectDirectory::ObjectEntry::RemoveLocation(NodeID node) {
  const auto it = LowerBound(locations, node);
  if (it == locations.end() || it->node != node) return false;
  locations.erase(it);
  return true;
}

ObjectDirectory::ObjectDirectory(net::Fabric& network, DirectoryConfig config)
    : network_(network),
      sim_(network.simulator()),
      config_(config),
      node_objects_(static_cast<std::size_t>(network.num_nodes())) {}

void ObjectDirectory::ApplyWrite(std::function<void()> mutation) {
  ++ops_served_;
  sim_.ScheduleAfter(kWriteLatency, std::move(mutation));
}

void ObjectDirectory::RegisterPartial(ObjectID object, NodeID node, std::int64_t size) {
  HOPLITE_CHECK_GE(size, 0);
  ApplyWrite([this, object, node, size] {
    ObjectEntry& entry = EntryOf(object);
    if (entry.size < 0) entry.size = size;
    HOPLITE_CHECK_EQ(entry.size, size) << "conflicting sizes registered for " << object;
    if (!entry.AddLocation(node).second) return;  // idempotent
    NoteRole(node, object);
    Publish(object, entry, LocationEvent{object, node, entry.size, false, false});
    ServeParked(object);
  });
}

void ObjectDirectory::MarkComplete(ObjectID object, NodeID node) {
  ApplyWrite([this, object, node] {
    auto obj_it = objects_.find(object);
    if (obj_it == objects_.end()) return;  // deleted concurrently
    ObjectEntry& entry = obj_it->second;
    Location* loc = entry.FindLocation(node);
    if (loc == nullptr) return;  // removed concurrently (failure)
    loc->chain.clear();
    loc->complete = true;
    if (loc->state != LocationState::kBusy) {
      loc->state = LocationState::kAvailableComplete;
    }
    // If busy: completeness is recorded now and takes effect when the
    // location returns to the pool.
    Publish(object, entry, LocationEvent{object, node, entry.size, true, false});
    ServeParked(object);
  });
}

void ObjectDirectory::RegisterCachedCopy(ObjectID object, NodeID node,
                                         std::function<void()> on_deleted) {
  ApplyWrite([this, object, node, on_deleted = std::move(on_deleted)] {
    auto obj_it = objects_.find(object);
    if (obj_it == objects_.end()) {
      // Deleted while the payload was in flight; the window (if any) died
      // with the delete, this is just the late registration arriving. The
      // delete's purge wave could not have reached the registering node (it
      // was not a location yet), so tell it to reap the copy itself.
      interests_.Abort(object);
      if (on_deleted) {
        sim_.ScheduleAfter(kNotifyLatency, std::move(on_deleted));
      }
      return;
    }
    ObjectEntry& entry = obj_it->second;
    interests_.Resolve(object);
    const auto [loc, inserted] = entry.AddLocation(node);
    loc->complete = true;
    loc->chain.clear();
    loc->fetch_origin = false;
    if (loc->state != LocationState::kBusy) {
      loc->state = LocationState::kAvailableComplete;
    }
    if (inserted) NoteRole(node, object);
    Publish(object, entry, LocationEvent{object, node, entry.size, true, false,
                                         /*is_inline=*/entry.is_inline});
    ServeParked(object);
  });
}

void ObjectDirectory::RemoveLocation(ObjectID object, NodeID node) {
  ApplyWrite([this, object, node] {
    auto obj_it = objects_.find(object);
    if (obj_it == objects_.end()) return;
    ObjectEntry& entry = obj_it->second;
    if (!entry.RemoveLocation(node)) return;
    Publish(object, entry, LocationEvent{object, node, entry.size, false, true});
    // An eviction can take the last supply of a coalesced inline entry. Its
    // parked claims restart the window now, not at the next unrelated
    // wake-up: a removal changes nothing else that could serve them.
    if (!HasSupply(entry)) ServeParked(object);
  });
}

void ObjectDirectory::PutInline(ObjectID object, NodeID creator, store::Buffer payload,
                                std::function<void()> on_stored, qos::TenantId tenant) {
  HOPLITE_CHECK_LT(payload.size(), config_.inline_threshold);
  const NodeID shard = LiveShardOf(object);
  const std::int64_t bytes = payload.size();
  ++ops_served_;
  // The payload rides along with the location write to the shard node.
  network_.Send(
      creator, shard, bytes,
      [this, object, payload = std::move(payload), on_stored = std::move(on_stored)] {
        sim_.ScheduleAfter(kWriteLatency, [this, object, payload, on_stored] {
          ObjectEntry& entry = EntryOf(object);
          entry.size = payload.size();
          entry.is_inline = true;
          entry.inline_payload = payload;
          Publish(object, entry,
                  LocationEvent{object, ShardOf(object), entry.size, true, false,
                                /*is_inline=*/true});
          ServeParked(object);
          if (on_stored) on_stored();
        });
      },
      tenant);
}

void ObjectDirectory::DeleteObject(ObjectID object,
                                   std::function<void(std::vector<NodeID>)> on_deleted) {
  ApplyWrite([this, object, on_deleted = std::move(on_deleted)] {
    std::vector<NodeID> holders;
    auto it = objects_.find(object);
    if (it != objects_.end()) {
      for (const auto& rec : it->second.locations) holders.push_back(rec.node);
      const std::int64_t size = it->second.size;
      std::vector<ParkedClaim> parked = std::move(it->second.parked);
      objects_.erase(it);
      interests_.Abort(object);
      // Claims that *attached* to an in-flight coalesced fetch fail now
      // with a `deleted` reply: their claimants observed the object exist
      // and merged onto its fetch, so the honest outcome of a concurrent
      // Delete is kDeleted — not silently waiting for a re-creation that
      // may never come. A plain pre-production park must not be dropped,
      // though: its callback would never fire and the claimant would hang
      // forever. It stays parked on the id — semantically identical to the
      // same claim arriving one tick after the delete — and resolves when
      // the object is re-created.
      std::vector<ParkedClaim> replug;
      for (auto& claim : parked) {
        if (claim.attached) {
          ClaimReply reply;
          reply.object = object;
          reply.object_size = size;
          reply.deleted = true;
          sim_.ScheduleAfter(kNotifyLatency,
                             [callback = std::move(claim.callback), reply] { callback(reply); });
        } else {
          replug.push_back(std::move(claim));
        }
      }
      if (!replug.empty()) EntryOf(object).parked = std::move(replug);
    }
    if (on_deleted) on_deleted(std::move(holders));
  });
}

NodeID ObjectDirectory::PickSender(ObjectID object, const ObjectEntry& entry,
                                   NodeID receiver) const {
  // Rotated scan of the sorted table: the start index is a deterministic
  // per-object hash, so different hot objects spread their copy-serving
  // load across replicas instead of every claim landing on the lowest node
  // id. From the rotated start, the first available complete copy wins;
  // failing that, the first available partial copy whose chain does not
  // contain the receiver (granting one would create a cyclic fetch, §3.5.1).
  // Under coalescing, fetch-origin partials are skipped entirely: a copy
  // that is itself still being fetched is the pending interest later
  // claimants attach to, not a sender — the fan-out tree grows only from
  // landed copies (and locally produced partials, which stream as they are
  // written).
  const std::size_t n = entry.locations.size();
  if (n == 0) return kInvalidNode;
  const bool coalesce = coalescing();
  const std::size_t start =
      static_cast<std::size_t>(MixForRotation(object.value()) % static_cast<std::uint64_t>(n));
  NodeID best_partial = kInvalidNode;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& rec = entry.locations[(start + i) % n];
    if (rec.node == receiver) continue;
    if (rec.loc.state == LocationState::kBusy) continue;
    if (rec.loc.state == LocationState::kAvailableComplete) return rec.node;
    if (best_partial != kInvalidNode) continue;
    if (coalesce && rec.loc.fetch_origin) continue;
    if (std::find(rec.loc.chain.begin(), rec.loc.chain.end(), receiver) !=
        rec.loc.chain.end()) {
      continue;
    }
    best_partial = rec.node;
  }
  return best_partial;
}

void ObjectDirectory::Grant(ObjectID object, ObjectEntry& entry, NodeID sender,
                            NodeID receiver, ClaimCallback callback,
                            SimDuration reply_latency) {
  Location* sender_loc = entry.FindLocation(sender);
  HOPLITE_CHECK(sender_loc != nullptr);
  ClaimReply reply;
  reply.object = object;
  reply.object_size = entry.size;
  reply.sender = sender;
  reply.sender_complete = sender_loc->state == LocationState::kAvailableComplete;
  reply.sender_chain = sender_loc->chain;
  reply.sender_chain.push_back(sender);

  // One receiver per sender: the granted location leaves the pool (§3.4.1).
  sender_loc->state = LocationState::kBusy;
  sender_loc->serving = receiver;

  // The receiver becomes a partial location immediately, inheriting the
  // dependency chain, so later receivers can pipeline from it. (The insert
  // may reallocate the table — sender_loc is dead past this point.)
  const auto [recv_loc, inserted] = entry.AddLocation(receiver);
  recv_loc->chain = reply.sender_chain;
  recv_loc->fetch_origin = true;
  if (inserted) {
    NoteRole(receiver, object);
    Publish(object, entry, LocationEvent{object, receiver, entry.size, false, false});
  }

  sim_.ScheduleAfter(reply_latency,
                     [callback = std::move(callback), reply = std::move(reply)] {
                       callback(reply);
                     });
  HOPLITE_AUDIT_SCOPE(AuditEntry(entry));
}

void ObjectDirectory::AuditEntry(const ObjectEntry& entry) const {
  for (std::size_t i = 0; i < entry.locations.size(); ++i) {
    const LocationRecord& rec = entry.locations[i];
    if (i > 0) {
      HOPLITE_AUDIT(entry.locations[i - 1].node < rec.node)
          << "location table not sorted strictly ascending at node " << rec.node;
    }
    const Location& loc = rec.loc;
    HOPLITE_AUDIT((loc.state == LocationState::kBusy) == (loc.serving != kInvalidNode))
        << "busy/serving mismatch on node " << rec.node;
    HOPLITE_AUDIT(loc.serving != rec.node) << "node " << rec.node << " is serving itself";
    if (loc.complete) {
      HOPLITE_AUDIT(loc.chain.empty())
          << "complete copy on node " << rec.node << " kept a dependency chain";
    }
    HOPLITE_AUDIT(std::find(loc.chain.begin(), loc.chain.end(), rec.node) ==
                  loc.chain.end())
        << "node " << rec.node << " appears in its own dependency chain";
  }
  if (!entry.locations.empty() || entry.is_inline) {
    HOPLITE_AUDIT(entry.size >= 0) << "located object with unknown size";
  }
  if (entry.is_inline) {
    HOPLITE_AUDIT(entry.inline_payload.size() == entry.size)
        << "(inline payload " << entry.inline_payload.size() << " bytes vs size "
        << entry.size << ")";
  }
  for (std::size_t i = 0; i < entry.subscribers.size(); ++i) {
    HOPLITE_AUDIT(entry.subscribers[i].first < next_subscription_);
    if (i > 0) {
      HOPLITE_AUDIT(entry.subscribers[i - 1].first < entry.subscribers[i].first)
          << "subscriber list out of id order";
    }
  }
  for (const ParkedClaim& claim : entry.parked) {
    HOPLITE_AUDIT(claim.receiver != kInvalidNode);
    HOPLITE_AUDIT(claim.callback != nullptr);
  }
}

void ObjectDirectory::AuditDirectory() const {
  // Every role is in its node's failure index, or a death would miss it.
  std::vector<std::vector<ObjectID>> indexed;
  indexed.reserve(node_objects_.size());
  for (const NodeObjects& index : node_objects_) {
    indexed.push_back(index.ids);
    std::sort(indexed.back().begin(), indexed.back().end());
  }
  const auto noted = [&indexed](NodeID node, ObjectID object) {
    const auto& ids = indexed.at(static_cast<std::size_t>(node));
    return std::binary_search(ids.begin(), ids.end(), object);
  };
  for (const ObjectID object : det::SortedKeys(objects_)) {
    const ObjectEntry& entry = objects_.find(object)->second;
    AuditEntry(entry);
    for (const LocationRecord& rec : entry.locations) {
      HOPLITE_AUDIT(noted(rec.node, object))
          << "node " << rec.node << " holds " << object << " outside its failure index";
      if (rec.loc.serving != kInvalidNode) {
        HOPLITE_AUDIT(noted(rec.loc.serving, object))
            << "node " << rec.loc.serving << " is served " << object
            << " outside its failure index";
      }
    }
    for (const ParkedClaim& claim : entry.parked) {
      HOPLITE_AUDIT(noted(claim.receiver, object))
          << "node " << claim.receiver << " parks on " << object
          << " outside its failure index";
    }
  }
}

void ObjectDirectory::ClaimSender(ObjectID object, NodeID receiver, ClaimCallback callback,
                                  qos::TenantId tenant) {
  ++ops_served_;
  sim_.ScheduleAfter(kReadLatency, [this, object, receiver, tenant,
                                    callback = std::move(callback)]() mutable {
    ObjectEntry& entry = EntryOf(object);
    if (entry.is_inline && !coalescing()) {
      ServeInlineFromShard(object, entry, receiver, std::move(callback), tenant);
      return;
    }
    if (const Location* self = entry.FindLocation(receiver);
        self != nullptr &&
        (!self->fetch_origin || self->state == LocationState::kAvailableComplete)) {
      // The receiver already holds (or is locally producing) the object.
      ClaimReply reply;
      reply.object = object;
      reply.object_size = entry.size;
      reply.local_copy = true;
      reply.sender = receiver;
      callback(reply);
      return;
    }
    const NodeID sender = PickSender(object, entry, receiver);
    if (sender != kInvalidNode) {
      Grant(object, entry, sender, receiver, std::move(callback), SimDuration{0});
      return;
    }
    if (entry.is_inline) {
      // Coalescing: the first claim of a window fetches the payload from the
      // shard; while that fetch is in flight (or granted fan-out transfers
      // are), later claimants attach to the pending interest and drain
      // through the cached-holder fan-out instead of each paying the shard's
      // egress again.
      if (!interests_.Pending(object) && !HasSupply(entry)) {
        interests_.Open(object, receiver);
        ServeInlineFromShard(object, entry, receiver, std::move(callback), tenant);
        return;
      }
      interests_.NoteAttach(object);
      entry.parked.push_back(
          ParkedClaim{receiver, std::move(callback), /*attached=*/true, tenant});
      NoteRole(receiver, object);
      return;
    }
    // Attached == parked while supply was already in flight: under
    // coalescing these claims ride the pending fetch (and fail kDeleted if
    // the object is deleted first); a park on an empty entry is the plain
    // get-before-put wait and keeps its legacy semantics.
    const bool attached = coalescing() && HasSupply(entry);
    if (attached) interests_.NoteAttach(object);
    entry.parked.push_back(ParkedClaim{receiver, std::move(callback), attached, tenant});
    NoteRole(receiver, object);
  });
}

void ObjectDirectory::ServeParked(ObjectID object) {
  auto obj_it = objects_.find(object);
  if (obj_it == objects_.end()) return;
  ObjectEntry& entry = obj_it->second;
  // The caller just mutated this entry; audit the post-mutation shape before
  // grants mutate it further (Grant audits again after each grant).
  HOPLITE_AUDIT_SCOPE(AuditEntry(entry));
  if (entry.parked.empty()) return;
  // Serve from the queue moved out of the entry: serving k of n claims then
  // costs O(n), and Grant's audit never meets a moved-from claim. Replies
  // are scheduled, never run inline, so nothing parks meanwhile.
  std::vector<ParkedClaim> queue = std::exchange(entry.parked, {});
  if (entry.is_inline && !coalescing()) {
    // Everything parked resolves through the inline cache.
    for (auto& claim : queue) {
      ClaimReply reply;
      reply.object = object;
      reply.object_size = entry.size;
      reply.inline_payload = true;
      reply.payload = entry.inline_payload;
      network_.Send(LiveShardOf(object), claim.receiver, entry.size,
                    [callback = std::move(claim.callback), reply = std::move(reply)] {
                      callback(reply);
                    },
                    claim.tenant);
    }
    return;
  }
  // Serve claims FIFO while senders are available. A claim that still has no
  // suitable sender blocks the ones behind it (fairness; also matches the
  // behaviour of a per-object wait queue in the reference implementation).
  // Under coalescing this loop IS the broadcast fan-out: each landed copy
  // frees its sender and adds a new complete holder, so the number of
  // grants per wake-up doubles until the parked queue drains.
  std::size_t served = 0;
  for (; served < queue.size(); ++served) {
    ParkedClaim& claim = queue[served];
    const NodeID receiver = claim.receiver;
    const Location* self = entry.FindLocation(receiver);
    if (self != nullptr &&
        (!self->fetch_origin || self->state == LocationState::kAvailableComplete)) {
      // The receiver became a location itself (e.g. a reduce sink landed on
      // it): resolve the claim locally.
      ClaimReply reply;
      reply.object = object;
      reply.object_size = entry.size;
      reply.local_copy = true;
      reply.sender = receiver;
      sim_.ScheduleAfter(kNotifyLatency,
                         [callback = std::move(claim.callback), reply] { callback(reply); });
      continue;
    }
    const NodeID sender = PickSender(object, entry, receiver);
    if (sender != kInvalidNode) {
      Grant(object, entry, sender, receiver, std::move(claim.callback), kNotifyLatency);
      continue;
    }
    if (entry.is_inline && !interests_.Pending(object) && !HasSupply(entry)) {
      // Coalesced inline object with no supply at all (the window's fetcher
      // died before its copy landed): restart the window with the next
      // parked claim so the survivors re-resolve.
      interests_.Open(object, receiver);
      // The restarting claim becomes the new window opener and pays the
      // shard egress, exactly as if it had opened the window first.
      ServeInlineFromShard(object, entry, receiver, std::move(claim.callback), claim.tenant);
      continue;
    }
    break;
  }
  queue.erase(queue.begin(), queue.begin() + static_cast<std::ptrdiff_t>(served));
  entry.parked = std::move(queue);
}

void ObjectDirectory::NoteRole(NodeID node, ObjectID object) {
  NodeObjects& index = node_objects_[static_cast<std::size_t>(node)];
  index.ids.push_back(object);
  if (index.ids.size() < 2 * index.kept + 64) return;
  // Dedupe, and drop the ids the node has no role on any more. (Inside
  // ServeParked the served entry's queue is moved out, but the node noted
  // there is a grant's receiver, a location of that entry by then.)
  std::sort(index.ids.begin(), index.ids.end());
  index.ids.erase(std::unique(index.ids.begin(), index.ids.end()), index.ids.end());
  index.ids.erase(std::remove_if(index.ids.begin(), index.ids.end(),
                                 [this, node](ObjectID id) {
                                   const auto it = objects_.find(id);
                                   return it == objects_.end() || !HasRole(it->second, node);
                                 }),
                  index.ids.end());
  index.kept = index.ids.size();
}

bool ObjectDirectory::HasRole(const ObjectEntry& entry, NodeID node) {
  return entry.FindLocation(node) != nullptr ||
         std::any_of(entry.locations.begin(), entry.locations.end(),
                     [node](const LocationRecord& rec) { return rec.loc.serving == node; }) ||
         std::any_of(entry.parked.begin(), entry.parked.end(),
                     [node](const ParkedClaim& claim) { return claim.receiver == node; });
}

void ObjectDirectory::ServeInlineFromShard(ObjectID object, const ObjectEntry& entry,
                                           NodeID receiver, ClaimCallback callback,
                                           qos::TenantId tenant) {
  ClaimReply reply;
  reply.object = object;
  reply.object_size = entry.size;
  reply.inline_payload = true;
  reply.payload = entry.inline_payload;
  // Payload bytes travel from the shard node to the receiver.
  network_.Send(LiveShardOf(object), receiver, entry.size,
                [callback = std::move(callback), reply = std::move(reply)] {
                  callback(reply);
                },
                tenant);
}

void ObjectDirectory::TransferFinished(ObjectID object, NodeID sender, NodeID receiver) {
  ApplyWrite([this, object, sender, receiver] {
    auto obj_it = objects_.find(object);
    if (obj_it == objects_.end()) return;
    ObjectEntry& entry = obj_it->second;
    if (Location* loc = entry.FindLocation(sender); loc != nullptr) {
      // The sender returns to the pool with its recorded completeness.
      loc->state = loc->AvailableState();
      loc->serving = kInvalidNode;
      Publish(object, entry,
              LocationEvent{object, sender, entry.size, loc->complete, false});
    }
    if (Location* loc = entry.FindLocation(receiver); loc != nullptr) {
      loc->chain.clear();
      loc->complete = true;
      if (loc->state != LocationState::kBusy) {
        loc->state = LocationState::kAvailableComplete;
      }
      Publish(object, entry, LocationEvent{object, receiver, entry.size, true, false});
    }
    ServeParked(object);
  });
}

void ObjectDirectory::TransferAborted(ObjectID object, NodeID sender, NodeID receiver,
                                      bool sender_alive, bool sender_holds_copy) {
  ApplyWrite([this, object, sender, receiver, sender_alive, sender_holds_copy] {
    auto obj_it = objects_.find(object);
    if (obj_it == objects_.end()) return;
    ObjectEntry& entry = obj_it->second;
    if (sender_alive && sender_holds_copy) {
      if (Location* loc = entry.FindLocation(sender); loc != nullptr) {
        loc->state = loc->AvailableState();
        loc->serving = kInvalidNode;
      }
    } else {
      // Dead, or alive with the copy evicted/deleted since the grant: the
      // location is stale either way.
      entry.RemoveLocation(sender);
    }
    if (Location* loc = entry.FindLocation(receiver); loc != nullptr) {
      // The receiver keeps its prefix but no longer depends on anyone until
      // it re-claims.
      loc->chain.clear();
    }
    ServeParked(object);
  });
}

ObjectDirectory::SubscriptionId ObjectDirectory::Subscribe(ObjectID object,
                                                           SubscriptionCallback callback) {
  ++ops_served_;
  const SubscriptionId id = next_subscription_++;
  // Register synchronously (so an Unsubscribe always wins over the pending
  // snapshot); the current-state snapshot is delivered one read latency
  // later, like any async query reply (§3.2).
  EntryOf(object).subscribers.emplace_back(id, std::move(callback));
  sim_.ScheduleAfter(kReadLatency, [this, object, id] {
    auto obj_it = objects_.find(object);
    if (obj_it == objects_.end()) return;
    ObjectEntry& entry = obj_it->second;
    const auto sub_it =
        std::find_if(entry.subscribers.begin(), entry.subscribers.end(),
                     [id](const auto& sub) { return sub.first == id; });
    if (sub_it == entry.subscribers.end()) return;  // unsubscribed meanwhile
    // Copy: the callback may unsubscribe (invalidating the iterator).
    const SubscriptionCallback cb = sub_it->second;
    if (entry.is_inline) {
      cb(LocationEvent{object, ShardOf(object), entry.size, true, false,
                       /*is_inline=*/true});
    } else {
      std::vector<LocationEvent> events;
      events.reserve(entry.locations.size());
      for (const auto& rec : entry.locations) {
        events.push_back(LocationEvent{object, rec.node, entry.size,
                                       rec.loc.state == LocationState::kAvailableComplete,
                                       false});
      }
      for (const auto& event : events) cb(event);
    }
  });
  return id;
}

void ObjectDirectory::Unsubscribe(ObjectID object, SubscriptionId id) {
  auto it = objects_.find(object);
  if (it == objects_.end()) return;
  auto& subs = it->second.subscribers;
  subs.erase(std::remove_if(subs.begin(), subs.end(),
                            [id](const auto& sub) { return sub.first == id; }),
             subs.end());
}

void ObjectDirectory::Publish(ObjectID object, const ObjectEntry& entry,
                              const LocationEvent& event) {
  (void)object;
  for (const auto& [id, callback] : entry.subscribers) {
    sim_.ScheduleAfter(kNotifyLatency, [callback, event] { callback(event); });
  }
}

void ObjectDirectory::NodeFailed(NodeID node) {
  // Failure cleanup is applied immediately: the directory learns about the
  // death from the failure detector, which already waited the detection
  // delay before telling anyone. Walk the node's objects by ascending id so
  // the order of failure publishes / parked-claim grants is deterministic.
  // Walking every object would do no more: an object the node has no role
  // on has nothing to drop, and every change to an entry already served its
  // parked queue.
  std::vector<ObjectID> touched =
      std::exchange(node_objects_[static_cast<std::size_t>(node)], {}).ids;
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const ObjectID object : touched) {
    const auto obj_it = objects_.find(object);
    if (obj_it == objects_.end()) continue;  // deleted since the node touched it
    ++failure_visits_;
    ObjectEntry& entry = obj_it->second;
    if (entry.RemoveLocation(node)) {
      Publish(object, entry, LocationEvent{object, node, entry.size, false, true});
    }
    // Senders that were busy serving the dead node return to the pool;
    // otherwise they would be leaked as busy forever.
    for (auto& rec : entry.locations) {
      if (rec.loc.state == LocationState::kBusy && rec.loc.serving == node) {
        rec.loc.state = rec.loc.AvailableState();
        rec.loc.serving = kInvalidNode;
      }
    }
    auto& parked = entry.parked;
    parked.erase(std::remove_if(parked.begin(), parked.end(),
                                [node](const ParkedClaim& c) { return c.receiver == node; }),
                 parked.end());
    ServeParked(object);
  }
  // Pending-interest windows whose fetcher died with the node are dropped;
  // re-serving the parked queue restarts each window with the next attached
  // claimant (the in-flight shard send to the dead fetcher was aborted by
  // the fabric, so no copy will ever land from it).
  for (const ObjectID object : interests_.OnNodeFailed(node)) {
    ServeParked(object);
  }
  HOPLITE_AUDIT_SCOPE(AuditDirectory());
}

bool ObjectDirectory::HasObject(ObjectID object) const { return objects_.count(object) > 0; }

std::optional<std::int64_t> ObjectDirectory::SizeOf(ObjectID object) const {
  auto it = objects_.find(object);
  if (it == objects_.end() || it->second.size < 0) return std::nullopt;
  return it->second.size;
}

std::optional<LocationState> ObjectDirectory::StateOf(ObjectID object, NodeID node) const {
  auto it = objects_.find(object);
  if (it == objects_.end()) return std::nullopt;
  const Location* loc = it->second.FindLocation(node);
  if (loc == nullptr) return std::nullopt;
  return loc->state;
}

std::vector<NodeID> ObjectDirectory::LocationsOf(ObjectID object) const {
  std::vector<NodeID> nodes;
  auto it = objects_.find(object);
  if (it == objects_.end()) return nodes;
  nodes.reserve(it->second.locations.size());
  // The table is sorted by node already.
  for (const auto& rec : it->second.locations) nodes.push_back(rec.node);
  return nodes;
}

bool ObjectDirectory::IsInline(ObjectID object) const {
  auto it = objects_.find(object);
  return it != objects_.end() && it->second.is_inline;
}

NodeID ObjectDirectory::ShardOf(ObjectID object) const {
  return static_cast<NodeID>(object.value() %
                             static_cast<std::uint64_t>(network_.num_nodes()));
}

NodeID ObjectDirectory::LiveShardOf(ObjectID object) const {
  const NodeID home = ShardOf(object);
  const int n = network_.num_nodes();
  for (int i = 0; i < n; ++i) {
    const NodeID candidate = static_cast<NodeID>((home + i) % n);
    if (!network_.IsFailed(candidate)) return candidate;
  }
  return home;  // whole cluster down; nothing sensible to do
}

}  // namespace hoplite::directory
