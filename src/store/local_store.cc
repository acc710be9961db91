#include "store/local_store.h"

#include <algorithm>

#include "common/audit.h"

namespace hoplite::store {

LocalStore::LocalStore(NodeID node, std::int64_t capacity_bytes,
                       std::unique_ptr<cache::EvictionPolicy> policy)
    : node_(node),
      capacity_bytes_(capacity_bytes),
      policy_(policy != nullptr
                  ? std::move(policy)
                  : cache::MakeEvictionPolicy(cache::EvictionPolicyKind::kLru,
                                              capacity_bytes)) {}

void LocalStore::CreatePartial(ObjectID object, std::int64_t size, CopyKind kind,
                               std::int64_t chunk_size) {
  HOPLITE_CHECK(!Contains(object)) << "object " << object << " already in store of node "
                                   << node_;
  HOPLITE_CHECK_GE(size, 0);
  HOPLITE_CHECK_GT(chunk_size, 0);
  Entry entry;
  entry.state.size = size;
  entry.state.layout = ChunkLayout{size, chunk_size};
  entry.state.kind = kind;
  entry.node = policy_->OnInsert(object, size);
  used_bytes_ += size;
  peak_used_bytes_ = std::max(peak_used_bytes_, used_bytes_);
  entries_.emplace(object, std::move(entry));
  MaybeEvict();
  HOPLITE_AUDIT_SCOPE(AuditAccounting());
}

void LocalStore::AdvanceChunks(ObjectID object, std::int64_t chunks_ready) {
  Entry& entry = MutableEntry(object);
  HOPLITE_CHECK_LE(chunks_ready, entry.state.layout.num_chunks());
  if (chunks_ready <= entry.state.chunks_ready) return;  // monotone
  entry.state.chunks_ready = chunks_ready;
  // Subscribers may unsubscribe (or remove the object) from inside the
  // callback; iterate over a snapshot of the callbacks.
  std::vector<ChunkCallback> subs;
  subs.reserve(entry.chunk_subs.size());
  for (const auto& [token, cb] : entry.chunk_subs) subs.push_back(cb);
  for (const auto& cb : subs) cb(chunks_ready);
}

void LocalStore::MarkComplete(ObjectID object, Buffer payload) {
  // Taken out of the entry before any subscriber runs: a chunk or completion
  // subscriber may evict or remove this entry, and every completion
  // subscriber must still be handed the payload.
  std::vector<CompletionCallback> subs;
  Buffer buf;
  std::int64_t num_chunks = 0;
  {
    Entry& entry = MutableEntry(object);
    HOPLITE_CHECK(!entry.state.complete) << object << " completed twice on node " << node_;
    HOPLITE_CHECK_EQ(payload.size(), entry.state.size)
        << "payload size mismatch for " << object;
    entry.state.payload = std::move(payload);
    entry.state.complete = true;
    // Before any subscriber fires: one may create an entry in this store,
    // and the eviction that triggers must see this entry as a candidate.
    ReportEvictability(entry);
    subs.reserve(entry.completion_subs.size());
    for (const auto& [token, cb] : entry.completion_subs) subs.push_back(cb);
    entry.completion_subs.clear();
    buf = entry.state.payload;
    num_chunks = entry.state.layout.num_chunks();
  }
  AdvanceChunks(object, num_chunks);
  for (const auto& cb : subs) cb(buf);
  // A subscriber that evicted or removed the entry already settled capacity.
  if (!Contains(object)) return;
  // Completion can turn this entry evictable; re-check capacity.
  MaybeEvict();
  HOPLITE_AUDIT_SCOPE(AuditAccounting());
}

void LocalStore::ResetProgress(ObjectID object) {
  Entry& entry = MutableEntry(object);
  HOPLITE_CHECK(!entry.state.complete)
      << "cannot reset a complete object (" << object << ")";
  entry.state.chunks_ready = 0;
}

void LocalStore::Remove(ObjectID object) {
  auto it = entries_.find(object);
  if (it == entries_.end()) return;
  EraseEntry(it, cache::RemovalCause::kErased);
  HOPLITE_AUDIT_SCOPE(AuditAccounting());
}

void LocalStore::EraseEntry(std::unordered_map<ObjectID, Entry>::iterator it,
                            cache::RemovalCause cause) {
  used_bytes_ -= it->second.state.size;
  policy_->OnRemove(it->second.node, cause);
  entries_.erase(it);
}

bool LocalStore::IsComplete(ObjectID object) const {
  auto it = entries_.find(object);
  return it != entries_.end() && it->second.state.complete;
}

std::int64_t LocalStore::ChunksReady(ObjectID object) const {
  auto it = entries_.find(object);
  return it == entries_.end() ? 0 : it->second.state.chunks_ready;
}

const ObjectState& LocalStore::StateOf(ObjectID object) const {
  return EntryOf(object).state;
}

const Buffer& LocalStore::PayloadOf(ObjectID object) const {
  const Entry& entry = EntryOf(object);
  HOPLITE_CHECK(entry.state.complete) << object << " is not complete on node " << node_;
  return entry.state.payload;
}

std::uint64_t LocalStore::OnChunkProgress(ObjectID object, ChunkCallback cb) {
  Entry& entry = MutableEntry(object);
  const std::uint64_t token = entry.next_token++;
  if (entry.state.chunks_ready > 0) cb(entry.state.chunks_ready);
  // The callback may have removed the object; only register if still present.
  auto it = entries_.find(object);
  if (it != entries_.end() && !it->second.state.complete) {
    it->second.chunk_subs.emplace(token, std::move(cb));
  } else if (it != entries_.end()) {
    // Complete objects never progress further; subscription is a no-op, but
    // fire once more only if the initial call did not already report all.
    if (it->second.state.chunks_ready == 0) cb(it->second.state.layout.num_chunks());
  }
  return token;
}

std::uint64_t LocalStore::OnCompletion(ObjectID object, CompletionCallback cb) {
  Entry& entry = MutableEntry(object);
  const std::uint64_t token = entry.next_token++;
  if (entry.state.complete) {
    cb(entry.state.payload);
    return token;
  }
  entry.completion_subs.emplace(token, std::move(cb));
  return token;
}

void LocalStore::Unsubscribe(ObjectID object, std::uint64_t token) {
  auto it = entries_.find(object);
  if (it == entries_.end()) return;
  it->second.chunk_subs.erase(token);
  it->second.completion_subs.erase(token);
}

void LocalStore::Ref(ObjectID object) {
  Entry& entry = MutableEntry(object);
  entry.refs += 1;
  ReportEvictability(entry);
}

void LocalStore::Unref(ObjectID object) {
  auto it = entries_.find(object);
  if (it == entries_.end()) return;  // removed while referenced (Delete wins)
  HOPLITE_CHECK_GT(it->second.refs, 0);
  it->second.refs -= 1;
  ReportEvictability(it->second);
  MaybeEvict();
}

void LocalStore::ReportEvictability(const Entry& e) {
  // An unbounded store never picks a victim, so its policy needs no order.
  if (capacity_bytes_ > 0) policy_->SetEvictable(e.node, Evictable(e));
}

void LocalStore::Touch(ObjectID object) { policy_->OnTouch(EntryOf(object).node); }

std::vector<ObjectID> LocalStore::ListObjects() const {
  return det::SortedKeys(entries_);
}

void LocalStore::AuditAccounting() const {
  std::int64_t resident = 0;
  for (const ObjectID object : det::SortedKeys(entries_)) {
    const Entry& e = entries_.find(object)->second;
    resident += e.state.size;
    HOPLITE_AUDIT(e.refs >= 0) << object << " has negative ref count";
    HOPLITE_AUDIT(e.state.chunks_ready >= 0 &&
                  e.state.chunks_ready <= e.state.layout.num_chunks())
        << object << " chunk prefix out of range";
    if (e.state.complete) {
      HOPLITE_AUDIT(e.state.chunks_ready == e.state.layout.num_chunks())
          << object << " complete with a partial chunk prefix";
      HOPLITE_AUDIT(e.state.payload.size() == e.state.size)
          << object << " payload/size drift";
      HOPLITE_AUDIT(e.completion_subs.empty())
          << object << " kept completion subscribers past completion";
    }
    HOPLITE_AUDIT(e.node->id == object) << object << " holds another entry's policy node";
    HOPLITE_AUDIT(policy_->IsEvictable(e.node) == (capacity_bytes_ > 0 && Evictable(e)))
        << object << " evictability differs from the policy's victim order";
    for (const auto& sub : e.chunk_subs) HOPLITE_AUDIT(sub.first < e.next_token);
    for (const auto& sub : e.completion_subs) HOPLITE_AUDIT(sub.first < e.next_token);
  }
  HOPLITE_AUDIT(resident == used_bytes_)
      << "(" << resident << " resident bytes vs counter " << used_bytes_ << ")";
  HOPLITE_AUDIT(peak_used_bytes_ >= used_bytes_);
  HOPLITE_AUDIT(policy_->size() == entries_.size())
      << "(" << policy_->size() << " policy entries vs " << entries_.size() << " objects)";
}

void LocalStore::MaybeEvict() {
  if (capacity_bytes_ <= 0) return;
  while (used_bytes_ > capacity_bytes_) {
    const auto victim = policy_->PickVictim();
    if (!victim.has_value()) return;  // over capacity but nothing evictable
    auto entry_it = entries_.find(*victim);
    HOPLITE_CHECK(entry_it != entries_.end());
    HOPLITE_CHECK(Evictable(entry_it->second))
        << "policy picked non-evictable " << *victim << " on node " << node_;
    ++evictions_;
    EraseEntry(entry_it, cache::RemovalCause::kEvicted);
  }
}

LocalStore::Entry& LocalStore::MutableEntry(ObjectID object) {
  auto it = entries_.find(object);
  HOPLITE_CHECK(it != entries_.end())
      << "object " << object << " not in store of node " << node_;
  return it->second;
}

const LocalStore::Entry& LocalStore::EntryOf(ObjectID object) const {
  auto it = entries_.find(object);
  HOPLITE_CHECK(it != entries_.end())
      << "object " << object << " not in store of node " << node_;
  return it->second;
}

}  // namespace hoplite::store
