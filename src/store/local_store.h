// Per-node object store.
//
// One LocalStore instance stands in for the paper's per-node object store
// process (Figure 3): it buffers immutable objects, tracks partially received
// copies at chunk granularity so that partial copies can act as senders
// (§3.2/§3.3), pins primary copies created via Put until the framework calls
// Delete (§6 "Garbage collection"), and evicts unpinned secondary copies via
// a pluggable replacement policy (cache/eviction_policy.h; LRU by default)
// when a capacity limit is configured.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/eviction_policy.h"
#include "common/annotations.h"
#include "common/det.h"
#include "common/ids.h"
#include "common/logging.h"
#include "common/units.h"
#include "store/buffer.h"

namespace hoplite::store {

/// Why a store entry exists; primaries are pinned, copies are evictable.
enum class CopyKind {
  kPrimary,  ///< created by a local Put; pinned until Delete
  kReplica,  ///< received from a remote node during broadcast/get
  kReduced,  ///< produced locally as a (partial or final) reduce result
  kCached,   ///< inline payload retained by the serving cache (coalescing)
};

/// Observable state of one object in one store.
struct ObjectState {
  std::int64_t size = 0;
  ChunkLayout layout;
  std::int64_t chunks_ready = 0;  ///< contiguous prefix of available chunks
  bool complete = false;
  CopyKind kind = CopyKind::kReplica;
  Buffer payload;  ///< meaningful once complete
};

/// A single node's object store. Purely a bookkeeping structure: all timing
/// (memcpy cost, network cost) is charged by the layers above.
class HOPLITE_DOMAIN_CONFINED LocalStore {
 public:
  using ChunkCallback = std::function<void(std::int64_t chunks_ready)>;
  using CompletionCallback = std::function<void(const Buffer&)>;

  /// `policy` decides replacement order; null selects classic LRU, which
  /// reproduces the pre-policy hard-wired list bit for bit.
  explicit LocalStore(NodeID node, std::int64_t capacity_bytes = 0,
                      std::unique_ptr<cache::EvictionPolicy> policy = nullptr);

  [[nodiscard]] NodeID node() const noexcept { return node_; }

  /// Begins a new (empty) copy of `object` with the given size. Fails if the
  /// object already exists locally — callers must check Contains first.
  void CreatePartial(ObjectID object, std::int64_t size, CopyKind kind,
                     std::int64_t chunk_size);

  /// Advances the contiguous available-chunk prefix to `chunks_ready`
  /// (monotone). Fires chunk subscribers.
  void AdvanceChunks(ObjectID object, std::int64_t chunks_ready);

  /// Marks the object complete and attaches its payload. Implies advancing
  /// to the full chunk count. Fires chunk, then completion subscribers; every
  /// completion subscriber registered before the call runs, even if a
  /// subscriber evicts or removes the entry first.
  void MarkComplete(ObjectID object, Buffer payload);

  /// Rolls the available-chunk prefix of a *non-complete* entry back to zero.
  /// Used by the reduce protocol when an upstream failure invalidates a
  /// partially accumulated result (§3.5.2). Subscriptions survive.
  void ResetProgress(ObjectID object);

  /// Removes the local copy regardless of pinning (used by Delete and by
  /// reduce-invalidation after upstream failures). No-op if absent.
  void Remove(ObjectID object);

  [[nodiscard]] bool Contains(ObjectID object) const { return entries_.count(object) > 0; }
  [[nodiscard]] bool IsComplete(ObjectID object) const;
  [[nodiscard]] std::int64_t ChunksReady(ObjectID object) const;
  [[nodiscard]] const ObjectState& StateOf(ObjectID object) const;
  [[nodiscard]] const Buffer& PayloadOf(ObjectID object) const;

  /// Subscribes to chunk-progress updates for a (possibly partial) object;
  /// fires immediately if progress already surpasses `after_chunk`. Used by
  /// forwarders streaming from a partial copy. Returns a token for
  /// Unsubscribe.
  std::uint64_t OnChunkProgress(ObjectID object, ChunkCallback cb);

  /// Subscribes to completion; fires immediately if already complete.
  std::uint64_t OnCompletion(ObjectID object, CompletionCallback cb);

  void Unsubscribe(ObjectID object, std::uint64_t token);

  /// Temporarily protects an entry from eviction (e.g. while it serves as a
  /// transfer source). Balanced by Unref.
  void Ref(ObjectID object);
  void Unref(ObjectID object);

  /// Records a use with the eviction policy (reorders/promotes the entry).
  void Touch(ObjectID object);

  /// Serving-cache counters: a Get that found a local complete copy is a
  /// hit, one that had to fetch is a miss. Charged by the client layer so
  /// the definition matches what a user-visible Get observed.
  void NoteHit() noexcept { ++hits_; }
  void NoteMiss() noexcept { ++misses_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

  /// Bytes currently held (partial copies count their full reserved size).
  [[nodiscard]] std::int64_t used_bytes() const noexcept { return used_bytes_; }
  /// High-water mark of used_bytes over the store's lifetime. Can exceed
  /// capacity_bytes: pinned primaries and transfer-reffed copies are not
  /// evictable, so a burst of Puts overshoots before eviction relief arrives.
  [[nodiscard]] std::int64_t peak_used_bytes() const noexcept { return peak_used_bytes_; }
  [[nodiscard]] std::int64_t capacity_bytes() const noexcept { return capacity_bytes_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

  /// All object ids currently present (for tests/debugging).
  [[nodiscard]] std::vector<ObjectID> ListObjects() const;

  /// Full byte-accounting walk (audit builds; also directly callable from
  /// tests): used_bytes == sum of resident entry sizes, non-negative ref
  /// counts, one policy node per entry, each naming its entry and marked
  /// evictable exactly when the entry is (never, in an unbounded store),
  /// complete entries with full chunk prefixes and attached payloads.
  void AuditAccounting() const;

 private:
  struct Entry {
    ObjectState state;
    cache::EvictionPolicy::Handle node;  ///< this entry's node in the policy's queues
    std::int64_t refs = 0;
    std::uint64_t next_token = 1;
    // det::Map so callback firing order is ascending token == subscription
    // order, not hash placement.
    det::Map<std::uint64_t, ChunkCallback> chunk_subs;
    det::Map<std::uint64_t, CompletionCallback> completion_subs;
  };

  [[nodiscard]] Entry& MutableEntry(ObjectID object);
  [[nodiscard]] const Entry& EntryOf(ObjectID object) const;
  [[nodiscard]] bool Evictable(const Entry& e) const noexcept {
    return e.state.complete && e.refs == 0 && e.state.kind != CopyKind::kPrimary;
  }
  /// Passes Evictable(e) to the policy. Called wherever it can flip:
  /// completion, Ref and Unref (an entry's kind is fixed at CreatePartial).
  void ReportEvictability(const Entry& e);
  void MaybeEvict();
  void EraseEntry(std::unordered_map<ObjectID, Entry>::iterator it,
                  cache::RemovalCause cause);

  NodeID node_;
  std::int64_t capacity_bytes_;  ///< 0 = unlimited
  std::int64_t used_bytes_ = 0;
  std::int64_t peak_used_bytes_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::unordered_map<ObjectID, Entry> entries_;
  std::unique_ptr<cache::EvictionPolicy> policy_;  ///< replacement order oracle
};

}  // namespace hoplite::store
