// Pluggable replacement policies for the local object store.
//
// LocalStore used to hard-wire one intrusive LRU list; this interface
// extracts the ordering decision so policies can be swapped per cluster
// (`CacheConfig::policy`) without touching the store's byte accounting or
// pin semantics. The store stays in charge of *whether* an entry may be
// evicted (complete, unreferenced, not a primary) and *when* eviction runs
// (over capacity); the policy only answers *which* evictable entry goes first.
//
// Contract:
//   * OnInsert / OnRemove bracket an entry's lifetime in the store; every
//     tracked entry, evictable or not, appears in exactly one policy queue,
//     so segment byte budgets count pinned primaries too.
//   * Entries start non-evictable. The store reports each flip of an entry's
//     evictability through SetEvictable (on completion, Ref and Unref), and
//     each queue keeps an exact order over its evictable members.
//   * OnTouch records a use (a Get served from the local copy) and may
//     reorder or promote the entry.
//   * PickVictim returns the coldest evictable entry of the queue the
//     policy bills, falling back to its other queue, or nullopt when nothing
//     is evictable: one ordered-map read per queue consulted, however many
//     pinned entries sit at the cold end. It never mutates policy state: the
//     store confirms the eviction by calling OnRemove(victim, kEvicted).
//
// Every policy is deterministic by construction: ordering state lives in
// std::list queues (order fixed by the call sequence) indexed by
// det::Map — no hashing, no ambient state, no clocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "cache/cache_config.h"
#include "common/annotations.h"
#include "common/ids.h"

namespace hoplite::cache {

/// Why an entry left the store: policies that keep history (2Q's ghost
/// queue) only record entries the store *evicted*; explicit deletes and
/// failure cleanup must not leave promotion breadcrumbs behind.
enum class RemovalCause {
  kEvicted,  ///< store chose this entry via PickVictim to reclaim capacity
  kErased,   ///< deleted, purged, or torn down — not a capacity decision
};

/// Replacement-order oracle for one LocalStore. Confined like the store
/// that owns it: all calls arrive from the store's own domain.
class HOPLITE_DOMAIN_CONFINED EvictionPolicy {
 public:
  EvictionPolicy() = default;
  // Policies index their own queues by address, so a copy would point into
  // the original.
  EvictionPolicy(const EvictionPolicy&) = delete;
  EvictionPolicy& operator=(const EvictionPolicy&) = delete;
  virtual ~EvictionPolicy() = default;

  /// Starts tracking `object`, not evictable.
  virtual void OnInsert(ObjectID object, std::int64_t bytes) = 0;
  virtual void OnTouch(ObjectID object) = 0;
  virtual void OnRemove(ObjectID object, RemovalCause cause) = 0;

  /// Records whether the store may evict `object` now. Idempotent.
  virtual void SetEvictable(ObjectID object, bool evictable) = 0;

  /// Coldest evictable entry in policy order, or nullopt.
  [[nodiscard]] virtual std::optional<ObjectID> PickVictim() const = 0;

  /// Number of tracked entries (store audits check it matches the table).
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// True if `object` is currently tracked (store audits).
  [[nodiscard]] virtual bool Contains(ObjectID object) const = 0;

  /// True if `object` is tracked and marked evictable (store audits).
  [[nodiscard]] virtual bool IsEvictable(ObjectID object) const = 0;
};

/// Constructs the policy selected by `kind`. `capacity_bytes` sizes the
/// internal segments of the multi-queue policies (2Q's probationary target
/// and ghost budget, SLRU's protected segment); plain LRU ignores it.
[[nodiscard]] std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(EvictionPolicyKind kind,
                                                                 std::int64_t capacity_bytes);

}  // namespace hoplite::cache
