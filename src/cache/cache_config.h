// Configuration surface of the hot-object serving subsystem.
//
// `CacheConfig` travels inside `net::ClusterConfig` so one knob block
// selects the store's eviction policy and toggles request coalescing for
// the whole cluster: the directory reads it to decide whether concurrent
// Gets aggregate into one in-flight fetch, the client reads it to decide
// whether inline payloads are kept as cached store copies, and the cluster
// reads it to construct each LocalStore's policy.
#pragma once

namespace hoplite::cache {

/// Which replacement policy a LocalStore runs (see eviction_policy.h).
enum class EvictionPolicyKind {
  kLru,           ///< classic LRU — byte-identical to the pre-policy store
  kTwoQ,          ///< 2Q: FIFO probation + ghost-promoted LRU main queue
  kSegmentedLru,  ///< SLRU: probationary + protected LRU segments
};

[[nodiscard]] constexpr const char* PolicyName(EvictionPolicyKind kind) noexcept {
  switch (kind) {
    case EvictionPolicyKind::kLru: return "lru";
    case EvictionPolicyKind::kTwoQ: return "2q";
    case EvictionPolicyKind::kSegmentedLru: return "slru";
  }
  return "?";
}

/// Cluster-wide cache behavior. A plain value copied into every layer's
/// config; defaults reproduce the pre-subsystem behavior bit for bit.
// hoplite-sa: value-type(CacheConfig) -- knob block embedded in
// net::ClusterConfig and copied by value into every consumer.
struct CacheConfig {
  /// Replacement policy for every node's LocalStore.
  EvictionPolicyKind policy = EvictionPolicyKind::kLru;

  /// Hot-object request coalescing. When set, concurrent Gets for one
  /// object aggregate into a single in-flight fetch: later claimants attach
  /// to the object's pending-interest entry and are served through the
  /// broadcast-tree fan-out (senders double as each transfer lands) instead
  /// of N independent unicasts, and inline payloads are retained as
  /// evictable cached store copies that serve subsequent claims. Off by
  /// default: the per-Get claim protocol is the paper's behavior.
  bool coalescing = false;
};

}  // namespace hoplite::cache
