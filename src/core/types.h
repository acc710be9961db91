// Shared value types of the Hoplite core API (Table 1) and the internal
// wire-level messages exchanged between per-node clients.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "qos/qos.h"
#include "store/buffer.h"

namespace hoplite::core {

/// Pipelining block size (§5.1.1: "our pipelining block size is 4 MB").
inline constexpr std::int64_t kChunkSize = 4 * 1024 * 1024;

/// Maximum in-flight chunks per outgoing stream (broadcast pushes and reduce
/// output streams). Bounded windows keep concurrent streams interleaving at
/// chunk granularity on a node's NIC — the simulated analogue of TCP's fair
/// bandwidth sharing; issuing a whole buffered object in one burst would
/// monopolize the FIFO NIC reservation queue.
inline constexpr int kTransferWindow = 2;

/// Tunables of the Hoplite protocol layer.
struct HopliteConfig {
  /// 0 = adaptive d from Eq. (1); otherwise force 1, 2, or any d >= n for a
  /// star. Used by the Figure 15 ablation.
  int forced_reduce_degree = 0;

  /// When false, Put/Get skip the worker<->store chunk pipelining and copy
  /// sequentially (ablation knob for the Figure 6 "without pipelining" rows).
  bool pipeline_worker_copies = true;
};

struct GetOptions {
  /// Immutable get (§3.3): return a pointer into the local store and skip
  /// the store->worker copy.
  bool read_only = false;
  /// Table 1's `Get(ObjectID, timeout)`: when > 0, the returned ref fails
  /// with RefErrorCode::kTimeout after this much simulated time instead of
  /// parking forever (e.g. every producer of the object is dead). 0 = wait
  /// indefinitely.
  SimDuration timeout = 0;
  /// Tenant the op's wire traffic is charged to (kNoTenant = untagged).
  /// With QoS off the tag only feeds accounting; with QoS on it selects the
  /// WFQ weight class and the admission bucket.
  qos::TenantId tenant = qos::kNoTenant;
};

/// A Reduce request (Table 1): build `target` by reducing `num_objects` of
/// the given source objects with `op`. num_objects == 0 means all sources.
struct ReduceSpec {
  ObjectID target;
  std::vector<ObjectID> sources;
  std::size_t num_objects = 0;
  store::ReduceOp op = store::ReduceOp::kSum;
  /// Tenant every tree-internal flow of this reduce is charged to.
  qos::TenantId tenant = qos::kNoTenant;
};

/// Completion report of a Reduce: which sources made it into the result and
/// which were left out (mirrors the `unreduced_grad_ids` of Figure 1b).
struct ReduceResult {
  ObjectID target;
  std::vector<ObjectID> reduced;
  std::vector<ObjectID> unreduced;
};

using ReduceId = std::uint64_t;

/// Epoch counter guarding reduce data streams across failure resets: stale
/// chunks from before a reset carry an old epoch and are dropped.
using ReduceEpoch = std::uint32_t;

/// Assignment of one tree position to the node hosting its source object.
/// Sent by the coordinator; re-sent (with bumped epochs) on repair.
struct ReduceAssignment {
  ReduceId reduce_id = 0;
  NodeID coordinator = kInvalidNode;
  int tree_index = -1;
  ObjectID source;
  store::ReduceOp op = store::ReduceOp::kSum;
  std::int64_t object_size = 0;
  std::int64_t total_chunks = 0;
  /// Number of children this position reduces (0 for leaves).
  int num_children = 0;
  /// Where the position streams its output: a parent session, or the
  /// coordinator's sink when parent_index == -1.
  NodeID parent_host = kInvalidNode;
  int parent_index = -1;
  /// The parent position's epoch. A change means the parent session was
  /// replaced (possibly by a rejoined node with the *same* NodeID), so the
  /// child must re-push its output from chunk zero.
  ReduceEpoch parent_epoch = 0;
  /// This position's output stream epoch.
  ReduceEpoch out_epoch = 0;
  /// Expected input epoch per child tree index.
  std::vector<std::pair<int, ReduceEpoch>> child_epochs;
  /// Tenant of the owning ReduceSpec: every relay flow a session pushes on
  /// behalf of this position inherits the requester's tenant.
  qos::TenantId tenant = qos::kNoTenant;
};

/// One chunk of a reduce data stream, child position -> parent position
/// (or -> sink when to_index == -1).
struct ReduceChunkMsg {
  ReduceId reduce_id = 0;
  int to_index = -1;
  int from_index = -1;
  ReduceEpoch epoch = 0;
  std::int64_t chunk_upto = 0;  ///< contiguous chunks now delivered
  bool final = false;
  store::Buffer payload;  ///< the subtree's reduced payload, on final only
};

}  // namespace hoplite::core
