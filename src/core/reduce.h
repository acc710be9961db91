// Reduce protocol: coordinator (caller side) and per-position sessions.
//
// A Reduce call spawns one ReduceCoordinator on the calling node. The
// coordinator subscribes to the directory for every source object, fills the
// tree positions in generalized in-order as objects become ready (§3.4.2),
// ships ReduceAssignments to the hosts, and owns the failure-repair logic of
// §3.5.2 (vacate the failed position, splice in the next ready object — or
// the rejoined one — reset every ancestor, ask unaffected siblings to
// re-push; at most log_d(n) positions recompute).
//
// A ReduceSession runs on the node hosting one tree position. It merges its
// own object's chunk stream with its children's output streams and pushes
// its own output chunk-by-chunk to its parent (fine-grained pipelining: the
// partially reduced object flows while inputs are still arriving). The root
// session's parent is the coordinator's *sink*: the target object being
// materialized in the caller's store — which the rest of the system can
// already see as a partial location and start broadcasting from.
//
// Small objects short-circuit the tree entirely: every source lives in the
// directory's inline cache, so the coordinator just fetches the first
// num_objects payloads and folds them locally (§3.2 + Appendix A).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/det.h"
#include "common/ids.h"
#include "core/reduce_tree.h"
#include "core/ref.h"
#include "core/types.h"
#include "directory/object_directory.h"
#include "store/buffer.h"

namespace hoplite::core {

class HopliteClient;

/// Caller-side coordinator of one Reduce call.
class ReduceCoordinator {
 public:
  ReduceCoordinator(HopliteClient& client, ReduceId id, ReduceSpec spec,
                    RefPromise<ReduceResult> promise);
  ~ReduceCoordinator();
  ReduceCoordinator(const ReduceCoordinator&) = delete;
  ReduceCoordinator& operator=(const ReduceCoordinator&) = delete;

  void Start();

  /// Routed from the client: chunks of the root's output stream.
  void OnSinkChunk(const ReduceChunkMsg& msg);

  /// Routed from the client: a peer died.
  void OnNodeFailed(NodeID node);

  [[nodiscard]] ReduceId id() const noexcept { return id_; }
  [[nodiscard]] bool done() const noexcept { return done_; }

 private:
  struct SourceInfo {
    ObjectID id;
    NodeID host = kInvalidNode;
    bool arrived = false;
    bool is_inline = false;
    int position = -1;  ///< tree position, -1 if not placed
    directory::ObjectDirectory::SubscriptionId subscription = 0;
    bool fetched = false;  ///< small path: payload collected
  };

  void OnLocationEvent(std::size_t source_index, const directory::LocationEvent& event);
  void InitializeTree(std::int64_t object_size);
  void ProcessArrival(std::size_t source_index);
  void AssignPosition(int position, std::size_t source_index);
  void RepairAfterFailure(const std::vector<int>& vacated);
  void ResetSink();
  void Finish();
  void SendAssignment(int position);
  [[nodiscard]] ReduceAssignment MakeAssignment(int position) const;
  [[nodiscard]] std::size_t TreeSize() const noexcept { return num_objects_; }

  // Small-object fast path.
  void SmallPathFetch(std::size_t source_index);
  void OnSmallPayload(std::size_t source_index, const store::Buffer& payload);
  void MaybeFinishSmallPath();

  HopliteClient& client_;
  ReduceId id_;
  ReduceSpec spec_;
  RefPromise<ReduceResult> promise_;
  std::size_t num_objects_ = 0;

  std::vector<SourceInfo> sources_;
  std::unordered_map<std::uint64_t, std::size_t> source_index_by_id_;

  // Tree state (normal path).
  std::optional<ReduceTreeShape> shape_;
  std::int64_t object_size_ = -1;
  std::int64_t total_chunks_ = 0;
  /// Streams the fill order lazily: a reduce draws at most num_objects_
  /// positions, so the full O(n) FillSequence is never materialized.
  std::optional<ReduceTreeShape::FillCursor> fill_cursor_;
  std::size_t filled_ = 0;
  std::vector<std::size_t> position_source_;  ///< position -> source index
  std::vector<ReduceEpoch> position_epoch_;
  std::deque<std::size_t> pending_arrivals_;  ///< arrived, not yet placed
  std::vector<int> vacant_positions_;
  bool sink_created_ = false;
  std::int64_t sink_chunks_ = 0;

  // Small path state.
  bool small_path_ = false;
  std::size_t small_fetched_ = 0;
  std::vector<std::pair<std::size_t, store::Buffer>> small_payloads_;

  bool done_ = false;
};

/// Host-side session for one tree position.
class ReduceSession {
 public:
  ReduceSession(HopliteClient& client, ReduceAssignment assignment);
  ~ReduceSession();
  ReduceSession(const ReduceSession&) = delete;
  ReduceSession& operator=(const ReduceSession&) = delete;

  /// Parent/epoch updates (idempotent re-assignment).
  void UpdateAssignment(const ReduceAssignment& assignment);

  /// A chunk of one child's output stream arrived.
  void OnChildChunk(const ReduceChunkMsg& msg);

  /// Ancestor-of-failure reset: drop all accumulated input/output state.
  void Reset(ReduceEpoch out_epoch, std::vector<std::pair<int, ReduceEpoch>> child_epochs);

  /// Re-send the (locally retained) output stream from chunk zero.
  void Repush();

  /// Flow-control ack: one of this session's output chunks was delivered.
  void OnChunkDelivered();

  [[nodiscard]] int tree_index() const noexcept { return assignment_.tree_index; }
  [[nodiscard]] NodeID coordinator_node() const noexcept { return assignment_.coordinator; }

 private:
  void SubscribeOwnObject();
  void Pump();
  [[nodiscard]] std::int64_t OutputReady() const;
  [[nodiscard]] store::Buffer ComputeFinalPayload() const;

  HopliteClient& client_;
  ReduceAssignment assignment_;
  // det::Map: iterated when folding child payloads and computing the ready
  // watermark, so the walk order (ascending tree index) must be fixed.
  det::Map<int, ReduceEpoch> expected_child_epoch_;
  det::Map<int, std::int64_t> child_upto_;
  det::Map<int, store::Buffer> child_payload_;

  std::int64_t own_ready_ = 0;
  bool own_complete_ = false;
  store::Buffer own_payload_;
  std::uint64_t own_subscription_ = 0;
  bool subscribed_ = false;

  std::int64_t pushed_upto_ = 0;
  bool final_sent_ = false;
  int in_flight_ = 0;  ///< output chunks on the wire (kTransferWindow bound)
};

}  // namespace hoplite::core
