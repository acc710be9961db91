// Baseline collective-communication systems (§5.1's comparators).
//
// These reproduce the *algorithms* of the systems the paper benchmarks
// against, running over the same simulated fabric as Hoplite so the
// comparison isolates scheduling/protocol differences:
//
//   MpiLikeCollectives  — OpenMPI-style static collectives: rank-ordered
//     segmented binomial broadcast (partial progress only when receivers
//     arrive in tree order, §7), segmented binary-tree reduce and ring /
//     recursive-doubling allreduce that start only once *all* participants
//     are ready (§5.1.3), linear gather, and raw point-to-point send.
//
//   GlooLikeCollectives — Gloo's algorithms: unoptimized linear broadcast,
//     ring-chunked allreduce, halving-doubling allreduce.
//
// MPI/Gloo know every participant and location up front, pay no directory
// lookups, and move data directly between ranks — which is why they win on
// small static transfers (Figure 6a) and lose on dynamic arrivals (Figure 8).
// Their segment sizes and algorithm thresholds are fixed constants in
// collectives.cc. Each collective's op state settles one RefPromise with the
// simulated instant its last participant finished.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "core/ref.h"
#include "net/fabric.h"
#include "sim/simulator.h"

namespace hoplite::baselines {

/// One rank of a static collective: where it runs and when it becomes ready
/// (calls into the collective). ready_at models the task-arrival staggering
/// of §5.1.3.
struct Participant {
  NodeID node = kInvalidNode;
  SimTime ready_at = 0;
};

// hoplite-sa: owner(MpiLikeCollectives) -- harness-owned beside the
// fabric; alive until the engine drains.
class MpiLikeCollectives {
 public:
  MpiLikeCollectives(sim::Engine& simulator, net::Fabric& network);

  // Every collective returns a Ref immediately, ready (with the simulated
  // completion time) when the last participant finishes.

  /// One-directional eager/rendezvous send (Figure 6 builds RTTs from two).
  Ref<SimTime> Send(NodeID src, NodeID dst, std::int64_t bytes);

  /// Segmented binomial-tree broadcast rooted at participants[0]. An edge
  /// activates once both of its endpoints are ready, so progress before the
  /// last arrival exists only along rank order (§7). Large messages use the
  /// pipelined chain instead.
  Ref<SimTime> Broadcast(std::vector<Participant> participants, std::int64_t bytes);

  /// Segmented binary-tree reduce towards participants[0]. Starts only when
  /// every participant is ready (§5.1.3).
  Ref<SimTime> Reduce(const std::vector<Participant>& participants, std::int64_t bytes);

  /// Linear gather: every rank sends its object to the root directly.
  Ref<SimTime> Gather(const std::vector<Participant>& participants, std::int64_t bytes);

  /// Ring allreduce for large payloads, recursive doubling for small ones.
  /// Starts only when every participant is ready.
  Ref<SimTime> Allreduce(const std::vector<Participant>& participants, std::int64_t bytes);

 private:
  sim::Engine& sim_;
  net::Fabric& net_;
};

// hoplite-sa: owner(GlooLikeCollectives) -- harness-owned beside the
// fabric; alive until the engine drains.
class GlooLikeCollectives {
 public:
  GlooLikeCollectives(sim::Engine& simulator, net::Fabric& network);

  // Every collective returns a Ref immediately, ready (with the simulated
  // completion time) when the last participant finishes.

  /// Gloo does not optimize broadcast (§5.1.2): the root sends the full
  /// object to every receiver, serialized by its NIC.
  Ref<SimTime> Broadcast(const std::vector<Participant>& participants, std::int64_t bytes);

  /// Ring-chunked allreduce: reduce-scatter + allgather around the ring,
  /// 2(n-1) pipelined block steps. Starts when all are ready.
  Ref<SimTime> RingChunkedAllreduce(const std::vector<Participant>& participants,
                                    std::int64_t bytes);

  /// Halving-doubling allreduce (recursive halving reduce-scatter, then
  /// recursive doubling allgather). Non-power-of-two participant counts pay
  /// a fold-in/fold-out round, like the real implementation.
  Ref<SimTime> HalvingDoublingAllreduce(const std::vector<Participant>& participants,
                                        std::int64_t bytes);

 private:
  sim::Engine& sim_;
  net::Fabric& net_;
};

// ----------------------------------------------------------------------
// Shared building blocks (exposed for tests).
// ----------------------------------------------------------------------

/// Binomial-tree parent of position i (position 0 is the root).
[[nodiscard]] int BinomialParent(int i);
/// Binomial-tree children of position i among n positions.
[[nodiscard]] std::vector<int> BinomialChildren(int i, int n);

}  // namespace hoplite::baselines
