// Ray-like and Dask-like object transports (the task-system baselines of §5).
//
// These model how Ray 0.8.6 and Dask 2.25 move objects, per the paper's
// analysis of why they lose:
//
//  * no collective optimization: a broadcast is N independent fetches from
//    the owner (sender-side NIC bottleneck, §2.1), a reduce is N fetches
//    into the caller plus local addition;
//  * no pipelining: the worker->store copy of a Put completes before the
//    location is published, and the store->worker copy of a Get starts only
//    after the whole object arrived (§3.3);
//  * per-operation control overheads (object table lookups, RPC hops) and a
//    lower effective wire bandwidth than the raw NIC (the object manager's
//    framing/copies). Dask additionally routes every transfer decision
//    through its central scheduler.
//
// Calibration constants live in RayLikeConfig with the measured Figure 6
// targets noted; shapes (who wins, by what factor) are insensitive to ±30%
// changes in these values.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "core/ref.h"
#include "net/fabric.h"
#include "sim/simulator.h"

namespace hoplite::baselines {

struct RayLikeConfig {
  /// Fraction of the NIC bandwidth the object manager actually achieves
  /// (Ray 0.8.6's chunked gRPC path measured well below line rate; this
  /// reproduces the ~2.3x gap of Figure 6c).
  double effective_bandwidth = 0.55;
  /// Control-plane latency per operation (object table lookup + RPC).
  SimDuration per_op_overhead = Microseconds(400);
  /// Extra scheduler round trip per transfer (0 for Ray; Dask routes data
  /// movement through its single-threaded scheduler).
  SimDuration scheduler_hop = 0;

  [[nodiscard]] static RayLikeConfig Ray() { return RayLikeConfig{}; }
  [[nodiscard]] static RayLikeConfig Dask() {
    RayLikeConfig config;
    config.effective_bandwidth = 0.35;
    config.per_op_overhead = Microseconds(800);
    config.scheduler_hop = Milliseconds(2);
    return config;
  }
};

/// An object transport with the Put/Get surface of a task framework's store
/// but none of Hoplite's optimizations. All collective patterns are built
/// from point-to-point fetches, exactly like the baselines in the paper, and
/// composed from the Put/Get refs: Broadcast and Gather are a WhenAll over
/// Gets, Allreduce is Reduce(...).Then(Broadcast). Every operation returns a
/// Ref immediately (see core/ref.h); collectives resolve with the simulated
/// completion time of the last participant.
// hoplite-sa: owner(RayLikeTransport) -- constructed beside the fabric
// before the first event and destroyed after the engine drains (the
// PR 5 UAF was a dangling Meta&, not a dangling this; metas now travel
// by id).
class RayLikeTransport {
 public:
  RayLikeTransport(sim::Engine& simulator, net::Fabric& network,
                   RayLikeConfig config);

  /// Stores an object of `size` bytes on `node` (blocking worker->store
  /// copy, then location publish). Ready (with the id) once published.
  Ref<ObjectID> Put(NodeID node, ObjectID object, std::int64_t size);

  /// Fetches an object into a worker on `node`: location lookup, full
  /// transfer from the first registered location, blocking store->worker
  /// copy. Parks until the object is Put if necessary.
  Ref<ObjectID> Get(NodeID node, ObjectID object);

  /// Drops the object's metadata (and nothing else; baselines don't model
  /// distributed eviction).
  void Delete(ObjectID object);

  /// Broadcast = every receiver Gets from the owner. Ready when the last
  /// receiver finished (at once for no receivers).
  Ref<SimTime> Broadcast(ObjectID object, const std::vector<NodeID>& receivers);

  /// Reduce = fetch every source into `root`, add locally (memcpy-speed
  /// accumulation), store the result object.
  Ref<SimTime> Reduce(NodeID root, const std::vector<ObjectID>& sources, ObjectID target,
                      std::int64_t size);

  /// Gather = fetch every source into `root`, no accumulation.
  Ref<SimTime> Gather(NodeID root, const std::vector<ObjectID>& sources);

  /// Allreduce = Reduce at `root`, then Broadcast of the result.
  Ref<SimTime> Allreduce(NodeID root, const std::vector<ObjectID>& sources,
                         ObjectID target, std::int64_t size,
                         const std::vector<NodeID>& receivers);

  /// Schedules `faults` on the fabric, all events now and in list order. A
  /// kill fails the node's endpoint at its instant, and `listener` hears
  /// (node, false) `detection_delay` later, or at a rejoin that comes first;
  /// a recovery restores the endpoint and `listener` hears (node, true) at
  /// once, like HopliteCluster's membership listeners.
  void ScheduleFaults(const std::vector<net::FaultEvent>& faults,
                      SimDuration detection_delay,
                      const std::function<void(NodeID, bool alive)>& listener);

 private:
  struct Meta {
    std::int64_t size = 0;
    std::vector<NodeID> locations;
    /// Gets parked until the object is Put, FIFO: (fetching node, its
    /// promise). A vector, so objects nobody waits on allocate nothing.
    std::vector<std::pair<NodeID, RefPromise<ObjectID>>> waiters;
  };

  /// Wire bytes inflated by the effective-bandwidth factor.
  [[nodiscard]] std::int64_t WireBytes(std::int64_t size) const {
    return static_cast<std::int64_t>(static_cast<double>(size) / config_.effective_bandwidth);
  }

  void StartFetch(NodeID node, ObjectID object, const RefPromise<ObjectID>& promise);
  /// Ready with the simulated instant `op` became ready, bound to this
  /// transport's engine even when `op` is not (an empty WhenAll).
  template <typename T>
  Ref<SimTime> Stamped(const Ref<T>& op);

  sim::Engine& sim_;
  net::Fabric& net_;
  RayLikeConfig config_;
  std::unordered_map<ObjectID, Meta> objects_;
};

}  // namespace hoplite::baselines
