#include "baselines/ray_like.h"

#include <memory>
#include <utility>

#include "common/logging.h"

namespace hoplite::baselines {

RayLikeTransport::RayLikeTransport(sim::Engine& simulator, net::Fabric& network,
                                   RayLikeConfig config)
    : sim_(simulator), net_(network), config_(config) {}

Ref<ObjectID> RayLikeTransport::Put(NodeID node, ObjectID object, std::int64_t size) {
  HOPLITE_CHECK_GE(size, 0);
  RefPromise<ObjectID> promise(&sim_, object);
  // Blocking worker->store copy; the location is published only afterwards
  // (no pipelining, §3.3).
  net_.Memcpy(node, size, [this, node, object, size, promise] {
    sim_.ScheduleAfter(config_.per_op_overhead, [this, node, object, size, promise] {
      Meta& meta = objects_[object];
      meta.size = size;
      meta.locations.push_back(node);
      promise.Resolve(object);
      // Serve parked fetches. The settled ref's continuations may have
      // Delete'd the object inline (a workload GC'ing an op the instant it
      // settles), so the entry must be re-looked-up — `meta` may dangle here.
      auto it = objects_.find(object);
      if (it == objects_.end()) return;
      auto waiters = std::move(it->second.waiters);
      it->second.waiters.clear();
      for (const auto& [waiter_node, waiter] : waiters) {
        StartFetch(waiter_node, object, waiter);
      }
    });
  });
  return promise.ref();
}

Ref<ObjectID> RayLikeTransport::Get(NodeID node, ObjectID object) {
  RefPromise<ObjectID> promise(&sim_, object);
  // Location lookup (+ scheduler hop for Dask), then fetch.
  sim_.ScheduleAfter(config_.per_op_overhead + config_.scheduler_hop,
                     [this, node, object, promise] {
                       auto it = objects_.find(object);
                       if (it == objects_.end() || it->second.locations.empty()) {
                         objects_[object].waiters.emplace_back(node, promise);
                         return;
                       }
                       StartFetch(node, object, promise);
                     });
  return promise.ref();
}

void RayLikeTransport::StartFetch(NodeID node, ObjectID object,
                                  const RefPromise<ObjectID>& promise) {
  const Meta& meta = objects_.at(object);
  const NodeID src = meta.locations.front();  // always the owner: no re-serving
  const std::int64_t size = meta.size;
  if (src == node) {
    // Local hit: store->worker copy only.
    net_.Memcpy(node, size, [promise, object] { promise.Resolve(object); });
    return;
  }
  net_.Send(src, node, WireBytes(size), [this, node, object, size, promise] {
    // Blocking store->worker copy after the whole object arrived.
    net_.Memcpy(node, size, [promise, object] { promise.Resolve(object); });
  });
}

void RayLikeTransport::Delete(ObjectID object) { objects_.erase(object); }

Ref<SimTime> RayLikeTransport::Broadcast(ObjectID object,
                                         const std::vector<NodeID>& receivers) {
  std::vector<Ref<ObjectID>> gets;
  for (const NodeID receiver : receivers) gets.push_back(Get(receiver, object));
  return Stamped(WhenAll(gets));
}

Ref<SimTime> RayLikeTransport::Gather(NodeID root, const std::vector<ObjectID>& sources) {
  HOPLITE_CHECK(!sources.empty());
  std::vector<Ref<ObjectID>> gets;
  for (const ObjectID source : sources) gets.push_back(Get(root, source));
  return Stamped(WhenAll(gets));
}

Ref<SimTime> RayLikeTransport::Reduce(NodeID root, const std::vector<ObjectID>& sources,
                                      ObjectID target, std::int64_t size) {
  HOPLITE_CHECK(!sources.empty());
  std::vector<Ref<Unit>> folded;
  for (const ObjectID source : sources) {
    // Accumulate each arrival into the running sum at memcpy speed.
    folded.push_back(Get(root, source).Then([this, root, size] {
      RefPromise<Unit> added(&sim_, ObjectID{});
      net_.Memcpy(root, size, [added] { added.Resolve(Unit{}); });
      return added.ref();
    }));
  }
  return Stamped(
      WhenAll(folded).Then([this, root, target, size] { return Put(root, target, size); }));
}

Ref<SimTime> RayLikeTransport::Allreduce(NodeID root, const std::vector<ObjectID>& sources,
                                         ObjectID target, std::int64_t size,
                                         const std::vector<NodeID>& receivers) {
  return Reduce(root, sources, target, size).Then([this, target, receivers] {
    return Broadcast(target, receivers);
  });
}

void RayLikeTransport::ScheduleFaults(const std::vector<net::FaultEvent>& faults,
                                      SimDuration detection_delay,
                                      const std::function<void(NodeID, bool)>& listener) {
  // Per node, the instant of its latest kill `listener` has not heard of
  // yet (-1: none). A rejoin reports it first; its late notice stays silent.
  auto unheard = std::make_shared<std::vector<SimTime>>(net_.num_nodes(), -1);
  for (const net::FaultEvent& fault : faults) {
    const NodeID node = fault.node;
    const auto i = static_cast<std::size_t>(node);
    const SimTime at = fault.at;
    if (fault.kill) {
      sim_.ScheduleAt(at, [this, unheard, node, i, at] {
        net_.FailNode(node);
        (*unheard)[i] = at;
      });
      sim_.ScheduleAt(at + detection_delay, [unheard, listener, node, i, at] {
        if ((*unheard)[i] != at) return;
        (*unheard)[i] = -1;
        listener(node, /*alive=*/false);
      });
    } else {
      sim_.ScheduleAt(at, [this, unheard, listener, node, i] {
        if (std::exchange((*unheard)[i], -1) != -1) listener(node, /*alive=*/false);
        net_.RecoverNode(node);
        listener(node, /*alive=*/true);
      });
    }
  }
}

template <typename T>
Ref<SimTime> RayLikeTransport::Stamped(const Ref<T>& op) {
  RefPromise<SimTime> done(&sim_, ObjectID{});
  op.Then([this, done] { done.Resolve(sim_.Now()); });
  return done.ref();
}

}  // namespace hoplite::baselines
