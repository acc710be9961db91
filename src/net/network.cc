#include "net/network.h"

#include <algorithm>
#include <utility>

namespace hoplite::net {

FlatFabric::FlatFabric(sim::Engine& simulator, ClusterConfig config)
    : Fabric(simulator, std::move(config)) {
  const auto n = static_cast<std::size_t>(config_.num_nodes);
  egress_free_at_.assign(n, 0);
  ingress_free_at_.assign(n, 0);
}

void FlatFabric::StartTransfer(TransferId id, NodeID src, NodeID dst, std::int64_t bytes,
                               DeliveryCallback on_delivered, FailureCallback on_failed,
                               qos::TenantId /*tenant*/) {
  // The transfer occupies the sender's egress and the receiver's ingress for
  // the serialization time at the slower of the two NICs, starting when both
  // are free. Delivery lands one propagation latency + per-message software
  // overhead after the last byte leaves the wire.
  const BytesPerSecond rate = std::min(config_.BandwidthOf(src), config_.BandwidthOf(dst));
  const SimDuration serialization = TransferTime(bytes, rate);
  auto& egress = egress_free_at_[static_cast<std::size_t>(src)];
  auto& ingress = ingress_free_at_[static_cast<std::size_t>(dst)];
  const SimTime start = std::max({sim_.Now(), egress, ingress});
  const SimTime wire_done = start + serialization;
  egress = wire_done;
  ingress = wire_done;

  const SimTime delivery =
      wire_done + config_.one_way_latency + config_.per_message_overhead;
  const sim::EventId ev = sim_.ScheduleAt(delivery, [this, id, cb = std::move(on_delivered)] {
    in_flight_.erase(id);
    cb();
  });
  in_flight_.emplace(id, InFlight{src, dst, ev, std::move(on_failed)});
}

bool FlatFabric::CancelTransfer(TransferId id) {
  auto it = in_flight_.find(id);
  if (it == in_flight_.end()) return false;
  sim_.Cancel(it->second.delivery_event);
  in_flight_.erase(it);
  return true;
}

void FlatFabric::AbortTransfersOf(NodeID failed) {
  // Deterministic order: walk by ascending transfer id (== start order) and
  // collect first — failure callbacks may start new transfers.
  std::vector<FailureCallback> to_notify;
  for (const TransferId id : det::SortedKeys(in_flight_)) {
    const auto it = in_flight_.find(id);
    InFlight& flight = it->second;
    if (flight.src != failed && flight.dst != failed) continue;
    sim_.Cancel(flight.delivery_event);
    if (flight.on_failed != nullptr) {
      to_notify.push_back(std::move(flight.on_failed));
    }
    in_flight_.erase(it);
  }
  for (auto& cb : to_notify) {
    ScheduleFailureNotice(std::move(cb), failed);
  }
}

SimTime FlatFabric::EgressFreeAt(NodeID node) const {
  CheckNode(node);
  return std::max(sim_.Now(), egress_free_at_[static_cast<std::size_t>(node)]);
}

SimTime FlatFabric::IngressFreeAt(NodeID node) const {
  CheckNode(node);
  return std::max(sim_.Now(), ingress_free_at_[static_cast<std::size_t>(node)]);
}

}  // namespace hoplite::net
