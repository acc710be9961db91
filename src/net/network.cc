#include "net/network.h"

#include <algorithm>
#include <utility>

namespace hoplite::net {

FlatFabric::FlatFabric(sim::Engine& simulator, ClusterConfig config)
    : Fabric(simulator, std::move(config)) {
  const auto n = static_cast<std::size_t>(config_.num_nodes);
  egress_free_at_.assign(n, 0);
  ingress_free_at_.assign(n, 0);
  last_egress_.assign(n, LastReservation{});
  last_ingress_.assign(n, LastReservation{});
  deaths_.assign(n, 0);
}

void FlatFabric::StartTransfer(TransferId /*id*/, NodeID src, NodeID dst, std::int64_t bytes,
                               DeliveryCallback on_delivered, qos::TenantId /*tenant*/) {
  // The transfer occupies the sender's egress and the receiver's ingress for
  // the serialization time at the slower of the two NICs, starting when both
  // are free. Delivery lands one propagation latency + per-message software
  // overhead after the last byte leaves the wire.
  const BytesPerSecond rate = std::min(config_.BandwidthOf(src), config_.BandwidthOf(dst));
  const SimDuration serialization = TransferTime(bytes, rate);
  const auto s = static_cast<std::uint32_t>(src);
  const auto d = static_cast<std::uint32_t>(dst);
  auto& egress = egress_free_at_[s];
  auto& ingress = ingress_free_at_[d];
  last_egress_[s] = LastReservation{dst, egress};
  last_ingress_[d] = LastReservation{src, ingress};
  const SimTime start = std::max({sim_.Now(), egress, ingress});
  const SimTime wire_done = start + serialization;
  egress = wire_done;
  ingress = wire_done;

  const SimTime delivery =
      wire_done + config_.one_way_latency + config_.per_message_overhead;
  sim_.ScheduleAt(delivery, [this, s, d, src_deaths = deaths_[s], dst_deaths = deaths_[d],
                             cb = std::move(on_delivered)] {
    if (deaths_[s] == src_deaths && deaths_[d] == dst_deaths) cb();
  });
}

void FlatFabric::AbortTransfersOf(NodeID failed) {
  // Drops every delivery in flight to or from `failed` when it fires.
  const auto f = static_cast<std::size_t>(failed);
  ++deaths_[f];
  // Free the NIC time of the dropped transfers. Every reservation on the
  // dead node's own queues is one of them. A survivor's queue hands back
  // only its latest reservation, when that one touched the dead node: the
  // deliveries of transfers queued behind it are already scheduled.
  egress_free_at_[f] = sim_.Now();
  ingress_free_at_[f] = sim_.Now();
  last_egress_[f] = LastReservation{};
  last_ingress_[f] = LastReservation{};
  for (std::size_t n = 0; n < last_egress_.size(); ++n) {
    if (last_egress_[n].peer == failed) {
      egress_free_at_[n] = last_egress_[n].free_before;
      last_egress_[n] = LastReservation{};
    }
    if (last_ingress_[n].peer == failed) {
      ingress_free_at_[n] = last_ingress_[n].free_before;
      last_ingress_[n] = LastReservation{};
    }
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
