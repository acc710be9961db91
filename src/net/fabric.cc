#include "net/fabric.h"

#include <algorithm>
#include <utility>

#include "net/network.h"
#include "net/rack_fabric.h"

namespace hoplite::net {

Fabric::Fabric(sim::Engine& simulator, ClusterConfig config)
    : sim_(simulator), config_(std::move(config)) {
  HOPLITE_CHECK_GT(config_.num_nodes, 0);
  HOPLITE_CHECK(config_.per_node_bandwidth.empty() ||
                config_.per_node_bandwidth.size() ==
                    static_cast<std::size_t>(config_.num_nodes))
      << "per-node bandwidth override must cover every node";
  const auto n = static_cast<std::size_t>(config_.num_nodes);
  memcpy_free_at_.assign(n, 0);
  failed_.assign(n, false);
  traffic_.assign(n, NodeTrafficStats{});
}

Fabric::~Fabric() = default;

TransferId Fabric::Send(NodeID src, NodeID dst, std::int64_t bytes,
                        DeliveryCallback on_delivered, qos::TenantId tenant) {
  CheckNode(src);
  CheckNode(dst);
  HOPLITE_CHECK_GE(bytes, 0);
  HOPLITE_CHECK(on_delivered != nullptr);

  // Drawn even for a dropped send: RackFabric orders classes and completions by id.
  const TransferId id = next_transfer_id_++;

  if (NodeFailed(src) || NodeFailed(dst)) return id;  // dropped

  if (src == dst) {
    // Local "transfer": data moves through memory, not the NIC.
    Memcpy(src, bytes, std::move(on_delivered));
    return id;
  }

  CountMessage(src, dst, bytes, tenant);
  StartTransfer(id, src, dst, bytes, std::move(on_delivered), tenant);
  return id;
}

SimTime Fabric::Reserve(SimTime* free_at, SimDuration duration) const {
  const SimTime start = std::max(sim_.Now(), *free_at);
  *free_at = start + duration;
  return start;
}

void Fabric::Memcpy(NodeID node, std::int64_t bytes, DeliveryCallback done) {
  CheckNode(node);
  HOPLITE_CHECK_GE(bytes, 0);
  HOPLITE_CHECK(done != nullptr);
  const SimDuration duration = TransferTime(bytes, kMemcpyBandwidth);
  const SimTime start = Reserve(&memcpy_free_at_[static_cast<std::size_t>(node)], duration);
  sim_.ScheduleAt(start + duration, std::move(done));
}

void Fabric::FailNode(NodeID node) {
  CheckNode(node);
  if (failed_[static_cast<std::size_t>(node)]) return;
  failed_[static_cast<std::size_t>(node)] = true;
  AbortTransfersOf(node);
}

void Fabric::RecoverNode(NodeID node) {
  CheckNode(node);
  failed_[static_cast<std::size_t>(node)] = false;
}

bool Fabric::IsFailed(NodeID node) const {
  CheckNode(node);
  return failed_[static_cast<std::size_t>(node)];
}

const NodeTrafficStats& Fabric::TrafficOf(NodeID node) const {
  CheckNode(node);
  return traffic_[static_cast<std::size_t>(node)];
}

void Fabric::CountMessage(NodeID src, NodeID dst, std::int64_t bytes,
                          qos::TenantId tenant) {
  auto& src_stats = traffic_[static_cast<std::size_t>(src)];
  auto& dst_stats = traffic_[static_cast<std::size_t>(dst)];
  src_stats.bytes_sent += bytes;
  src_stats.messages_sent += 1;
  dst_stats.bytes_received += bytes;
  dst_stats.messages_received += 1;
  if (tenant != qos::kNoTenant) tenant_bytes_[tenant] += bytes;
}

std::int64_t Fabric::TenantBytes(qos::TenantId tenant) const {
  const auto it = tenant_bytes_.find(tenant);
  return it == tenant_bytes_.end() ? 0 : it->second;
}

std::unique_ptr<Fabric> MakeFabric(sim::Engine& simulator, ClusterConfig config) {
  switch (config.fabric.topology) {
    case TopologyKind::kFlat:
      if (config.qos.wfq || config.qos.aqm) {
        // The flat FIFO-reservation model has no per-flow rate allocation to
        // reweight, so a QoS'd "flat" cluster runs on the fair-share engine
        // as one non-blocking rack: same full-duplex NIC limits, no uplink
        // contention, but contended host links divide max-min across
        // tenants. (QoS off keeps the paper-identical FlatFabric, bit for
        // bit.)
        config.fabric.num_racks = 1;
        config.fabric.oversubscription = 1.0;
        config.fabric.cross_rack_extra_latency = 0;
        return std::make_unique<RackFabric>(simulator, std::move(config));
      }
      return std::make_unique<FlatFabric>(simulator, std::move(config));
    case TopologyKind::kRack:
      return std::make_unique<RackFabric>(simulator, std::move(config));
  }
  HOPLITE_CHECK(false) << "unknown topology kind";
  return nullptr;
}

}  // namespace hoplite::net
