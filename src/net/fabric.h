// The cluster fabric abstraction.
//
// `Fabric` is the interface every layer above the event engine talks to:
// point-to-point sends with delivery/failure callbacks, in-flight transfer
// cancellation, a per-node memcpy resource for worker<->store copies, and
// the failure-injection surface. Two implementations exist:
//
//   * FlatFabric (net/network.h) — the paper's same-AZ EC2 testbed: one
//     serialized egress queue and one serialized ingress queue per node,
//     no shared links, no contention between flows.
//   * RackFabric (net/rack_fabric.h) — nodes grouped into racks behind ToR
//     uplinks with a configurable oversubscription ratio; concurrent flows
//     on a shared link receive progressive max-min fair bandwidth shares.
//
// `MakeFabric` constructs the implementation selected by
// `ClusterConfig::fabric` so consumers depend only on this header.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cache/cache_config.h"
#include "common/annotations.h"
#include "common/det.h"
#include "common/ids.h"
#include "common/logging.h"
#include "common/units.h"
#include "qos/qos.h"
#include "sim/simulator.h"

namespace hoplite::net {

/// Which fabric implementation a cluster runs on.
enum class TopologyKind {
  kFlat,  ///< serialized per-node NIC queues, no shared links (the paper's testbed)
  kRack,  ///< racks behind oversubscribed ToR uplinks, max-min fair sharing
};

[[nodiscard]] constexpr const char* TopologyName(TopologyKind kind) noexcept {
  switch (kind) {
    case TopologyKind::kFlat: return "flat";
    case TopologyKind::kRack: return "rack";
  }
  return "?";
}

/// Topology selection and rack-level knobs, threaded through ClusterConfig.
struct FabricConfig {
  TopologyKind topology = TopologyKind::kFlat;

  /// Number of racks (kRack only). Nodes are assigned to racks in contiguous
  /// blocks of ceil(num_nodes / num_racks).
  int num_racks = 4;

  /// Oversubscription ratio of the ToR uplink (kRack only): the uplink and
  /// downlink each carry (sum of the rack's NIC bandwidth) / oversubscription.
  /// 1.0 is a non-blocking fabric; 8.0 is a heavily oversubscribed core.
  double oversubscription = 1.0;

  /// Extra one-way latency charged to flows that cross the core (kRack only).
  SimDuration cross_rack_extra_latency = 0;
};

/// Static description of the simulated cluster. Every member has a default
/// (the paper's testbed), so `ClusterConfig{.num_nodes = n}` spells that
/// testbed at n nodes.
struct ClusterConfig {
  int num_nodes = 16;

  /// Per-node NIC bandwidth, full duplex (paper: 10 Gbps).
  BytesPerSecond nic_bandwidth = Gbps(10);

  /// One-way propagation + protocol latency between any two nodes.
  /// The paper's testbed measures sub-millisecond RTTs; 42.5 us one-way
  /// yields the ~85 us RTT typical of same-AZ EC2 placement groups.
  SimDuration one_way_latency = Nanoseconds(42'500);

  /// Per-node memory copy bandwidth for worker<->store copies
  /// (m5.4xlarge sustains roughly 10 GB/s single-stream memcpy).
  BytesPerSecond memcpy_bandwidth = GBps(10.0);

  /// Fixed software overhead charged per message on top of propagation
  /// latency (syscall + RPC framing). Applies to every Send.
  SimDuration per_message_overhead = Nanoseconds(5'000);

  /// How long a peer takes to notice that a failed node's socket died
  /// (paper §5.5: Hoplite detects failures via socket liveness in ~0.74 s
  /// including the application-level machinery; the transport-level
  /// constant is configurable by the fault-tolerance layer).
  SimDuration failure_detection_delay = Milliseconds(100);

  /// Optional per-node NIC bandwidth override (heterogeneous clusters,
  /// §6 "Network Heterogeneity"). Empty means uniform `nic_bandwidth`.
  std::vector<BytesPerSecond> per_node_bandwidth{};

  /// Topology selection (flat testbed vs. racks behind ToR uplinks).
  FabricConfig fabric{};

  /// Hot-object serving knobs: the store's eviction policy and the
  /// directory's request-coalescing switch (see cache/cache_config.h).
  cache::CacheConfig cache{};

  /// Per-tenant QoS knobs: fabric WFQ, uplink AQM and client admission
  /// (see qos/qos.h). All off by default — byte-identical to pre-QoS.
  qos::QosConfig qos{};

  [[nodiscard]] BytesPerSecond BandwidthOf(NodeID node) const {
    if (!per_node_bandwidth.empty()) {
      HOPLITE_CHECK_LT(static_cast<std::size_t>(node), per_node_bandwidth.size());
      return per_node_bandwidth[static_cast<std::size_t>(node)];
    }
    return nic_bandwidth;
  }
};

/// Identifier of an in-flight transfer, usable for cancellation.
using TransferId = std::uint64_t;
inline constexpr TransferId kInvalidTransfer = 0;

/// Per-node traffic counters, exposed for tests and benches.
struct NodeTrafficStats {
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
};

/// The simulated fabric interface. All methods must be called from
/// simulation context (i.e., inside event callbacks or before Run()).
///
/// The base class owns what every implementation shares — the failure
/// flags, traffic counters and the per-node memcpy resource — so the
/// interface methods have uniform semantics across topologies; transfer
/// scheduling itself (Send / CancelTransfer) is implementation-defined.
// hoplite-sa: owner(Fabric) -- constructed by HopliteCluster (or a bench
// harness) before the first event and destroyed after the engine drains;
// every wire/memcpy event it schedules fires within that window.
class HOPLITE_DOMAIN_CONFINED Fabric {
 public:
  using DeliveryCallback = std::function<void()>;
  /// Invoked (instead of delivery) when the peer node fails; the argument is
  /// the failed node.
  using FailureCallback = std::function<void(NodeID)>;
  /// ECN-like congestion signal from the fabric's AQM: (sending node whose
  /// transfer was marked, tenant the marked queue belongs to).
  using BackpressureHandler = std::function<void(NodeID, qos::TenantId)>;

  Fabric(sim::Engine& simulator, ClusterConfig config);
  virtual ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Sends `bytes` from `src` to `dst`. `on_delivered` fires when the last
  /// byte arrives at `dst`. If either endpoint fails first, `on_failed`
  /// fires after the configured detection delay instead (if provided).
  /// Self-sends (src == dst) are delivered through the memcpy resource.
  ///
  /// Non-virtual template method: the checks, failed-endpoint notice,
  /// self-send-to-Memcpy path and traffic counting are uniform across
  /// topologies; only the wire scheduling (StartTransfer) is
  /// implementation-defined.
  // hoplite-sa: mailbox -- Send IS the inter-node data plane: the one
  // sanctioned way state crosses a domain boundary (payload travels as
  // timestamped wire events, never as shared memory).
  TransferId Send(NodeID src, NodeID dst, std::int64_t bytes, DeliveryCallback on_delivered,
                  FailureCallback on_failed = nullptr,
                  qos::TenantId tenant = qos::kNoTenant);

  /// Cancels an in-flight transfer: neither callback will fire. Returns
  /// false if the transfer already completed/failed. The wire time already
  /// consumed is not returned (the bytes were on the wire).
  // hoplite-sa: mailbox -- cancelling a transfer you started is part of the
  // data-plane surface (receiver-side redirection, Table 1 semantics).
  virtual bool CancelTransfer(TransferId id) = 0;

  /// Occupies `node`'s memcpy engine for bytes/memcpy_bandwidth, then `done`.
  // hoplite-sa: mailbox -- local-copy half of the data plane, same contract
  // as Send with src == dst.
  void Memcpy(NodeID node, std::int64_t bytes, DeliveryCallback done);

  /// Marks a node as failed: every in-flight transfer touching it reports
  /// failure to the surviving peer after the detection delay; new transfers
  /// touching it fail the same way.
  void FailNode(NodeID node);

  /// Clears the failed flag (the node rejoined with empty queues).
  void RecoverNode(NodeID node);

  [[nodiscard]] bool IsFailed(NodeID node) const;

  /// Installs the AQM backpressure sink (the cluster routes it to the
  /// sending node's client). At most one handler; null disables.
  void SetBackpressureHandler(BackpressureHandler handler) {
    backpressure_ = std::move(handler);
  }

  [[nodiscard]] const NodeTrafficStats& TrafficOf(NodeID node) const;
  /// Total wire bytes charged to `tenant` (self-sends excluded, counted at
  /// send time like the per-node counters). Tenant accounting works with
  /// QoS off — tags alone never change scheduling.
  [[nodiscard]] std::int64_t TenantBytes(qos::TenantId tenant) const;
  [[nodiscard]] const ClusterConfig& config() const noexcept { return config_; }
  [[nodiscard]] sim::Engine& simulator() noexcept { return sim_; }
  [[nodiscard]] SimTime Now() const noexcept { return sim_.Now(); }
  [[nodiscard]] int num_nodes() const noexcept { return config_.num_nodes; }

 protected:
  /// Send hook: schedule an accepted transfer on the wire. Both endpoints
  /// are live, src != dst, bytes >= 0, and the traffic counters are already
  /// charged when this runs.
  virtual void StartTransfer(TransferId id, NodeID src, NodeID dst, std::int64_t bytes,
                             DeliveryCallback on_delivered, FailureCallback on_failed,
                             qos::TenantId tenant) = 0;

  /// FailNode hook: abort every in-flight transfer touching `node`,
  /// scheduling the surviving peers' failure notices.
  virtual void AbortTransfersOf(NodeID node) = 0;
  /// RecoverNode hook: reset any per-node scheduling state.
  virtual void OnNodeRecovered(NodeID /*node*/) {}

  void CheckNode(NodeID node) const {
    HOPLITE_CHECK_GE(node, 0);
    HOPLITE_CHECK_LT(node, config_.num_nodes);
  }

  [[nodiscard]] bool NodeFailed(NodeID node) const noexcept {
    return failed_[static_cast<std::size_t>(node)];
  }

  /// Reserves a serialized resource whose head-of-line frees at `*free_at`,
  /// for `duration`, starting no earlier than now. Returns the start time.
  [[nodiscard]] SimTime Reserve(SimTime* free_at, SimDuration duration) const;

  /// Charges a message to the endpoint traffic counters (at send time; a
  /// later in-flight failure does not refund the counters — the bytes were
  /// committed to the wire).
  void CountMessage(NodeID src, NodeID dst, std::int64_t bytes, qos::TenantId tenant);

  /// Schedules `on_failed(dead)` one failure-detection delay from now.
  void ScheduleFailureNotice(FailureCallback on_failed, NodeID dead);

  /// Delivers the AQM's ECN-like mark signal to the installed handler.
  void NotifyBackpressure(NodeID src, qos::TenantId tenant) {
    if (backpressure_) backpressure_(src, tenant);
  }

  sim::Engine& sim_;
  ClusterConfig config_;

 private:
  TransferId next_transfer_id_ = 1;
  std::vector<SimTime> memcpy_free_at_;
  std::vector<bool> failed_;
  std::vector<NodeTrafficStats> traffic_;
  det::Map<qos::TenantId, std::int64_t> tenant_bytes_;
  BackpressureHandler backpressure_;
};

/// Constructs the fabric implementation selected by `config.fabric`.
[[nodiscard]] std::unique_ptr<Fabric> MakeFabric(sim::Engine& simulator,
                                                 ClusterConfig config);

}  // namespace hoplite::net
