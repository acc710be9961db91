// Flat flow-level cluster fabric (the paper's testbed).
//
// This module is the substitute for the paper's EC2 fabric (m5.4xlarge,
// 10 Gbps full-duplex NICs, ~85 us RTT). Each node has a serialized egress
// queue and a serialized ingress queue: a transfer occupies the sender's
// egress and the receiver's ingress for bytes/bandwidth simulated seconds,
// then is delivered one propagation latency later. Higher layers split
// objects into chunks, so store-and-forward over this model naturally
// reproduces the pipelining behaviour the paper relies on.
//
// The per-node memcpy resource modelling the worker<->object-store copies
// (§3.3) lives on the Fabric base, shared with every topology.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/det.h"
#include "common/ids.h"
#include "common/units.h"
#include "net/fabric.h"
#include "sim/simulator.h"

namespace hoplite::net {

/// The flat (non-blocking, contention-free) fabric: per-node serialized NIC
/// queues and nothing shared between flows. This is the default topology and
/// reproduces the paper's same-AZ EC2 measurements.
// hoplite-sa: owner(FlatFabric) -- same lifetime contract as the Fabric
// base: built before the first event, destroyed after the engine drains.
class HOPLITE_DOMAIN_CONFINED FlatFabric final : public Fabric {
 public:
  FlatFabric(sim::Engine& simulator, ClusterConfig config);

  bool CancelTransfer(TransferId id) override;

  /// First instant at which a new transfer out of `node` could start
  /// (egress queue drain time; never earlier than Now()).
  [[nodiscard]] SimTime EgressFreeAt(NodeID node) const;
  /// Same for the ingress direction.
  [[nodiscard]] SimTime IngressFreeAt(NodeID node) const;

 protected:
  void StartTransfer(TransferId id, NodeID src, NodeID dst, std::int64_t bytes,
                     DeliveryCallback on_delivered, FailureCallback on_failed,
                     qos::TenantId tenant) override;
  void AbortTransfersOf(NodeID node) override;
  void OnNodeRecovered(NodeID node) override;

 private:
  struct InFlight {
    NodeID src = kInvalidNode;
    NodeID dst = kInvalidNode;
    sim::EventId delivery_event;
    FailureCallback on_failed;  // may be empty
  };

  std::vector<SimTime> egress_free_at_;
  std::vector<SimTime> ingress_free_at_;
  std::unordered_map<TransferId, InFlight> in_flight_;
};

}  // namespace hoplite::net
