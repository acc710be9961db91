#include "core/cluster.h"

#include <algorithm>
#include <utility>

#include "cache/eviction_policy.h"
#include "common/logging.h"
#include "core/client.h"
#include "sim/sharded_simulator.h"

namespace hoplite::core {

HopliteCluster::HopliteCluster(Options options)
    : options_(std::move(options)),
      own_sharded_(options_.engine == nullptr && options_.engine_shards > 1
                       ? std::make_unique<sim::ShardedSimulator>(
                             sim::ShardedSimulator::Options{options_.engine_shards})
                       : nullptr),
      own_sim_(options_.engine == nullptr && own_sharded_ == nullptr
                   ? std::make_unique<sim::Simulator>()
                   : nullptr),
      sim_(options_.engine != nullptr
               ? *options_.engine
               : (own_sharded_ != nullptr ? own_sharded_->AddDomain() : *own_sim_)) {
  network_ = net::MakeFabric(sim_, options_.network);
  directory_ = std::make_unique<directory::ObjectDirectory>(*network_, options_.directory);
  const int n = options_.network.num_nodes;
  kills_.resize(static_cast<std::size_t>(n));
  observed_kills_.resize(static_cast<std::size_t>(n));
  stores_.reserve(static_cast<std::size_t>(n));
  clients_.reserve(static_cast<std::size_t>(n));
  for (NodeID node = 0; node < n; ++node) {
    stores_.push_back(std::make_unique<store::LocalStore>(
        node, options_.store_capacity_bytes,
        cache::MakeEvictionPolicy(options_.network.cache.policy,
                                  options_.store_capacity_bytes)));
    clients_.push_back(std::make_unique<HopliteClient>(*this, node, options_.hoplite));
  }
  // AQM marks flow back to the sending node's admission layer (ECN-like
  // backpressure). Wired unconditionally: the fabric only emits marks when
  // qos.aqm is on, and the client only reacts when qos.admission is on.
  network_->SetBackpressureHandler([this](NodeID src, qos::TenantId tenant) {
    if (IsAlive(src)) client(src).OnBackpressure(tenant);
  });
}

HopliteCluster::~HopliteCluster() = default;

HopliteClient& HopliteCluster::client(NodeID node) {
  HOPLITE_CHECK_GE(node, 0);
  HOPLITE_CHECK_LT(node, num_nodes());
  return *clients_[static_cast<std::size_t>(node)];
}

store::LocalStore& HopliteCluster::store(NodeID node) {
  HOPLITE_CHECK_GE(node, 0);
  HOPLITE_CHECK_LT(node, num_nodes());
  return *stores_[static_cast<std::size_t>(node)];
}

void HopliteCluster::SendControl(NodeID from, NodeID to, std::function<void()> handler) {
  SendData(from, to, 0, std::move(handler));
}

void HopliteCluster::SendData(NodeID from, NodeID to, std::int64_t bytes,
                              std::function<void()> handler, qos::TenantId tenant) {
  // Dropped before Send so it uses up no TransferId (RackFabric orders flows by id).
  if (network_->IsFailed(from) || network_->IsFailed(to)) return;
  network_->Send(from, to, bytes, std::move(handler), tenant);
}

void HopliteCluster::KillNode(NodeID node) {
  HOPLITE_CHECK(IsAlive(node)) << "node " << node << " is already dead";
  // The process state vanishes immediately...
  network_->FailNode(node);
  client(node).OnKilled();
  // ...but the rest of the cluster only notices after the socket-liveness
  // detection delay, unless the node rejoins first (RecoverNode).
  const int kill = ++kills_[static_cast<std::size_t>(node)];
  sim_.ScheduleAfter(options_.network.failure_detection_delay, [this, node, kill] {
    const bool unobserved = observed_kills_[static_cast<std::size_t>(node)] < kill;
    if (unobserved) ForgetNode(node);
    // The death is observable now: fail the refs that died with the node.
    client(node).OnDeathObserved();
    if (unobserved) NotifyMembership(node, /*alive=*/false);
  });
}

void HopliteCluster::ForgetNode(NodeID node) {
  const auto i = static_cast<std::size_t>(node);
  observed_kills_[i] = kills_[i];
  // The directory is cleaned first (same timestamp) so that re-claims
  // triggered by the notifications never see the dead node's locations.
  directory_->NodeFailed(node);
  for (NodeID peer = 0; peer < num_nodes(); ++peer) {
    if (peer != node && IsAlive(peer)) client(peer).OnPeerFailed(node);
  }
}

void HopliteCluster::RecoverNode(NodeID node) {
  HOPLITE_CHECK(!IsAlive(node)) << "node " << node << " is not dead";
  // A rejoin inside the detection delay: the old incarnation is observed
  // dead now, so its delayed observation only fails the refs that died
  // with it.
  const auto i = static_cast<std::size_t>(node);
  if (observed_kills_[i] < kills_[i]) {
    ForgetNode(node);
    NotifyMembership(node, /*alive=*/false);
  }
  network_->RecoverNode(node);
  NotifyMembership(node, /*alive=*/true);
}

void HopliteCluster::ApplyFault(NodeID node, bool kill) {
  if (kill != IsAlive(node)) return;
  if (kill) {
    KillNode(node);
  } else {
    RecoverNode(node);
  }
}

void HopliteCluster::ScheduleFaults(const std::vector<net::FaultEvent>& faults) {
  for (const net::FaultEvent& fault : faults) {
    sim_.ScheduleAt(fault.at, [this, fault] { ApplyFault(fault.node, fault.kill); });
  }
}

void HopliteCluster::NotifyMembership(NodeID node, bool alive) {
  // Snapshot: a listener may add or remove subscriptions while running.
  std::vector<std::uint64_t> ids;
  ids.reserve(membership_listeners_.size());
  for (const auto& [id, listener] : membership_listeners_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    const auto it =
        std::find_if(membership_listeners_.begin(), membership_listeners_.end(),
                     [id](const auto& entry) { return entry.first == id; });
    if (it != membership_listeners_.end()) it->second(node, alive);
  }
}

void HopliteCluster::RemoveMembershipListener(std::uint64_t id) {
  std::erase_if(membership_listeners_, [id](const auto& entry) { return entry.first == id; });
}

bool HopliteCluster::IsAlive(NodeID node) const { return !network_->IsFailed(node); }

}  // namespace hoplite::core
