// HopliteCluster: assembles the whole simulated system — event engine,
// network fabric, per-node stores, the object directory, and one Hoplite
// client per node — and provides the failure-injection surface (KillNode /
// RecoverNode, or a whole net::FaultEvent schedule) that the fault-tolerance
// evaluation uses.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "core/types.h"
#include "directory/object_directory.h"
#include "net/fabric.h"
#include "sim/simulator.h"
#include "store/local_store.h"

namespace hoplite::sim {
class ShardedSimulator;
}  // namespace hoplite::sim

namespace hoplite::core {

class HopliteClient;

// hoplite-sa: owner(HopliteCluster) -- owns the engine (or its sharded
// domain) itself: the cluster is destroyed only after the event queue it
// schedules into has drained.
class HopliteCluster {
 public:
  struct Options {
    net::ClusterConfig network;
    directory::DirectoryConfig directory;
    HopliteConfig hoplite;
    /// Per-node store capacity in bytes; 0 = unlimited (default for benches).
    std::int64_t store_capacity_bytes = 0;
    /// Event engine to run on. When null (default) the cluster owns a
    /// private single-threaded sim::Simulator — the reference setup every
    /// figure uses. To compose clusters under the sharded engine, pass a
    /// ShardedSimulator::AddDomain() Simulator here; the whole cluster then
    /// lives on that domain. Domains never schedule into each other, so
    /// clusters on one engine are independent (one cluster cannot span
    /// domains: its fabric is mutated synchronously from every node's
    /// events). The engine must outlive the cluster.
    sim::Engine* engine = nullptr;
    /// When `engine` is null and this is > 1, the cluster owns a
    /// ShardedSimulator with that many shards and lives on its only domain
    /// (the bench `--shards N` knob). That domain is a reference Simulator,
    /// so results are bit-identical to it — this is the differential-sweep
    /// configuration, not a speedup.
    int engine_shards = 1;
  };

  explicit HopliteCluster(Options options);
  ~HopliteCluster();
  HopliteCluster(const HopliteCluster&) = delete;
  HopliteCluster& operator=(const HopliteCluster&) = delete;

  [[nodiscard]] sim::Engine& simulator() noexcept { return sim_; }
  [[nodiscard]] net::Fabric& network() noexcept { return *network_; }
  [[nodiscard]] directory::ObjectDirectory& directory() noexcept { return *directory_; }
  [[nodiscard]] HopliteClient& client(NodeID node);
  [[nodiscard]] store::LocalStore& store(NodeID node);
  [[nodiscard]] int num_nodes() const noexcept { return options_.network.num_nodes; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }
  [[nodiscard]] SimTime Now() const noexcept { return sim_.Now(); }

  // ------------------------------------------------------------------
  // Messaging between per-node clients. Control messages are latency-only
  // (zero payload bytes); data messages occupy NIC bandwidth. A message to
  // or from a dead node is silently dropped, exactly like a TCP segment.
  // ------------------------------------------------------------------

  void SendControl(NodeID from, NodeID to, std::function<void()> handler);
  void SendData(NodeID from, NodeID to, std::int64_t bytes, std::function<void()> handler,
                qos::TenantId tenant = qos::kNoTenant);

  // ------------------------------------------------------------------
  // Failure injection (§3.5, §5.5).
  // ------------------------------------------------------------------

  /// Kills a node: its client/store state vanishes now; the directory and
  /// every surviving client learn about it one failure-detection delay later
  /// (socket liveness, §5.5).
  void KillNode(NodeID node);

  /// Brings a node back with an empty store and a fresh client state.
  /// Re-creating lost objects is the task framework's job (lineage
  /// re-execution, §2.1); the apps here re-Put them by hand. A node that
  /// rejoins before its death was observed is first observed dead here
  /// (directory, live peers, "down" to listeners); the delayed observation
  /// then only fails the refs that died with the old incarnation.
  void RecoverNode(NodeID node);

  /// Applies one fault-schedule entry now: KillNode when `kill`, else
  /// RecoverNode; a no-op when the node is already in that state.
  void ApplyFault(NodeID node, bool kill);
  /// Schedules ApplyFault for every entry of `faults` at its instant.
  void ScheduleFaults(const std::vector<net::FaultEvent>& faults);

  [[nodiscard]] bool IsAlive(NodeID node) const;

  /// Registers an observer of membership changes. Kill notifications arrive
  /// after the failure-detection delay (like every other observer of a
  /// death), or just before the recovery notification when the node
  /// rejoins inside that delay; recovery notifications arrive immediately.
  ///
  /// Returns a scoped subscription: the listener is removed when the handle
  /// is destroyed (or reset), so a stack-owned observer that dies before the
  /// cluster cannot leave a dangling std::function behind. The handle must
  /// not outlive the cluster.
  using MembershipListener = std::function<void(NodeID, bool alive)>;

  class [[nodiscard]] MembershipSubscription {
   public:
    MembershipSubscription() = default;
    MembershipSubscription(MembershipSubscription&& other) noexcept
        : cluster_(std::exchange(other.cluster_, nullptr)),
          id_(std::exchange(other.id_, 0)) {}
    MembershipSubscription& operator=(MembershipSubscription&& other) noexcept {
      if (this != &other) {
        Reset();
        cluster_ = std::exchange(other.cluster_, nullptr);
        id_ = std::exchange(other.id_, 0);
      }
      return *this;
    }
    MembershipSubscription(const MembershipSubscription&) = delete;
    MembershipSubscription& operator=(const MembershipSubscription&) = delete;
    ~MembershipSubscription() { Reset(); }

    /// Unsubscribes now (idempotent).
    void Reset() {
      if (cluster_ != nullptr) cluster_->RemoveMembershipListener(id_);
      cluster_ = nullptr;
      id_ = 0;
    }
    [[nodiscard]] bool active() const noexcept { return cluster_ != nullptr; }

   private:
    friend class HopliteCluster;
    MembershipSubscription(HopliteCluster* cluster, std::uint64_t id)
        : cluster_(cluster), id_(id) {}
    HopliteCluster* cluster_ = nullptr;
    std::uint64_t id_ = 0;
  };

  MembershipSubscription AddMembershipListener(MembershipListener listener) {
    const std::uint64_t id = next_listener_id_++;
    membership_listeners_.emplace_back(id, std::move(listener));
    return MembershipSubscription(this, id);
  }

  /// Runs the simulation until the event queue drains.
  void RunAll() { sim_.Run(); }

 private:
  void RemoveMembershipListener(std::uint64_t id);
  void NotifyMembership(NodeID node, bool alive);
  /// The directory's and the live peers' half of observing `node`'s latest
  /// death.
  void ForgetNode(NodeID node);

  Options options_;
  /// Owned engines when options_.engine is null (sharded one only when
  /// options_.engine_shards > 1); unused otherwise.
  std::unique_ptr<sim::ShardedSimulator> own_sharded_;
  std::unique_ptr<sim::Simulator> own_sim_;
  sim::Engine& sim_;
  std::unique_ptr<net::Fabric> network_;
  std::unique_ptr<directory::ObjectDirectory> directory_;
  std::vector<std::unique_ptr<store::LocalStore>> stores_;
  std::vector<std::unique_ptr<HopliteClient>> clients_;
  /// Per node: kills so far, and how many of them ForgetNode has observed.
  std::vector<int> kills_;
  std::vector<int> observed_kills_;
  std::vector<std::pair<std::uint64_t, MembershipListener>> membership_listeners_;
  std::uint64_t next_listener_id_ = 1;
};

}  // namespace hoplite::core
