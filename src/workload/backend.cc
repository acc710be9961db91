#include "workload/backend.h"

#include <utility>
#include <vector>

#include "baselines/ray_like.h"
#include "common/logging.h"
#include "core/client.h"
#include "core/cluster.h"
#include "net/fabric.h"
#include "qos/qos.h"
#include "store/buffer.h"
#include "store/local_store.h"

namespace hoplite::workload {

namespace {

/// Collapses a typed completion ref to the driver's Unit currency,
/// preserving failure.
template <typename T>
[[nodiscard]] Ref<Unit> ToUnit(sim::Engine& sim, ObjectID id, const Ref<T>& done) {
  RefPromise<Unit> promise(&sim, id);
  done.OnSettled([promise](const Ref<T>& settled) {
    if (settled.failed()) {
      promise.Reject(settled.error());
    } else {
      promise.Resolve(Unit{});
    }
  });
  return promise.ref();
}

/// Resolves once every ref settled; rejects with the first (input-order)
/// failure. Built on WhenAllSettled so one timed-out receiver neither hides
/// the others' completions nor stops the op from settling.
template <typename T>
[[nodiscard]] Ref<Unit> AllOk(sim::Engine& sim, ObjectID id,
                              const std::vector<Ref<T>>& refs) {
  RefPromise<Unit> promise(&sim, id);
  WhenAllSettled(refs).Then([promise](const std::vector<Settled<T>>& outcomes) {
    for (const Settled<T>& outcome : outcomes) {
      if (!outcome.ok) {
        promise.Reject(outcome.error);
        return;
      }
    }
    promise.Resolve(Unit{});
  });
  return promise.ref();
}

// --------------------------------------------------------------------
// Hoplite backend: a full HopliteCluster (directory, stores, reduce).
// --------------------------------------------------------------------

// hoplite-sa: owner(HopliteWorkloadBackend) -- owns its cluster AND the
// engine the driver runs; destroyed only after RunTrace's Run() drains.
class HopliteWorkloadBackend final : public WorkloadBackend {
 public:
  explicit HopliteWorkloadBackend(const ScenarioSpec& spec) : cluster_(Options(spec)) {}

  [[nodiscard]] const char* name() const override { return "Hoplite"; }
  [[nodiscard]] sim::Engine& simulator() override { return cluster_.simulator(); }

  [[nodiscard]] Ref<Unit> Issue(const WorkloadOp& op) override {
    auto& sim = cluster_.simulator();
    if (TouchesDeadNode(op)) {
      // The fault schedule took a node this op needs: fail fast the way a
      // real caller's RPC to a dead peer would, instead of producing on a
      // ghost.
      RefPromise<Unit> promise(&sim, op.id);
      promise.Reject(RefError{RefErrorCode::kProducerLost,
                              "op issued to a node the fault schedule killed"});
      return promise.ref();
    }
    const qos::TenantId tenant = static_cast<qos::TenantId>(op.tenant);
    Ref<Unit> done;
    switch (op.kind) {
      case OpKind::kPut:
        done = ToUnit(sim, op.id,
                      cluster_.client(op.home).Put(op.id, store::Buffer::OfSize(op.bytes),
                                                   tenant));
        break;
      case OpKind::kGet: {
        if (op.fresh) {
          cluster_.client(op.peers.at(0))
              .Put(op.id, store::Buffer::OfSize(op.bytes), tenant);
        }
        done = ToUnit(sim, op.id, cluster_.client(op.home).Get(op.id, GetOpts(op)));
        break;
      }
      case OpKind::kBroadcast: {
        cluster_.client(op.home).Put(op.id, store::Buffer::OfSize(op.bytes), tenant);
        std::vector<Ref<store::Buffer>> gets;
        gets.reserve(op.peers.size());
        for (const NodeID peer : op.peers) {
          gets.push_back(cluster_.client(peer).Get(op.id, GetOpts(op)));
        }
        done = AllOk(sim, op.id, gets);
        break;
      }
      case OpKind::kReduce: {
        core::ReduceSpec spec;
        spec.target = op.id;
        spec.tenant = tenant;
        for (std::size_t k = 0; k < op.peers.size(); ++k) {
          const ObjectID source = op.id.WithIndex(static_cast<std::int64_t>(k) + 1);
          spec.sources.push_back(source);
          cluster_.client(op.peers[k]).Put(source, store::Buffer::OfSize(op.bytes),
                                           tenant);
        }
        cluster_.client(op.home).Reduce(spec);
        // §5.1.2 measurement: the op ends when the reduced result has been
        // read back at the caller.
        done = ToUnit(sim, op.id, cluster_.client(op.home).Get(op.id, GetOpts(op)));
        break;
      }
    }
    MaybeGc(op, done);
    return done;
  }

  void InjectFault(NodeID node, bool kill) override { cluster_.ApplyFault(node, kill); }

  [[nodiscard]] StoreHighWater store_high_water() override {
    StoreHighWater hw;
    for (NodeID n = 0; n < cluster_.num_nodes(); ++n) {
      const store::LocalStore& st = cluster_.store(n);
      hw.evictions += st.evictions();
      hw.peak_used_bytes = std::max(hw.peak_used_bytes, st.peak_used_bytes());
      hw.final_used_bytes += st.used_bytes();
      hw.hits += st.hits();
      hw.misses += st.misses();
    }
    hw.coalesced_attaches = cluster_.directory().interest_stats().attaches;
    return hw;
  }

 private:
  [[nodiscard]] static core::HopliteCluster::Options Options(const ScenarioSpec& spec) {
    core::HopliteCluster::Options options;
    options.network.num_nodes = spec.num_nodes;
    options.network.fabric = spec.fabric;
    options.network.cache = spec.cache;
    options.network.qos = spec.qos;
    options.store_capacity_bytes = spec.store_capacity_bytes;
    options.engine_shards = spec.engine_shards;
    return options;
  }

  [[nodiscard]] static core::GetOptions GetOpts(const WorkloadOp& op) {
    return core::GetOptions{.read_only = true, .timeout = op.get_timeout,
                            .tenant = static_cast<qos::TenantId>(op.tenant)};
  }

  /// True when the op's home or any node it must produce on is currently
  /// down per the fault schedule.
  [[nodiscard]] bool TouchesDeadNode(const WorkloadOp& op) const {
    if (!cluster_.IsAlive(op.home)) return true;
    for (const NodeID peer : op.peers) {
      if (!cluster_.IsAlive(peer)) return true;
    }
    return false;
  }

  /// The serving loop's garbage collection: once the op settled (success or
  /// failure), Delete everything it created. Fire-and-forget — the purge is
  /// not part of the measured latency, but its traffic is real load.
  void MaybeGc(const WorkloadOp& op, const Ref<Unit>& done) {
    if (!op.fresh || !op.delete_after) return;
    const NodeID home = op.home;
    const ObjectID id = op.id;
    const auto sources = static_cast<std::int64_t>(
        op.kind == OpKind::kReduce ? op.peers.size() : 0);
    done.OnSettled([this, home, id, sources](const Ref<Unit>&) {
      if (!cluster_.IsAlive(home)) return;  // the fault schedule beat the GC
      cluster_.client(home).Delete(id);
      for (std::int64_t k = 1; k <= sources; ++k) {
        cluster_.client(home).Delete(id.WithIndex(k));
      }
    });
  }

  core::HopliteCluster cluster_;
};

// --------------------------------------------------------------------
// Ray-like backend: the task-framework transport, same trace.
// --------------------------------------------------------------------

// hoplite-sa: owner(RayWorkloadBackend) -- owns its fabric, transport
// and engine; destroyed only after RunTrace's Run() drains.
class RayWorkloadBackend final : public WorkloadBackend {
 public:
  RayWorkloadBackend(const ScenarioSpec& spec, baselines::RayLikeConfig config,
                     const char* name)
      : name_(name), net_(net::MakeFabric(sim_, Network(spec))),
        transport_(sim_, *net_, config) {}

  [[nodiscard]] const char* name() const override { return name_; }
  [[nodiscard]] sim::Engine& simulator() override { return sim_; }

  [[nodiscard]] Ref<Unit> Issue(const WorkloadOp& op) override {
    Ref<Unit> done;
    switch (op.kind) {
      case OpKind::kPut:
        done = ToUnit(sim_, op.id, transport_.Put(op.home, op.id, op.bytes));
        break;
      case OpKind::kGet:
        if (op.fresh) transport_.Put(op.peers.at(0), op.id, op.bytes);
        done = WithOpTimeout(op, ToUnit(sim_, op.id, transport_.Get(op.home, op.id)));
        break;
      case OpKind::kBroadcast: {
        transport_.Put(op.home, op.id, op.bytes);
        // The transport parks Gets until the location is published, so the
        // unicast fan-out can be issued immediately, like Hoplite's side.
        done = WithOpTimeout(op,
                             ToUnit(sim_, op.id, transport_.Broadcast(op.id, op.peers)));
        break;
      }
      case OpKind::kReduce: {
        std::vector<ObjectID> sources;
        sources.reserve(op.peers.size());
        for (std::size_t k = 0; k < op.peers.size(); ++k) {
          const ObjectID source = op.id.WithIndex(static_cast<std::int64_t>(k) + 1);
          sources.push_back(source);
          transport_.Put(op.peers[k], source, op.bytes);
        }
        done = WithOpTimeout(
            op, ToUnit(sim_, op.id,
                       transport_.Reduce(op.home, sources, op.id, op.bytes)));
        break;
      }
    }
    MaybeGc(op, done);
    return done;
  }

 private:
  [[nodiscard]] static net::ClusterConfig Network(const ScenarioSpec& spec) {
    net::ClusterConfig config;
    config.num_nodes = spec.num_nodes;
    config.fabric = spec.fabric;
    return config;
  }

  /// The baseline has no per-Get timeout surface; mirror the tenant's
  /// timeout over the whole op so failure accounting stays comparable.
  [[nodiscard]] static Ref<Unit> WithOpTimeout(const WorkloadOp& op, Ref<Unit> done) {
    return op.get_timeout > 0 ? done.WithTimeout(op.get_timeout) : done;
  }

  void MaybeGc(const WorkloadOp& op, const Ref<Unit>& done) {
    if (!op.fresh || !op.delete_after) return;
    const ObjectID id = op.id;
    const auto sources = static_cast<std::int64_t>(
        op.kind == OpKind::kReduce ? op.peers.size() : 0);
    done.OnSettled([this, id, sources](const Ref<Unit>&) {
      transport_.Delete(id);
      for (std::int64_t k = 1; k <= sources; ++k) transport_.Delete(id.WithIndex(k));
    });
  }

  const char* name_;
  sim::Simulator sim_;
  std::unique_ptr<net::Fabric> net_;
  baselines::RayLikeTransport transport_;
};

}  // namespace

std::unique_ptr<WorkloadBackend> MakeBackend(BackendKind kind, const ScenarioSpec& spec) {
  switch (kind) {
    case BackendKind::kHoplite:
      return std::make_unique<HopliteWorkloadBackend>(spec);
    case BackendKind::kRay:
      return std::make_unique<RayWorkloadBackend>(spec, baselines::RayLikeConfig::Ray(),
                                                  "Ray");
    case BackendKind::kDask:
      return std::make_unique<RayWorkloadBackend>(spec, baselines::RayLikeConfig::Dask(),
                                                  "Dask");
  }
  HOPLITE_CHECK(false) << "unknown backend kind";
  return nullptr;
}

}  // namespace hoplite::workload
