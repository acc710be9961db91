#include "bench/perf/traced_run.h"

#include <cxxabi.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <functional>
#include <string_view>
#include <typeindex>
#include <unordered_map>

#include "bench/perf/wall_clock.h"
#include "common/det.h"
#include "common/logging.h"
#include "core/client.h"
#include "core/cluster.h"
#include "core/ref.h"
#include "net/rack_fabric.h"
#include "sim/simulator.h"
#include "store/buffer.h"
#include "store/local_store.h"
#include "workload/backend.h"

namespace hoplite::perf {
namespace {

using workload::OpKind;
using workload::WorkloadOp;

// src/ namespaces an event can be charged to; anything outside namespace
// hoplite (or in this benchmark's own namespace) is "other".
constexpr std::array<std::string_view, 12> kLayers = {
    "sim",
    "net",
    "directory",
    "store",
    "cache",
    "qos",
    "core",
    "task",
    "baselines",
    "apps",
    "workload",
    "other",
};
constexpr int kCore = 6;
constexpr int kWorkload = 10;
constexpr int kOther = 11;

int LayerIndex(std::string_view name) {
  for (int i = 0; i < static_cast<int>(kLayers.size()); ++i) {
    if (kLayers[static_cast<std::size_t>(i)] == name) return i;
  }
  return -1;
}

/// The layer owning a callable type, from the first `hoplite::<ns>::` in its
/// demangled name: a lambda's name starts with the function defining it.
int LayerOfType(const std::type_info& type) {
  int status = 0;
  char* demangled = abi::__cxa_demangle(type.name(), nullptr, nullptr, &status);
  const std::string_view name = status == 0 ? demangled : type.name();
  int layer = kOther;
  constexpr std::string_view kRoot = "hoplite::";
  if (const auto at = name.find(kRoot); at != std::string_view::npos) {
    const std::string_view rest = name.substr(at + kRoot.size());
    const std::string_view ns = rest.substr(0, rest.find("::"));
    // Helpers declared straight in namespace hoplite (the Ref combinators,
    // hoplite::detail) live in src/core; hoplite::perf is this benchmark.
    if (const int known = LayerIndex(ns); known >= 0) {
      layer = known;
    } else if (ns != "perf") {
      layer = kCore;
    }
  }
  std::free(demangled);
  return layer;
}

/// sim::Engine decorator: forwards to a reference Simulator and times every
/// callback, charging it to the layer of the scheduled callable. Wrapping
/// keeps each schedule's time and order, so the inner engine executes the
/// exact event sequence an undecorated run would.
class TracingEngine final : public sim::Engine {
 public:
  struct LayerStats {
    std::int64_t events = 0;
    std::int64_t wall_ns = 0;
  };

  [[nodiscard]] SimTime Now() const override { return inner_.Now(); }
  sim::EventId ScheduleAt(SimTime t, Callback fn) override {
    return inner_.ScheduleAt(t, Wrap(std::move(fn)));
  }
  sim::EventId ScheduleAfter(SimDuration delay, Callback fn) override {
    return inner_.ScheduleAfter(delay, Wrap(std::move(fn)));
  }
  bool Cancel(sim::EventId id) override {
    if (!inner_.Cancel(id)) return false;
    ++cancels_;
    --live_;
    return true;
  }
  void Run() override {
    const std::int64_t start = WallNs();
    inner_.Run();
    loop_ns_ += WallNs() - start;
  }
  void RunUntil(SimTime deadline) override {
    const std::int64_t start = WallNs();
    inner_.RunUntil(deadline);
    loop_ns_ += WallNs() - start;
  }
  bool RunUntilPredicate(const std::function<bool()>& pred) override {
    const std::int64_t start = WallNs();
    const bool held = inner_.RunUntilPredicate(pred);
    loop_ns_ += WallNs() - start;
    return held;
  }
  [[nodiscard]] bool Idle() const override { return inner_.Idle(); }
  [[nodiscard]] std::uint64_t executed_events() const override {
    return inner_.executed_events();
  }

  /// Runs after every event (outside its timed span): samples gauges.
  void set_after_event(std::function<void()> hook) { after_event_ = std::move(hook); }
  /// Charges the running event to `layer` instead of its callable's owner.
  void ChargeCurrentEventTo(int layer) {
    if (running_) current_ = layer;
  }

  [[nodiscard]] const LayerStats& stats(int layer) const {
    return stats_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] std::int64_t event_wall_ns() const {
    std::int64_t total = 0;
    for (const LayerStats& s : stats_) total += s.wall_ns;
    return total;
  }
  [[nodiscard]] std::int64_t loop_ns() const { return loop_ns_; }
  [[nodiscard]] std::int64_t cancels() const { return cancels_; }
  [[nodiscard]] std::int64_t peak_pending() const { return peak_live_; }

 private:
  Callback Wrap(Callback fn) {
    HOPLITE_CHECK(fn != nullptr);
    const int layer = Classify(fn.target_type());
    peak_live_ = std::max(peak_live_, ++live_);
    return [this, layer, fn = std::move(fn)] { Execute(layer, fn); };
  }

  int Classify(const std::type_info& type) {
    const auto [it, inserted] = layer_of_.try_emplace(std::type_index(type), kOther);
    if (inserted) it->second = LayerOfType(type);
    return it->second;
  }

  void Execute(int layer, const Callback& fn) {
    --live_;
    running_ = true;
    current_ = layer;
    const std::int64_t start = WallNs();
    fn();
    const std::int64_t ns = WallNs() - start;
    running_ = false;
    LayerStats& s = stats_[static_cast<std::size_t>(current_)];
    ++s.events;
    s.wall_ns += ns;
    if (after_event_) after_event_();
  }

  sim::Simulator inner_;
  std::unordered_map<std::type_index, int> layer_of_;
  std::array<LayerStats, kLayers.size()> stats_{};
  std::function<void()> after_event_;
  bool running_ = false;
  int current_ = kOther;
  std::int64_t live_ = 0;
  std::int64_t peak_live_ = 0;
  std::int64_t cancels_ = 0;
  std::int64_t loop_ns_ = 0;
};

/// Synchronous public client calls of one kind: count and host time.
struct CallStats {
  std::int64_t calls = 0;
  std::int64_t wall_ns = 0;
};

template <typename Fn>
auto Timed(CallStats& stats, Fn&& call) {
  const std::int64_t start = WallNs();
  auto result = call();
  stats.wall_ns += WallNs() - start;
  ++stats.calls;
  return result;
}

template <typename T>
Ref<Unit> ToUnit(sim::Engine& sim, ObjectID id, const Ref<T>& done) {
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

template <typename T>
Ref<Unit> AllOk(sim::Engine& sim, ObjectID id, const std::vector<Ref<T>>& refs) {
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

/// A copy of the library's Hoplite workload backend, call for call, with
/// every client call timed. The traced run's per-op outcomes are checked
/// equal to the untraced run's, which pins this copy to the original.
class TracedBackend final : public workload::WorkloadBackend {
 public:
  explicit TracedBackend(const workload::ScenarioSpec& spec) : cluster_(Options(spec)) {}

  [[nodiscard]] const char* name() const override { return "Hoplite"; }
  [[nodiscard]] sim::Engine& simulator() override { return engine_; }

  [[nodiscard]] Ref<Unit> Issue(const WorkloadOp& op) override {
    engine_.ChargeCurrentEventTo(kWorkload);
    if (!op.closed_loop) issue_lag_ns_ = std::max(issue_lag_ns_, engine_.Now() - op.at);
    if (TouchesDeadNode(op)) {
      RefPromise<Unit> promise(&engine_, op.id);
      promise.Reject(RefError{RefErrorCode::kProducerLost,
                              "op issued to a node the fault schedule killed"});
      return promise.ref();
    }
    const auto tenant = static_cast<qos::TenantId>(op.tenant);
    Ref<Unit> done;
    switch (op.kind) {
      case OpKind::kPut:
        done = ToUnit(engine_, op.id, Put(op.home, op.id, op.bytes, tenant));
        break;
      case OpKind::kGet:
        if (op.fresh) Put(op.peers.at(0), op.id, op.bytes, tenant);
        done = ToUnit(engine_, op.id, Get(op.home, op));
        break;
      case OpKind::kBroadcast: {
        Put(op.home, op.id, op.bytes, tenant);
        std::vector<Ref<store::Buffer>> gets;
        gets.reserve(op.peers.size());
        for (const NodeID peer : op.peers) gets.push_back(Get(peer, op));
        done = AllOk(engine_, op.id, gets);
        break;
      }
      case OpKind::kReduce: {
        core::ReduceSpec spec;
        spec.target = op.id;
        spec.tenant = tenant;
        for (std::size_t k = 0; k < op.peers.size(); ++k) {
          const ObjectID source = op.id.WithIndex(static_cast<std::int64_t>(k) + 1);
          spec.sources.push_back(source);
          Put(op.peers[k], source, op.bytes, tenant);
        }
        Timed(calls_[3], [&] { return cluster_.client(op.home).Reduce(spec); });
        done = ToUnit(engine_, op.id, Get(op.home, op));
        break;
      }
    }
    MaybeGc(op, done);
    return done;
  }

  void InjectFault(NodeID node, bool kill) override {
    if (kill) {
      if (dead_.insert(node).second) cluster_.KillNode(node);
    } else if (dead_.erase(node) > 0) {
      cluster_.RecoverNode(node);
    }
  }

  [[nodiscard]] workload::StoreHighWater store_high_water() override {
    workload::StoreHighWater hw;
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

  [[nodiscard]] TracingEngine& engine() { return engine_; }
  [[nodiscard]] core::HopliteCluster& cluster() { return cluster_; }
  /// put, get, delete, reduce.
  [[nodiscard]] const std::array<CallStats, 4>& calls() const { return calls_; }
  [[nodiscard]] std::int64_t issue_lag_ns() const { return issue_lag_ns_; }

 private:
  [[nodiscard]] core::HopliteCluster::Options Options(const workload::ScenarioSpec& spec) {
    core::HopliteCluster::Options options;
    options.network.num_nodes = spec.num_nodes;
    options.network.fabric = spec.fabric;
    options.network.cache = spec.cache;
    options.network.qos = spec.qos;
    options.store_capacity_bytes = spec.store_capacity_bytes;
    options.engine = &engine_;
    return options;
  }

  Ref<ObjectID> Put(NodeID node, ObjectID id, std::int64_t bytes, qos::TenantId tenant) {
    return Timed(calls_[0], [&] {
      return cluster_.client(node).Put(id, store::Buffer::OfSize(bytes), tenant);
    });
  }

  Ref<store::Buffer> Get(NodeID node, const WorkloadOp& op) {
    const core::GetOptions options{.read_only = true, .timeout = op.get_timeout,
                                   .tenant = static_cast<qos::TenantId>(op.tenant)};
    return Timed(calls_[1], [&] { return cluster_.client(node).Get(op.id, options); });
  }

  [[nodiscard]] bool TouchesDeadNode(const WorkloadOp& op) const {
    if (dead_.empty()) return false;
    if (dead_.contains(op.home)) return true;
    return std::any_of(op.peers.begin(), op.peers.end(),
                       [this](NodeID peer) { return dead_.contains(peer); });
  }

  void MaybeGc(const WorkloadOp& op, const Ref<Unit>& done) {
    if (!op.fresh || !op.delete_after) return;
    const NodeID home = op.home;
    const ObjectID id = op.id;
    const auto sources =
        static_cast<std::int64_t>(op.kind == OpKind::kReduce ? op.peers.size() : 0);
    done.OnSettled([this, home, id, sources](const Ref<Unit>&) {
      if (!cluster_.IsAlive(home)) return;
      Timed(calls_[2], [&] { return cluster_.client(home).Delete(id); });
      for (std::int64_t k = 1; k <= sources; ++k) {
        Timed(calls_[2], [&] { return cluster_.client(home).Delete(id.WithIndex(k)); });
      }
    });
  }

  TracingEngine engine_;  // declared first: the cluster schedules into it
  core::HopliteCluster cluster_;
  det::Set<NodeID> dead_;
  std::array<CallStats, 4> calls_{};
  std::int64_t issue_lag_ns_ = 0;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
double Mib(double bytes) { return bytes / (1024.0 * 1024.0); }

}  // namespace

TracedRun RunTraced(const workload::WorkloadTrace& trace) {
  TracedBackend backend(trace.spec);
  TracingEngine& engine = backend.engine();
  core::HopliteCluster& cluster = backend.cluster();
  const auto* rack = dynamic_cast<const net::RackFabric*>(&cluster.network());
  std::size_t peak_wire_flows = 0;
  std::size_t peak_interests = 0;
  engine.set_after_event([&] {
    if (rack != nullptr) peak_wire_flows = std::max(peak_wire_flows, rack->wire_flows());
    peak_interests = std::max(peak_interests, cluster.directory().pending_interests());
  });

  TracedRun run;
  const std::int64_t start = WallNs();
  run.report = workload::RunTrace(trace, backend);
  run.replay_wall_s = static_cast<double>(WallNs() - start) * 1e-9;
  engine.set_after_event(nullptr);
  run.issue_lag_ns = backend.issue_lag_ns();

  std::uint64_t messages = 0;
  std::int64_t throttled = 0;
  for (NodeID n = 0; n < cluster.num_nodes(); ++n) {
    run.wire_bytes += cluster.network().TrafficOf(n).bytes_sent;
    messages += cluster.network().TrafficOf(n).messages_sent;
    throttled += cluster.client(n).throttled_ops();
  }
  const workload::StoreHighWater store = backend.store_high_water();
  const cache::InterestStats& interests = cluster.directory().interest_stats();
  const workload::TenantLoad& total = run.report.total;
  const auto events = static_cast<double>(engine.executed_events());
  const double event_wall_ns = static_cast<double>(engine.event_wall_ns());

  auto& m = run.layers;
  const auto layer = [&](std::string_view name) {
    return engine.stats(LayerIndex(name));
  };
  const auto wall_s = [](const TracingEngine::LayerStats& s) {
    return static_cast<double>(s.wall_ns) * 1e-9;
  };

  m.emplace_back("sim.events", events);
  m.emplace_back("sim.events_per_op", Ratio(events, static_cast<double>(total.offered)));
  m.emplace_back("sim.cancels", static_cast<double>(engine.cancels()));
  m.emplace_back("sim.peak_pending", static_cast<double>(engine.peak_pending()));
  // Loop time outside callbacks: heap upkeep plus the decorator's own cost.
  m.emplace_back("sim.event_ns",
                 Ratio(static_cast<double>(engine.loop_ns()) - event_wall_ns, events));

  const auto net = layer("net");
  m.emplace_back("net.wire_bytes", static_cast<double>(run.wire_bytes));
  m.emplace_back("net.messages", static_cast<double>(messages));
  m.emplace_back("net.events", static_cast<double>(net.events));
  m.emplace_back("net.event_wall_s", wall_s(net));
  m.emplace_back("net.event_us", Ratio(wall_s(net) * 1e6, static_cast<double>(net.events)));
  m.emplace_back("net.peak_wire_flows", static_cast<double>(peak_wire_flows));
  m.emplace_back("net.aqm_marks",
                 rack != nullptr ? static_cast<double>(rack->aqm_marks()) : 0.0);

  const auto dir = layer("directory");
  const auto attaches = static_cast<double>(interests.attaches);
  m.emplace_back("directory.ops_served",
                 static_cast<double>(cluster.directory().ops_served()));
  m.emplace_back("directory.events", static_cast<double>(dir.events));
  m.emplace_back("directory.event_wall_s", wall_s(dir));
  m.emplace_back("directory.coalesce_opened", static_cast<double>(interests.opened));
  m.emplace_back("directory.coalesce_attaches", attaches);
  // Attaches per fetching Get: the share of fetches that rode in-flight supply.
  m.emplace_back("directory.attach_ratio",
                 Ratio(attaches, static_cast<double>(store.misses)));
  m.emplace_back("directory.peak_pending_interests", static_cast<double>(peak_interests));

  const auto hits = static_cast<double>(store.hits);
  m.emplace_back("store.hits", hits);
  m.emplace_back("store.misses", static_cast<double>(store.misses));
  m.emplace_back("store.hit_ratio", Ratio(hits, hits + static_cast<double>(store.misses)));
  m.emplace_back("store.evictions", static_cast<double>(store.evictions));
  m.emplace_back("store.peak_used_mb", Mib(static_cast<double>(store.peak_used_bytes)));
  m.emplace_back("store.final_used_mb", Mib(static_cast<double>(store.final_used_bytes)));

  const auto core = layer("core");
  m.emplace_back("core.events", static_cast<double>(core.events));
  m.emplace_back("core.event_wall_s", wall_s(core));
  m.emplace_back("core.throttled_ops", static_cast<double>(throttled));
  constexpr std::array<std::string_view, 4> kCalls = {"put", "get", "delete", "reduce"};
  for (std::size_t c = 0; c < kCalls.size(); ++c) {
    const CallStats& s = backend.calls()[c];
    const std::string name = "core." + std::string(kCalls[c]);
    m.emplace_back(name + "_calls", static_cast<double>(s.calls));
    m.emplace_back(name + "_ns",
                   Ratio(static_cast<double>(s.wall_ns), static_cast<double>(s.calls)));
  }

  const auto issue = layer("workload");
  m.emplace_back("workload.offered", static_cast<double>(total.offered));
  m.emplace_back("workload.completed", static_cast<double>(total.completed));
  m.emplace_back("workload.failed", static_cast<double>(total.failed));
  m.emplace_back("workload.unsettled", static_cast<double>(total.unsettled));
  m.emplace_back("workload.fairness", run.report.fairness);
  m.emplace_back("workload.issue_lag_ns", static_cast<double>(run.issue_lag_ns));
  m.emplace_back("workload.issue_events", static_cast<double>(issue.events));
  m.emplace_back("workload.issue_wall_s", wall_s(issue));
  for (const workload::KindLoad& kind : run.report.kinds) {
    const std::string name = "workload." + std::string(workload::OpKindName(kind.kind));
    m.emplace_back(name + ".p50_ms", kind.latency.p50 * 1e3);
    m.emplace_back(name + ".p99_ms", kind.latency.p99 * 1e3);
  }
  m.emplace_back("trace.event_wall_s", event_wall_ns * 1e-9);
  return run;
}

}  // namespace hoplite::perf
