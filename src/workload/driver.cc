#include "workload/driver.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"

namespace hoplite::workload {

namespace {

/// One replay in flight: the state its events and settle observers share.
// hoplite-sa: owner(Replay) -- lives on RunTrace's stack, and RunTrace drains
// the engine with Run() before it returns.
class Replay {
 public:
  Replay(WorkloadBackend& backend, const WorkloadTrace& trace,
         std::vector<OpOutcome>& outcomes)
      : sim_(backend.simulator()),
        backend_(backend),
        ops_(trace.ops),
        outcomes_(outcomes),
        chains_(trace.spec.tenants.size()) {}
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  /// Open-loop ops issue at their pre-drawn arrival instants, one event
  /// each, scheduled in trace order. Closed-loop tenants instead form
  /// per-tenant chains: op k+1 goes out `think_gap` after op k settled, so
  /// only each chain's first op is scheduled here, in tenant order.
  void ScheduleArrivals() {
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const WorkloadOp& op = ops_[i];
      if (op.closed_loop) {
        chains_[static_cast<std::size_t>(op.tenant)].ops.push_back(i);
      } else {
        sim_.ScheduleAt(op.at, [this, i] { Arrive(i); });
      }
    }
    for (Chain& chain : chains_) {
      if (chain.ops.empty()) continue;
      // The first op of a chain issues at its drawn arrival (= its gap from 0).
      sim_.ScheduleAt(ops_[chain.ops[0]].at, [this, &chain] { IssueChain(chain); });
    }
  }

 private:
  /// A closed-loop tenant's ops as trace indices, in order, and the next
  /// one to issue.
  struct Chain {
    std::vector<std::size_t> ops;
    std::size_t next = 0;
  };

  /// The observer is attached once Issue returned, so it runs after the
  /// backend's own (its GC).
  void Arrive(std::size_t i) {
    backend_.Issue(ops_[i]).OnSettled([this, i](const Ref<Unit>& done) { Record(i, done); });
  }

  void IssueChain(Chain& chain) {
    const std::size_t i = chain.ops[chain.next++];
    outcomes_[i].issued_at = sim_.Now();  // actual issue instant, not the draw
    backend_.Issue(ops_[i]).OnSettled([this, i, &chain](const Ref<Unit>& done) {
      Record(i, done);
      if (chain.next == chain.ops.size()) return;
      // Think for the next op's drawn gap, then issue it.
      sim_.ScheduleAfter(ops_[chain.ops[chain.next]].think_gap,
                         [this, &chain] { IssueChain(chain); });
    });
  }

  void Record(std::size_t i, const Ref<Unit>& done) {
    OpOutcome& outcome = outcomes_[i];
    outcome.settled_at = sim_.Now();
    outcome.ok = done.ready();
    if (!outcome.ok) outcome.error = done.error().code;
  }

  sim::Engine& sim_;
  WorkloadBackend& backend_;
  const std::vector<WorkloadOp>& ops_;
  std::vector<OpOutcome>& outcomes_;
  std::vector<Chain> chains_;  ///< by tenant
};

}  // namespace

LoadReport RunTrace(const WorkloadTrace& trace, WorkloadBackend& backend) {
  auto& sim = backend.simulator();
  HOPLITE_CHECK_EQ(sim.Now(), 0) << "RunTrace needs a fresh backend";
  const ScenarioSpec& spec = trace.spec;

  LoadReport report;
  report.scenario = spec.name;
  report.backend = backend.name();
  report.horizon = spec.horizon;

  report.ops.reserve(trace.ops.size());
  for (const WorkloadOp& op : trace.ops) {
    OpOutcome outcome;
    outcome.tenant = op.tenant;
    outcome.kind = op.kind;
    outcome.bytes = op.bytes;
    outcome.issued_at = op.at;
    report.ops.push_back(outcome);
  }

  Replay replay(backend, trace, report.ops);
  replay.ScheduleArrivals();

  // The fault schedule fires independently of op traffic.
  for (const net::FaultEvent& fault : spec.faults) {
    sim.ScheduleAt(fault.at,
                   [&backend, fault] { backend.InjectFault(fault.node, fault.kill); });
  }

  sim.Run();

  report.store = backend.store_high_water();

  // ------------------------------------------------------------------
  // Aggregation.
  // ------------------------------------------------------------------
  const double horizon_s = ToSeconds(spec.horizon);
  report.end_time = 0;
  std::vector<std::vector<double>> tenant_latencies(spec.tenants.size());
  std::vector<double> all_latencies;
  std::vector<std::vector<double>> kind_latencies(kNumOpKinds);

  report.tenants.resize(spec.tenants.size());
  for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
    report.tenants[t].name = spec.tenants[t].name;
  }
  report.total.name = "total";

  for (const OpOutcome& outcome : report.ops) {
    TenantLoad& tenant = report.tenants[static_cast<std::size_t>(outcome.tenant)];
    ++tenant.offered;
    ++report.total.offered;
    if (!outcome.settled()) {
      ++tenant.unsettled;
      ++report.total.unsettled;
      continue;
    }
    report.end_time = std::max(report.end_time, outcome.settled_at);
    if (!outcome.ok) {
      ++tenant.failed;
      ++report.total.failed;
      continue;
    }
    ++tenant.completed;
    ++report.total.completed;
    const double latency = outcome.latency_s();
    tenant_latencies[static_cast<std::size_t>(outcome.tenant)].push_back(latency);
    all_latencies.push_back(latency);
    kind_latencies[static_cast<int>(outcome.kind)].push_back(latency);
  }

  // Rate denominators: offered load is defined over the horizon; achieved
  // throughput over the full (drained) run.
  const double run_s = std::max(horizon_s, ToSeconds(report.end_time));
  std::vector<double> shares;
  for (std::size_t t = 0; t < report.tenants.size(); ++t) {
    TenantLoad& tenant = report.tenants[t];
    tenant.offered_ops_per_s = static_cast<double>(tenant.offered) / horizon_s;
    tenant.completed_ops_per_s = static_cast<double>(tenant.completed) / run_s;
    tenant.latency = Summarize(std::move(tenant_latencies[t]));
    if (tenant.offered > 0) {
      shares.push_back(static_cast<double>(tenant.completed) /
                       static_cast<double>(tenant.offered));
    }
  }
  report.total.offered_ops_per_s = static_cast<double>(report.total.offered) / horizon_s;
  report.total.completed_ops_per_s = static_cast<double>(report.total.completed) / run_s;
  report.total.latency = Summarize(std::move(all_latencies));
  report.fairness = JainFairnessIndex(shares);

  for (int k = 0; k < kNumOpKinds; ++k) {
    if (kind_latencies[k].empty()) continue;
    KindLoad kind;
    kind.kind = static_cast<OpKind>(k);
    kind.completed = kind_latencies[k].size();
    kind.latency = Summarize(std::move(kind_latencies[k]));
    report.kinds.push_back(std::move(kind));
  }
  return report;
}

LoadReport RunScenario(const ScenarioSpec& spec, BackendKind kind) {
  const WorkloadTrace trace = BuildTrace(spec);
  const std::unique_ptr<WorkloadBackend> backend = MakeBackend(kind, spec);
  return RunTrace(trace, *backend);
}

}  // namespace hoplite::workload
