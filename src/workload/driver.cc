#include "workload/driver.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "common/logging.h"

namespace hoplite::workload {

LoadReport RunTrace(const WorkloadTrace& trace, WorkloadBackend& backend) {
  auto& sim = backend.simulator();
  HOPLITE_CHECK_EQ(sim.Now(), 0) << "RunTrace needs a fresh backend";
  const ScenarioSpec& spec = trace.spec;

  LoadReport report;
  report.scenario = spec.name;
  report.backend = backend.name();
  report.horizon = spec.horizon;

  // Fill the outcome table before attaching any continuation: the settle
  // observers capture &report.ops[i], which must never reallocate.
  report.ops.reserve(trace.ops.size());
  for (const WorkloadOp& op : trace.ops) {
    OpOutcome outcome;
    outcome.tenant = op.tenant;
    outcome.kind = op.kind;
    outcome.bytes = op.bytes;
    outcome.issued_at = op.at;
    report.ops.push_back(outcome);
  }

  // Open-loop ops issue at their pre-drawn arrival instants. Closed-loop
  // tenants instead form per-tenant chains: op k+1 goes out `think_gap`
  // after op k settled, so placeholder promises stand in for the
  // not-yet-issued ops and one completion barrier covers both regimes.
  std::vector<Ref<Unit>> completions;
  completions.reserve(trace.ops.size());
  std::vector<std::vector<std::size_t>> chains(spec.tenants.size());
  std::vector<std::optional<RefPromise<Unit>>> placeholders(trace.ops.size());
  for (std::size_t i = 0; i < trace.ops.size(); ++i) {
    const WorkloadOp& op = trace.ops[i];
    OpOutcome& outcome = report.ops[i];
    if (op.closed_loop) {
      chains[static_cast<std::size_t>(op.tenant)].push_back(i);
      placeholders[i].emplace(&sim, op.id);
      completions.push_back(placeholders[i]->ref());
      continue;
    }
    Ref<Unit> done =
        At(sim, op.at).Then([&backend, &op] { return backend.Issue(op); });
    done.OnSettled([&outcome, &sim](const Ref<Unit>& settled) {
      outcome.settled_at = sim.Now();
      outcome.ok = settled.ready();
      if (!outcome.ok) outcome.error = settled.error().code;
    });
    completions.push_back(std::move(done));
  }

  // The chain issuer + re-armer: shared handles so settle continuations can
  // re-enter them for the tenant's next op. Both closures are built at this
  // scope, so every by-reference capture is a RunTrace local that outlives
  // sim.Run().
  std::vector<std::size_t> chain_heads(spec.tenants.size(), 0);
  const auto issue_next = std::make_shared<std::function<void(std::size_t)>>();
  const auto arm_next = std::make_shared<std::function<void(std::size_t)>>();
  *arm_next = [&sim, &trace, &chains, &chain_heads, issue_next](std::size_t t) {
    // Think for the *next* op's drawn gap, then issue it.
    const std::size_t head = chain_heads[t];
    if (head >= chains[t].size()) return;
    const SimDuration think = trace.ops[chains[t][head]].think_gap;
    sim.ScheduleAfter(think, [issue_next, t] { (*issue_next)(t); });
  };
  *issue_next = [&, arm_next](std::size_t t) {
    std::size_t& head = chain_heads[t];
    if (head >= chains[t].size()) return;
    const std::size_t i = chains[t][head++];
    const WorkloadOp& op = trace.ops[i];
    OpOutcome* outcome = &report.ops[i];
    outcome->issued_at = sim.Now();  // actual issue instant, not the draw
    const RefPromise<Unit> promise = *placeholders[i];
    const Ref<Unit> done = backend.Issue(op);
    done.OnSettled([&sim, outcome, arm_next, t, promise](const Ref<Unit>& settled) {
      outcome->settled_at = sim.Now();
      outcome->ok = settled.ready();
      if (!outcome->ok) outcome->error = settled.error().code;
      if (settled.failed()) {
        promise.Reject(settled.error());
      } else {
        promise.Resolve(Unit{});
      }
      (*arm_next)(t);
    });
  };
  for (std::size_t t = 0; t < chains.size(); ++t) {
    if (chains[t].empty()) continue;
    // The first op of a chain issues at its drawn arrival (= its gap from 0).
    sim.ScheduleAt(trace.ops[chains[t][0]].at, [issue_next, t] { (*issue_next)(t); });
  }

  // The fault schedule fires independently of op traffic.
  for (const net::FaultEvent& fault : spec.faults) {
    sim.ScheduleAt(fault.at,
                   [&backend, fault] { backend.InjectFault(fault.node, fault.kill); });
  }

  // Error-tolerant completion barrier: a failed op records its outcome and
  // the driver keeps counting — WhenAll would reject wholesale instead.
  bool all_settled = false;
  WhenAllSettled(completions).Then(
      [&all_settled](const std::vector<Settled<Unit>>&) { all_settled = true; });

  sim.Run();

  // Break the issuer <-> armer shared_ptr cycle (each captures the other's
  // handle) so neither closure outlives the locals it references.
  *issue_next = nullptr;
  *arm_next = nullptr;

  report.all_settled = all_settled;
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
