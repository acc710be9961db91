#include "bench/perf/workloads.h"

#include <cmath>

#include "common/units.h"
#include "workload/scenarios.h"

namespace hoplite::perf {
namespace {

using workload::ArrivalProcess;
using workload::OpMix;
using workload::ScenarioSpec;
using workload::ScenarioTuning;
using workload::SizeDistribution;
using workload::TenantSpec;

SimDuration Scaled(SimDuration horizon, double scale) {
  return static_cast<SimDuration>(std::llround(static_cast<double>(horizon) * scale));
}

/// Not a registered scenario: the §5.1 collectives regime as a closed loop.
/// One tenant broadcasts, the other reduces, each to every other node; the
/// 60/40 size split keeps the median inside one latency mode, so it does not
/// jump between modes from seed to seed.
ScenarioSpec Collectives(std::uint64_t seed, double scale) {
  ScenarioSpec spec;
  spec.name = "collectives";
  spec.num_nodes = 16;
  spec.horizon = Scaled(Seconds(150), scale);
  spec.seed = seed;
  for (const auto& [name, mix] : {std::pair{"broadcast", OpMix{0.0, 0.0, 1.0, 0.0}},
                                  std::pair{"reduce", OpMix{0.0, 0.0, 0.0, 1.0}}}) {
    TenantSpec tenant;
    tenant.name = name;
    tenant.closed_loop = true;
    tenant.arrivals = {ArrivalProcess::Kind::kPeriodic, 100.0};  // 10 ms think
    tenant.mix = mix;
    tenant.sizes = SizeDistribution::Weighted({{MB(32), 0.6}, {MB(128), 0.4}});
    tenant.fanout = 0;
    spec.tenants.push_back(std::move(tenant));
  }
  return spec;
}

ScenarioSpec HotReads(std::uint64_t seed, double scale) {
  ScenarioTuning tuning;
  tuning.num_nodes = 64;
  tuning.load_scale = 8.0;
  tuning.horizon = Scaled(Seconds(30), scale);
  tuning.seed = seed;
  ScenarioSpec spec = workload::BuildScenario("zipf-serving", tuning);
  spec.name = "hot-reads";
  spec.cache.policy = cache::EvictionPolicyKind::kTwoQ;
  spec.cache.coalescing = true;
  spec.store_capacity_bytes = MB(16);
  return spec;
}

ScenarioSpec HotUplink(std::uint64_t seed, double scale) {
  ScenarioTuning tuning;
  tuning.num_nodes = 8;
  tuning.load_scale = 2.0;
  tuning.horizon = Scaled(Seconds(10), scale);
  tuning.seed = seed;
  ScenarioSpec spec = workload::BuildScenario("misbehaving-tenant", tuning);
  spec.name = "hot-uplink";
  return spec;  // the scenario leaves every QoS mechanism off
}

/// memory-pressure plus a rolling fault schedule: kill k takes node
/// 1 + (7k mod 63) down at 2 + 5k s and brings it back 1 s later.
ScenarioSpec Churn(std::uint64_t seed, double scale) {
  ScenarioTuning tuning;
  tuning.num_nodes = 64;
  tuning.load_scale = 16.0;
  tuning.horizon = Scaled(Seconds(40), scale);
  tuning.seed = seed;
  ScenarioSpec spec = workload::BuildScenario("memory-pressure", tuning);
  spec.name = "churn";
  spec.store_capacity_bytes = MB(48);
  for (TenantSpec& tenant : spec.tenants) tenant.get_timeout = Milliseconds(200);
  for (int k = 0;; ++k) {
    const SimTime kill_at = Seconds(2 + 5 * k);
    if (kill_at >= spec.horizon) break;
    const auto node = static_cast<NodeID>(1 + (7 * k) % 63);
    spec.faults.push_back({kill_at, node, true});
    spec.faults.push_back({kill_at + Seconds(1), node, false});
  }
  return spec;
}

}  // namespace

bool BuildWorkload(const std::string& name, std::uint64_t seed, double horizon_scale,
                   workload::ScenarioSpec* spec) {
  if (name == "collectives") {
    *spec = Collectives(seed, horizon_scale);
  } else if (name == "hot-reads") {
    *spec = HotReads(seed, horizon_scale);
  } else if (name == "hot-uplink") {
    *spec = HotUplink(seed, horizon_scale);
  } else if (name == "churn") {
    *spec = Churn(seed, horizon_scale);
  } else {
    return false;
  }
  return true;
}

}  // namespace hoplite::perf
