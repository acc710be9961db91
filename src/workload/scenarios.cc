#include "workload/scenarios.h"

#include <algorithm>
#include <utility>

#include "apps/serving.h"
#include "common/logging.h"

namespace hoplite::workload {

ScenarioRegistry& ScenarioRegistry::Instance() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::Register(NamedScenario scenario) {
  HOPLITE_CHECK(scenario.build != nullptr) << scenario.name;
  HOPLITE_CHECK(Find(scenario.name) == nullptr)
      << "duplicate scenario name: " << scenario.name;
  scenarios_.push_back(std::move(scenario));
}

const NamedScenario* ScenarioRegistry::Find(const std::string& name) const {
  for (const NamedScenario& scenario : scenarios_) {
    if (scenario.name == name) return &scenario;
  }
  return nullptr;
}

ScenarioRegistrar::ScenarioRegistrar(const char* name, const char* description,
                                     ScenarioBuilder build) {
  ScenarioRegistry::Instance().Register(NamedScenario{name, description, build});
}

ScenarioSpec BuildScenario(const std::string& name, const ScenarioTuning& tuning) {
  const NamedScenario* scenario = ScenarioRegistry::Instance().Find(name);
  HOPLITE_CHECK(scenario != nullptr) << "unknown scenario: " << name;
  return scenario->build(tuning);
}

// ----------------------------------------------------------------------
// Canonical scenarios.
// ----------------------------------------------------------------------

namespace {

/// Applies the tuning's object-size cap to a distribution.
SizeDistribution Capped(SizeDistribution sizes, std::int64_t cap) {
  if (cap <= 0) return sizes;
  for (auto& choice : sizes.choices) choice.bytes = std::min(choice.bytes, cap);
  sizes.log_lo = std::min(sizes.log_lo, cap);
  sizes.log_hi = std::min(sizes.log_hi, cap);
  return sizes;
}

/// The §5.4 serving loop, open-loop: the frontend (node 0) broadcasts one
/// 64-image query batch per arrival to every replica, and a second tenant
/// carries the replicas' small votes back to the frontend. The closed-loop
/// app (src/apps/serving.cc) issues the next query only when the previous
/// one finished; here arrivals keep coming, which is what exposes the
/// latency-vs-load curve of a real frontend.
ScenarioSpec BuildServing(const ScenarioTuning& tuning) {
  ScenarioSpec spec;
  spec.name = "serving";
  spec.num_nodes = std::max(2, tuning.num_nodes);
  spec.horizon = tuning.horizon;
  spec.seed = tuning.seed;

  const double qps = 8.0 * tuning.load_scale;
  TenantSpec queries;
  queries.name = "queries";
  queries.arrivals = {ArrivalProcess::Kind::kPoisson, qps};
  queries.mix = OpMix{0.0, 0.0, 1.0, 0.0};
  // Exactly the app's 64-image query batch (apps/serving.h).
  queries.sizes = Capped(SizeDistribution::Fixed(apps::kServingQueryBatchBytes),
                         tuning.max_object_bytes);
  queries.fanout = 0;  // every replica
  queries.pinned_home = 0;
  spec.tenants.push_back(std::move(queries));

  TenantSpec votes;
  votes.name = "votes";
  // One vote per replica per query, fetched by the frontend.
  votes.arrivals = {ArrivalProcess::Kind::kPoisson,
                    qps * static_cast<double>(spec.num_nodes - 1)};
  votes.mix = OpMix{0.0, 1.0, 0.0, 0.0};
  votes.sizes = Capped(SizeDistribution::Fixed(KB(1)), tuning.max_object_bytes);
  votes.pinned_home = 0;
  spec.tenants.push_back(std::move(votes));
  return spec;
}

/// Symmetric tenants over the full op mix and the Fig. 6 / Fig. 14 size
/// band (1 KB inline objects through multi-MB broadcast payloads). The
/// aggregate offered load is 120 ops/s * load_scale, split evenly, so the
/// tenant count is a pure fairness axis.
ScenarioSpec BuildMixed(const ScenarioTuning& tuning) {
  ScenarioSpec spec;
  spec.name = "mixed";
  spec.num_nodes = std::max(2, tuning.num_nodes);
  spec.horizon = tuning.horizon;
  spec.seed = tuning.seed;
  const int tenants = tuning.num_tenants > 0 ? tuning.num_tenants : 4;
  const double aggregate = 120.0 * tuning.load_scale;
  for (int t = 0; t < tenants; ++t) {
    TenantSpec tenant;
    tenant.name = "tenant-" + std::to_string(t);
    tenant.arrivals = {ArrivalProcess::Kind::kPoisson,
                       aggregate / static_cast<double>(tenants)};
    tenant.mix = OpMix{0.30, 0.40, 0.20, 0.10};
    tenant.sizes = Capped(
        SizeDistribution::Weighted({{KB(1), 0.55}, {KB(32), 0.25}, {MB(1), 0.15},
                                    {MB(16), 0.05}}),
        tuning.max_object_bytes);
    tenant.fanout = 3;
    spec.tenants.push_back(std::move(tenant));
  }
  return spec;
}

/// No garbage collection, hot re-reads, small stores: primaries accumulate
/// until replicas must be LRU-evicted, and re-reads of evicted replicas
/// land on stale directory locations — the regime that finally drives
/// `ClusterConfig::store_capacity_bytes` and the client's
/// evicted-since-granted retry path under load. Callers sweep
/// `store_capacity_bytes` (default 48 MB per node).
ScenarioSpec BuildMemoryPressure(const ScenarioTuning& tuning) {
  ScenarioSpec spec;
  spec.name = "memory-pressure";
  spec.num_nodes = std::max(2, tuning.num_nodes);
  spec.horizon = tuning.horizon;
  spec.seed = tuning.seed;
  spec.store_capacity_bytes = MB(48);

  TenantSpec churn;
  churn.name = "churn";
  churn.arrivals = {ArrivalProcess::Kind::kPoisson, 90.0 * tuning.load_scale};
  churn.mix = OpMix{0.45, 0.30, 0.25, 0.0};
  churn.sizes = Capped(
      SizeDistribution::Weighted({{KB(256), 0.5}, {MB(1), 0.4}, {MB(4), 0.1}}),
      tuning.max_object_bytes);
  churn.fanout = 2;
  churn.delete_after = false;
  churn.reuse_fraction = 0.6;
  spec.tenants.push_back(std::move(churn));

  TenantSpec scan;
  scan.name = "scan";
  scan.arrivals = {ArrivalProcess::Kind::kPoisson, 40.0 * tuning.load_scale};
  scan.mix = OpMix{0.0, 1.0, 0.0, 0.0};
  scan.sizes = Capped(SizeDistribution::Fixed(MB(1)), tuning.max_object_bytes);
  scan.delete_after = false;
  scan.reuse_fraction = 0.8;
  spec.tenants.push_back(std::move(scan));
  return spec;
}

/// Skewed hot-object reads: one tenant streams Zipf-popular Gets over a
/// fixed object universe (first touch produces, later touches re-read).
/// Popular ranks accumulate replicas under read_only Gets while the cold
/// tail streams one-touch replicas past them — the regime where recency-only
/// eviction throws hot replicas away and scan-resistant policies (2Q,
/// segmented LRU) keep them, and where concurrent Gets for the same hot
/// object are exactly what request coalescing aggregates. Callers sweep
/// `store_capacity_bytes` and `cache` (policy / coalescing); the default
/// store is unlimited.
ScenarioSpec BuildZipfServing(const ScenarioTuning& tuning) {
  ScenarioSpec spec;
  spec.name = "zipf-serving";
  spec.num_nodes = std::max(2, tuning.num_nodes);
  spec.horizon = tuning.horizon;
  spec.seed = tuning.seed;

  TenantSpec readers;
  readers.name = "readers";
  readers.arrivals = {ArrivalProcess::Kind::kPoisson, 400.0 * tuning.load_scale};
  readers.mix = OpMix{0.0, 1.0, 0.0, 0.0};
  // Non-inline payloads so every copy lives in a store and eviction policy
  // decides which replicas survive.
  readers.sizes = Capped(
      SizeDistribution::Weighted({{KB(128), 0.7}, {KB(256), 0.3}}),
      tuning.max_object_bytes);
  readers.delete_after = false;
  readers.zipf_hot_set = 256;
  readers.zipf_alpha = 1.1;
  spec.tenants.push_back(std::move(readers));

  // One-touch scan traffic: every Get is a fresh object read exactly once
  // and never again — and, like the no-GC regime of §4, never deleted, so
  // the dead scans linger until the replacement policy reclaims them. Under
  // plain LRU each scan sits at the MRU end while a zipf-hot replica ages
  // to the tail and is evicted; 2Q parks scans in its probationary FIFO and
  // segmented LRU keeps them in probation, so both reclaim the scans and
  // spare the hot head. This is the workload axis the policy comparison
  // turns on.
  TenantSpec scanners;
  scanners.name = "scanners";
  scanners.arrivals = {ArrivalProcess::Kind::kPoisson, 150.0 * tuning.load_scale};
  scanners.mix = OpMix{0.0, 1.0, 0.0, 0.0};
  scanners.sizes = Capped(SizeDistribution::Fixed(KB(256)), tuning.max_object_bytes);
  scanners.delete_after = false;
  spec.tenants.push_back(std::move(scanners));
  return spec;
}

/// The QoS adversarial regime: two racks behind a 4:1-oversubscribed ToR
/// uplink, one open-loop aggressor in rack 0 blasting cluster-wide
/// broadcasts across it, and closed-loop interactive victims in rack 1
/// whose small cross-rack Gets share the same bottleneck. `load_scale` is
/// the aggression axis: past ~1 the aggressor is open-loop unstable, its
/// in-flight cross-uplink flows pile up, and per-flow max-min hands it
/// nearly the whole uplink — the victims' Gets crawl and start missing
/// their timeout. Callers flip `spec.qos` mechanisms (WFQ / AQM /
/// admission) to claw that back; tenant 0 is the aggressor, so weights and
/// fairness reports line up by index.
ScenarioSpec BuildMisbehavingTenant(const ScenarioTuning& tuning) {
  ScenarioSpec spec;
  spec.name = "misbehaving-tenant";
  spec.num_nodes = std::max(8, tuning.num_nodes);
  spec.horizon = tuning.horizon;
  spec.seed = tuning.seed;
  spec.fabric.topology = net::TopologyKind::kRack;
  spec.fabric.num_racks = 2;
  spec.fabric.oversubscription = 16.0;

  // Open loop and deadline-free: arrivals keep coming whether or not
  // earlier broadcasts finished (every arrival adds cross-uplink flows,
  // fanout 0 = every node so the tree must cross the core), and a bulk
  // replicator does not time its transfers out — it just hogs. Its
  // completion share therefore stays 1.0 under every mechanism; unfairness
  // shows up entirely as victim damage, which is what Jain should see.
  TenantSpec aggressor;
  aggressor.name = "aggressor";
  aggressor.arrivals = {ArrivalProcess::Kind::kPoisson, 96.0 * tuning.load_scale};
  aggressor.mix = OpMix{0.0, 0.0, 1.0, 0.0};
  aggressor.sizes = Capped(SizeDistribution::Fixed(MB(2)), tuning.max_object_bytes);
  aggressor.fanout = 0;
  aggressor.pinned_home = 0;
  spec.tenants.push_back(std::move(aggressor));

  // Interactive victims: closed loop (a real frontend waits for the reply
  // before the next request), pinned in rack 1 so the producer draw makes
  // roughly half their 1 MB Gets cross the contended uplink. The tight
  // timeout is the SLO: it sits above the WFQ worst case (a 1/4 tenant
  // share of the uplink) but far below what per-flow sharing against a
  // backlogged aggressor delivers — so a starved victim shows up as failed
  // ops (a falling completion share), not just tail latency.
  const int victims = tuning.num_tenants > 1 ? tuning.num_tenants - 1 : 3;
  const NodeID rack1_first = static_cast<NodeID>(spec.num_nodes / 2);
  const NodeID rack1_size = static_cast<NodeID>(spec.num_nodes) - rack1_first;
  for (int v = 0; v < victims; ++v) {
    TenantSpec victim;
    victim.name = "victim-" + std::to_string(v);
    victim.closed_loop = true;
    victim.arrivals = {ArrivalProcess::Kind::kPoisson, 120.0};
    victim.mix = OpMix{0.0, 1.0, 0.0, 0.0};
    victim.sizes = Capped(SizeDistribution::Fixed(MB(1)), tuning.max_object_bytes);
    victim.get_timeout = Milliseconds(11);
    victim.pinned_home = rack1_first + static_cast<NodeID>(v) % rack1_size;
    spec.tenants.push_back(std::move(victim));
  }

  // QoS tuning the benches flip on: the sojourn target sits above the WFQ
  // worst-case victim sojourn (so AQM only ever marks the backlogged
  // aggressor queue), and the per-tenant pacing rate pins the aggressor
  // near its entitled uplink share while victims keep the generous
  // default. Flags stay off here — each figure cell arms its own stack.
  spec.qos.tenant_weights.assign(spec.tenants.size(), 1.0);
  spec.qos.aqm_tuning.sojourn_target = Milliseconds(15);
  spec.qos.aqm_tuning.interval = Milliseconds(8);
  spec.qos.admission_tuning.ops_per_s = 10000.0;
  spec.qos.admission_tuning.burst_ops = 1.0;
  spec.qos.admission_tuning.max_outstanding_ops = 4096;
  spec.qos.admission_tuning.per_tenant_ops_per_s.assign(spec.tenants.size(), 0.0);
  spec.qos.admission_tuning.per_tenant_ops_per_s[0] = 6.0;
  return spec;
}

}  // namespace

HOPLITE_REGISTER_SCENARIO(serving, "serving",
                          "the §5.4 serving request loop, open-loop "
                          "(frontend query broadcasts + vote collection)",
                          BuildServing);
HOPLITE_REGISTER_SCENARIO(mixed, "mixed",
                          "symmetric multi-tenant mix over Put/Get/broadcast/"
                          "Reduce, 1 KB - 16 MB objects",
                          BuildMixed);
HOPLITE_REGISTER_SCENARIO(memory_pressure, "memory-pressure",
                          "no-GC churn + hot re-reads against small stores "
                          "(eviction and stale-location retries under load)",
                          BuildMemoryPressure);
HOPLITE_REGISTER_SCENARIO(zipf_serving, "zipf-serving",
                          "Zipf-popular reads over a fixed hot set "
                          "(eviction-policy quality and request coalescing)",
                          BuildZipfServing);
HOPLITE_REGISTER_SCENARIO(misbehaving_tenant, "misbehaving-tenant",
                          "open-loop aggressor vs closed-loop victims across "
                          "an oversubscribed ToR uplink (the QoS regime)",
                          BuildMisbehavingTenant);

}  // namespace hoplite::workload
