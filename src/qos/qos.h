// Per-tenant quality-of-service: the configuration surface.
//
// `QosConfig` travels inside `net::ClusterConfig` so one knob block arms the
// three enforcement layers end to end: the fabric's weighted fair-queuing
// mode (contended links divide capacity max-min across *tenants* first, per
// `tenant_weights`, then across each tenant's flows), the flow-queuing AQM
// at oversubscribed ToR uplinks (per-tenant virtual queues with CoDel-style
// sojourn control mapped onto transfer pause/re-rate events plus an
// ECN-like backpressure signal to the sending client), and the client-side
// admission control (per-tenant token-bucket pacing + outstanding-op caps,
// `kThrottled`/retry-after through the Ref failure machinery).
//
// Everything defaults OFF: with `wfq == aqm == admission == false` the
// cluster is byte-identical to the pre-QoS system even when transfers carry
// tenant tags — tags then only feed the per-tenant traffic counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.h"

namespace hoplite::qos {

/// Index of a tenant within one cluster's workload, dense in [0, n).
/// Transfers and ops that predate (or opt out of) tenancy carry kNoTenant;
/// under WFQ those flows form one implicit weight-1.0 tenant of their own.
using TenantId = std::int32_t;

inline constexpr TenantId kNoTenant = -1;

/// Flow-queuing AQM knobs (CoDel lineage: sojourn target + initial
/// interval, with the mark cadence tightening as interval/sqrt(marks)).
// hoplite-sa: value-type(AqmConfig) -- knob block embedded in QosConfig and
// copied by value into every consumer.
struct AqmConfig {
  /// A per-tenant virtual queue whose estimated sojourn (backlog bytes over
  /// allocated rate) stays above this for a full interval gets marked.
  SimDuration sojourn_target = Milliseconds(5);
  /// First above-target observation arms a check this far out; successive
  /// marks tighten the cadence CoDel-style.
  SimDuration interval = Milliseconds(100);
};

/// Client-side admission knobs. Rates are per tenant per client node.
// hoplite-sa: value-type(AdmissionConfig) -- knob block embedded in
// QosConfig and copied by value into every consumer.
struct AdmissionConfig {
  /// Token-bucket refill rate: ops a tenant may issue per second (pacing —
  /// ops over the rate are delayed, not failed).
  double ops_per_s = 200.0;
  /// Per-tenant overrides of `ops_per_s`, indexed by TenantId like
  /// QosConfig::tenant_weights. A missing or non-positive entry falls back
  /// to `ops_per_s` — so an operator can pin just a runaway tenant to its
  /// entitled rate while interactive tenants keep a generous default.
  std::vector<double> per_tenant_ops_per_s;
  /// Bucket depth in ops: the burst a tenant may issue unpaced.
  double burst_ops = 16.0;
  /// Outstanding-op cap: ops beyond this reject with kThrottled and a
  /// retry-after hint instead of queueing without bound (policing).
  int max_outstanding_ops = 64;

  /// The pacing rate admission applies to `tenant`.
  [[nodiscard]] double RateFor(TenantId tenant) const noexcept {
    const auto i = static_cast<std::size_t>(tenant);
    if (tenant >= 0 && i < per_tenant_ops_per_s.size() &&
        per_tenant_ops_per_s[i] > 0.0) {
      return per_tenant_ops_per_s[i];
    }
    return ops_per_s;
  }
};

/// Cluster-wide QoS behavior. A plain value copied into every layer's
/// config; defaults reproduce the pre-QoS behavior bit for bit.
// hoplite-sa: value-type(QosConfig) -- knob block embedded in
// net::ClusterConfig and copied by value into every consumer.
struct QosConfig {
  /// Weighted tenant-first fair queuing at every contended fabric link.
  bool wfq = false;
  /// Flow-queuing AQM at ToR uplinks (pause/re-rate + backpressure).
  bool aqm = false;
  /// Client-side token-bucket pacing + outstanding-op caps.
  bool admission = false;
  /// Relative weight per TenantId (index == tenant). Missing or
  /// non-positive entries mean 1.0, so the empty default is equal-weight.
  std::vector<double> tenant_weights;
  AqmConfig aqm_tuning;
  AdmissionConfig admission_tuning;

  [[nodiscard]] bool enabled() const noexcept { return wfq || aqm || admission; }

  [[nodiscard]] double WeightOf(TenantId tenant) const noexcept {
    if (tenant < 0 || static_cast<std::size_t>(tenant) >= tenant_weights.size()) {
      return 1.0;
    }
    const double weight = tenant_weights[static_cast<std::size_t>(tenant)];
    return weight > 0.0 ? weight : 1.0;
  }
};

}  // namespace hoplite::qos
