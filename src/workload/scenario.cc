#include "workload/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <queue>
#include <utility>

#include "common/logging.h"

namespace hoplite::workload {

SimDuration ArrivalProcess::Next(Rng& rng) const {
  HOPLITE_CHECK_GT(rate_per_s, 0.0);
  const double mean_ns = 1e9 / rate_per_s;
  const double gap =
      kind == Kind::kPeriodic ? mean_ns : rng.NextExponential(mean_ns);
  return std::max<SimDuration>(1, static_cast<SimDuration>(gap + 0.5));
}

OpKind OpMix::Sample(Rng& rng) const {
  const double weights[kNumOpKinds] = {put, get, broadcast, reduce};
  double total = 0.0;
  for (const double w : weights) {
    HOPLITE_CHECK_GE(w, 0.0);
    total += w;
  }
  HOPLITE_CHECK_GT(total, 0.0) << "op mix has no positive weight";
  double pick = rng.NextDouble() * total;
  for (int k = 0; k < kNumOpKinds; ++k) {
    pick -= weights[k];
    if (pick < 0.0) return static_cast<OpKind>(k);
  }
  return OpKind::kReduce;  // rounding fell off the end
}

std::int64_t SizeDistribution::Sample(Rng& rng) const {
  if (!choices.empty()) {
    double total = 0.0;
    for (const Choice& c : choices) {
      HOPLITE_CHECK_GT(c.bytes, 0);
      HOPLITE_CHECK_GE(c.weight, 0.0);
      total += c.weight;
    }
    HOPLITE_CHECK_GT(total, 0.0) << "size distribution has no positive weight";
    double pick = rng.NextDouble() * total;
    for (const Choice& c : choices) {
      pick -= c.weight;
      if (pick < 0.0) return c.bytes;
    }
    return choices.back().bytes;
  }
  HOPLITE_CHECK_GT(log_lo, 0);
  HOPLITE_CHECK_GE(log_hi, log_lo);
  if (log_hi == log_lo) return log_lo;
  const double exp = rng.NextDoubleInRange(std::log2(static_cast<double>(log_lo)),
                                           std::log2(static_cast<double>(log_hi)));
  return std::clamp(static_cast<std::int64_t>(std::exp2(exp) + 0.5), log_lo, log_hi);
}

namespace {

/// Safety valve against runaway rate*horizon products.
constexpr std::size_t kMaxOpsPerTenant = 1u << 20;

/// Draws `count` distinct peers != home, in ascending node order (the
/// order is part of the trace, so keep it canonical).
std::vector<NodeID> DrawPeers(Rng& rng, int num_nodes, NodeID home, int count) {
  std::vector<NodeID> pool;
  pool.reserve(static_cast<std::size_t>(num_nodes) - 1);
  for (NodeID n = 0; n < num_nodes; ++n) {
    if (n != home) pool.push_back(n);
  }
  const auto want = std::min<std::size_t>(pool.size(), static_cast<std::size_t>(count));
  // Partial Fisher-Yates: the first `want` slots become the sample.
  for (std::size_t i = 0; i < want; ++i) {
    const auto j = i + static_cast<std::size_t>(rng.NextBounded(pool.size() - i));
    std::swap(pool[i], pool[j]);
  }
  const auto sample = pool.begin() + static_cast<std::ptrdiff_t>(want);
  std::sort(pool.begin(), sample);
  return {pool.begin(), sample};  // sized to the sample: the trace keeps it
}

}  // namespace

WorkloadTrace BuildTrace(const ScenarioSpec& spec) {
  HOPLITE_CHECK_GE(spec.num_nodes, 2) << "workloads need at least two nodes";
  HOPLITE_CHECK_GT(spec.horizon, 0);
  HOPLITE_CHECK(!spec.tenants.empty()) << "scenario " << spec.name << " has no tenants";

  WorkloadTrace trace;
  trace.spec = spec;

  Rng master(spec.seed);
  std::vector<std::vector<WorkloadOp>> per_tenant(spec.tenants.size());
  for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
    const TenantSpec& tenant = spec.tenants[t];
    // Every tenant draws from its own forked stream, so adding a tenant
    // never perturbs another tenant's arrivals.
    Rng rng = master.Fork();
    const ObjectID ns =
        ObjectID::FromName(spec.name).WithSuffix(tenant.name).WithIndex(
            static_cast<std::int64_t>(t));
    const int fanout = tenant.fanout > 0
                           ? std::min(tenant.fanout, spec.num_nodes - 1)
                           : spec.num_nodes - 1;
    // Indices (into per_tenant[t]) of ops whose object survives the op:
    // the reuse pool for re-reads.
    std::vector<std::size_t> reusable;

    // Zipf hot-set lowering: precomputed popularity CDF over the rank
    // universe, plus the per-rank size fixed at first touch (0 = untouched).
    std::vector<double> zipf_cdf;
    std::vector<std::int64_t> zipf_bytes;
    const ObjectID zipf_ns = ns.WithSuffix("zipf");
    if (tenant.zipf_hot_set > 0) {
      HOPLITE_CHECK(!tenant.delete_after)
          << "zipf_hot_set re-reads need delete_after = false (tenant "
          << tenant.name << ")";
      HOPLITE_CHECK_GT(tenant.zipf_alpha, 0.0);
      double total_weight = 0.0;
      zipf_cdf.reserve(static_cast<std::size_t>(tenant.zipf_hot_set));
      for (int r = 0; r < tenant.zipf_hot_set; ++r) {
        total_weight += 1.0 / std::pow(static_cast<double>(r + 1), tenant.zipf_alpha);
        zipf_cdf.push_back(total_weight);
      }
      zipf_bytes.assign(static_cast<std::size_t>(tenant.zipf_hot_set), 0);
    }

    // Reserve the expected arrival count plus six standard deviations of a
    // Poisson count: growth by doubling would leave up to half the list as
    // slack, and fresh heap that the next set-up faults in again.
    auto& ops = per_tenant[t];
    const double expected =
        std::max(0.0, tenant.arrivals.rate_per_s * ToSeconds(spec.horizon));
    ops.reserve(static_cast<std::size_t>(std::min(
        expected + 6.0 * std::sqrt(expected) + 64.0, static_cast<double>(kMaxOpsPerTenant))));
    SimTime at = 0;
    while (ops.size() < kMaxOpsPerTenant) {
      const SimDuration gap = tenant.arrivals.Next(rng);
      at += gap;
      if (at > spec.horizon) break;

      WorkloadOp op;
      op.tenant = static_cast<int>(t);
      op.at = at;
      // Closed loop: the same drawn gap becomes the think time, and the
      // cumulative `at` is only the op-count bound (zero-latency issue
      // instants). The draws themselves are identical either way, so
      // flipping closed_loop never perturbs sizes/kinds/placements.
      op.closed_loop = tenant.closed_loop;
      op.think_gap = gap;
      op.kind = tenant.mix.Sample(rng);
      op.bytes = tenant.sizes.Sample(rng);
      op.home = tenant.pinned_home != kInvalidNode
                    ? tenant.pinned_home
                    : static_cast<NodeID>(
                          rng.NextBounded(static_cast<std::uint64_t>(spec.num_nodes)));
      op.delete_after = tenant.delete_after;
      op.get_timeout = tenant.get_timeout;
      op.id = ns.WithIndex(static_cast<std::int64_t>(ops.size()));

      if (tenant.zipf_hot_set > 0 && op.kind == OpKind::kGet) {
        // Rank draw off the CDF; first touch fixes the rank's size and
        // produces the object on a peer, later touches re-read it.
        const double pick = rng.NextDouble() * zipf_cdf.back();
        const auto rank = std::min(
            static_cast<std::size_t>(
                std::upper_bound(zipf_cdf.begin(), zipf_cdf.end(), pick) -
                zipf_cdf.begin()),
            zipf_bytes.size() - 1);  // pick can round up to the CDF total
        op.id = zipf_ns.WithIndex(static_cast<std::int64_t>(rank));
        if (zipf_bytes[rank] > 0) {
          op.fresh = false;
          op.bytes = zipf_bytes[rank];
          op.peers.clear();
        } else {
          zipf_bytes[rank] = op.bytes;
          op.peers = DrawPeers(rng, spec.num_nodes, op.home, 1);
        }
        ops.push_back(std::move(op));
        continue;
      }

      const bool reuse = op.kind == OpKind::kGet && !tenant.delete_after &&
                         !reusable.empty() &&
                         rng.NextDouble() < tenant.reuse_fraction;
      if (reuse) {
        const WorkloadOp& earlier =
            ops[reusable[static_cast<std::size_t>(rng.NextBounded(reusable.size()))]];
        op.fresh = false;
        op.id = earlier.id;
        op.bytes = earlier.bytes;
        op.peers.clear();  // nothing to produce; fetch wherever it lives
      } else {
        switch (op.kind) {
          case OpKind::kPut:
            break;  // no peers
          case OpKind::kGet:
            op.peers = DrawPeers(rng, spec.num_nodes, op.home, 1);
            break;
          case OpKind::kBroadcast:
          case OpKind::kReduce:
            op.peers = DrawPeers(rng, spec.num_nodes, op.home, fanout);
            break;
        }
        // Reduce targets stay out of the pool: re-reading one is fine on
        // Hoplite but the Ray-like baseline only registers Put locations.
        if (!tenant.delete_after && op.kind != OpKind::kReduce) {
          reusable.push_back(ops.size());
        }
      }
      ops.push_back(std::move(op));
    }
  }

  // Arrival order, ties in tenant order: each tenant's `at` strictly
  // increases (every gap is >= 1 ns), so merging the lists by (at, tenant)
  // moves each op once into its final place.
  using Head = std::pair<SimTime, std::size_t>;
  std::priority_queue<Head, std::vector<Head>, std::greater<>> heads;
  std::vector<std::size_t> next(per_tenant.size(), 0);
  std::size_t total = 0;
  for (std::size_t t = 0; t < per_tenant.size(); ++t) {
    total += per_tenant[t].size();
    if (!per_tenant[t].empty()) heads.emplace(per_tenant[t].front().at, t);
  }
  trace.ops.reserve(total);
  while (!heads.empty()) {
    const std::size_t t = heads.top().second;
    heads.pop();
    trace.ops.push_back(std::move(per_tenant[t][next[t]]));
    if (++next[t] < per_tenant[t].size()) heads.emplace(per_tenant[t][next[t]].at, t);
  }
  return trace;
}

}  // namespace hoplite::workload
