// Scenario vocabulary of the open-loop workload engine (hoplite::workload).
//
// A `ScenarioSpec` describes a multi-tenant workload the way §5's
// experiments describe theirs: every tenant has an arrival process (open
// loop — arrivals keep coming whether or not earlier requests finished, the
// regime where latency distributions and fairness actually emerge), an
// operation mix over the Table 1 surface (Put / point-to-point Get /
// broadcast / Reduce), and an object-size distribution spanning the
// paper's Figure 6 / Figure 14 range (1 KB inline objects up to the 1 GB
// band).
//
// `BuildTrace` lowers a spec into a concrete `WorkloadTrace`: every arrival
// instant, op kind, size, and placement is drawn from `common/rng.h` ahead
// of simulation, so (a) a trace is bit-reproducible from its seed and (b)
// two backends replaying the same trace face *exactly* the same offered
// load — the matched-load comparison the load_sweep figure plots.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_config.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/units.h"
#include "net/fabric.h"
#include "qos/qos.h"

namespace hoplite::workload {

/// The Table 1 surface as workload primitives. Every op is self-contained
/// (it produces the objects it consumes), so an open-loop trace has no
/// cross-op data dependencies and requests can overlap arbitrarily.
enum class OpKind {
  kPut,        ///< store an object on the issuing node
  kGet,        ///< point-to-point transfer: produce on a peer, fetch at home
  kBroadcast,  ///< produce at home, fetch on every peer (dynamic tree)
  kReduce,     ///< produce on every peer, reduce at home, read the result
};
inline constexpr int kNumOpKinds = 4;

[[nodiscard]] constexpr const char* OpKindName(OpKind kind) noexcept {
  switch (kind) {
    case OpKind::kPut: return "put";
    case OpKind::kGet: return "get";
    case OpKind::kBroadcast: return "broadcast";
    case OpKind::kReduce: return "reduce";
  }
  return "?";
}

/// When the next request of a tenant arrives. Open loop: the gap depends
/// only on the process, never on completions.
struct ArrivalProcess {
  enum class Kind {
    kPoisson,   ///< exponential inter-arrival gaps (serving traffic)
    kPeriodic,  ///< fixed gaps (training-style clocked issue)
  };
  Kind kind = Kind::kPoisson;
  double rate_per_s = 100.0;

  /// Draws the gap to the next arrival (>= 1 ns so time always advances).
  [[nodiscard]] SimDuration Next(Rng& rng) const;
};

/// Relative weights of the op kinds in a tenant's traffic.
struct OpMix {
  double put = 1.0;
  double get = 0.0;
  double broadcast = 0.0;
  double reduce = 0.0;

  [[nodiscard]] OpKind Sample(Rng& rng) const;
};

/// Object sizes: a weighted choice over fixed points (bimodal serving
/// payloads), or a log-uniform band (the Fig. 6 sweep regime) when no
/// choices are given.
struct SizeDistribution {
  struct Choice {
    std::int64_t bytes = 1024;
    double weight = 1.0;
  };
  std::vector<Choice> choices;
  std::int64_t log_lo = KB(1);
  std::int64_t log_hi = KB(1);

  [[nodiscard]] std::int64_t Sample(Rng& rng) const;

  [[nodiscard]] static SizeDistribution Fixed(std::int64_t bytes) {
    return SizeDistribution{{Choice{bytes, 1.0}}, 0, 0};
  }
  [[nodiscard]] static SizeDistribution Weighted(std::vector<Choice> choices) {
    return SizeDistribution{std::move(choices), 0, 0};
  }
  [[nodiscard]] static SizeDistribution LogUniform(std::int64_t lo, std::int64_t hi) {
    return SizeDistribution{{}, lo, hi};
  }
};

/// One tenant of a scenario.
struct TenantSpec {
  std::string name = "tenant";
  ArrivalProcess arrivals;
  OpMix mix;
  SizeDistribution sizes = SizeDistribution::Fixed(KB(1));
  /// Peers per broadcast (receivers) / reduce (source hosts); <= 0 means
  /// every other node.
  int fanout = 3;
  /// Fraction of kGet arrivals that re-fetch an object created by an
  /// earlier op of this tenant instead of producing a new one — the
  /// working-set re-reads that make eviction and stale directory locations
  /// matter. Only meaningful with delete_after = false (a deleted object
  /// would park the re-read forever).
  double reuse_fraction = 0.0;
  /// When > 0, every kGet arrival targets one object of a fixed
  /// `zipf_hot_set`-sized universe, drawn by popularity rank with
  /// P(rank) proportional to 1/(rank+1)^zipf_alpha. The first touch of a
  /// rank produces the object (fresh); every later touch is a re-read of
  /// the same id and size — the skewed hot-object serving regime where
  /// eviction policy and request coalescing matter. Requires
  /// delete_after = false and supersedes reuse_fraction for kGet.
  int zipf_hot_set = 0;
  double zipf_alpha = 1.0;
  /// Garbage-collect an op's objects once the op settles (the serving
  /// loop's Delete). false leaves garbage behind — the memory-pressure
  /// regime.
  bool delete_after = true;
  /// Per-Get timeout (0 = wait indefinitely). Timed-out ops count as
  /// failures in the report; the driver keeps going either way.
  SimDuration get_timeout = 0;
  /// Node issuing this tenant's ops; kInvalidNode = uniform per op.
  NodeID pinned_home = kInvalidNode;
  /// Closed loop: the arrival process draws *think times* instead of
  /// absolute arrivals — op k+1 issues only when op k settled plus the
  /// drawn gap, like the §5.4 serving app's request loop. Under a closed
  /// loop the offered rate self-throttles with latency, which is exactly
  /// what distinguishes a well-behaved interactive tenant from an
  /// open-loop aggressor in the fairness experiments.
  bool closed_loop = false;
};

/// A whole multi-tenant workload.
struct ScenarioSpec {
  std::string name = "scenario";
  int num_nodes = 16;
  /// Arrivals stop at the horizon; in-flight ops drain afterwards.
  SimDuration horizon = Seconds(1);
  std::uint64_t seed = 1;
  /// Per-node store capacity (Hoplite backend only); 0 = unlimited.
  std::int64_t store_capacity_bytes = 0;
  /// Event-engine shards for the Hoplite backend's cluster (bench --shards;
  /// 1 = the reference Simulator). Engine choice never changes results.
  int engine_shards = 1;
  /// Hot-object serving knobs (Hoplite backend only): eviction policy for
  /// the per-node stores and the directory's request-coalescing switch.
  cache::CacheConfig cache;
  net::FabricConfig fabric;
  /// Per-tenant QoS knobs (Hoplite backend only): WFQ at shared links,
  /// flow-queuing AQM at ToR uplinks, client-side admission control. The
  /// workload tenant index doubles as the qos::TenantId. All-off default
  /// reproduces the pre-QoS fabric bit for bit.
  qos::QosConfig qos;
  /// Kill/recover schedule applied during the run (Hoplite backend only). Ops
  /// issued to a dead node reject at once (kProducerLost) and count as
  /// failures in the report.
  std::vector<net::FaultEvent> faults;
  std::vector<TenantSpec> tenants;
};

/// One concrete operation of a lowered trace.
struct WorkloadOp {
  int tenant = 0;
  SimTime at = 0;
  OpKind kind = OpKind::kPut;
  std::int64_t bytes = 0;
  NodeID home = 0;
  /// kGet: {producer}; kBroadcast: receivers; kReduce: source hosts.
  std::vector<NodeID> peers;
  ObjectID id;
  /// false for reuse re-reads: the object already exists, nothing is
  /// produced and nothing is deleted afterwards.
  bool fresh = true;
  bool delete_after = true;
  SimDuration get_timeout = 0;
  /// Closed-loop ops: the drawn gap is a think time — the driver issues
  /// this op `think_gap` after the tenant's previous op settled, and `at`
  /// (the cumulative gap sum) is only the offered-load bookkeeping bound.
  bool closed_loop = false;
  SimDuration think_gap = 0;
};

/// A fully materialized open-loop trace: ops sorted by arrival time (ties
/// in tenant order), every random draw already taken.
struct WorkloadTrace {
  ScenarioSpec spec;
  std::vector<WorkloadOp> ops;
};

/// Lowers `spec` to a trace. Deterministic: same spec (incl. seed) ->
/// bit-identical trace, on any platform.
[[nodiscard]] WorkloadTrace BuildTrace(const ScenarioSpec& spec);

}  // namespace hoplite::workload
