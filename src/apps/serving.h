// ML model-serving ensemble (§5.4, Figure 11; failure run of §5.5,
// Figure 12a).
//
// Node 0 is the Ray Serve frontend; nodes 1..n-1 each serve one model of a
// majority-vote ensemble. Every query carries a batch of 64 images of
// 256x256 pixels; the frontend broadcasts the batch to all model replicas,
// each runs inference, returns a (tiny) vote, and the frontend tallies the
// majority. Queries are served closed-loop.
//
// Hoplite turns the query broadcast into a dynamic distribution tree and the
// vote collection into inline-cache fetches; Ray unicasts the batch to every
// replica from the frontend's NIC.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/common.h"
#include "common/units.h"
#include "net/fabric.h"

namespace hoplite::apps {

/// Query payload: 64 images x 256 x 256 x 3 bytes (§5.4). Shared with the
/// open-loop `serving` workload scenario (src/workload/scenarios.cc), which
/// re-expresses this request loop under sustained offered load.
inline constexpr std::int64_t kServingQueryBatchBytes = 64LL * 256 * 256 * 3;

struct ServingOptions {
  Backend backend = Backend::kHoplite;
  int num_nodes = 9;  ///< 1 frontend + (n-1) model replicas
  std::int64_t query_bytes = kServingQueryBatchBytes;
  std::int64_t vote_bytes = 1024;
  ComputeModel inference_compute;
  int num_queries = 40;
  std::uint64_t seed = 1;
  /// Event-engine shards for the Hoplite cluster (bench --shards knob;
  /// 1 = the reference Simulator). Results are engine-independent by
  /// contract; baseline backends ignore it.
  int engine_shards = 1;

  /// Failure scenario (Figure 12a): replicas to kill and rejoin, applied
  /// by HopliteCluster::ScheduleFaults or RayLikeTransport::ScheduleFaults.
  /// Empty = no failure.
  std::vector<net::FaultEvent> faults;
  /// How long the frontend takes to notice a replica died; §5.5: 0.74 s
  /// with Hoplite, 0.58 s stock Ray.
  SimDuration detection_delay = Milliseconds(740);
};

struct ServingResult {
  double queries_per_second = 0;
  double total_seconds = 0;
  int queries_completed = 0;
  /// Per-query latency (seconds) — the Figure 12a series.
  std::vector<double> query_latencies_s;
};

[[nodiscard]] ServingResult RunServing(const ServingOptions& options);

}  // namespace hoplite::apps
