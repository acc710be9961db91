// Asynchronous SGD parameter server (§5.2, Figure 9; failure run of §5.5,
// Figure 12b).
//
// Topology: node 0 is the parameter server, nodes 1..n-1 are workers. Each
// round the server reduces the gradients of the first half of the workers to
// finish, applies the update, and broadcasts the new weights back to exactly
// those workers (the paper's description of Ray's async parameter-server
// example augmented with Hoplite's reduce, Figure 1b).
//
// On the Hoplite backend the reduce is a dynamic-tree Reduce over gradient
// futures with num_objects = W/2, and the broadcast is the implicit Get
// distribution tree. On the Ray/Dask backends the server fetches each
// gradient and unicasts each weight copy point-to-point, which bottlenecks
// its NIC — the effect Figure 9 quantifies.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/common.h"
#include "common/units.h"
#include "net/fabric.h"

namespace hoplite::apps {

struct AsyncSgdOptions {
  Backend backend = Backend::kHoplite;
  int num_nodes = 16;  ///< 1 server + (num_nodes-1) workers
  std::int64_t model_bytes = 0;
  ComputeModel gradient_compute;  ///< per-round worker computation
  int batch_size = 32;            ///< samples per gradient
  int rounds = 12;                ///< server update rounds to run
  /// Event-engine shards for the Hoplite cluster (bench --shards knob;
  /// 1 = the reference Simulator). Results are engine-independent by
  /// contract; baseline backends ignore it.
  int engine_shards = 1;
  std::uint64_t seed = 1;

  /// Failure scenario (Figure 12b): workers to kill and rejoin, applied by
  /// HopliteCluster::ScheduleFaults or RayLikeTransport::ScheduleFaults. A
  /// rejoined worker recomputes the gradient the server still expects
  /// (app-level lineage). Empty = no failure.
  std::vector<net::FaultEvent> faults;
  /// Failure-detection latency (paper §5.5: 0.74 s with Hoplite, 0.58 s
  /// stock Ray).
  SimDuration detection_delay = Milliseconds(740);
};

struct AsyncSgdResult {
  double samples_per_second = 0;
  double total_seconds = 0;
  int rounds_completed = 0;
  /// Per-round latency (seconds) and completion timestamps — the Figure 12b
  /// series.
  std::vector<double> round_latencies_s;
  std::vector<double> round_end_times_s;
};

[[nodiscard]] AsyncSgdResult RunAsyncSgd(const AsyncSgdOptions& options);

}  // namespace hoplite::apps
