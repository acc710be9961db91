// Integration tests for the application workload models: completion,
// sanity of reported metrics, and the qualitative orderings the paper's
// evaluation depends on (Hoplite > Ray, Gloo ring > Hoplite on sync, etc.).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "apps/async_sgd.h"
#include "apps/rl.h"
#include "apps/serving.h"
#include "apps/sync_training.h"
#include "common/units.h"
#include "net/fabric.h"

namespace hoplite::apps {
namespace {

/// One failure: `node` dies at `down` and rejoins at `up`.
std::vector<net::FaultEvent> KillAndRejoin(NodeID node, SimTime down, SimTime up) {
  return {{down, node, /*kill=*/true}, {up, node, /*kill=*/false}};
}

AsyncSgdOptions SgdBase(Backend backend) {
  AsyncSgdOptions options;
  options.backend = backend;
  options.num_nodes = 8;
  options.model_bytes = MB(97);  // ResNet-50
  options.gradient_compute = ComputeModel{Milliseconds(150), 0.2};
  options.rounds = 6;
  return options;
}

TEST(AsyncSgdTest, HopliteCompletesAllRounds) {
  const auto result = RunAsyncSgd(SgdBase(Backend::kHoplite));
  EXPECT_EQ(result.rounds_completed, 6);
  EXPECT_EQ(result.round_latencies_s.size(), 6u);
  EXPECT_GT(result.samples_per_second, 0);
}

TEST(AsyncSgdTest, RayCompletesAllRounds) {
  const auto result = RunAsyncSgd(SgdBase(Backend::kRay));
  EXPECT_EQ(result.rounds_completed, 6);
  EXPECT_GT(result.samples_per_second, 0);
}

TEST(AsyncSgdTest, HopliteBeatsRay) {
  const auto hoplite = RunAsyncSgd(SgdBase(Backend::kHoplite));
  const auto ray = RunAsyncSgd(SgdBase(Backend::kRay));
  EXPECT_GT(hoplite.samples_per_second, 2.0 * ray.samples_per_second)
      << "Figure 9 expects a multi-x speedup";
}

TEST(AsyncSgdTest, SpeedupGrowsWithModelSize) {
  auto small = SgdBase(Backend::kHoplite);
  small.model_bytes = MB(97);
  auto small_ray = SgdBase(Backend::kRay);
  small_ray.model_bytes = MB(97);
  auto big = SgdBase(Backend::kHoplite);
  big.model_bytes = MB(233);  // AlexNet: comm-heavier for the same compute
  big.gradient_compute = ComputeModel{Milliseconds(60), 0.2};
  auto big_ray = SgdBase(Backend::kRay);
  big_ray.model_bytes = MB(233);
  big_ray.gradient_compute = ComputeModel{Milliseconds(60), 0.2};
  const double small_speedup = RunAsyncSgd(small).samples_per_second /
                               RunAsyncSgd(small_ray).samples_per_second;
  const double big_speedup =
      RunAsyncSgd(big).samples_per_second / RunAsyncSgd(big_ray).samples_per_second;
  EXPECT_GT(big_speedup, small_speedup)
      << "the more communication-bound model must gain more (Figure 9)";
}

TEST(AsyncSgdTest, FailureRunProducesLatencySpikesAndRecovers) {
  auto options = SgdBase(Backend::kHoplite);
  options.num_nodes = 7;  // 6 workers, like §5.5
  options.rounds = 20;
  options.faults = KillAndRejoin(3, Seconds(2), Seconds(6));
  const auto result = RunAsyncSgd(options);
  EXPECT_EQ(result.rounds_completed, 20);
  // All rounds completed despite the failure; latencies stay finite.
  for (const double latency : result.round_latencies_s) {
    EXPECT_GT(latency, 0);
    EXPECT_LT(latency, 10.0);
  }
}

TEST(AsyncSgdTest, RayFailureRunCompletes) {
  auto options = SgdBase(Backend::kRay);
  options.num_nodes = 7;
  options.rounds = 20;
  options.faults = KillAndRejoin(3, Seconds(2), Seconds(10));
  options.detection_delay = Milliseconds(580);
  const auto result = RunAsyncSgd(options);
  EXPECT_EQ(result.rounds_completed, 20);
}

TEST(RlTest, ImpalaHopliteBeatsRay) {
  RlOptions options;
  options.mode = RlMode::kSamplesOptimization;
  options.num_nodes = 8;
  options.rollout_compute = ComputeModel{Milliseconds(200), 0.3};
  options.update_compute = ComputeModel{Milliseconds(30), 0.1};
  options.rounds = 6;
  options.backend = Backend::kHoplite;
  const auto hoplite = RunRl(options);
  options.backend = Backend::kRay;
  const auto ray = RunRl(options);
  EXPECT_EQ(hoplite.rounds_completed, 6);
  EXPECT_EQ(ray.rounds_completed, 6);
  EXPECT_GT(hoplite.samples_per_second, ray.samples_per_second);
}

TEST(RlTest, A3cHopliteBeatsRay) {
  RlOptions options;
  options.mode = RlMode::kGradientsOptimization;
  options.num_nodes = 8;
  options.rollout_compute = ComputeModel{Milliseconds(200), 0.3};
  options.update_compute = ComputeModel{Milliseconds(30), 0.1};
  options.rounds = 6;
  options.backend = Backend::kHoplite;
  const auto hoplite = RunRl(options);
  options.backend = Backend::kRay;
  const auto ray = RunRl(options);
  EXPECT_GT(hoplite.samples_per_second, 1.5 * ray.samples_per_second);
}

TEST(ServingTest, HopliteBeatsRayAndScalesWithReplicas) {
  ServingOptions options;
  options.num_queries = 15;
  options.inference_compute = ComputeModel{Milliseconds(40), 0.1};
  options.num_nodes = 9;
  options.backend = Backend::kHoplite;
  const auto hoplite8 = RunServing(options);
  options.backend = Backend::kRay;
  const auto ray8 = RunServing(options);
  options.num_nodes = 17;
  const auto ray16 = RunServing(options);
  options.backend = Backend::kHoplite;
  const auto hoplite16 = RunServing(options);
  EXPECT_EQ(hoplite8.queries_completed, 15);
  EXPECT_GT(hoplite8.queries_per_second, ray8.queries_per_second);
  // The gap widens with more replicas (Figure 11: 2.2x at 8, 3.3x at 16).
  const double gap8 = hoplite8.queries_per_second / ray8.queries_per_second;
  const double gap16 = hoplite16.queries_per_second / ray16.queries_per_second;
  EXPECT_GT(gap16, gap8);
}

TEST(ServingTest, FailureRunRecordsTimelineAndRecovers) {
  ServingOptions options;
  options.backend = Backend::kHoplite;
  options.num_nodes = 9;
  options.num_queries = 40;
  options.inference_compute = ComputeModel{Milliseconds(40), 0.1};
  options.faults = KillAndRejoin(4, Seconds(2), Seconds(5));
  const auto result = RunServing(options);
  EXPECT_EQ(result.queries_completed, 40);
  EXPECT_EQ(result.query_latencies_s.size(), 40u);
  // Exactly one query absorbs the detection delay.
  int spikes = 0;
  for (const double latency : result.query_latencies_s) {
    if (latency > 0.5) ++spikes;
  }
  EXPECT_EQ(spikes, 1);
}

TEST(ServingTest, RayFailureRunRecordsTimelineAndRecovers) {
  ServingOptions options;
  options.backend = Backend::kRay;
  options.num_nodes = 9;
  options.num_queries = 40;
  options.inference_compute = ComputeModel{Milliseconds(40), 0.1};
  options.faults = KillAndRejoin(4, Seconds(2), Seconds(5));
  options.detection_delay = Milliseconds(580);
  const auto result = RunServing(options);
  EXPECT_EQ(result.queries_completed, 40);
  ASSERT_EQ(result.query_latencies_s.size(), 40u);
  // Exactly one query absorbs the detection delay. Queries run back to
  // back, so each one ends at the running sum of the latencies.
  int spikes = 0;
  double end_s = 0;
  double before_sum = 0;
  double out_sum = 0;
  int before = 0;
  int out = 0;
  for (const double latency : result.query_latencies_s) {
    end_s += latency;
    if (latency > 0.5) {
      ++spikes;
    } else if (end_s < 2.0) {
      before_sum += latency;
      ++before;
    } else if (end_s > 2.58 && end_s < 5.0) {
      out_sum += latency;
      ++out;
    }
  }
  EXPECT_EQ(spikes, 1);
  ASSERT_GT(before, 0);
  ASSERT_GT(out, 0);
  // §5.5: while the replica is out (observed at 2.58 s, rejoined at 5 s),
  // Ray Serve unicasts the batch to one receiver fewer, so queries get
  // faster.
  EXPECT_LT(out_sum / out, before_sum / before);
}

TEST(SyncTrainingTest, AllBackendsComplete) {
  SyncTrainingOptions options;
  options.num_nodes = 8;
  options.model_bytes = MB(97);
  options.gradient_compute = ComputeModel{Milliseconds(150), 0.05};
  options.rounds = 4;
  for (const Backend backend :
       {Backend::kHoplite, Backend::kMpi, Backend::kGloo, Backend::kRay}) {
    options.backend = backend;
    const auto result = RunSyncTraining(options);
    EXPECT_EQ(result.rounds_completed, 4) << BackendName(backend);
    EXPECT_GT(result.samples_per_second, 0) << BackendName(backend);
  }
}

TEST(SyncTrainingTest, PaperOrderingHolds) {
  // Figure 13: Gloo (ring) >= Hoplite ~ OpenMPI >> Ray; Hoplite within
  // ~12-24% of Gloo at the paper's compute/communication balance (GPU
  // compute a large fraction of the round).
  SyncTrainingOptions options;
  options.num_nodes = 16;
  options.model_bytes = MB(233);
  options.gradient_compute = ComputeModel{Milliseconds(400), 0.05};
  options.rounds = 4;
  auto run = [&](Backend backend) {
    options.backend = backend;
    return RunSyncTraining(options).samples_per_second;
  };
  const double hoplite = run(Backend::kHoplite);
  const double mpi = run(Backend::kMpi);
  const double gloo = run(Backend::kGloo);
  const double ray = run(Backend::kRay);
  EXPECT_GT(gloo, hoplite) << "ring-allreduce is more bandwidth-efficient (§5.6)";
  EXPECT_GT(hoplite, ray * 1.5);
  // Our OpenMPI model uses the same ring as Gloo for large payloads, so
  // Hoplite sits in the same band relative to both.
  EXPECT_GT(hoplite, mpi * 0.55);
  EXPECT_LT(hoplite, mpi * 1.05);
  // "Hoplite is 12-24% slower than Gloo" on the paper's testbed; our
  // serialized-FIFO NIC model (vs. real TCP fair sharing) costs the
  // reduce+broadcast composition a further ~10% — see EXPERIMENTS.md.
  EXPECT_GT(hoplite, gloo * 0.55);
  EXPECT_LT(hoplite, gloo * 0.95);
}

// ----------------------------------------------------------------------
// Golden fig12 timelines: the exactness oracle of the apps' failure
// handling. Both §5.5 apps run on both backends with fig12's exact options
// (kill, rejoin and detection delay included), and the bit patterns of every
// per-query and per-round series are folded into an FNV-1a digest pinned
// below. Any change to how the apps or the fault schedule react to a
// failure must keep it bit for bit.
// ----------------------------------------------------------------------

SimDuration Fig12DetectionDelay(Backend backend) {
  return backend == Backend::kHoplite ? Milliseconds(740) : Milliseconds(580);
}

ServingOptions Fig12Serving(Backend backend) {
  ServingOptions options;
  options.backend = backend;
  options.num_nodes = 9;
  options.num_queries = 70;
  options.inference_compute = ComputeModel{Milliseconds(40), 0.1};
  options.faults = KillAndRejoin(4, Seconds(2), Seconds(4));
  options.detection_delay = Fig12DetectionDelay(backend);
  return options;
}

AsyncSgdOptions Fig12Sgd(Backend backend) {
  AsyncSgdOptions options;
  options.backend = backend;
  options.num_nodes = 7;
  options.model_bytes = MB(97);
  options.gradient_compute = ComputeModel{Milliseconds(150), 0.15};
  options.rounds = 30;
  options.faults = KillAndRejoin(3, Seconds(3), Seconds(7));
  options.detection_delay = Fig12DetectionDelay(backend);
  return options;
}

TEST(Fig12GoldenTest, FailureTimelinesArePinned) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  auto fold = [&digest](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (word >> (8 * byte)) & 0xff;
      digest *= 0x100000001b3ULL;
    }
  };
  auto fold_series = [&fold](const std::vector<double>& series) {
    fold(series.size());
    for (const double value : series) fold(std::bit_cast<std::uint64_t>(value));
  };
  for (const Backend backend : {Backend::kRay, Backend::kHoplite}) {
    const auto serving = RunServing(Fig12Serving(backend));
    EXPECT_EQ(serving.queries_completed, 70) << BackendName(backend);
    fold_series(serving.query_latencies_s);
    const auto sgd = RunAsyncSgd(Fig12Sgd(backend));
    EXPECT_EQ(sgd.rounds_completed, 30) << BackendName(backend);
    fold_series(sgd.round_latencies_s);
    fold_series(sgd.round_end_times_s);
  }
  EXPECT_EQ(digest, 0xcf2da7e054e52689ULL) << std::hex << "digest 0x" << digest;
}

TEST(AsyncSgdTest, Fig12KillSweepCompletesEveryRun) {
  // A gradient compute that ends inside the detection window must not Put
  // on the dead worker: the entry would outlive the rejoin, and the
  // rejoined worker's own Put of that gradient would abort ("object
  // already exists").
  for (const Backend backend : {Backend::kRay, Backend::kHoplite}) {
    for (SimTime kill = Seconds(2); kill < Milliseconds(2100); kill += Milliseconds(7)) {
      AsyncSgdOptions options = Fig12Sgd(backend);
      options.faults = KillAndRejoin(3, kill, kill + Seconds(4));
      const auto result = RunAsyncSgd(options);
      EXPECT_EQ(result.rounds_completed, 30)
          << BackendName(backend) << " kill at " << ToSeconds(kill) << " s";
    }
  }
}

/// Two kill/rejoin cycles of one node, each rejoin after its death is
/// observed.
std::vector<net::FaultEvent> TwoFailureCycles(NodeID node) {
  return {{Seconds(1), node, /*kill=*/true},
          {Seconds(2), node, /*kill=*/false},
          {Milliseconds(2500), node, /*kill=*/true},
          {Milliseconds(3500), node, /*kill=*/false}};
}

TEST(ServingTest, TwoFailureCyclesCompleteEveryQueryOnBothBackends) {
  for (const Backend backend : {Backend::kRay, Backend::kHoplite}) {
    ServingOptions options = Fig12Serving(backend);
    options.faults = TwoFailureCycles(4);
    const auto result = RunServing(options);
    EXPECT_EQ(result.queries_completed, 70) << BackendName(backend);
    // Each death stalls exactly one query until it is observed.
    int spikes = 0;
    for (const double latency : result.query_latencies_s) {
      if (latency > 0.5) ++spikes;
    }
    EXPECT_EQ(spikes, 2) << BackendName(backend);
  }
}

TEST(AsyncSgdTest, TwoFailureCyclesCompleteEveryRoundOnBothBackends) {
  for (const Backend backend : {Backend::kRay, Backend::kHoplite}) {
    AsyncSgdOptions options = Fig12Sgd(backend);
    options.faults = TwoFailureCycles(3);
    const auto result = RunAsyncSgd(options);
    EXPECT_EQ(result.rounds_completed, 30) << BackendName(backend);
  }
}

}  // namespace
}  // namespace hoplite::apps
