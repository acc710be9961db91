// Clusters on sharded-engine domains: a whole HopliteCluster placed on one
// domain of a ShardedSimulator must behave exactly like the same cluster on
// its private single-threaded engine — event for event — and independent
// clusters composed on one sharded engine must run concurrently without
// perturbing each other. The failure-injection variants drive the full
// kill/detect/recover machinery on every composed cluster at once, which is
// the TSan lane's concurrency workout for the protocol stack.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/units.h"
#include "core/client.h"
#include "core/cluster.h"
#include "sim/sharded_simulator.h"

namespace hoplite {
namespace {

struct SoloResult {
  SimTime finish = 0;
  std::uint64_t executed = 0;
};

core::HopliteCluster::Options TestCluster(int nodes, sim::Engine* engine = nullptr) {
  core::HopliteCluster::Options options = bench::PaperCluster(nodes);
  options.engine = engine;
  return options;
}

SoloResult SoloCollective(const std::string& op, int nodes, std::int64_t bytes) {
  core::HopliteCluster cluster(TestCluster(nodes));
  const auto ready = bench::Staggered(nodes, Microseconds(10));
  const auto done = bench::StartHopliteCollective(op, cluster, bytes, ready);
  SoloResult result;
  done.Then([&] { result.finish = cluster.Now(); });
  cluster.RunAll();
  EXPECT_TRUE(done.ready());
  result.executed = cluster.simulator().executed_events();
  return result;
}

TEST(ShardedClusterTest, ComposedClustersReproduceSoloRunsExactly) {
  const std::vector<std::string> ops = {"broadcast", "gather", "reduce", "allreduce"};
  const int nodes = 8;
  const std::int64_t bytes = 1 << 20;
  std::vector<SoloResult> solo;
  solo.reserve(ops.size());
  for (const std::string& op : ops) solo.push_back(SoloCollective(op, nodes, bytes));

  for (const int shards : {1, 2, 4}) {
    sim::ShardedSimulator eng({shards});
    std::vector<std::unique_ptr<core::HopliteCluster>> clusters;
    std::vector<Ref<std::vector<store::Buffer>>> done;
    std::vector<SimTime> finish(ops.size(), 0);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      clusters.push_back(
          std::make_unique<core::HopliteCluster>(TestCluster(nodes, &eng.AddDomain())));
      done.push_back(bench::StartHopliteCollective(
          ops[i], *clusters[i], bytes, bench::Staggered(nodes, Microseconds(10))));
      core::HopliteCluster& cluster = *clusters[i];
      SimTime& out = finish[i];
      done[i].Then([&cluster, &out] { out = cluster.Now(); });
    }
    eng.Run();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      EXPECT_TRUE(done[i].ready()) << ops[i];
      EXPECT_EQ(finish[i], solo[i].finish) << ops[i] << " shards=" << shards;
      EXPECT_EQ(clusters[i]->simulator().executed_events(), solo[i].executed)
          << ops[i] << " shards=" << shards;
    }
    // Independent clusters drain in one dispatch, truly parallel when more
    // than one shard hosts work.
    if (shards >= 4) {
      EXPECT_EQ(eng.max_parallel_shards(), 4);
    }
  }
}

// Issues a broadcast, kills the source mid-transfer (receivers must fail
// over or observe lost refs), recovers it, then re-broadcasts. Exercises
// failure detection, directory cleanup and membership notification.
SoloResult ChurnWorkload(core::HopliteCluster& cluster, std::int64_t bytes) {
  auto& sim = cluster.simulator();
  const int n = cluster.num_nodes();
  SoloResult result;

  const auto first =
      bench::StartHopliteBroadcast(cluster, bytes, bench::Staggered(n, Microseconds(5)));
  // Kill a mid-tree receiver while the broadcast is in flight, then bring it
  // back and let a second broadcast (fresh object name via a second cluster
  // round) complete on the survivors.
  const NodeID victim = static_cast<NodeID>(n / 2);
  At(sim, Milliseconds(1)).Then([&cluster, victim] {
    if (cluster.IsAlive(victim)) cluster.KillNode(victim);
  });
  At(sim, Milliseconds(400)).Then([&cluster, victim] {
    if (!cluster.IsAlive(victim)) cluster.RecoverNode(victim);
  });
  first.Then([&cluster, &result] { result.finish = cluster.Now(); });
  cluster.RunAll();
  result.executed = cluster.simulator().executed_events();
  return result;
}

TEST(ShardedClusterTest, ConcurrentFailureInjectionMatchesSoloRuns) {
  const int nodes = 8;
  const std::int64_t bytes = 4 << 20;
  SoloResult solo;
  {
    core::HopliteCluster cluster(TestCluster(nodes));
    solo = ChurnWorkload(cluster, bytes);
  }
  ASSERT_GT(solo.executed, 0u);

  // Four identical churn clusters on four shards, killed and recovered
  // concurrently; every one must reproduce the solo run exactly.
  sim::ShardedSimulator eng({4});
  std::vector<std::unique_ptr<core::HopliteCluster>> clusters;
  std::vector<Ref<std::vector<store::Buffer>>> done;
  std::vector<SimTime> finish(4, 0);
  for (int i = 0; i < 4; ++i) {
    clusters.push_back(
        std::make_unique<core::HopliteCluster>(TestCluster(nodes, &eng.AddDomain())));
    core::HopliteCluster& cluster = *clusters[static_cast<std::size_t>(i)];
    auto& sim = cluster.simulator();
    done.push_back(bench::StartHopliteBroadcast(cluster, bytes,
                                                bench::Staggered(nodes, Microseconds(5))));
    const NodeID victim = static_cast<NodeID>(nodes / 2);
    At(sim, Milliseconds(1)).Then([&cluster, victim] {
      if (cluster.IsAlive(victim)) cluster.KillNode(victim);
    });
    At(sim, Milliseconds(400)).Then([&cluster, victim] {
      if (!cluster.IsAlive(victim)) cluster.RecoverNode(victim);
    });
    SimTime& out = finish[static_cast<std::size_t>(i)];
    done.back().Then([&cluster, &out] { out = cluster.Now(); });
  }
  eng.Run();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(finish[static_cast<std::size_t>(i)], solo.finish) << "cluster " << i;
    EXPECT_EQ(clusters[static_cast<std::size_t>(i)]->simulator().executed_events(),
              solo.executed)
        << "cluster " << i;
  }
  EXPECT_EQ(eng.max_parallel_shards(), 4);
}

TEST(ShardedClusterTest, SequencedDriverSurfaceWorksForClustersOnDomains) {
  // RunUntil / RunUntilPredicate through a cluster's domain drive that
  // domain alone; a single cluster must see reference behavior.
  SoloResult solo = SoloCollective("broadcast", 4, 1 << 16);

  sim::ShardedSimulator eng({2});
  core::HopliteCluster cluster(TestCluster(4, &eng.AddDomain()));
  const auto done = bench::StartHopliteCollective("broadcast", cluster, 1 << 16,
                                                  bench::Staggered(4, Microseconds(10)));
  SimTime finish = 0;
  done.Then([&] { finish = cluster.Now(); });
  EXPECT_TRUE(
      cluster.simulator().RunUntilPredicate([&done] { return done.ready(); }));
  EXPECT_EQ(finish, solo.finish);
  // Drain the tail (directory cleanup etc.) and check the full event count.
  cluster.RunAll();
  EXPECT_EQ(cluster.simulator().executed_events(), solo.executed);
}

}  // namespace
}  // namespace hoplite
