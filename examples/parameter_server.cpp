// Asynchronous parameter server on Hoplite's object futures (Figure 1b).
//
// Demonstrates the paper's motivating pattern: the server reduces the
// gradients of the first half of workers to finish each round and
// broadcasts the new weights back to exactly those workers, while slow
// workers keep computing on their stale copy. Each worker's gradient task
// is a simulated compute delay followed by a Put of its output; the
// collective data movement is a Reduce future chained into per-worker Get
// futures, with WhenAll closing each round.
//
//   $ ./examples/parameter_server
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/client.h"
#include "core/cluster.h"
#include "core/ref.h"
#include "store/buffer.h"

using namespace hoplite;

namespace {

constexpr int kNodes = 8;          // 1 server + 7 workers
constexpr int kRounds = 5;
constexpr std::size_t kElems = 8 * 1024 * 1024;  // 32 MB model

struct ParameterServer {
  core::HopliteCluster& cluster;
  Rng rng{42};
  std::vector<int> worker_round = std::vector<int>(kNodes, 0);
  std::vector<ObjectID> outstanding{};
  int round = 0;
  std::size_t tasks_executed = 0;

  ObjectID GradId(NodeID worker, int r) {
    return ObjectID::FromName("grad").WithIndex(worker).WithIndex(r);
  }

  void LaunchWorker(NodeID worker) {
    // A dynamic task: simulate the forward+backward pass, emit a gradient.
    const int r = worker_round[static_cast<std::size_t>(worker)];
    const SimDuration compute =
        Milliseconds(80 + static_cast<std::int64_t>(rng.NextBounded(40)));
    cluster.simulator().ScheduleAfter(compute, [this, worker, r] {
      cluster.client(worker)
          .Put(GradId(worker, r), store::Buffer::FromValues(std::vector<float>(
                                      kElems, static_cast<float>(worker))))
          .Then([this] { ++tasks_executed; });
    });
  }

  void RunRound() {
    if (round >= kRounds) return;
    core::ReduceSpec spec;
    spec.target = ObjectID::FromName("update").WithIndex(round);
    spec.sources = outstanding;
    spec.num_objects = (kNodes - 1) / 2;  // first half of finishers
    cluster.client(0).Reduce(std::move(spec)).Then([this](const core::ReduceResult&
                                                              result) {
      std::printf("[%7.1f ms] round %d: reduced %zu gradients, %zu still in flight\n",
                  ToMilliseconds(cluster.Now()), round, result.reduced.size(),
                  result.unreduced.size());
      // New model for the fast workers; each resumes as soon as its copy
      // arrives, and WhenAll reports when the whole batch is back to work.
      const ObjectID model = ObjectID::FromName("weights").WithIndex(round + 1);
      cluster.client(0).Put(
          model, store::Buffer::FromValues(std::vector<float>(kElems, 0.0f)));
      outstanding = result.unreduced;
      std::vector<Ref<store::Buffer>> delivered;
      for (const ObjectID grad : result.reduced) {
        for (NodeID w = 1; w < kNodes; ++w) {
          if (grad != GradId(w, worker_round[static_cast<std::size_t>(w)])) continue;
          worker_round[static_cast<std::size_t>(w)] += 1;
          outstanding.push_back(GradId(w, worker_round[static_cast<std::size_t>(w)]));
          delivered.push_back(
              cluster.client(w)
                  .Get(model, core::GetOptions{.read_only = true})
                  .Then([this, w](const store::Buffer& copy) {
                    LaunchWorker(w);
                    return copy;
                  }));
          break;
        }
      }
      const int finished_round = round;
      WhenAll(delivered).Then([this, finished_round](
                                  const std::vector<store::Buffer>& copies) {
        std::printf("[%7.1f ms] round %d: %zu fast workers restarted\n",
                    ToMilliseconds(cluster.Now()), finished_round, copies.size());
      });
      ++round;
      RunRound();
    });
  }
};

}  // namespace

int main() {
  core::HopliteCluster::Options options;
  options.network.num_nodes = kNodes;
  core::HopliteCluster cluster(options);

  ParameterServer server{cluster};
  for (NodeID w = 1; w < kNodes; ++w) {
    server.outstanding.push_back(server.GradId(w, 0));
    server.LaunchWorker(w);
  }
  server.RunRound();
  cluster.RunAll();
  std::printf("\nDone: %d rounds, %zu tasks executed, final sim time %.1f ms\n",
              server.round, server.tasks_executed, ToMilliseconds(cluster.Now()));
  return 0;
}
