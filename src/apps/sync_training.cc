#include "apps/sync_training.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/collectives.h"
#include "baselines/ray_like.h"
#include "common/logging.h"
#include "core/client.h"
#include "core/cluster.h"

namespace hoplite::apps {

namespace {

[[nodiscard]] ObjectID GradId(NodeID worker, int round) {
  return ObjectID::FromName("sync-grad").WithIndex(worker).WithIndex(round);
}
[[nodiscard]] ObjectID SumId(int round) {
  return ObjectID::FromName("sync-sum").WithIndex(round);
}

// --------------------------------------------------------------------
// Hoplite backend: Reduce over all gradients + implicit broadcast.
// --------------------------------------------------------------------

// App backends are stack-owned and outlive Run()'s simulation drain, so
// callbacks capture a plain `this` (no leak-forming shared_ptr cycles).

struct HopliteSync {
  explicit HopliteSync(const SyncTrainingOptions& opt)
      : options(opt), rng(opt.seed), cluster(MakeClusterOptions(opt)) {}

  static core::HopliteCluster::Options MakeClusterOptions(const SyncTrainingOptions& opt) {
    core::HopliteCluster::Options cluster_options;
    cluster_options.network.num_nodes = opt.num_nodes;
    cluster_options.engine_shards = opt.engine_shards;
    return cluster_options;
  }

  SyncTrainingOptions options;
  Rng rng;
  core::HopliteCluster cluster;
  SyncTrainingResult result;
  int round = 0;

  void Run() {
    StartRound();
    cluster.RunAll();
    Finalize(result, options, ToSeconds(cluster.Now()), round);
  }

  void StartRound() {
    if (round >= options.rounds) return;
    auto* const self = this;
    std::vector<ObjectID> sources;
    for (NodeID w = 0; w < options.num_nodes; ++w) {
      const ObjectID grad = GradId(w, round);
      sources.push_back(grad);
      const SimDuration compute = options.gradient_compute.Sample(rng);
      cluster.simulator().ScheduleAfter(compute, [self, w, grad] {
        self->cluster.client(w).Put(grad,
                                    store::Buffer::OfSize(self->options.model_bytes));
      });
    }
    // Allreduce = Reduce into node 0's sink + everyone Gets the result,
    // pipelined against the reduce (§3.4.3). The round barrier is a WhenAll
    // over the per-node result futures.
    core::ReduceSpec spec;
    spec.target = SumId(round);
    spec.sources = std::move(sources);
    cluster.client(0).Reduce(std::move(spec));
    std::vector<Ref<store::Buffer>> delivered;
    for (NodeID w = 0; w < options.num_nodes; ++w) {
      delivered.push_back(
          cluster.client(w).Get(SumId(round), core::GetOptions{.read_only = true}));
    }
    WhenAll(delivered).Then([self] { self->FinishRound(); });
  }

  void FinishRound() {
    ++round;
    StartRound();
  }

  static void Finalize(SyncTrainingResult& result, const SyncTrainingOptions& options,
                       double seconds, int rounds) {
    result.rounds_completed = rounds;
    result.total_seconds = seconds;
    if (rounds > 0) result.mean_round_seconds = seconds / rounds;
    if (seconds > 0) {
      result.samples_per_second =
          static_cast<double>(rounds) * options.num_nodes * options.batch_size / seconds;
    }
  }
};

// --------------------------------------------------------------------
// MPI / Gloo backends: static allreduce once per round.
// --------------------------------------------------------------------

struct StaticSync {
  explicit StaticSync(const SyncTrainingOptions& opt)
      : options(opt),
        rng(opt.seed),
        net(net::MakeFabric(sim, net::ClusterConfig{.num_nodes = opt.num_nodes})),
        mpi(sim, *net, baselines::MpiConfig{}),
        gloo(sim, *net, baselines::GlooConfig{}) {}

  SyncTrainingOptions options;
  Rng rng;
  sim::Simulator sim;
  std::unique_ptr<net::Fabric> net;
  baselines::MpiLikeCollectives mpi;
  baselines::GlooLikeCollectives gloo;
  SyncTrainingResult result;
  int round = 0;

  void Run() {
    StartRound();
    sim.Run();
    HopliteSync::Finalize(result, options, ToSeconds(sim.Now()), round);
  }

  void StartRound() {
    if (round >= options.rounds) return;
    std::vector<baselines::Participant> parts;
    for (NodeID w = 0; w < options.num_nodes; ++w) {
      parts.push_back(baselines::Participant{
          w, sim.Now() + options.gradient_compute.Sample(rng)});
    }
    auto* const self = this;
    const auto done = [self] {
      ++self->round;
      self->StartRound();
    };
    if (options.backend == Backend::kMpi) {
      mpi.Allreduce(std::move(parts), options.model_bytes).Then(done);
    } else {
      gloo.RingChunkedAllreduce(std::move(parts), options.model_bytes).Then(done);
    }
  }
};

// --------------------------------------------------------------------
// Ray backend: gather every gradient to node 0, apply, unicast back.
// --------------------------------------------------------------------

struct RaySync {
  explicit RaySync(const SyncTrainingOptions& opt)
      : options(opt),
        rng(opt.seed),
        net(net::MakeFabric(sim, net::ClusterConfig{.num_nodes = opt.num_nodes})),
        transport(sim, *net, baselines::RayLikeConfig::Ray()) {}

  SyncTrainingOptions options;
  Rng rng;
  sim::Simulator sim;
  std::unique_ptr<net::Fabric> net;
  baselines::RayLikeTransport transport;
  SyncTrainingResult result;
  int round = 0;

  void Run() {
    StartRound();
    sim.Run();
    HopliteSync::Finalize(result, options, ToSeconds(sim.Now()), round);
  }

  void StartRound() {
    if (round >= options.rounds) return;
    auto* const self = this;
    std::vector<ObjectID> sources;
    for (NodeID w = 0; w < options.num_nodes; ++w) {
      const ObjectID grad = GradId(w, round);
      sources.push_back(grad);
      const SimDuration compute = options.gradient_compute.Sample(rng);
      sim.ScheduleAfter(compute, [self, w, grad] {
        self->transport.Put(w, grad, self->options.model_bytes);
      });
    }
    std::vector<NodeID> receivers;
    for (NodeID w = 1; w < options.num_nodes; ++w) receivers.push_back(w);
    transport.Allreduce(0, sources, SumId(round), options.model_bytes, receivers)
        .Then([self] {
          for (NodeID w = 0; w < self->options.num_nodes; ++w) {
            self->transport.Delete(GradId(w, self->round));
          }
          ++self->round;
          self->StartRound();
        });
  }
};

}  // namespace

SyncTrainingResult RunSyncTraining(const SyncTrainingOptions& options) {
  HOPLITE_CHECK_GE(options.num_nodes, 2);
  HOPLITE_CHECK_GT(options.model_bytes, 0);
  switch (options.backend) {
    case Backend::kHoplite: {
      HopliteSync app(options);
      app.Run();
      return app.result;
    }
    case Backend::kMpi:
    case Backend::kGloo: {
      StaticSync app(options);
      app.Run();
      return app.result;
    }
    case Backend::kRay:
    case Backend::kDask: {
      RaySync app(options);
      app.Run();
      return app.result;
    }
  }
  HOPLITE_CHECK(false);
  return {};
}

}  // namespace hoplite::apps
