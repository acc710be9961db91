#include "apps/async_sgd.h"

#include <algorithm>
#include <memory>

#include "baselines/ray_like.h"
#include "common/det.h"
#include "common/logging.h"
#include "core/client.h"
#include "core/cluster.h"

namespace hoplite::apps {

namespace {

[[nodiscard]] ObjectID GradId(NodeID worker, int round) {
  return ObjectID::FromName("grad").WithIndex(worker).WithIndex(round);
}
[[nodiscard]] ObjectID ModelId(int round) {
  return ObjectID::FromName("model").WithIndex(round);
}
[[nodiscard]] ObjectID SumId(int round) {
  return ObjectID::FromName("gradsum").WithIndex(round);
}

// --------------------------------------------------------------------
// Hoplite backend
// --------------------------------------------------------------------

// App backends are stack-owned and outlive Run()'s simulation drain, so
// callbacks capture a plain `this` (no leak-forming shared_ptr cycles).

struct HopliteSgd {
  explicit HopliteSgd(const AsyncSgdOptions& opt)
      : options(opt), rng(opt.seed), cluster(MakeClusterOptions(opt)) {}

  static core::HopliteCluster::Options MakeClusterOptions(const AsyncSgdOptions& opt) {
    core::HopliteCluster::Options cluster_options;
    cluster_options.network.num_nodes = opt.num_nodes;
    cluster_options.engine_shards = opt.engine_shards;
    cluster_options.network.failure_detection_delay = opt.detection_delay;
    return cluster_options;
  }

  AsyncSgdOptions options;
  Rng rng;
  core::HopliteCluster cluster;
  core::HopliteCluster::MembershipSubscription membership;
  AsyncSgdResult result;

  int workers = 0;
  int half = 0;
  std::vector<int> worker_round;       ///< gradient round each worker computes
  std::vector<bool> worker_alive;
  std::vector<ObjectID> outstanding;   ///< gradient futures not yet reduced
  int round = 0;
  SimTime round_start = 0;
  det::Set<std::uint64_t> awaiting_model;  ///< worker grads... nodes waiting
  int pending_broadcast = 0;
  bool finished = false;

  void Run() {
    workers = options.num_nodes - 1;
    half = std::max(1, workers / 2);
    worker_round.assign(static_cast<std::size_t>(options.num_nodes), 0);
    worker_alive.assign(static_cast<std::size_t>(options.num_nodes), true);

    auto* const self = this;
    membership = cluster.AddMembershipListener([self](NodeID node, bool alive) {
      self->worker_alive[static_cast<std::size_t>(node)] = alive;
      if (!alive && self->awaiting_model.erase(static_cast<std::uint64_t>(node)) > 0) {
        // A worker died while fetching the model: don't block the round.
        self->OnModelDelivered();
      }
    });

    // Everyone starts computing on the initial model at t=0.
    for (NodeID w = 1; w < options.num_nodes; ++w) {
      outstanding.push_back(GradId(w, 0));
      StartWorkerCompute(w);
    }
    if (options.kill_node != kInvalidNode && options.recover_at > options.kill_at) {
      cluster.simulator().ScheduleAt(
          options.kill_at, [self] { self->cluster.KillNode(self->options.kill_node); });
      cluster.simulator().ScheduleAt(options.recover_at, [self] {
        self->cluster.RecoverNode(self->options.kill_node);
        // The rejoined worker resumes: fetch the current model, recompute the
        // gradient the server is still expecting (app-level lineage).
        self->StartWorkerCompute(self->options.kill_node);
      });
    }
    round_start = 0;
    StartServerRound();
    cluster.RunAll();

    result.rounds_completed = round;
    result.total_seconds = ToSeconds(cluster.Now());
    if (result.total_seconds > 0) {
      result.samples_per_second = static_cast<double>(round) * half *
                                  options.batch_size / result.total_seconds;
    }
  }

  void StartWorkerCompute(NodeID w) {
    if (!worker_alive[static_cast<std::size_t>(w)]) return;
    const SimDuration compute = options.gradient_compute.Sample(rng);
    const int expected_round = worker_round[static_cast<std::size_t>(w)];
    auto* const self = this;
    cluster.simulator().ScheduleAfter(compute, [self, w, expected_round] {
      if (!self->worker_alive[static_cast<std::size_t>(w)]) return;
      if (self->worker_round[static_cast<std::size_t>(w)] != expected_round) return;
      self->cluster.client(w).Put(GradId(w, expected_round),
                                  store::Buffer::OfSize(self->options.model_bytes));
    });
  }

  void StartServerRound() {
    if (round >= options.rounds) {
      finished = true;
      return;
    }
    round_start = cluster.Now();
    auto* const self = this;
    core::ReduceSpec spec;
    spec.target = SumId(round);
    spec.sources = outstanding;
    spec.num_objects = static_cast<std::size_t>(half);
    spec.op = store::ReduceOp::kSum;
    cluster.client(0).Reduce(std::move(spec)).Then([self](const core::ReduceResult& r) {
      self->OnReduced(r);
    });
  }

  void OnReduced(const core::ReduceResult& reduced) {
    // Apply the update: one pass over the weights at memory speed.
    auto* const self = this;
    cluster.network().Memcpy(0, options.model_bytes, [self, reduced] {
      self->BroadcastModel(reduced);
    });
  }

  void BroadcastModel(const core::ReduceResult& reduced) {
    auto* const self = this;
    const int model_round = round + 1;
    cluster.client(0).Put(ModelId(model_round),
                          store::Buffer::OfSize(options.model_bytes));
    // The reduced workers fetch the new model and start the next gradient;
    // the others keep computing on their stale copy (asynchrony).
    outstanding = reduced.unreduced;
    pending_broadcast = 0;
    for (const ObjectID grad : reduced.reduced) {
      const NodeID w = WorkerOf(grad);
      worker_round[static_cast<std::size_t>(w)] += 1;
      outstanding.push_back(GradId(w, worker_round[static_cast<std::size_t>(w)]));
      // Garbage-collect the consumed gradient (§6).
      cluster.client(0).Delete(grad);
      if (!worker_alive[static_cast<std::size_t>(w)]) continue;
      pending_broadcast += 1;
      awaiting_model.insert(static_cast<std::uint64_t>(w));
      cluster.client(w)
          .Get(ModelId(model_round), core::GetOptions{.read_only = true})
          .Then([self, w] {
            if (self->awaiting_model.erase(static_cast<std::uint64_t>(w)) == 0) {
              return;  // already accounted (died meanwhile)
            }
            self->StartWorkerCompute(w);
            self->OnModelDelivered();
          });
    }
    if (pending_broadcast == 0) FinishRound();
  }

  void OnModelDelivered() {
    if (--pending_broadcast == 0) FinishRound();
  }

  void FinishRound() {
    result.round_latencies_s.push_back(ToSeconds(cluster.Now() - round_start));
    result.round_end_times_s.push_back(ToSeconds(cluster.Now()));
    ++round;
    StartServerRound();
  }

  [[nodiscard]] NodeID WorkerOf(ObjectID grad) const {
    for (NodeID w = 1; w < options.num_nodes; ++w) {
      for (int r = std::max(0, worker_round[static_cast<std::size_t>(w)] - 1);
           r <= worker_round[static_cast<std::size_t>(w)]; ++r) {
        if (grad == GradId(w, r)) return w;
      }
    }
    HOPLITE_CHECK(false) << "unknown gradient object";
    return kInvalidNode;
  }
};

// --------------------------------------------------------------------
// Ray / Dask backend
// --------------------------------------------------------------------

struct RaySgd {
  explicit RaySgd(const AsyncSgdOptions& opt)
      : options(opt),
        rng(opt.seed),
        net(net::MakeFabric(sim, net::ClusterConfig{.num_nodes = opt.num_nodes})),
        transport(sim, *net,
                  opt.backend == Backend::kDask
                      ? baselines::RayLikeConfig::Dask()
                      : baselines::RayLikeConfig::Ray()) {}

  AsyncSgdOptions options;
  Rng rng;
  sim::Simulator sim;
  std::unique_ptr<net::Fabric> net;
  baselines::RayLikeTransport transport;
  AsyncSgdResult result;

  int workers = 0;
  int half = 0;
  std::vector<int> worker_round;
  std::vector<bool> worker_alive;
  std::vector<std::uint64_t> worker_epoch;
  int round = 0;
  SimTime round_start = 0;
  // The server's apply/broadcast pipeline is strictly serialized: arrivals
  // queue here and are applied one at a time; a broadcast blocks further
  // applications until it completes (matching the single-threaded driver
  // loop of Figure 1a).
  std::deque<NodeID> arrival_queue;
  bool applying = false;
  bool broadcasting = false;
  int applied_this_round = 0;
  int pending_broadcast = 0;
  det::Set<std::uint64_t> awaiting_model;
  bool finished = false;

  void Run() {
    workers = options.num_nodes - 1;
    half = std::max(1, workers / 2);
    worker_round.assign(static_cast<std::size_t>(options.num_nodes), 0);
    worker_alive.assign(static_cast<std::size_t>(options.num_nodes), true);
    worker_epoch.assign(static_cast<std::size_t>(options.num_nodes), 0);

    auto* const self = this;
    for (NodeID w = 1; w < options.num_nodes; ++w) {
      StartWorkerCompute(w);
      SubscribeGradient(w, 0);
    }
    if (options.kill_node != kInvalidNode && options.recover_at > options.kill_at) {
      // The worker process dies instantly; the server notices one detection
      // delay later (0.58 s stock Ray, §5.5).
      sim.ScheduleAt(options.kill_at, [self] {
        const NodeID w = self->options.kill_node;
        self->worker_alive[static_cast<std::size_t>(w)] = false;
        self->worker_epoch[static_cast<std::size_t>(w)] += 1;
        self->net->FailNode(w);
      });
      sim.ScheduleAt(options.kill_at + options.detection_delay, [self] {
        const NodeID w = self->options.kill_node;
        if (self->awaiting_model.erase(static_cast<std::uint64_t>(w)) > 0) {
          self->OnModelDelivered();
        }
      });
      sim.ScheduleAt(options.recover_at, [self] {
        const NodeID w = self->options.kill_node;
        self->net->RecoverNode(w);
        self->worker_alive[static_cast<std::size_t>(w)] = true;
        self->StartWorkerCompute(w);
        self->SubscribeGradient(w, self->worker_round[static_cast<std::size_t>(w)]);
      });
    }
    round_start = 0;
    sim.Run();

    result.rounds_completed = round;
    result.total_seconds = ToSeconds(sim.Now());
    if (result.total_seconds > 0) {
      result.samples_per_second = static_cast<double>(round) * half *
                                  options.batch_size / result.total_seconds;
    }
  }

  void StartWorkerCompute(NodeID w) {
    if (!worker_alive[static_cast<std::size_t>(w)]) return;
    const SimDuration compute = options.gradient_compute.Sample(rng);
    const int expected_round = worker_round[static_cast<std::size_t>(w)];
    const std::uint64_t epoch = worker_epoch[static_cast<std::size_t>(w)];
    auto* const self = this;
    sim.ScheduleAfter(compute, [self, w, expected_round, epoch] {
      if (self->worker_epoch[static_cast<std::size_t>(w)] != epoch) return;
      if (self->worker_round[static_cast<std::size_t>(w)] != expected_round) return;
      self->transport.Put(w, GradId(w, expected_round), self->options.model_bytes);
    });
  }

  /// The server "ray.get"s every outstanding gradient; arrivals are applied
  /// in order, the first `half` of a round triggering the weight update.
  void SubscribeGradient(NodeID w, int grad_round) {
    auto* const self = this;
    transport.Get(0, GradId(w, grad_round)).Then([self, w] { self->OnGradientArrived(w); });
  }

  void OnGradientArrived(NodeID w) {
    if (finished) return;
    arrival_queue.push_back(w);
    PumpApply();
  }

  void PumpApply() {
    if (finished || applying || broadcasting || arrival_queue.empty()) return;
    const NodeID w = arrival_queue.front();
    arrival_queue.pop_front();
    applying = true;
    auto* const self = this;
    // Apply at memory speed (policy += gradient / batch, Figure 1a).
    net->Memcpy(0, options.model_bytes, [self, w] {
      self->applying = false;
      if (self->finished) return;
      self->transport.Delete(GradId(w, self->worker_round[static_cast<std::size_t>(w)]));
      self->worker_round[static_cast<std::size_t>(w)] += 1;
      self->awaiting_model.insert(static_cast<std::uint64_t>(w));
      if (++self->applied_this_round >= self->half) {
        self->applied_this_round = 0;
        self->broadcasting = true;
        self->FinishApplyPhase();
      } else {
        self->PumpApply();
      }
    });
  }

  void FinishApplyPhase() {
    // Broadcast the new model to the batch of finished workers.
    const int model_round = round + 1;
    auto* const self = this;
    transport.Put(0, ModelId(model_round), options.model_bytes).Then([self, model_round] {
      auto waiting = self->awaiting_model;
      self->pending_broadcast = 0;
      for (const std::uint64_t w64 : waiting) {
        const NodeID w = static_cast<NodeID>(w64);
        if (!self->worker_alive[static_cast<std::size_t>(w)]) {
          self->awaiting_model.erase(w64);
          continue;
        }
        self->pending_broadcast += 1;
        self->transport.Get(w, ModelId(model_round)).Then([self, w] {
          if (self->awaiting_model.erase(static_cast<std::uint64_t>(w)) == 0) return;
          self->StartWorkerCompute(w);
          self->SubscribeGradient(w, self->worker_round[static_cast<std::size_t>(w)]);
          self->OnModelDelivered();
        });
      }
      if (self->pending_broadcast == 0) self->FinishRound();
    });
  }

  void OnModelDelivered() {
    if (!broadcasting) return;  // a failure erased a not-yet-broadcast entry
    if (--pending_broadcast == 0) FinishRound();
  }

  void FinishRound() {
    result.round_latencies_s.push_back(ToSeconds(sim.Now() - round_start));
    result.round_end_times_s.push_back(ToSeconds(sim.Now()));
    round_start = sim.Now();
    broadcasting = false;
    if (++round >= options.rounds) {
      finished = true;
      return;
    }
    PumpApply();
  }
};

}  // namespace

AsyncSgdResult RunAsyncSgd(const AsyncSgdOptions& options) {
  HOPLITE_CHECK_GE(options.num_nodes, 2);
  HOPLITE_CHECK_GT(options.model_bytes, 0);
  if (options.backend == Backend::kHoplite) {
    HopliteSgd app(options);
    app.Run();
    return app.result;
  }
  HOPLITE_CHECK(options.backend == Backend::kRay || options.backend == Backend::kDask)
      << "async SGD supports Hoplite/Ray/Dask backends";
  RaySgd app(options);
  app.Run();
  return app.result;
}

}  // namespace hoplite::apps
