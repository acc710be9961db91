#include "apps/rl.h"

#include <memory>
#include <vector>

#include "baselines/ray_like.h"
#include "common/det.h"
#include "common/logging.h"
#include "core/client.h"
#include "core/cluster.h"

namespace hoplite::apps {

namespace {

[[nodiscard]] ObjectID RolloutId(NodeID worker, int round) {
  return ObjectID::FromName("rollout").WithIndex(worker).WithIndex(round);
}
[[nodiscard]] ObjectID PolicyId(int round) {
  return ObjectID::FromName("policy").WithIndex(round);
}
[[nodiscard]] ObjectID GradSumId(int round) {
  return ObjectID::FromName("rl-gradsum").WithIndex(round);
}

[[nodiscard]] std::int64_t UploadBytes(const RlOptions& options) {
  return options.mode == RlMode::kSamplesOptimization ? options.sample_bytes
                                                      : options.model_bytes;
}

// --------------------------------------------------------------------
// Hoplite backend
// --------------------------------------------------------------------

// App backends are stack-owned and outlive Run()'s simulation drain, so
// callbacks capture a plain `this`; callbacks a simulated node death parks
// forever die with the cluster/simulator members, not with a shared_ptr
// cycle (which used to keep the whole app alive past exit — see ROADMAP).

struct HopliteRl {
  explicit HopliteRl(const RlOptions& opt)
      : options(opt), rng(opt.seed), cluster(MakeClusterOptions(opt)) {}

  static core::HopliteCluster::Options MakeClusterOptions(const RlOptions& opt) {
    core::HopliteCluster::Options cluster_options;
    cluster_options.network.num_nodes = opt.num_nodes;
    cluster_options.engine_shards = opt.engine_shards;
    return cluster_options;
  }

  RlOptions options;
  Rng rng;
  core::HopliteCluster cluster;
  RlResult result;

  int workers = 0;
  int half = 0;
  std::vector<int> worker_round;
  std::vector<ObjectID> outstanding;
  det::Map<ObjectID, NodeID> owner_of;  ///< live future -> worker
  int round = 0;
  int gathered = 0;
  int pending_broadcast = 0;
  std::vector<NodeID> batch_workers;  ///< samples mode: first-half finishers

  void Run() {
    workers = options.num_nodes - 1;
    half = std::max(1, workers / 2);
    worker_round.assign(static_cast<std::size_t>(options.num_nodes), 0);
    for (NodeID w = 1; w < options.num_nodes; ++w) {
      outstanding.push_back(RolloutId(w, 0));
      owner_of[RolloutId(w, 0)] = w;
      StartRollout(w);
    }
    StartTrainerRound();
    cluster.RunAll();
    result.rounds_completed = round;
    result.total_seconds = ToSeconds(cluster.Now());
    if (result.total_seconds > 0) {
      result.samples_per_second = static_cast<double>(round) * half *
                                  options.samples_per_rollout / result.total_seconds;
    }
  }

  void StartRollout(NodeID w) {
    const SimDuration compute = options.rollout_compute.Sample(rng);
    const int expected = worker_round[static_cast<std::size_t>(w)];
    auto* const self = this;
    cluster.simulator().ScheduleAfter(compute, [self, w, expected] {
      if (self->worker_round[static_cast<std::size_t>(w)] != expected) return;
      self->cluster.client(w).Put(RolloutId(w, expected),
                                  store::Buffer::OfSize(UploadBytes(self->options)));
    });
  }

  void StartTrainerRound() {
    if (round >= options.rounds) return;
    auto* const self = this;
    if (options.mode == RlMode::kGradientsOptimization) {
      core::ReduceSpec spec;
      spec.target = GradSumId(round);
      spec.sources = outstanding;
      spec.num_objects = static_cast<std::size_t>(half);
      cluster.client(0).Reduce(std::move(spec)).Then([self](const core::ReduceResult& r) {
        self->batch_workers.clear();
        std::vector<ObjectID> next = r.unreduced;
        for (const ObjectID id : r.reduced) {
          const NodeID w = self->owner_of.at(id);
          self->owner_of.erase(id);
          self->batch_workers.push_back(w);
          self->worker_round[static_cast<std::size_t>(w)] += 1;
          const ObjectID next_id =
              RolloutId(w, self->worker_round[static_cast<std::size_t>(w)]);
          next.push_back(next_id);
          self->owner_of[next_id] = w;
          self->cluster.client(0).Delete(id);
        }
        self->outstanding = std::move(next);
        self->UpdateModel();
      });
      return;
    }
    // Samples optimization: gather the first half finishers' sample batches
    // into the trainer (plain Gets; Hoplite pipelines them).
    gathered = 0;
    batch_workers.clear();
    // Subscribe to all outstanding rollouts; the first `half` arrivals at
    // the trainer form this round's batch.
    const std::vector<ObjectID> watched = outstanding;
    for (const ObjectID id : watched) {
      cluster.client(0)
          .Get(id, core::GetOptions{.read_only = true})
          .Then([self, id] { self->OnSample(id); });
    }
  }

  void OnSample(ObjectID id) {
    if (gathered >= half) return;  // beyond this round's batch; next round re-Gets
    auto owner = owner_of.find(id);
    if (owner == owner_of.end()) return;  // already consumed (duplicate Get)
    const NodeID w = owner->second;
    owner_of.erase(owner);
    batch_workers.push_back(w);
    worker_round[static_cast<std::size_t>(w)] += 1;
    // Replace the consumed rollout future with the next one.
    const ObjectID next_id = RolloutId(w, worker_round[static_cast<std::size_t>(w)]);
    owner_of[next_id] = w;
    for (ObjectID& entry : outstanding) {
      if (entry == id) {
        entry = next_id;
        break;
      }
    }
    cluster.client(0).Delete(id);
    if (++gathered == half) UpdateModel();
  }

  void UpdateModel() {
    auto* const self = this;
    cluster.simulator().ScheduleAfter(options.update_compute.Sample(rng), [self] {
      self->BroadcastPolicy();
    });
  }

  void BroadcastPolicy() {
    const int model_round = round + 1;
    auto* const self = this;
    cluster.client(0).Put(PolicyId(model_round), store::Buffer::OfSize(options.model_bytes));
    pending_broadcast = static_cast<int>(batch_workers.size());
    for (const NodeID w : batch_workers) {
      cluster.client(w)
          .Get(PolicyId(model_round), core::GetOptions{.read_only = true})
          .Then([self, w] {
            self->StartRollout(w);
            if (--self->pending_broadcast == 0) self->FinishRound();
          });
    }
    if (pending_broadcast == 0) FinishRound();
  }

  void FinishRound() {
    ++round;
    StartTrainerRound();
  }
};

// --------------------------------------------------------------------
// Ray backend
// --------------------------------------------------------------------

struct RayRl {
  explicit RayRl(const RlOptions& opt)
      : options(opt),
        rng(opt.seed),
        net(net::MakeFabric(sim, net::ClusterConfig{.num_nodes = opt.num_nodes})),
        transport(sim, *net, baselines::RayLikeConfig::Ray()) {}

  RlOptions options;
  Rng rng;
  sim::Simulator sim;
  std::unique_ptr<net::Fabric> net;
  baselines::RayLikeTransport transport;
  RlResult result;

  int workers = 0;
  int half = 0;
  std::vector<int> worker_round;
  int round = 0;
  int gathered = 0;
  int pending_broadcast = 0;
  bool finished = false;
  // Serialized trainer pipeline: uploads queue and are consumed one at a
  // time; a broadcast blocks further consumption until it completes.
  std::deque<NodeID> arrival_queue;
  bool applying = false;
  bool broadcasting = false;
  std::vector<NodeID> batch_workers;

  void Run() {
    workers = options.num_nodes - 1;
    half = std::max(1, workers / 2);
    worker_round.assign(static_cast<std::size_t>(options.num_nodes), 0);
    for (NodeID w = 1; w < options.num_nodes; ++w) {
      StartRollout(w);
      Subscribe(w, 0);
    }
    sim.Run();
    result.rounds_completed = round;
    result.total_seconds = ToSeconds(sim.Now());
    if (result.total_seconds > 0) {
      result.samples_per_second = static_cast<double>(round) * half *
                                  options.samples_per_rollout / result.total_seconds;
    }
  }

  void StartRollout(NodeID w) {
    const SimDuration compute = options.rollout_compute.Sample(rng);
    const int expected = worker_round[static_cast<std::size_t>(w)];
    auto* const self = this;
    sim.ScheduleAfter(compute, [self, w, expected] {
      if (self->worker_round[static_cast<std::size_t>(w)] != expected) return;
      self->transport.Put(w, RolloutId(w, expected), UploadBytes(self->options));
    });
  }

  void Subscribe(NodeID w, int upload_round) {
    auto* const self = this;
    // Both modes fetch every upload into the trainer one by one (Ray has no
    // reduce; gradients are applied individually, Figure 1a).
    transport.Get(0, RolloutId(w, upload_round)).Then([self, w] { self->OnUpload(w); });
  }

  void OnUpload(NodeID w) {
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
    const std::int64_t apply_bytes =
        options.mode == RlMode::kGradientsOptimization ? options.model_bytes : 0;
    net->Memcpy(0, apply_bytes, [self, w] {
      self->applying = false;
      if (self->finished) return;
      self->transport.Delete(
          RolloutId(w, self->worker_round[static_cast<std::size_t>(w)]));
      self->worker_round[static_cast<std::size_t>(w)] += 1;
      self->batch_workers.push_back(w);
      if (++self->gathered >= self->half) {
        self->gathered = 0;
        self->broadcasting = true;
        self->UpdateModel();
      } else {
        self->PumpApply();
      }
    });
  }

  void UpdateModel() {
    auto* const self = this;
    sim.ScheduleAfter(options.update_compute.Sample(rng), [self] {
      self->BroadcastPolicy();
    });
  }

  void BroadcastPolicy() {
    const int model_round = round + 1;
    auto* const self = this;
    auto batch = std::make_shared<std::vector<NodeID>>(std::move(batch_workers));
    batch_workers.clear();
    transport.Put(0, PolicyId(model_round), options.model_bytes)
        .Then([self, model_round, batch] {
          self->pending_broadcast = static_cast<int>(batch->size());
          for (const NodeID w : *batch) {
            self->transport.Get(w, PolicyId(model_round)).Then([self, w] {
              self->StartRollout(w);
              self->Subscribe(w, self->worker_round[static_cast<std::size_t>(w)]);
              if (--self->pending_broadcast == 0) self->FinishRound();
            });
          }
          if (self->pending_broadcast == 0) self->FinishRound();
        });
  }

  void FinishRound() {
    broadcasting = false;
    if (++round >= options.rounds) {
      finished = true;
      return;
    }
    PumpApply();
  }
};

}  // namespace

RlResult RunRl(const RlOptions& options) {
  HOPLITE_CHECK_GE(options.num_nodes, 2);
  if (options.backend == Backend::kHoplite) {
    HopliteRl app(options);
    app.Run();
    return app.result;
  }
  HOPLITE_CHECK(options.backend == Backend::kRay) << "RL supports Hoplite/Ray backends";
  RayRl app(options);
  app.Run();
  return app.result;
}

}  // namespace hoplite::apps
