#include "apps/serving.h"

#include <memory>

#include "baselines/ray_like.h"
#include "common/det.h"
#include "common/logging.h"
#include "core/client.h"
#include "core/cluster.h"

namespace hoplite::apps {

namespace {

[[nodiscard]] ObjectID QueryId(int query) {
  return ObjectID::FromName("query").WithIndex(query);
}
[[nodiscard]] ObjectID VoteId(NodeID replica, int query) {
  return ObjectID::FromName("vote").WithIndex(replica).WithIndex(query);
}

// --------------------------------------------------------------------
// Hoplite backend
// --------------------------------------------------------------------

// App backends are stack-owned and outlive Run()'s simulation drain, so
// callbacks capture a plain `this` (no leak-forming shared_ptr cycles).

struct HopliteServing {
  explicit HopliteServing(const ServingOptions& opt)
      : options(opt), rng(opt.seed), cluster(MakeClusterOptions(opt)) {}

  static core::HopliteCluster::Options MakeClusterOptions(const ServingOptions& opt) {
    core::HopliteCluster::Options cluster_options;
    cluster_options.network.num_nodes = opt.num_nodes;
    cluster_options.engine_shards = opt.engine_shards;
    cluster_options.network.failure_detection_delay = opt.detection_delay;
    return cluster_options;
  }

  ServingOptions options;
  Rng rng;
  core::HopliteCluster cluster;
  core::HopliteCluster::MembershipSubscription membership;
  ServingResult result;

  int query = 0;
  SimTime query_start = 0;
  det::Set<std::uint64_t> awaiting_votes;
  std::vector<bool> replica_alive;

  void Run() {
    replica_alive.assign(static_cast<std::size_t>(options.num_nodes), true);
    auto* const self = this;
    membership = cluster.AddMembershipListener([self](NodeID node, bool alive) {
      self->replica_alive[static_cast<std::size_t>(node)] = alive;
      if (!alive && self->awaiting_votes.erase(static_cast<std::uint64_t>(node)) > 0) {
        self->MaybeFinishQuery();
      }
    });
    if (options.kill_node != kInvalidNode && options.recover_at > options.kill_at) {
      cluster.simulator().ScheduleAt(options.kill_at, [self] {
        self->cluster.KillNode(self->options.kill_node);
      });
      cluster.simulator().ScheduleAt(options.recover_at, [self] {
        self->cluster.RecoverNode(self->options.kill_node);
      });
    }
    StartQuery();
    cluster.RunAll();
    result.queries_completed = query;
    result.total_seconds = ToSeconds(cluster.Now());
    if (result.total_seconds > 0) {
      result.queries_per_second = query / result.total_seconds;
    }
  }

  void StartQuery() {
    if (query >= options.num_queries) return;
    query_start = cluster.Now();
    auto* const self = this;
    cluster.client(0).Put(QueryId(query), store::Buffer::OfSize(options.query_bytes));
    awaiting_votes.clear();
    const int q = query;
    for (NodeID replica = 1; replica < options.num_nodes; ++replica) {
      if (!replica_alive[static_cast<std::size_t>(replica)]) continue;
      awaiting_votes.insert(static_cast<std::uint64_t>(replica));
      // The replica fetches the batch (broadcast tree), infers for the
      // sampled duration, and votes — one Then chain per replica.
      cluster.client(replica)
          .Get(QueryId(q), core::GetOptions{.read_only = true})
          .Then([self, replica, q] {
            const SimDuration infer = self->options.inference_compute.Sample(self->rng);
            self->cluster.simulator().ScheduleAfter(infer, [self, replica, q] {
              if (!self->replica_alive[static_cast<std::size_t>(replica)]) return;
              self->cluster.client(replica).Put(
                  VoteId(replica, q), store::Buffer::OfSize(self->options.vote_bytes));
            });
          });
      // The frontend tallies the replica's vote.
      cluster.client(0)
          .Get(VoteId(replica, q), core::GetOptions{.read_only = true})
          .Then([self, replica] {
            self->awaiting_votes.erase(static_cast<std::uint64_t>(replica));
            self->MaybeFinishQuery();
          });
    }
    if (awaiting_votes.empty()) MaybeFinishQuery();
  }

  void MaybeFinishQuery() {
    if (!awaiting_votes.empty()) return;
    result.query_latencies_s.push_back(ToSeconds(cluster.Now() - query_start));
    // Garbage-collect the served batch (votes are tiny inline objects).
    cluster.client(0).Delete(QueryId(query));
    ++query;
    StartQuery();
  }
};

// --------------------------------------------------------------------
// Ray backend
// --------------------------------------------------------------------

struct RayServing {
  explicit RayServing(const ServingOptions& opt)
      : options(opt),
        rng(opt.seed),
        net(net::MakeFabric(sim, net::ClusterConfig{.num_nodes = opt.num_nodes})),
        transport(sim, *net, baselines::RayLikeConfig::Ray()) {}

  ServingOptions options;
  Rng rng;
  sim::Simulator sim;
  std::unique_ptr<net::Fabric> net;
  baselines::RayLikeTransport transport;
  ServingResult result;

  int query = 0;
  SimTime query_start = 0;
  det::Set<std::uint64_t> awaiting_votes;
  std::vector<bool> replica_alive;
  std::vector<bool> replica_known_alive;  ///< frontend's (delayed) view

  void Run() {
    replica_alive.assign(static_cast<std::size_t>(options.num_nodes), true);
    replica_known_alive.assign(static_cast<std::size_t>(options.num_nodes), true);
    auto* const self = this;
    if (options.kill_node != kInvalidNode && options.recover_at > options.kill_at) {
      sim.ScheduleAt(options.kill_at, [self] {
        const NodeID n = self->options.kill_node;
        self->replica_alive[static_cast<std::size_t>(n)] = false;
        self->net->FailNode(n);
      });
      sim.ScheduleAt(options.kill_at + options.detection_delay, [self] {
        const NodeID n = self->options.kill_node;
        self->replica_known_alive[static_cast<std::size_t>(n)] = false;
        if (self->awaiting_votes.erase(static_cast<std::uint64_t>(n)) > 0) {
          self->MaybeFinishQuery();
        }
      });
      sim.ScheduleAt(options.recover_at, [self] {
        const NodeID n = self->options.kill_node;
        self->net->RecoverNode(n);
        self->replica_alive[static_cast<std::size_t>(n)] = true;
        self->replica_known_alive[static_cast<std::size_t>(n)] = true;
      });
    }
    StartQuery();
    sim.Run();
    result.queries_completed = query;
    result.total_seconds = ToSeconds(sim.Now());
    if (result.total_seconds > 0) {
      result.queries_per_second = query / result.total_seconds;
    }
  }

  void StartQuery() {
    if (query >= options.num_queries) return;
    query_start = sim.Now();
    const int q = query;
    auto* const self = this;
    transport.Put(0, QueryId(q), options.query_bytes).Then([self, q] {
      self->awaiting_votes.clear();
      for (NodeID replica = 1; replica < self->options.num_nodes; ++replica) {
        if (!self->replica_known_alive[static_cast<std::size_t>(replica)]) continue;
        self->awaiting_votes.insert(static_cast<std::uint64_t>(replica));
        // Unicast fetch of the batch by each replica (no broadcast tree).
        self->transport.Get(replica, QueryId(q)).Then([self, replica, q] {
          if (!self->replica_alive[static_cast<std::size_t>(replica)]) return;
          const SimDuration infer = self->options.inference_compute.Sample(self->rng);
          self->sim.ScheduleAfter(infer, [self, replica, q] {
            if (!self->replica_alive[static_cast<std::size_t>(replica)]) return;
            self->transport.Put(replica, VoteId(replica, q),
                                self->options.vote_bytes);
          });
        });
        self->transport.Get(0, VoteId(replica, q)).Then([self, replica] {
          self->awaiting_votes.erase(static_cast<std::uint64_t>(replica));
          self->MaybeFinishQuery();
        });
      }
      if (self->awaiting_votes.empty()) self->MaybeFinishQuery();
    });
  }

  void MaybeFinishQuery() {
    if (!awaiting_votes.empty()) return;
    result.query_latencies_s.push_back(ToSeconds(sim.Now() - query_start));
    transport.Delete(QueryId(query));
    ++query;
    StartQuery();
  }
};

}  // namespace

ServingResult RunServing(const ServingOptions& options) {
  HOPLITE_CHECK_GE(options.num_nodes, 2);
  if (options.backend == Backend::kHoplite) {
    HopliteServing app(options);
    app.Run();
    return app.result;
  }
  HOPLITE_CHECK(options.backend == Backend::kRay)
      << "serving supports Hoplite/Ray backends";
  RayServing app(options);
  app.Run();
  return app.result;
}

}  // namespace hoplite::apps
