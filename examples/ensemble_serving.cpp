// Serving an ensemble of models with broadcast + gather (§5.4).
//
// A frontend node receives queries (a 12 MB batch of images each),
// broadcasts the batch to every model replica through Hoplite's dynamic
// distribution tree, and tallies the (tiny, inline-cached) votes. The run
// kills one replica mid-stream and shows the ensemble degrading gracefully
// to 7 votes, then returning to 8 after the rejoin.
//
//   $ ./examples/ensemble_serving
#include <cstdio>
#include <unordered_set>
#include <vector>

#include "common/units.h"
#include "core/client.h"
#include "core/cluster.h"

using namespace hoplite;

namespace {

constexpr int kReplicas = 8;
constexpr int kQueries = 12;
constexpr std::int64_t kQueryBytes = 64LL * 256 * 256 * 3;

struct Frontend {
  core::HopliteCluster& cluster;
  std::vector<bool> alive = std::vector<bool>(kReplicas + 1, true);
  std::unordered_set<std::uint64_t> waiting{};
  int query = 0;
  SimTime started = 0;

  ObjectID QueryId(int q) { return ObjectID::FromName("query").WithIndex(q); }
  ObjectID VoteId(NodeID replica, int q) {
    return ObjectID::FromName("vote").WithIndex(replica).WithIndex(q);
  }

  void Serve() {
    if (query >= kQueries) return;
    started = cluster.Now();
    const int q = query;
    cluster.client(0).Put(QueryId(q), store::Buffer::OfSize(kQueryBytes));
    waiting.clear();
    for (NodeID replica = 1; replica <= kReplicas; ++replica) {
      if (!alive[static_cast<std::size_t>(replica)]) continue;
      waiting.insert(static_cast<std::uint64_t>(replica));
      // One Then chain per replica: fetch the batch (broadcast tree), infer
      // for 30 ms, vote (inline fast path).
      cluster.client(replica)
          .Get(QueryId(q), core::GetOptions{.read_only = true})
          .Then([this] { return After(cluster.simulator(), Milliseconds(30)); })
          .Then([this, replica, q] {
            if (!alive[static_cast<std::size_t>(replica)]) return;
            cluster.client(replica).Put(VoteId(replica, q),
                                        store::Buffer::OfSize(1024));
          });
      cluster.client(0)
          .Get(VoteId(replica, q), core::GetOptions{.read_only = true})
          .Then([this, replica] {
            waiting.erase(static_cast<std::uint64_t>(replica));
            MaybeFinish();
          });
    }
  }

  void MaybeFinish() {
    if (!waiting.empty()) return;
    int votes = 0;
    for (NodeID replica = 1; replica <= kReplicas; ++replica) {
      votes += alive[static_cast<std::size_t>(replica)] ? 1 : 0;
    }
    std::printf("[%7.1f ms] query %2d served: %d votes, latency %.1f ms\n",
                ToMilliseconds(cluster.Now()), query, votes,
                ToMilliseconds(cluster.Now() - started));
    cluster.client(0).Delete(QueryId(query));
    ++query;
    Serve();
  }
};

}  // namespace

int main() {
  core::HopliteCluster::Options options;
  options.network.num_nodes = kReplicas + 1;
  options.network.failure_detection_delay = Milliseconds(200);
  core::HopliteCluster cluster(options);

  Frontend frontend{cluster};
  // Scoped subscription: dropping the handle (e.g. a frontend that shuts
  // down before the cluster) unregisters the listener.
  const auto membership = cluster.AddMembershipListener([&](NodeID node, bool alive) {
    frontend.alive[static_cast<std::size_t>(node)] = alive;
    std::printf("[%7.1f ms] replica %d is %s\n", ToMilliseconds(cluster.Now()), node,
                alive ? "back" : "down");
    if (!alive && frontend.waiting.erase(static_cast<std::uint64_t>(node)) > 0) {
      frontend.MaybeFinish();
    }
  });
  cluster.ScheduleFaults({{.at = Milliseconds(400), .node = 5, .kill = true},
                          {.at = Milliseconds(900), .node = 5, .kill = false}});

  frontend.Serve();
  cluster.RunAll();
  return 0;
}
