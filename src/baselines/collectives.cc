#include "baselines/collectives.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "store/buffer.h"

namespace hoplite::baselines {

namespace {

using store::ChunkLayout;

/// Segment size for pipelined tree algorithms (OpenMPI segments large
/// messages; 4 MB keeps it comparable to Hoplite's pipeline block).
constexpr std::int64_t kSegmentBytes = 4 * 1024 * 1024;
/// In-flight segments per tree edge (hides per-segment latency).
constexpr int kWindow = 2;
/// Message size below which allreduce uses recursive doubling instead of
/// the ring (OpenMPI switches algorithms by size, see the footnote to
/// Figure 7).
constexpr std::int64_t kAllreduceRingThreshold = 64 * 1024;
/// Above this size, broadcast switches from the binomial tree to the
/// pipelined chain, mirroring OpenMPI's tuned decision tables: a k-child
/// tree root pushes k full copies through its NIC, so large messages favor
/// depth over fan-out.
constexpr std::int64_t kChainThreshold = 4 * 1024 * 1024;

[[nodiscard]] int FloorLog2(int x) {
  HOPLITE_CHECK_GT(x, 0);
  int log = 0;
  while ((1 << (log + 1)) <= x) ++log;
  return log;
}

[[nodiscard]] SimTime MaxReady(const std::vector<Participant>& participants) {
  SimTime gate = 0;
  for (const Participant& p : participants) gate = std::max(gate, p.ready_at);
  return gate;
}

[[nodiscard]] std::vector<NodeID> NodesOf(const std::vector<Participant>& participants) {
  std::vector<NodeID> nodes;
  nodes.reserve(participants.size());
  for (const Participant& p : participants) nodes.push_back(p.node);
  return nodes;
}

/// Ready, with its delivery instant, once `bytes` sent from `src` at `at`
/// reached `dst`.
[[nodiscard]] Ref<SimTime> SendAt(sim::Engine& sim, net::Fabric& net, SimTime at, NodeID src,
                                  NodeID dst, std::int64_t bytes) {
  RefPromise<SimTime> done(&sim, ObjectID{});
  sim.ScheduleAt(at, [sim = &sim, net = &net, src, dst, bytes, done] {
    net->Send(src, dst, bytes, [sim, done] { done.Resolve(sim->Now()); });
  });
  return done.ref();
}

/// Ready with the instant the last of `sends` was delivered.
[[nodiscard]] Ref<SimTime> Last(const std::vector<Ref<SimTime>>& sends) {
  return WhenAll(sends).Then(
      [](const std::vector<SimTime>& at) { return *std::max_element(at.begin(), at.end()); });
}

// --------------------------------------------------------------------
// Segmented binomial broadcast with per-edge readiness gating.
// --------------------------------------------------------------------

struct TreeBroadcastOp : std::enable_shared_from_this<TreeBroadcastOp> {
  sim::Engine& sim;
  net::Fabric& net;
  ChunkLayout layout;
  std::int64_t total_chunks = 0;
  bool chain = false;  ///< pipelined chain instead of binomial tree
  std::vector<Participant> parts;
  std::vector<std::int64_t> have;  ///< contiguous chunks present per position
  struct Edge {
    int parent = 0;
    int child = 0;
    std::int64_t next = 0;
    int in_flight = 0;
    bool active = false;
  };
  std::vector<Edge> edges;
  std::vector<std::vector<std::size_t>> edges_of_parent;
  int remaining_receivers = 0;
  RefPromise<SimTime> done;

  TreeBroadcastOp(sim::Engine& s, net::Fabric& n) : sim(s), net(n), done(&s, ObjectID{}) {}

  void Start() {
    const int n = static_cast<int>(parts.size());
    have.assign(static_cast<std::size_t>(n), 0);
    edges_of_parent.assign(static_cast<std::size_t>(n), {});
    for (int child = 1; child < n; ++child) {
      Edge edge;
      edge.parent = chain ? child - 1 : BinomialParent(child);
      edge.child = child;
      edges.push_back(edge);
      edges_of_parent[static_cast<std::size_t>(edge.parent)].push_back(edges.size() - 1);
    }
    remaining_receivers = n - 1;
    auto self = shared_from_this();
    if (remaining_receivers == 0) {
      sim.ScheduleAt(std::max(sim.Now(), parts[0].ready_at),
                     [self] { self->done.Resolve(self->sim.Now()); });
      return;
    }
    // Root data becomes visible when the root arrives.
    sim.ScheduleAt(std::max(sim.Now(), parts[0].ready_at), [self] {
      self->have[0] = self->total_chunks;
      self->PumpParent(0);
    });
    // Each edge activates when both endpoints have arrived (§7: progress
    // requires the whole upstream path to be ready).
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const SimTime activate =
          std::max({sim.Now(), parts[static_cast<std::size_t>(edges[e].parent)].ready_at,
                    parts[static_cast<std::size_t>(edges[e].child)].ready_at});
      sim.ScheduleAt(activate, [self, e] {
        self->edges[e].active = true;
        self->PumpEdge(e);
      });
    }
  }

  void PumpParent(int position) {
    for (const std::size_t e : edges_of_parent[static_cast<std::size_t>(position)]) {
      PumpEdge(e);
    }
  }

  void PumpEdge(std::size_t e) {
    Edge& edge = edges[e];
    if (!edge.active) return;
    auto self = shared_from_this();
    while (edge.in_flight < kWindow &&
           edge.next < have[static_cast<std::size_t>(edge.parent)]) {
      const std::int64_t chunk = edge.next++;
      edge.in_flight += 1;
      net.Send(parts[static_cast<std::size_t>(edge.parent)].node,
               parts[static_cast<std::size_t>(edge.child)].node, layout.ChunkBytes(chunk),
               [self, e, chunk] { self->OnDelivered(e, chunk); });
    }
  }

  void OnDelivered(std::size_t e, std::int64_t chunk) {
    Edge& edge = edges[e];
    edge.in_flight -= 1;
    auto& child_have = have[static_cast<std::size_t>(edge.child)];
    child_have = std::max(child_have, chunk + 1);
    if (child_have == total_chunks && chunk + 1 == total_chunks) {
      if (--remaining_receivers == 0) {
        done.Resolve(sim.Now());
        return;
      }
    }
    PumpParent(edge.child);
    PumpEdge(e);
  }
};

// --------------------------------------------------------------------
// Segmented binary-tree reduce (root = position 0), gated on all-ready.
// --------------------------------------------------------------------

struct TreeReduceOp : std::enable_shared_from_this<TreeReduceOp> {
  sim::Engine& sim;
  net::Fabric& net;
  ChunkLayout layout;
  std::int64_t total_chunks = 0;
  std::vector<NodeID> nodes;
  int degree = 2;  ///< 1 = pipelined chain, 2 = binary tree
  /// Chunks of this position's (partially) reduced output that are ready.
  std::vector<std::int64_t> out;
  struct Edge {
    int child = 0;  ///< edge child -> parent(child)
    std::int64_t next = 0;
    std::int64_t received = 0;
    int in_flight = 0;
  };
  std::vector<Edge> edges;                   ///< indexed by child position - 1
  std::vector<std::vector<int>> children_of;
  RefPromise<SimTime> done;

  TreeReduceOp(sim::Engine& s, net::Fabric& n) : sim(s), net(n), done(&s, ObjectID{}) {}

  [[nodiscard]] int Parent(int i) const { return (i - 1) / degree; }

  void Start(SimTime gate) {
    const int n = static_cast<int>(nodes.size());
    out.assign(static_cast<std::size_t>(n), 0);
    children_of.assign(static_cast<std::size_t>(n), {});
    edges.resize(static_cast<std::size_t>(n > 0 ? n - 1 : 0));
    for (int child = 1; child < n; ++child) {
      edges[static_cast<std::size_t>(child - 1)].child = child;
      children_of[static_cast<std::size_t>(Parent(child))].push_back(child);
    }
    auto self = shared_from_this();
    sim.ScheduleAt(std::max(sim.Now(), gate), [self] {
      const int n2 = static_cast<int>(self->nodes.size());
      for (int pos = 0; pos < n2; ++pos) self->Recompute(pos);
      if (n2 == 1) self->MaybeFinish();
    });
  }

  void Recompute(int position) {
    // Output chunk c is ready once chunk c arrived from every child (own
    // data is local and free).
    std::int64_t ready = total_chunks;
    for (const int child : children_of[static_cast<std::size_t>(position)]) {
      ready = std::min(ready, edges[static_cast<std::size_t>(child - 1)].received);
    }
    auto& slot = out[static_cast<std::size_t>(position)];
    if (ready <= slot && position != 0) {
      PumpEdgeOf(position);
      return;
    }
    slot = std::max(slot, ready);
    if (position == 0) {
      MaybeFinish();
    } else {
      PumpEdgeOf(position);
    }
  }

  void PumpEdgeOf(int position) {
    if (position == 0) return;
    Edge& edge = edges[static_cast<std::size_t>(position - 1)];
    auto self = shared_from_this();
    while (edge.in_flight < kWindow && edge.next < out[static_cast<std::size_t>(position)]) {
      const std::int64_t chunk = edge.next++;
      edge.in_flight += 1;
      net.Send(nodes[static_cast<std::size_t>(position)],
               nodes[static_cast<std::size_t>(Parent(position))], layout.ChunkBytes(chunk),
               [self, position, chunk] { self->OnDelivered(position, chunk); });
    }
  }

  void OnDelivered(int position, std::int64_t chunk) {
    Edge& edge = edges[static_cast<std::size_t>(position - 1)];
    edge.in_flight -= 1;
    edge.received = std::max(edge.received, chunk + 1);
    Recompute(Parent(position));
    PumpEdgeOf(position);
  }

  void MaybeFinish() {
    if (done.settled() || out[0] < total_chunks) return;
    done.Resolve(sim.Now());
  }
};

// --------------------------------------------------------------------
// Bulk-synchronous ring allreduce (reduce-scatter + allgather).
// --------------------------------------------------------------------

struct RingOp : std::enable_shared_from_this<RingOp> {
  sim::Engine& sim;
  net::Fabric& net;
  std::vector<NodeID> nodes;
  std::int64_t block_bytes = 0;
  int total_rounds = 0;
  std::vector<int> sends_issued;
  std::vector<int> recvs_done;
  int nodes_finished = 0;
  RefPromise<SimTime> done;

  RingOp(sim::Engine& s, net::Fabric& n) : sim(s), net(n), done(&s, ObjectID{}) {}

  void Start(SimTime gate) {
    const int n = static_cast<int>(nodes.size());
    sends_issued.assign(static_cast<std::size_t>(n), 0);
    recvs_done.assign(static_cast<std::size_t>(n), 0);
    auto self = shared_from_this();
    sim.ScheduleAt(std::max(sim.Now(), gate), [self] {
      const int n2 = static_cast<int>(self->nodes.size());
      for (int i = 0; i < n2; ++i) self->TrySend(i);
    });
  }

  void TrySend(int i) {
    // Node i may send round k once it has received round k-1 (k=0 is free).
    auto& issued = sends_issued[static_cast<std::size_t>(i)];
    if (issued >= total_rounds) return;
    if (issued > recvs_done[static_cast<std::size_t>(i)]) return;
    const int n = static_cast<int>(nodes.size());
    const int next = (i + 1) % n;
    const int round = issued++;
    auto self = shared_from_this();
    net.Send(nodes[static_cast<std::size_t>(i)], nodes[static_cast<std::size_t>(next)],
             block_bytes, [self, next, round] { self->OnReceive(next, round); });
  }

  void OnReceive(int i, int round) {
    auto& recvs = recvs_done[static_cast<std::size_t>(i)];
    recvs = std::max(recvs, round + 1);
    if (recvs == total_rounds) {
      if (++nodes_finished == static_cast<int>(nodes.size())) {
        done.Resolve(sim.Now());
        return;
      }
    }
    TrySend(i);
  }
};

/// Ring allreduce over `nodes` (all ready at `start`): 2(n-1) bulk-synchronous
/// rounds of S/n blocks. Shared by MPI and Gloo.
Ref<SimTime> RunRingAllreduce(sim::Engine& sim, net::Fabric& net, std::vector<NodeID> nodes,
                              std::int64_t bytes, SimTime start) {
  const int n = static_cast<int>(nodes.size());
  HOPLITE_CHECK_GE(n, 2);
  auto op = std::make_shared<RingOp>(sim, net);
  op->nodes = std::move(nodes);
  op->block_bytes = (bytes + n - 1) / n;
  op->total_rounds = 2 * (n - 1);
  op->Start(start);
  return op->done.ref();
}

// --------------------------------------------------------------------
// Pairwise-exchange rounds (recursive doubling / halving-doubling).
// Round r: core node i exchanges sizes[r] bytes with i ^ (1 << hops[r]).
// Non-power-of-two participant counts pay a fold-in and fold-out step.
// --------------------------------------------------------------------

struct PairwiseOp : std::enable_shared_from_this<PairwiseOp> {
  sim::Engine& sim;
  net::Fabric& net;
  std::vector<NodeID> nodes;  ///< every rank; the first `core` run the rounds
  int core = 1;               ///< largest power of two <= nodes.size()
  std::vector<std::int64_t> round_bytes;
  std::vector<int> round_hops;
  std::int64_t fold_bytes = 0;
  SimTime gate = 0;           ///< no rank starts before every rank is ready
  std::vector<int> round_of;  ///< per core node, next round to run
  std::vector<int> waiting;   ///< per core node, recv pending in current round
  int finished_nodes = 0;
  int folds_pending = 0;
  RefPromise<SimTime> done;

  PairwiseOp(sim::Engine& s, net::Fabric& n) : sim(s), net(n), done(&s, ObjectID{}) {}

  [[nodiscard]] int extras() const { return static_cast<int>(nodes.size()) - core; }

  void Start() {
    if (extras() == 0) {
      StartCore();
      return;
    }
    auto self = shared_from_this();
    sim.ScheduleAt(std::max(sim.Now(), gate), [self] { self->Fold(/*in=*/true); });
  }

  void StartCore() {
    round_of.assign(static_cast<std::size_t>(core), 0);
    waiting.assign(static_cast<std::size_t>(core), 0);
    auto self = shared_from_this();
    sim.ScheduleAt(std::max(sim.Now(), gate), [self] {
      for (int i = 0; i < self->core; ++i) self->RunRound(i);
    });
  }

  /// Fold-in: extra rank core+i ships its data to core rank i, then the core
  /// phase starts. Fold-out: results ship back, then the op is done.
  void Fold(bool in) {
    folds_pending = extras();
    auto self = shared_from_this();
    for (int i = 0; i < extras(); ++i) {
      const NodeID extra = nodes[static_cast<std::size_t>(core + i)];
      const NodeID partner = nodes[static_cast<std::size_t>(i)];
      net.Send(in ? extra : partner, in ? partner : extra, fold_bytes, [self, in] {
        if (--self->folds_pending > 0) return;
        if (in) {
          self->StartCore();
        } else {
          self->done.Resolve(self->sim.Now());
        }
      });
    }
  }

  void RunRound(int i) {
    const int round = round_of[static_cast<std::size_t>(i)];
    if (round >= static_cast<int>(round_bytes.size())) {
      if (++finished_nodes < core) return;
      if (extras() > 0) {
        Fold(/*in=*/false);
      } else {
        done.Resolve(sim.Now());
      }
      return;
    }
    const int partner = i ^ (1 << round_hops[static_cast<std::size_t>(round)]);
    waiting[static_cast<std::size_t>(i)] = 1;
    auto self = shared_from_this();
    net.Send(nodes[static_cast<std::size_t>(i)], nodes[static_cast<std::size_t>(partner)],
             round_bytes[static_cast<std::size_t>(round)], [self, partner] {
               // The partner received our half of the exchange.
               self->waiting[static_cast<std::size_t>(partner)] -= 1;
               if (self->waiting[static_cast<std::size_t>(partner)] <= 0) {
                 self->round_of[static_cast<std::size_t>(partner)] += 1;
                 self->RunRound(partner);
               }
             });
  }
};

Ref<SimTime> RunPairwise(sim::Engine& sim, net::Fabric& net, std::vector<NodeID> nodes,
                         std::vector<std::int64_t> round_bytes, std::vector<int> round_hops,
                         std::int64_t fold_bytes, SimTime gate) {
  auto op = std::make_shared<PairwiseOp>(sim, net);
  while (op->core * 2 <= static_cast<int>(nodes.size())) op->core *= 2;
  op->nodes = std::move(nodes);
  op->round_bytes = std::move(round_bytes);
  op->round_hops = std::move(round_hops);
  op->fold_bytes = fold_bytes;
  op->gate = gate;
  op->Start();
  return op->done.ref();
}

}  // namespace

// ======================================================================
// Shared helpers
// ======================================================================

int BinomialParent(int i) {
  HOPLITE_CHECK_GT(i, 0);
  return i - (1 << FloorLog2(i));
}

std::vector<int> BinomialChildren(int i, int n) {
  std::vector<int> children;
  const int start = i == 0 ? 0 : FloorLog2(i) + 1;
  for (int k = start; (i + (1 << k)) < n; ++k) {
    children.push_back(i + (1 << k));
  }
  return children;
}

// ======================================================================
// MpiLikeCollectives
// ======================================================================

MpiLikeCollectives::MpiLikeCollectives(sim::Engine& simulator, net::Fabric& network)
    : sim_(simulator), net_(network) {}

Ref<SimTime> MpiLikeCollectives::Send(NodeID src, NodeID dst, std::int64_t bytes) {
  RefPromise<SimTime> done(&sim_, ObjectID{});
  net_.Send(src, dst, bytes, [this, done] { done.Resolve(sim_.Now()); });
  return done.ref();
}

Ref<SimTime> MpiLikeCollectives::Broadcast(std::vector<Participant> participants,
                                           std::int64_t bytes) {
  HOPLITE_CHECK(!participants.empty());
  auto op = std::make_shared<TreeBroadcastOp>(sim_, net_);
  op->layout = ChunkLayout{bytes, kSegmentBytes};
  op->total_chunks = op->layout.num_chunks();
  op->chain = bytes >= kChainThreshold;
  op->parts = std::move(participants);
  op->Start();
  return op->done.ref();
}

Ref<SimTime> MpiLikeCollectives::Reduce(const std::vector<Participant>& participants,
                                        std::int64_t bytes) {
  HOPLITE_CHECK(!participants.empty());
  auto op = std::make_shared<TreeReduceOp>(sim_, net_);
  op->layout = ChunkLayout{bytes, kSegmentBytes};
  op->total_chunks = op->layout.num_chunks();
  // OpenMPI's default large-message reduce stays a (segmented) binary tree;
  // internal nodes receive from two children, so the root's ingress carries
  // ~2x the object — the post-gate cost Figure 8b exposes.
  op->degree = 2;
  op->nodes = NodesOf(participants);
  op->Start(MaxReady(participants));
  return op->done.ref();
}

Ref<SimTime> MpiLikeCollectives::Gather(const std::vector<Participant>& participants,
                                        std::int64_t bytes) {
  HOPLITE_CHECK_GE(participants.size(), 2u);
  const NodeID root = participants[0].node;
  std::vector<Ref<SimTime>> sends;
  for (std::size_t i = 1; i < participants.size(); ++i) {
    const Participant& p = participants[i];
    sends.push_back(
        SendAt(sim_, net_, std::max(sim_.Now(), p.ready_at), p.node, root, bytes));
  }
  return Last(sends);
}

Ref<SimTime> MpiLikeCollectives::Allreduce(const std::vector<Participant>& participants,
                                           std::int64_t bytes) {
  HOPLITE_CHECK_GE(participants.size(), 2u);
  const SimTime gate = MaxReady(participants);
  std::vector<NodeID> nodes = NodesOf(participants);
  if (bytes >= kAllreduceRingThreshold) {
    return RunRingAllreduce(sim_, net_, std::move(nodes), bytes, gate);
  }
  // Recursive doubling: log2(m) rounds of full-size exchange.
  int m = 1;
  while (m * 2 <= static_cast<int>(nodes.size())) m *= 2;
  std::vector<std::int64_t> round_bytes;
  std::vector<int> round_hops;
  for (int k = 0; (1 << k) < m; ++k) {
    round_bytes.push_back(bytes);
    round_hops.push_back(k);
  }
  return RunPairwise(sim_, net_, std::move(nodes), std::move(round_bytes),
                     std::move(round_hops), bytes, gate);
}

// ======================================================================
// GlooLikeCollectives
// ======================================================================

GlooLikeCollectives::GlooLikeCollectives(sim::Engine& simulator, net::Fabric& network)
    : sim_(simulator), net_(network) {}

Ref<SimTime> GlooLikeCollectives::Broadcast(const std::vector<Participant>& participants,
                                            std::int64_t bytes) {
  HOPLITE_CHECK_GE(participants.size(), 2u);
  // Unoptimized: the root unicasts the full object to every receiver; its
  // egress queue serializes the copies.
  const SimTime gate = std::max(sim_.Now(), participants[0].ready_at);
  const NodeID root = participants[0].node;
  std::vector<Ref<SimTime>> sends;
  for (std::size_t i = 1; i < participants.size(); ++i) {
    const Participant& p = participants[i];
    sends.push_back(SendAt(sim_, net_, std::max(gate, p.ready_at), root, p.node, bytes));
  }
  return Last(sends);
}

Ref<SimTime> GlooLikeCollectives::RingChunkedAllreduce(
    const std::vector<Participant>& participants, std::int64_t bytes) {
  HOPLITE_CHECK_GE(participants.size(), 2u);
  return RunRingAllreduce(sim_, net_, NodesOf(participants), bytes, MaxReady(participants));
}

Ref<SimTime> GlooLikeCollectives::HalvingDoublingAllreduce(
    const std::vector<Participant>& participants, std::int64_t bytes) {
  HOPLITE_CHECK_GE(participants.size(), 2u);
  std::vector<NodeID> nodes = NodesOf(participants);
  int m = 1;
  while (m * 2 <= static_cast<int>(nodes.size())) m *= 2;
  std::vector<std::int64_t> round_bytes;
  std::vector<int> round_hops;
  // Recursive halving (reduce-scatter): S/2, S/4, ...
  std::int64_t size = bytes;
  for (int k = 0; (1 << k) < m; ++k) {
    size = std::max<std::int64_t>(size / 2, 1);
    round_bytes.push_back(size);
    round_hops.push_back(k);
  }
  // Recursive doubling (allgather): ..., S/4, S/2.
  for (int k = static_cast<int>(round_bytes.size()) - 1; k >= 0; --k) {
    round_bytes.push_back(round_bytes[static_cast<std::size_t>(k)]);
    round_hops.push_back(round_hops[static_cast<std::size_t>(k)]);
  }
  return RunPairwise(sim_, net_, std::move(nodes), std::move(round_bytes),
                     std::move(round_hops), bytes, MaxReady(participants));
}

}  // namespace hoplite::baselines
