// Figure 6: round-trip latency of point-to-point data communication for
// 1 KB / 1 MB / 1 GB objects on Hoplite, OpenMPI, Ray and Dask, plus the
// theoretical optimum (bytes / bandwidth, both directions).
//
// Also reports the Hoplite-without-pipelining ablation rows (DESIGN.md
// §4.1): the same transfer with blocking worker<->store copies.
//
// Paper reference: OpenMPI 1.8x faster than Hoplite at 1KB, 2.3x at 1MB,
// ~equal at 1GB; Ray and Dask significantly slower at every size.
#include <vector>

#include "baselines/collectives.h"
#include "baselines/ray_like.h"
#include "bench/bench_util.h"
#include "bench/registry.h"
#include "common/units.h"

namespace hoplite::bench {
namespace {

/// Hoplite RTT: Put+Get one way, then Put+Get back.
double HopliteRtt(std::int64_t bytes, bool pipelining, int shards) {
  auto options = PaperCluster(2);
  options.engine_shards = shards;
  options.hoplite.pipeline_worker_copies = pipelining;
  core::HopliteCluster cluster(options);
  const ObjectID there = ObjectID::FromName("ping");
  const ObjectID back = ObjectID::FromName("pong");
  SimTime done = 0;
  cluster.client(0).Put(there, store::Buffer::OfSize(bytes));
  cluster.client(1).Get(there).Then([&] {
    cluster.client(1).Put(back, store::Buffer::OfSize(bytes));
    cluster.client(0).Get(back).Then([&] { done = cluster.Now(); });
  });
  cluster.RunAll();
  return ToSeconds(done);
}

/// MPI RTT: raw send there and back (locations known, no store copies).
double MpiRtt(std::int64_t bytes) {
  sim::Simulator sim;
  const auto net = net::MakeFabric(sim, PaperCluster(2).network);
  baselines::MpiLikeCollectives mpi(sim, *net);
  SimTime done = 0;
  mpi.Send(0, 1, bytes).Then([&] {
    mpi.Send(1, 0, bytes).Then([&](SimTime t) { done = t; });
  });
  sim.Run();
  return ToSeconds(done);
}

/// Ray/Dask RTT: Put+Get each way through the object store.
double RayRtt(std::int64_t bytes, const baselines::RayLikeConfig& config) {
  sim::Simulator sim;
  const auto net = net::MakeFabric(sim, PaperCluster(2).network);
  baselines::RayLikeTransport transport(sim, *net, config);
  const ObjectID there = ObjectID::FromName("ping");
  const ObjectID back = ObjectID::FromName("pong");
  SimTime done = 0;
  transport.Put(0, there, bytes);
  transport.Get(1, there).Then([&] {
    transport.Put(1, back, bytes);
    transport.Get(0, back).Then([&] { done = sim.Now(); });
  });
  sim.Run();
  return ToSeconds(done);
}

std::vector<Row> Run(const RunOptions& opt) {
  std::vector<Row> rows;
  for (const std::int64_t bytes : opt.ObjectSizes({KB(1), MB(1), GB(1)})) {
    const auto point = [&](const char* series, double seconds) {
      rows.push_back(Row{.series = series,
                         .coords = {{"bytes", static_cast<double>(bytes)}},
                         .value = seconds});
    };
    point("Optimal",
          2.0 * ToSeconds(TransferTime(bytes, net::kNicBandwidth)));
    point("Hoplite", HopliteRtt(bytes, true, opt.shards));
    point("Hoplite (no pipeline)", HopliteRtt(bytes, false, opt.shards));
    point("OpenMPI", MpiRtt(bytes));
    point("Ray", RayRtt(bytes, baselines::RayLikeConfig::Ray()));
    point("Dask", RayRtt(bytes, baselines::RayLikeConfig::Dask()));
  }
  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(fig6, "fig6", "Figure 6: point-to-point RTT (2 nodes, 10 Gbps)",
                        Run);

}  // namespace hoplite::bench
