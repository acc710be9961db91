// Figure 12: per-query / per-iteration latency timeline when a participating
// task fails and later rejoins, for (a) the serving ensemble (8 models) and
// (b) async SGD (6 workers), on both Ray and Hoplite.
//
// Paper reference: failure detection takes 0.58 s on stock Ray and 0.74 s
// with Hoplite (socket liveness, §5.5); exactly one query/iteration absorbs
// the detection delay. After the failure, Ray Serve's latency *drops*
// (fewer unicast receivers) until the worker rejoins; Hoplite's stays nearly
// flat because the broadcast tree already amortized the extra receiver. The
// recovery window itself is the task framework's, identical for both.
#include <string>
#include <vector>

#include "apps/async_sgd.h"
#include "apps/serving.h"
#include "bench/registry.h"
#include "common/units.h"
#include "net/fabric.h"

namespace hoplite::bench {
namespace {

using apps::Backend;

SimDuration DetectionDelay(Backend backend) {
  return backend == Backend::kHoplite ? Milliseconds(740) : Milliseconds(580);
}

void AppendTimeline(std::vector<Row>& rows, const std::string& app, Backend backend,
                    const std::vector<double>& latencies,
                    const std::vector<double>& ends) {
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    rows.push_back(Row{.series = apps::BackendName(backend),
                       .labels = {{"app", app}},
                       .coords = {{"index", static_cast<double>(i)},
                                  {"end_s", i < ends.size() ? ends[i] : 0.0}},
                       .value = latencies[i]});
  }
}

/// Fig12's one failure: `node` dies at `down` and rejoins at `up`.
std::vector<net::FaultEvent> KillAndRejoin(NodeID node, SimTime down, SimTime up) {
  return {{down, node, /*kill=*/true}, {up, node, /*kill=*/false}};
}

/// The failure window the timeline should be read against: consumers mark
/// kill/rejoin on the plot and compare the latency spike to the detection
/// delay (the Row value).
void AppendFailureEvents(std::vector<Row>& rows, const std::string& app,
                         Backend backend, const std::vector<net::FaultEvent>& faults,
                         SimDuration detection_delay) {
  rows.push_back(Row{.series = std::string(apps::BackendName(backend)) + " events",
                     .labels = {{"app", app}},
                     .coords = {{"kill_at_s", ToSeconds(faults.front().at)},
                                {"recover_at_s", ToSeconds(faults.back().at)}},
                     .value = ToSeconds(detection_delay)});
}

void ServingTimeline(std::vector<Row>& rows, const RunOptions& opt, Backend backend) {
  apps::ServingOptions options;
  options.engine_shards = opt.shards;
  options.backend = backend;
  options.num_nodes = opt.Nodes(9);  // 8 models, like §5.5
  options.num_queries = opt.Rounds(70);
  options.query_bytes = opt.Bytes(options.query_bytes);
  options.inference_compute = apps::ComputeModel{Milliseconds(40), 0.1};
  options.faults = KillAndRejoin(options.num_nodes / 2, Seconds(2), Seconds(4));
  options.detection_delay = DetectionDelay(backend);
  const auto result = apps::RunServing(options);
  std::vector<double> ends;
  double t = 0;
  for (const double latency : result.query_latencies_s) ends.push_back(t += latency);
  AppendTimeline(rows, "serving", backend, result.query_latencies_s, ends);
  AppendFailureEvents(rows, "serving", backend, options.faults, options.detection_delay);
}

void SgdTimeline(std::vector<Row>& rows, const RunOptions& opt, Backend backend) {
  apps::AsyncSgdOptions options;
  options.engine_shards = opt.shards;
  options.backend = backend;
  options.num_nodes = opt.Nodes(7);  // 6 workers, like §5.5
  options.model_bytes = opt.Bytes(MB(97));
  options.gradient_compute = apps::ComputeModel{Milliseconds(150), 0.15};
  options.rounds = opt.Rounds(30);
  options.faults = KillAndRejoin(options.num_nodes / 2, Seconds(3), Seconds(7));
  options.detection_delay = DetectionDelay(backend);
  const auto result = apps::RunAsyncSgd(options);
  AppendTimeline(rows, "async_sgd", backend, result.round_latencies_s,
                 result.round_end_times_s);
  AppendFailureEvents(rows, "async_sgd", backend, options.faults,
                      options.detection_delay);
}

std::vector<Row> Run(const RunOptions& opt) {
  std::vector<Row> rows;
  ServingTimeline(rows, opt, Backend::kRay);
  ServingTimeline(rows, opt, Backend::kHoplite);
  SgdTimeline(rows, opt, Backend::kRay);
  SgdTimeline(rows, opt, Backend::kHoplite);
  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(fig12, "fig12",
                        "Figure 12: latency timeline under task failure and rejoin", Run);

}  // namespace hoplite::bench
