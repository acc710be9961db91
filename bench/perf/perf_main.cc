// hoplite_perf: one benchmark run of one workload, in one process.
//
//   hoplite_perf --workload NAME --seed N [--trace] [--seconds S]
//                [--horizon-scale F] --out FILE
//
// The untraced run is the path users take: BuildScenario/BuildTrace, then
// workload::MakeBackend(kHoplite), then RunTrace. Each replay gets a fresh
// set-up; replays repeat until S host seconds of replay have been spent (at
// least one, two with --trace), then set-up alone repeats until 25 set-ups
// were timed and 1 s was spent on them, so the median set-up spans more
// than one burst of host noise. Peak RSS is read right after the first
// replay: the footprint of one set-up plus one replay. With --trace the same
// trace is replayed once more on the traced backend (traced_run.h), for the
// per-layer split and the wire bytes; its overhead ratio is taken against
// the fastest untraced replay, which is never the cold first one alone.
//
// Checks (exit 1, the JSON still written): every replay reproduces the first
// one's per-op outcomes, so does the traced replay, the open-loop issue lag
// is 0, at least 1,000 ops complete (full horizon only) and every metric is
// finite.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench/perf/traced_run.h"
#include "bench/perf/wall_clock.h"
#include "bench/perf/workloads.h"
#include "workload/backend.h"
#include "workload/driver.h"

namespace hoplite::perf {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  double seconds = 0.0;
  double horizon_scale = 1.0;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      args->trace = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--horizon-scale") {
      args->horizon_scale = std::strtod(value, nullptr);
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->out.empty() && args->horizon_scale > 0;
}

/// Whether two replays of one trace agree on every op's issue instant,
/// settle instant, success and error.
bool SameOutcomes(const workload::LoadReport& a, const workload::LoadReport& b) {
  if (a.ops.size() != b.ops.size()) return false;
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    const workload::OpOutcome& x = a.ops[i];
    const workload::OpOutcome& y = b.ops[i];
    if (x.issued_at != y.issued_at || x.settled_at != y.settled_at || x.ok != y.ok ||
        (!x.ok && x.error != y.error)) {
      return false;
    }
  }
  return true;
}

/// FNV-1a over the same per-op facts, so separate processes can compare.
std::uint64_t OutcomeDigest(const workload::LoadReport& report) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::int64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= static_cast<std::uint64_t>(v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const workload::OpOutcome& op : report.ops) {
    mix(op.issued_at);
    mix(op.settled_at);
    mix(op.ok ? -1 : static_cast<std::int64_t>(op.error));
  }
  return h;
}

/// Simulated latency of completed ops, in ms: the mean, the mean of the
/// slowest 1% (every workload completes >= 3,400 ops, so >= 34 samples),
/// and the p50/p99 the report carries. Percentiles of simulated latency sit
/// on a few exact values (protocol constants), so the two means are the ones
/// that move continuously with the workload.
std::vector<Metric> LatencyMetrics(const workload::LoadReport& report) {
  std::vector<double> ms;
  for (const workload::OpOutcome& op : report.ops) {
    if (op.settled() && op.ok) ms.push_back(op.latency_s() * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  const std::size_t tail = std::max<std::size_t>(1, ms.size() / 100);
  double sum = 0.0;
  double tail_sum = 0.0;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    sum += ms[i];
    if (i >= ms.size() - tail) tail_sum += ms[i];
  }
  const auto n = static_cast<double>(ms.size());
  return {{"op_mean_ms", sum / n},
          {"op_tail_ms", tail_sum / static_cast<double>(tail)},
          {"op_p50_ms", report.total.latency.p50 * 1e3},
          {"op_p99_ms", report.total.latency.p99 * 1e3}};
}

class JsonWriter {
 public:
  explicit JsonWriter(std::FILE* f) : f_(f) {}
  void Open(const char* key = nullptr) {
    Key(key);
    std::fputc('{', f_);
    first_ = true;
  }
  void Close() {
    std::fputc('}', f_);
    first_ = false;
  }
  void Number(const char* key, double v) {
    Key(key);
    std::fprintf(f_, "%.17g", v);
  }
  /// Only for strings that need no escaping (names, check messages).
  void String(const char* key, const std::string& v) {
    Key(key);
    std::fprintf(f_, "\"%s\"", v.c_str());
  }
  void Numbers(const char* key, const std::vector<double>& values) {
    Key(key);
    std::fputc('[', f_);
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::fprintf(f_, i == 0 ? "%.17g" : ", %.17g", values[i]);
    }
    std::fputc(']', f_);
  }
  void Strings(const char* key, const std::vector<std::string>& values) {
    Key(key);
    std::fputc('[', f_);
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::fprintf(f_, i == 0 ? "\"%s\"" : ", \"%s\"", values[i].c_str());
    }
    std::fputc(']', f_);
  }
  void Metrics(const char* key, const std::vector<Metric>& metrics) {
    Open(key);
    for (const auto& [name, value] : metrics) Number(name.c_str(), value);
    Close();
  }

 private:
  void Key(const char* key) {
    if (!first_) std::fputs(", ", f_);
    first_ = false;
    if (key != nullptr) std::fprintf(f_, "\"%s\": ", key);
  }
  std::FILE* f_;
  bool first_ = true;
};

double HostSeconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hoplite_perf --workload NAME --seed N [--trace] [--seconds S] "
                 "[--horizon-scale F] --out FILE\n");
    return 2;
  }
  workload::ScenarioSpec spec;
  if (!BuildWorkload(args.workload, args.seed, args.horizon_scale, &spec)) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }

  std::vector<std::string> failures;
  std::vector<double> setup_s;
  std::vector<double> replay_s;
  workload::WorkloadTrace trace;
  workload::LoadReport first;
  double peak_rss_mb = 0.0;
  double spent_s = 0.0;
  do {
    const std::int64_t start = WallNs();
    (void)BuildWorkload(args.workload, args.seed, args.horizon_scale, &spec);
    trace = workload::BuildTrace(spec);
    const auto backend = workload::MakeBackend(workload::BackendKind::kHoplite, spec);
    const std::int64_t ready = WallNs();
    workload::LoadReport report = workload::RunTrace(trace, *backend);
    setup_s.push_back(HostSeconds(ready - start));
    replay_s.push_back(HostSeconds(WallNs() - ready));
    spent_s += replay_s.back();
    if (replay_s.size() == 1) {
      first = std::move(report);
      peak_rss_mb = PeakRssMb();
    } else if (!SameOutcomes(first, report)) {
      failures.push_back("replay " + std::to_string(replay_s.size()) +
                         " differs from replay 1");
    }
  } while (spent_s < args.seconds || (args.trace && replay_s.size() < 2));
  double setup_spent_s = std::accumulate(setup_s.begin(), setup_s.end(), 0.0);
  while (setup_s.size() < 25 || setup_spent_s < 1.0) {
    const std::int64_t start = WallNs();
    (void)BuildWorkload(args.workload, args.seed, args.horizon_scale, &spec);
    const workload::WorkloadTrace again = workload::BuildTrace(spec);
    const auto backend = workload::MakeBackend(workload::BackendKind::kHoplite, spec);
    setup_s.push_back(HostSeconds(WallNs() - start));
    setup_spent_s += setup_s.back();
  }

  const workload::TenantLoad& total = first.total;
  const auto offered = static_cast<double>(total.offered);
  std::vector<Metric> sim = LatencyMetrics(first);
  sim.emplace_back("ops_per_sim_s", total.completed_ops_per_s);
  sim.emplace_back("completed_frac", static_cast<double>(total.completed) / offered);
  sim.emplace_back("failed_frac",
                   static_cast<double>(total.failed + total.unsettled) / offered);
  if (args.horizon_scale >= 1.0 && total.completed < 1000) {
    failures.push_back("fewer than 1000 ops completed");
  }

  std::vector<Metric> layers;
  if (args.trace) {
    const TracedRun traced = RunTraced(trace);
    if (!SameOutcomes(first, traced.report)) {
      failures.push_back("traced replay outcomes differ from the untraced run");
    }
    if (traced.issue_lag_ns != 0) failures.push_back("open-loop issue lag is not 0");
    sim.emplace_back("wire_mb_per_op",
                     static_cast<double>(traced.wire_bytes) / (1024.0 * 1024.0) / offered);
    layers = traced.layers;
    layers.emplace_back("trace.overhead_ratio",
                        traced.replay_wall_s /
                            *std::min_element(replay_s.begin(), replay_s.end()));
  }

  for (const std::vector<Metric>* group : {&sim, &layers}) {
    for (const auto& [name, value] : *group) {
      if (!std::isfinite(value)) failures.push_back(name + " is not finite");
    }
  }

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 2;
  }
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(OutcomeDigest(first)));
  JsonWriter json(f);
  json.Open();
  json.String("workload", args.workload);
  json.Number("seed", static_cast<double>(args.seed));
  json.Number("horizon_scale", args.horizon_scale);
  json.Number("ops", static_cast<double>(trace.ops.size()));
  json.String("outcome_digest", digest);
  json.Numbers("setup_s", setup_s);
  json.Numbers("replay_wall_s", replay_s);
  json.Number("peak_rss_mb", peak_rss_mb);
  json.Metrics("sim", sim);
  json.Metrics("layers", layers);
  json.Strings("failures", failures);
  json.Close();
  std::fputc('\n', f);
  std::fclose(f);

  for (const std::string& failure : failures) {
    std::fprintf(stderr, "check failed (%s, seed %llu): %s\n", args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), failure.c_str());
  }
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace hoplite::perf

int main(int argc, char** argv) { return hoplite::perf::Main(argc, argv); }
