// Benchmark registry: every figure-reproduction bench registers a runner
// here and the single `bench_all` driver (bench/bench_main.cc) selects,
// runs and reports them — human tables for hand-runs, one JSON document
// (`--out results.json`) for the perf trajectory.
//
// A runner returns structured rows instead of printing: one Row per
// measured point, tagged with its series (the line in the figure), string
// labels (op / model / backend dimensions) and numeric coordinates
// (bytes, nodes, intervals ...). Collective latencies follow the paper's
// measurement convention (§5.1.2): time from when the inputs are ready to
// when the last participant finishes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hoplite::bench {

/// One measured point of a figure.
struct Row {
  /// The line of the figure this point belongs to ("Hoplite", "OpenMPI" ...).
  std::string series{};
  /// String-valued dimensions, e.g. {"op", "broadcast"} or {"model", "VGG-16"}.
  std::vector<std::pair<std::string, std::string>> labels{};
  /// Numeric coordinates, e.g. {"bytes", 1048576} and {"nodes", 16}.
  std::vector<std::pair<std::string, double>> coords{};
  /// The measurement itself.
  double value = 0.0;
  /// Unit of `value` ("seconds", "samples_per_second", ...).
  std::string unit = "seconds";
};

/// Scale knobs shared by every figure runner. Zero means "paper scale";
/// the smoke test and `--max-nodes` / `--max-bytes` shrink runs through
/// these helpers so every figure stays runnable at toy sizes.
struct RunOptions {
  int max_nodes = 0;                  ///< cap on cluster sizes (0 = paper)
  std::int64_t max_object_bytes = 0;  ///< cap on object sizes (0 = paper)
  int repeats = 0;                    ///< override per-point repetitions
  int rounds = 0;                     ///< override app rounds / queries / iterations
  /// Event-engine shards per Hoplite cluster (`--shards N`). 1 = the
  /// reference single-threaded Simulator; > 1 hosts every cluster-backed
  /// figure on a ShardedSimulator. A cluster lives on one domain, and a
  /// domain is a reference Simulator, so this changes which object owns
  /// the engine, not the results: sharded sweeps must be byte-identical to
  /// shards=1 (the differential gate in CI).
  int shards = 1;

  /// Clamps a paper-scale node count (never below 2: one sender, one peer).
  [[nodiscard]] int Nodes(int paper) const;
  /// Clamps a paper-scale object size (never below 1 byte).
  [[nodiscard]] std::int64_t Bytes(std::int64_t paper) const;
  /// Filters a paper-scale node-count axis; falls back to {max_nodes}.
  [[nodiscard]] std::vector<int> NodeCounts(std::vector<int> paper) const;
  /// Filters a paper-scale object-size axis; falls back to {max_object_bytes}.
  [[nodiscard]] std::vector<std::int64_t> ObjectSizes(std::vector<std::int64_t> paper) const;
  [[nodiscard]] int Repeats(int paper) const { return repeats > 0 ? repeats : paper; }
  [[nodiscard]] int Rounds(int paper) const { return rounds > 0 ? rounds : paper; }
};

using FigureFn = std::vector<Row> (*)(const RunOptions&);

/// A registered figure bench.
struct Figure {
  std::string name{};   ///< CLI name: "fig7", "adaptive-d", ...
  std::string title{};  ///< one-line description for --list and reports
  FigureFn fn = nullptr;
};

/// Results of running one figure.
struct FigureResult {
  std::string name{};
  std::string title{};
  std::vector<Row> rows{};
};

/// Process-wide figure registry (filled by static FigureRegistrar objects).
class Registry {
 public:
  [[nodiscard]] static Registry& Instance();

  void Register(Figure figure);
  [[nodiscard]] const std::vector<Figure>& figures() const noexcept { return figures_; }
  /// Finds a figure by name; nullptr if unknown.
  [[nodiscard]] const Figure* Find(const std::string& name) const;

 private:
  std::vector<Figure> figures_;
};

/// Registers a figure at static-initialization time.
struct FigureRegistrar {
  FigureRegistrar(const char* name, const char* title, FigureFn fn);
};

/// Registers `fn` under `name`. Use once at the bottom of each bench file:
///   HOPLITE_REGISTER_FIGURE(fig6, "fig6", "Figure 6: ...", Run);
#define HOPLITE_REGISTER_FIGURE(tag, name, title, fn) \
  static const ::hoplite::bench::FigureRegistrar      \
      hoplite_bench_registrar_##tag{name, title, fn}

/// Serializes results (plus the options they ran under) as one JSON
/// document: {"schema": "hoplite-bench/1", "options": {...}, "figures":
/// [{"name", "title", "rows": [...]}]}. Non-finite values become null.
[[nodiscard]] std::string ResultsToJson(const std::vector<FigureResult>& results,
                                        const RunOptions& options);

}  // namespace hoplite::bench
