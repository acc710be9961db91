// The benchmark's only host-clock and host-memory readings.
//
// Everything the benchmark reports about the simulator's own cost (set-up
// and replay wall time, per-layer event time, peak RSS) is read through
// these two helpers, so the one determinism waiver below covers them all.
//
// hoplite-sa: allow-file(nondet-source) -- host wall time is this benchmark's
// payload; no reading ever feeds back into simulated behaviour.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>

namespace hoplite::perf {

/// Monotonic host time in nanoseconds (arbitrary epoch).
[[nodiscard]] inline std::int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size of this process so far, in MiB (Linux reports
/// ru_maxrss in KiB).
[[nodiscard]] inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace hoplite::perf
