// Shared vocabulary of the application workload models (§5.2–§5.6).
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/units.h"

namespace hoplite::apps {

/// Which communication substrate an application runs on.
enum class Backend {
  kHoplite,  ///< this paper's system
  kRay,      ///< Ray 0.8.6-style point-to-point object transfers
  kDask,     ///< Dask 2.25-style scheduler-mediated transfers
  kMpi,      ///< OpenMPI static collectives (sync training only)
  kGloo,     ///< Gloo ring-chunked collectives (sync training only)
};

[[nodiscard]] constexpr const char* BackendName(Backend backend) noexcept {
  switch (backend) {
    case Backend::kHoplite: return "Hoplite";
    case Backend::kRay: return "Ray";
    case Backend::kDask: return "Dask";
    case Backend::kMpi: return "OpenMPI";
    case Backend::kGloo: return "Gloo";
  }
  return "?";
}

/// A simulated computation phase: mean duration with uniform +-jitter.
/// Stands in for the GPU work (forward/backward pass, rollout, inference)
/// whose absolute speed the paper's testbed provides; see DESIGN.md §1.
struct ComputeModel {
  SimDuration mean = 0;
  double jitter = 0.2;  ///< uniform in [mean*(1-j), mean*(1+j)]

  [[nodiscard]] SimDuration Sample(Rng& rng) const {
    if (mean == 0) return 0;
    const double factor = 1.0 + jitter * (2.0 * rng.NextDouble() - 1.0);
    return static_cast<SimDuration>(static_cast<double>(mean) * factor);
  }
};

}  // namespace hoplite::apps
