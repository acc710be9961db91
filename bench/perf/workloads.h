// The benchmark's four named workloads (see README.md for why each exists).
//
//   collectives  16-node flat fabric, closed-loop all-peer broadcast and
//                all-peer Reduce of 32 MB / 128 MB objects (the §5.1 regime)
//   hot-reads    zipf-serving at 64 nodes with coalescing, 2Q and 16 MB stores
//   hot-uplink   misbehaving-tenant at 8 nodes: hundreds of flows on one
//                16:1 ToR uplink, QoS off
//   churn        memory-pressure at 64 nodes with periodic node kills and
//                200 ms Get timeouts
#pragma once

#include <cstdint>
#include <string>

#include "workload/scenario.h"

namespace hoplite::perf {

/// Builds the named workload's scenario for `seed`. `horizon_scale` shrinks
/// the arrival horizon (and with it the fault schedule) for smoke runs; 1.0
/// is the benchmark's definition. Returns false for an unknown name.
[[nodiscard]] bool BuildWorkload(const std::string& name, std::uint64_t seed,
                                 double horizon_scale, workload::ScenarioSpec* spec);

}  // namespace hoplite::perf
