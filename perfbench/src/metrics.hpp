// Per-layer metrics: the catalog every traced run reports (names and units
// match BENCHMARK.json's per_layer list), and the helpers that derive them
// from spans and engine counters.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "trace.hpp"

namespace perfbench {

/// (name, unit) of every per-layer metric, in report order.  A workload
/// that never calls a layer reports its metrics as 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();

/// Mean span durations of the layer calls, and wire costs per spec over
/// the traced half's JSON and resbin specs.
void span_metrics(const std::vector<Span>& spans, std::uint64_t json_specs,
                  std::uint64_t binary_specs, RunOutput& out);

/// Per engine run means, ns per poll, and transmissions per poll.
void sim_metrics(const layers::SimCounters& sim, RunOutput& out);

}  // namespace perfbench
