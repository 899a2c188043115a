// What a run prints: the provenance header, the end-to-end table, and for
// the traced run the per-layer metrics, the self-time budget and the
// tracing overhead; last, the one-line JSON result.
#pragma once

#include <string>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

/// Host and build provenance as one JSON object (printed on the
/// "perfbench-header" line of every result set).
std::string provenance_json(const Options& opt);

/// Prints the human-readable report to stdout, then the result line.
/// Returns the process exit code: 0 when every check passed, 1 otherwise.
int report(const Options& opt, const RunOutput& out, const Tracer& tracer);

}  // namespace perfbench
