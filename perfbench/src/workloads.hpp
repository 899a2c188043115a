// The benchmark's workloads.  Each builds its inputs from the seed,
// sets up the program several times, measures for the requested
// seconds, and checks every result.  With `opt.trace` the window is split:
// the first half runs as untraced, the second replays each request one
// layer call at a time inside spans, recorded into `tracer`.
#pragma once

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

RunOutput run_serve_cold(const Options& opt, Tracer& tracer);
RunOutput run_engine_sweep(const Options& opt, Tracer& tracer);

}  // namespace perfbench
