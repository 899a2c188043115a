/// \file config.hpp
/// \brief The one execution-knob block every layer shares.
///
/// `ExecutionConfig` is the single source of truth for the backend,
/// dispatch and thread knobs: the scheme registry, the sweep executor, the
/// CLI front ends, and the bench harness all carry one of these and lower
/// it to `sim::EngineOptions` at the engine boundary.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/backend.hpp"
#include "sim/dispatch.hpp"
#include "sim/engine.hpp"

namespace radiocast::runtime {

/// How a scheme execution runs: which engine backend resolves rounds, how
/// protocol decisions are dispatched, how many workers the sharded paths
/// may use, and whether a sweep may answer with a recorded result.
struct ExecutionConfig {
  /// Engine round-resolution backend (kAuto picks by density and size).
  sim::BackendKind backend = sim::BackendKind::kAuto;
  /// Protocol-dispatch strategy (kAuto = active-set iff protocols hint).
  sim::DispatchKind dispatch = sim::DispatchKind::kAuto;
  /// Worker threads for the sharded backend and the sharded decision sweep
  /// (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Opt into a recorded result: the sweep runs the engine once per
  /// `recorded_result_key` and answers repeats from the PlanCache or the
  /// PlanStore (`polls` reads 0 in such an answer).  Schemes that cannot
  /// compile, faulted specs and full-trace specs always take the engine.
  /// The wire field `"compiled"` carries it.
  bool compiled = false;
  /// Collision-detection mode.  Schemes that require it (beep) force it on
  /// regardless of this setting.
  bool collision_detection = false;
  /// Ground-truth recording level; `kFull` always takes the engine.
  sim::TraceLevel trace = sim::TraceLevel::kCounters;
  /// Engine round budget (0 = the scheme's own default, linear in n).
  std::uint64_t max_rounds = 0;
  /// PlanCache byte budget for the executor serving this spec (0 = keep the
  /// runner's current budget, which defaults to unlimited).  When the cache
  /// exceeds it, least-recently-used plans are evicted; with a plan store
  /// attached, evicted entries reload from disk instead of recomputing.
  std::size_t plan_cache_bytes = 0;
  /// Deterministic fault injection (sim/faults.hpp).  An enabled plan
  /// always takes the engine: recorded results are keyed without faults.
  sim::FaultPlan faults = {};

  /// Lowers the config to engine options (collision detection as-is; the
  /// scheme layer ORs in `Scheme::needs_collision_detection`).
  sim::EngineOptions engine_options() const {
    sim::EngineOptions out;
    out.trace = trace;
    out.collision_detection = collision_detection;
    out.backend = backend;
    out.threads = threads;
    out.dispatch = dispatch;
    out.faults = faults;
    return out;
  }
};

}  // namespace radiocast::runtime
