// The traced run's layer calls.  Where the untraced run makes one combined
// call (a server round trip, `SweepRunner::run`), the traced run replays the
// same work one public library call at a time, each inside its own span, so
// a layer's time is measured where it is spent.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "graph/graph.hpp"
#include "runtime/plan_store.hpp"
#include "runtime/scheme.hpp"
#include "trace.hpp"

namespace perfbench::layers {

namespace rc = radiocast;

rc::graph::Graph materialize(const SpanCtx& ctx, const std::string& descriptor);
std::uint64_t hash(const SpanCtx& ctx, const rc::graph::Graph& g);
/// Builds the dense adjacency bitmap the bit backends step on; returns its
/// bytes.
std::size_t bitadj(const SpanCtx& ctx, const rc::graph::Graph& g);
/// `Scheme::label`, in a span named after the plan family
/// ("core.label.<family>").  color-robin's label is the G² coloring of the
/// graph module, so its span is "graph.coloring".
rc::runtime::PlanPtr label(const SpanCtx& ctx, const rc::runtime::Scheme& s,
                           const rc::graph::Graph& g, rc::graph::NodeId source,
                           const rc::runtime::SchemeOptions& opt);
rc::runtime::CompiledPlanPtr compile(const SpanCtx& ctx,
                                     const rc::runtime::Scheme& s,
                                     const rc::graph::Graph& g,
                                     rc::graph::NodeId source,
                                     const rc::runtime::PlanPtr& plan,
                                     const rc::runtime::SchemeOptions& opt,
                                     const rc::runtime::ExecutionConfig& cfg);
rc::runtime::SchemeResult replay(const SpanCtx& ctx,
                                 const rc::runtime::Scheme& s,
                                 const rc::graph::Graph& g,
                                 rc::graph::NodeId source,
                                 const rc::runtime::CompiledPlan& compiled,
                                 const rc::runtime::ExecutionConfig& cfg);

/// Encodes a plan and writes it to the store; returns the record's bytes
/// (0 when the scheme cannot store plans or the write failed).
std::size_t store_write(const SpanCtx& ctx, rc::runtime::PlanStore& store,
                        const rc::runtime::Scheme& s, const std::string& key,
                        const rc::runtime::Plan& plan);
std::size_t store_write_compiled(const SpanCtx& ctx,
                                 rc::runtime::PlanStore& store,
                                 const rc::runtime::Scheme& s,
                                 const std::string& key,
                                 const rc::runtime::CompiledPlan& compiled);
/// Reads and decodes a plan the store holds; nullptr when absent.
rc::runtime::PlanPtr store_read(const SpanCtx& ctx,
                                const rc::runtime::PlanStore& store,
                                const rc::runtime::Scheme& s,
                                const std::string& key);

/// Totals over every engine run of a traced run.
struct SimCounters {
  std::atomic<std::uint64_t> runs{0};
  std::atomic<std::uint64_t> rounds{0};
  std::atomic<std::uint64_t> polls{0};
  std::atomic<std::uint64_t> tx{0};
  std::atomic<std::uint64_t> step_ns{0};
};

/// The engine path of `runtime::run_with_plan`, split into engine
/// construction (`sim.engine_build`) and stepping plus observable
/// extraction (`sim.engine`).
rc::runtime::SchemeResult engine_run(const SpanCtx& ctx,
                                     const rc::runtime::Scheme& s,
                                     const rc::graph::Graph& g,
                                     rc::graph::NodeId source,
                                     const rc::runtime::PlanPtr& plan,
                                     const rc::runtime::SchemeOptions& opt,
                                     const rc::runtime::ExecutionConfig& cfg,
                                     SimCounters& counters);

}  // namespace perfbench::layers
