#include "layers.hpp"

#include <memory>

#include "graph/bit_adjacency.hpp"
#include "graph/generators.hpp"
#include "graph/hash.hpp"
#include "sim/engine.hpp"
#include "support/bytes.hpp"

namespace perfbench::layers {

using rc::runtime::PlanStoreKind;

rc::graph::Graph materialize(const SpanCtx& ctx,
                             const std::string& descriptor) {
  ScopedSpan span(*ctx.tracer, "graph.materialize", ctx.parent, ctx.request);
  return rc::graph::from_descriptor(descriptor);
}

std::uint64_t hash(const SpanCtx& ctx, const rc::graph::Graph& g) {
  ScopedSpan span(*ctx.tracer, "graph.hash", ctx.parent, ctx.request);
  return rc::graph::canonical_hash(g);
}

std::size_t bitadj(const SpanCtx& ctx, const rc::graph::Graph& g) {
  ScopedSpan span(*ctx.tracer, "graph.bitadj", ctx.parent, ctx.request);
  const rc::graph::BitAdjacency adj(g);
  return adj.memory_bytes();
}

rc::runtime::PlanPtr label(const SpanCtx& ctx, const rc::runtime::Scheme& s,
                           const rc::graph::Graph& g, rc::graph::NodeId source,
                           const rc::runtime::SchemeOptions& opt) {
  const std::string family(s.plan_family());
  ScopedSpan span(*ctx.tracer,
                  family == "color-robin" ? "graph.coloring"
                                          : "core.label." + family,
                  ctx.parent, ctx.request);
  return s.label(g, source, opt);
}

rc::runtime::CompiledPlanPtr compile(const SpanCtx& ctx,
                                     const rc::runtime::Scheme& s,
                                     const rc::graph::Graph& g,
                                     rc::graph::NodeId source,
                                     const rc::runtime::PlanPtr& plan,
                                     const rc::runtime::SchemeOptions& opt,
                                     const rc::runtime::ExecutionConfig& cfg) {
  ScopedSpan span(*ctx.tracer, "runtime.compile", ctx.parent, ctx.request);
  return s.compile(g, source, plan, opt, cfg);
}

rc::runtime::SchemeResult replay(const SpanCtx& ctx,
                                 const rc::runtime::Scheme& s,
                                 const rc::graph::Graph& g,
                                 rc::graph::NodeId source,
                                 const rc::runtime::CompiledPlan& compiled,
                                 const rc::runtime::ExecutionConfig& cfg) {
  ScopedSpan span(*ctx.tracer, "runtime.replay", ctx.parent, ctx.request);
  return s.replay(g, source, compiled, cfg);
}

std::size_t store_write(const SpanCtx& ctx, rc::runtime::PlanStore& store,
                        const rc::runtime::Scheme& s, const std::string& key,
                        const rc::runtime::Plan& plan) {
  if (!s.can_store_plans()) return 0;
  ScopedSpan span(*ctx.tracer, "runtime.store_write", ctx.parent,
                  ctx.request);
  rc::support::ByteWriter out;
  s.encode_plan(plan, out);
  const std::size_t bytes = out.bytes().size();
  return store.put(PlanStoreKind::kPlan, key, s.plan_family(), out.bytes())
             ? bytes
             : 0;
}

std::size_t store_write_compiled(const SpanCtx& ctx,
                                 rc::runtime::PlanStore& store,
                                 const rc::runtime::Scheme& s,
                                 const std::string& key,
                                 const rc::runtime::CompiledPlan& compiled) {
  if (!s.can_store_plans()) return 0;
  ScopedSpan span(*ctx.tracer, "runtime.store_write", ctx.parent,
                  ctx.request);
  rc::support::ByteWriter out;
  s.encode_compiled(compiled, out);
  const std::size_t bytes = out.bytes().size();
  return store.put(PlanStoreKind::kCompiled, key, s.name(), out.bytes())
             ? bytes
             : 0;
}

rc::runtime::PlanPtr store_read(const SpanCtx& ctx,
                                const rc::runtime::PlanStore& store,
                                const rc::runtime::Scheme& s,
                                const std::string& key) {
  ScopedSpan span(*ctx.tracer, "runtime.store_read", ctx.parent, ctx.request);
  const auto payload = store.get(PlanStoreKind::kPlan, key, s.plan_family());
  if (!payload) return nullptr;
  rc::support::ByteReader in(*payload);
  return s.decode_plan(in);
}

rc::runtime::SchemeResult engine_run(const SpanCtx& ctx,
                                     const rc::runtime::Scheme& s,
                                     const rc::graph::Graph& g,
                                     rc::graph::NodeId source,
                                     const rc::runtime::PlanPtr& plan,
                                     const rc::runtime::SchemeOptions& opt,
                                     const rc::runtime::ExecutionConfig& cfg,
                                     SimCounters& counters) {
  rc::sim::EngineOptions engine_opt = cfg.engine_options();
  engine_opt.collision_detection =
      cfg.collision_detection || s.needs_collision_detection();
  std::unique_ptr<rc::sim::Engine> engine;
  {
    ScopedSpan span(*ctx.tracer, "sim.engine_build", ctx.parent, ctx.request);
    engine = std::make_unique<rc::sim::Engine>(
        g, s.make_protocols(g, source, *plan, opt), engine_opt);
  }
  rc::runtime::SchemeResult out;
  const auto t0 = Clock::now();
  {
    ScopedSpan span(*ctx.tracer, "sim.engine", ctx.parent, ctx.request);
    const std::uint64_t budget =
        cfg.max_rounds ? cfg.max_rounds : s.round_budget(g, *plan, opt);
    engine->run_until(
        [&](const rc::sim::Engine& e) { return s.done(e, source, opt); },
        budget);
    out.rounds = engine->round();
    out.tx_total = engine->transmissions_total();
    out.polls = engine->polls_total();
    out.all_informed = engine->all_informed();
    s.collect(*engine, g, source, *plan, opt, cfg, out);
    if (cfg.trace == rc::sim::TraceLevel::kFull) {
      out.trace = engine->take_trace();
    }
  }
  counters.step_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  ++counters.runs;
  counters.rounds += out.rounds;
  counters.polls += out.polls;
  counters.tx += out.tx_total;
  return out;
}

}  // namespace perfbench::layers
