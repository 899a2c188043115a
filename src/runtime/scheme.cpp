#include "runtime/scheme.hpp"

#include <algorithm>

#include "runtime/wire.hpp"
#include "support/contracts.hpp"

namespace radiocast::runtime {

namespace {

/// True iff a spec is answered by a recorded result (see
/// `recorded_result_key`).
bool takes_recorded_result(const ExecutionConfig& config) {
  return config.compiled && config.trace != sim::TraceLevel::kFull;
}

/// The engine half of `run_with_plan`.
SchemeResult execute(const Scheme& scheme, const Graph& g, NodeId source,
                     const Plan& plan, const SchemeOptions& opt,
                     const ExecutionConfig& config) {
  SchemeResult out;
  if (scheme.run_trivial(g, source, plan, opt, out)) return out;
  sim::EngineOptions engine_opt = config.engine_options();
  engine_opt.collision_detection =
      config.collision_detection || scheme.needs_collision_detection();
  sim::Engine engine(g, scheme.make_protocols(g, source, plan, opt),
                     engine_opt);
  const std::uint64_t budget = config.max_rounds
                                   ? config.max_rounds
                                   : scheme.round_budget(g, plan, opt);
  engine.run_until(
      [&](const sim::Engine& e) { return scheme.done(e, source, opt); },
      budget);
  out.rounds = engine.round();
  out.tx_total = engine.transmissions_total();
  out.polls = engine.polls_total();
  out.all_informed = engine.all_informed();
  scheme.collect(engine, g, source, plan, opt, config, out);
  // Moved, not copied: collect() has already read any trace-derived
  // counters, and the engine dies with this frame.
  if (config.trace == sim::TraceLevel::kFull) out.trace = engine.take_trace();
  return out;
}

}  // namespace

std::string Scheme::plan_key(NodeId source, const SchemeOptions& opt) const {
  std::string key = "src";
  key += std::to_string(source);
  key += "|p";
  key += std::to_string(static_cast<int>(opt.policy));
  key += "|s";
  key += std::to_string(opt.seed);
  return key;
}

void Scheme::encode_compiled(const CompiledPlan& compiled,
                             support::ByteWriter& out) const {
  out.str(wire::encode_result(compiled.result));
}

CompiledPlanPtr Scheme::decode_compiled(support::ByteReader& in) const {
  const std::string text = in.str();
  if (!in.ok() || in.remaining() != 0) return nullptr;
  auto decoded = wire::decode_result(text);
  if (!decoded.ok) return nullptr;
  auto out = std::make_shared<CompiledPlan>();
  out->result = std::move(decoded.value);
  return out;
}

bool Scheme::done(const sim::Engine& engine, NodeId,
                  const SchemeOptions&) const {
  return engine.all_informed();
}

bool Scheme::run_trivial(const Graph&, NodeId, const Plan&,
                         const SchemeOptions&, SchemeResult&) const {
  return false;
}

CompiledPlanPtr Scheme::compile(const Graph& g, NodeId source,
                                const PlanPtr& plan, const SchemeOptions& opt,
                                const ExecutionConfig& config) const {
  ExecutionConfig recorded = config;
  recorded.compiled = true;
  recorded.trace = sim::TraceLevel::kCounters;
  auto out = std::make_shared<CompiledPlan>();
  out->result = run_with_plan(*this, g, source, plan, opt, recorded);
  return out;
}

SchemeResult Scheme::replay(const Graph&, NodeId, const CompiledPlan& compiled,
                            const ExecutionConfig&) const {
  return compiled.result;
}

std::string Scheme::verify(const Graph&, NodeId, const Plan&,
                           const sim::Trace&) const {
  return {};
}

SchemeRegistry& SchemeRegistry::instance() {
  static SchemeRegistry* registry = [] {
    auto* r = new SchemeRegistry();
    detail::register_builtin_schemes(*r);
    return r;
  }();
  return *registry;
}

bool SchemeRegistry::add(std::unique_ptr<Scheme> scheme) {
  RC_EXPECTS(scheme != nullptr);
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& existing : schemes_) {
    if (existing->name() == scheme->name()) return false;
  }
  schemes_.push_back(std::move(scheme));
  return true;
}

const Scheme* SchemeRegistry::find(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : schemes_) {
    if (s->name() == name) return s.get();
  }
  return nullptr;
}

std::vector<const Scheme*> SchemeRegistry::schemes() const {
  std::vector<const Scheme*> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out.reserve(schemes_.size());
    for (const auto& s : schemes_) out.push_back(s.get());
  }
  std::sort(out.begin(), out.end(), [](const Scheme* a, const Scheme* b) {
    return a->name() < b->name();
  });
  return out;
}

SchemeResult run_with_plan(const Scheme& scheme, const Graph& g,
                           NodeId source, const PlanPtr& plan,
                           const SchemeOptions& opt,
                           const ExecutionConfig& config) {
  RC_EXPECTS(plan != nullptr);
  RC_EXPECTS(source < g.node_count());
  SchemeResult out = execute(scheme, g, source, *plan, opt, config);
  if (takes_recorded_result(config)) out.polls = 0;
  return out;
}

std::optional<std::string> recorded_result_key(const Scheme& scheme,
                                               std::string_view plan_key,
                                               NodeId source,
                                               const SchemeOptions& opt,
                                               const ExecutionConfig& config) {
  if (!takes_recorded_result(config)) return std::nullopt;
  std::string key(plan_key);
  key += "|";
  key += scheme.name();
  key += "|src";
  key += std::to_string(source);
  key += "|opt";
  key += wire::to_json(opt).dump();
  key += "|cap";
  key += std::to_string(config.max_rounds);
  key += config.collision_detection ? "|cd" : "|nocd";
  if (config.faults.enabled()) {
    key += "|faults";
    key += wire::faults_to_json(config.faults).dump();
  }
  return key;
}

SchemeResult run_scheme(const Scheme& scheme, const Graph& g, NodeId source,
                        const SchemeOptions& opt,
                        const ExecutionConfig& config) {
  // Checked before labeling: label() may index by the source.
  RC_EXPECTS(source < g.node_count());
  return run_with_plan(scheme, g, source, scheme.label(g, source, opt), opt,
                       config);
}

SchemeResult run_scheme(std::string_view name, const Graph& g, NodeId source,
                        const SchemeOptions& opt,
                        const ExecutionConfig& config) {
  const Scheme* scheme = SchemeRegistry::instance().find(name);
  RC_EXPECTS_MSG(scheme != nullptr, "unknown scheme name");
  return run_scheme(*scheme, g, source, opt, config);
}

}  // namespace radiocast::runtime
