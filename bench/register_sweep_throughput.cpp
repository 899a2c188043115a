// Micro-bench P6 — the plan-caching batched sweep executor: batched
// experiments/sec with a cold vs warm `runtime::PlanCache`.  Families:
//  - sweep/suite/{cold,warm}: a quick-suite × {b, ack, arb, multi,
//    round-robin} engine-path batch per ladder size.  Warm batches reuse
//    the cached labelings but still execute every engine run; recorded,
//    not gated (the win is labeling-bound and workload-dependent).
//  - sweep/clique-compiled/{cold,warm}: clique at n >= 4096, schemes
//    b/ack/arb as compiled specs, several sources: the cold batch records
//    each result from one engine run, and a warm batch is pure cache
//    lookups — the acceptance row: warm throughput must be >= 3x cold at
//    n >= 4096.
// Correctness is cross-checked on every row: the warm batch must reproduce
// the cold batch's formatted results line for line (the byte-determinism
// oracle lives in tests/test_runtime.cpp).
#include "harness.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "graph/generators.hpp"
#include "runtime/sweep.hpp"

namespace radiocast::bench {
namespace {

constexpr std::uint32_t kCliqueMinNodes = 4096;
constexpr std::uint32_t kCliqueMaxNodes = 8192;
constexpr double kAcceptanceSpeedup = 3.0;

struct BatchRun {
  std::uint64_t wall_ns = 0;
  std::vector<std::string> lines;
  runtime::PlanCacheStats stats;
};

BatchRun run_batch(runtime::SweepRunner& runner,
                   const std::vector<runtime::ExperimentSpec>& specs) {
  BatchRun out;
  std::vector<runtime::SchemeResult> results;
  out.wall_ns = time_ns([&] { results = runner.run(specs); });
  out.lines = analysis::format_sweep(specs, results);
  out.stats = runner.cache_stats();
  return out;
}

void record_pair(Context& ctx, const std::string& family, std::uint32_t n,
                 std::uint64_t m, std::size_t experiments,
                 const BatchRun& cold, const BatchRun& warm, bool gated) {
  const bool agree = cold.lines == warm.lines;
  const double speedup = warm.wall_ns ? static_cast<double>(cold.wall_ns) /
                                            static_cast<double>(warm.wall_ns)
                                      : 0.0;
  for (const auto* run : {&cold, &warm}) {
    Sample s;
    s.family = family + (run == &cold ? "/cold" : "/warm");
    s.n = n;
    s.m = m;
    s.rounds = experiments;  // batch size, for experiments/sec math
    s.wall_ns = run->wall_ns;
    s.ok = agree;
    const double secs = static_cast<double>(run->wall_ns) / 1e9;
    s.extra = {
        {"experiments_per_sec",
         secs > 0 ? static_cast<double>(experiments) / secs : 0.0},
        {"warm_speedup", speedup},
        {"plan_misses", static_cast<double>(run->stats.plan_misses)},
        {"plan_hits", static_cast<double>(run->stats.plan_hits)},
        {"compiled_misses",
         static_cast<double>(run->stats.compiled_misses)},
        {"compiled_hits", static_cast<double>(run->stats.compiled_hits)},
    };
    // Acceptance: the warm cache must be >= 3x cold on the compiled clique
    // batch at n >= 4096 (a warm batch never recomputes a plan).
    if (gated && run == &warm && n >= kCliqueMinNodes) {
      s.ok = s.ok && speedup >= kAcceptanceSpeedup;
    }
    ctx.record(std::move(s));
  }
}

/// Engine-path batch over the quick suite: labelings cached, runs repeated.
void suite_family(Context& ctx, std::uint32_t n) {
  const auto suite = analysis::quick_suite(n, /*seed=*/n);
  runtime::SweepRunner runner(ctx.pool());
  runtime::ExecutionConfig config = ctx.exec();
  const auto specs = analysis::scheme_specs(
      runner, suite, {"b", "ack", "arb", "multi", "round-robin"}, config);
  const auto cold = run_batch(runner, specs);
  const auto warm = run_batch(runner, specs);
  std::uint64_t edges = 0;
  for (const auto& w : suite) edges += w.graph.edge_count();
  record_pair(ctx, "sweep/suite", n, edges, specs.size(), cold, warm,
              /*gated=*/false);
}

/// Compiled specs on a clique: a warm batch is pure recorded-result lookups.
void clique_compiled_family(Context& ctx, std::uint32_t n) {
  const graph::Graph g = graph::complete(n);
  runtime::SweepRunner runner(ctx.pool());
  const runtime::GraphRef graph = runner.add_graph(g);
  runtime::ExecutionConfig config = ctx.exec();
  config.compiled = true;
  std::vector<runtime::ExperimentSpec> specs;
  for (const char* scheme : {"b", "ack", "arb"}) {
    for (graph::NodeId source = 0; source < 4; ++source) {
      runtime::ExperimentSpec spec;
      spec.scheme = scheme;
      spec.graph = graph;
      spec.source = source;
      spec.config = config;
      spec.label = std::string("clique/") + scheme;
      specs.push_back(std::move(spec));
    }
  }
  const auto cold = run_batch(runner, specs);
  const auto warm = run_batch(runner, specs);
  record_pair(ctx, "sweep/clique-compiled", n, g.edge_count(), specs.size(),
              cold, warm, /*gated=*/true);
}

void run(Context& ctx) {
  for (const std::uint32_t n : ctx.sizes(1024)) {
    suite_family(ctx, n);
  }
  // Raise the ladder to the gated clique sizes (>= 4096).
  std::vector<std::uint32_t> sizes;
  for (const std::uint32_t s : ctx.sizes(kCliqueMaxNodes)) {
    const std::uint32_t n = std::max(kCliqueMinNodes, s);
    if (std::find(sizes.begin(), sizes.end(), n) == sizes.end()) {
      sizes.push_back(n);
    }
  }
  for (const std::uint32_t n : sizes) {
    clique_compiled_family(ctx, n);
  }
}

const bool registered = register_scenario(
    {"sweep_throughput",
     "Plan-caching batched sweep executor: cold vs warm cache "
     "experiments/sec",
     {"micro", "scaling"},
     &run});

}  // namespace
}  // namespace radiocast::bench
