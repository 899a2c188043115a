// Experiment E4 — the §3 closing construction: after B_ack(µ) the source
// broadcasts m; every node learns m strictly before round 2m and all nodes
// share the common completion round 2m.
#include "harness.hpp"

#include "analysis/experiments.hpp"
#include "parallel/parallel_for.hpp"
#include "runtime/scheme.hpp"

namespace radiocast::bench {
namespace {

void run(Context& ctx) {
  for (const std::uint32_t n : ctx.sizes(256)) {
    const auto suite = analysis::standard_suite(n, 3 * n + 1);
    const auto samples =
        par::parallel_map(ctx.pool(), suite.size(), [&](std::size_t i) {
          const auto& w = suite[i];
          Sample s;
          s.family = w.family;
          s.n = w.graph.node_count();
          s.m = w.graph.edge_count();
          runtime::SchemeResult run;
          const runtime::ExecutionConfig exec{.backend = ctx.backend(),
                                              .dispatch = ctx.dispatch()};
          s.wall_ns = time_ns([&] {
            run = runtime::run_scheme("common-round", w.graph, w.source, {},
                                      exec);
          });
          s.rounds = run.done_round;
          s.ok = run.ok && run.last_learned < run.done_round;
          s.extra = {{"ack_m", static_cast<double>(run.T)},
                     {"last_learned", static_cast<double>(run.last_learned)}};
          return s;
        });
    for (auto& s : samples) ctx.record(std::move(s));
  }
}

const bool registered = register_scenario(
    {"common_round",
     "paper 3 closing: all nodes agree on the common completion round 2m",
     {"smoke", "experiment"},
     &run});

}  // namespace
}  // namespace radiocast::bench
