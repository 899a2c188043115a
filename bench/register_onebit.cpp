// Experiment E8 — the §5 one-bit claims: radius-<=2 graphs, grids and
// series-parallel graphs, plus the 3-label-value acknowledged variants.
// Success is a per-graph searched-and-verified certificate.  Cases whose
// size exceeds the --sizes ceiling are skipped.
#include "harness.hpp"

#include <algorithm>

#include "graph/generators.hpp"
#include "graph/traversal.hpp"
#include "parallel/parallel_for.hpp"
#include "runtime/scheme.hpp"
#include "support/rng.hpp"

namespace radiocast::bench {
namespace {

void run(Context& ctx) {
  struct Case {
    std::string name;
    graph::Graph g;
    graph::NodeId source = 0;
  };
  std::vector<Case> cases;

  // Radius-<=2 instances: dense random graphs + bipartite + stars from a leaf.
  {
    Rng rng(808);
    for (int i = 0; i < 6; ++i) {
      auto g = graph::gnp_connected(24 + 8 * static_cast<std::uint32_t>(i),
                                    0.4, rng);
      if (graph::eccentricity(g, 0) <= 2) {
        cases.push_back({"radius2/gnp-dense", std::move(g), 0});
      }
    }
    cases.push_back({"radius2/K_{6,9}", graph::complete_bipartite(6, 9), 0});
    cases.push_back({"radius2/star-leaf", graph::star(40), 3});
  }
  // Grids (the §5 assertion) of growing size, corner and interior sources.
  for (const auto& [r, c] : {std::pair{3u, 3u}, std::pair{4u, 6u},
                             std::pair{7u, 7u}, std::pair{10u, 10u},
                             std::pair{12u, 16u}}) {
    cases.push_back({"grid/" + std::to_string(r) + "x" + std::to_string(c),
                     graph::grid(r, c), 0});
  }
  cases.push_back({"grid/8x8-interior", graph::grid(8, 8), 3 * 8 + 4});
  // Series-parallel graphs.
  {
    Rng rng(909);
    for (const std::uint32_t e : {10u, 30u, 80u, 200u}) {
      cases.push_back({"series-parallel/m~" + std::to_string(e),
                       graph::series_parallel(e, rng), 0});
    }
  }
  // Trees and cycles round out the picture (also 1-bit labelable).
  {
    Rng rng(1010);
    cases.push_back({"tree/random-40", graph::random_tree(40, rng), 0});
    cases.push_back({"cycle/C24", graph::cycle(24), 0});
    cases.push_back({"path/P50", graph::path(50), 0});
  }

  // Respect the --sizes ceiling so smoke runs stay cheap; always keep the
  // smallest instances.
  const std::uint32_t cap = std::max(24u, ctx.sizes().back());
  std::erase_if(cases, [&](const Case& c) { return c.g.node_count() > cap; });

  const auto samples =
      par::parallel_map(ctx.pool(), cases.size(), [&](std::size_t i) {
        const auto& c = cases[i];
        Sample s;
        s.family = c.name;
        s.n = c.g.node_count();
        s.m = c.g.edge_count();
        runtime::SchemeResult run, ack;
        s.wall_ns = time_ns([&] {
          const runtime::ExecutionConfig exec{.backend = ctx.backend(),
                                              .dispatch = ctx.dispatch()};
          run = runtime::run_scheme("onebit", c.g, c.source,
                                    {.max_attempts = 256}, exec);
          ack = runtime::run_scheme("onebit-ack", c.g, c.source,
                                    {.max_attempts = 256}, exec);
        });
        s.rounds = run.completion_round;
        s.ok = run.ok && ack.ok;
        s.extra = {{"attempts", static_cast<double>(run.attempts)},
                   {"ones", static_cast<double>(run.ones)},
                   {"ack_round", static_cast<double>(ack.ack_round)}};
        return s;
      });
  for (auto& s : samples) ctx.record(std::move(s));
}

const bool registered = register_scenario(
    {"onebit",
     "paper 5: searched one-bit labelings on radius-2/grid/series-parallel",
     {"smoke", "experiment"},
     &run});

}  // namespace
}  // namespace radiocast::bench
