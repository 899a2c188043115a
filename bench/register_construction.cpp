// Micro-bench P1 — cost of the centralized preprocessing (stage-set
// construction + the three labelings) as a function of n and family.  This is
// the part the paper's "central monitor" runs once per deployment.  The
// gnp/materialize and disk/materialize samples time the random generators
// that precede it; gnp/materialize_pooled builds the same G(n, p) with its
// draws split over the bench pool.
#include "harness.hpp"

#include <cmath>
#include <numbers>
#include <string>

#include "core/labeling.hpp"
#include "graph/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "support/rng.hpp"

namespace radiocast::bench {
namespace {

struct Job {
  std::string family;
  graph::Graph g;
};

void run(Context& ctx) {
  std::vector<Job> jobs;
  // Generator cost of the two random families, timed serially before the
  // labeling fan-out: the cold half of a served request on a new graph.
  const auto materialize = [&ctx](const char* family, auto&& build) {
    graph::Graph g;
    Sample s;
    s.family = family;
    s.wall_ns = time_ns([&] { g = build(); });
    s.n = g.node_count();
    s.m = g.edge_count();
    ctx.record(std::move(s));
    return g;
  };
  for (const std::uint32_t n : ctx.sizes(16384)) {
    const auto side = static_cast<std::uint32_t>(
        std::max(2.0, std::sqrt(static_cast<double>(n))));
    Rng rng(n);
    jobs.push_back({"path", graph::path(n)});
    jobs.push_back({"grid", graph::grid(side, side)});
    jobs.push_back({"gnp", materialize("gnp/materialize", [&] {
                      return graph::gnp_connected(n, 8.0 / n, rng);
                    })});
    materialize("gnp/materialize_pooled", [&] {
      Rng pooled_rng(n);
      return graph::gnp_connected(n, 8.0 / n, pooled_rng, &ctx.pool());
    });
    // Unit-disk graph at mean degree about 10 (n·πr² = 10).
    materialize("disk/materialize", [n] {
      Rng disk_rng(n);
      return graph::random_geometric(
          n, std::sqrt(10.0 / (std::numbers::pi * n)), disk_rng);
    });
  }

  const auto groups =
      par::parallel_map(ctx.pool(), jobs.size(), [&](std::size_t i) {
        const auto& job = jobs[i];
        std::vector<Sample> group;
        const auto measure = [&](const char* op, auto&& fn) {
          Sample s;
          s.family = job.family + "/" + op;
          s.n = job.g.node_count();
          s.m = job.g.edge_count();
          s.wall_ns = time_ns(fn);
          group.push_back(std::move(s));
        };
        measure("stage_sets", [&] { core::build_stage_sets(job.g, 0); });
        measure("label_broadcast", [&] { core::label_broadcast(job.g, 0); });
        measure("label_acknowledged",
                [&] { core::label_acknowledged(job.g, 0); });
        measure("label_arbitrary", [&] { core::label_arbitrary(job.g, 0); });
        return group;
      });
  for (auto& group : groups) {
    for (auto& s : group) ctx.record(std::move(s));
  }
}

const bool registered = register_scenario(
    {"construction",
     "preprocessing cost: generators, stage sets and the three labelings per "
     "family/size",
     {"smoke", "micro"},
     &run});

}  // namespace
}  // namespace radiocast::bench
