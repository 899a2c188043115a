// Micro-bench P4 — sharded multi-core stepping: the same dense workloads the
// engine_backends scenario steps single-threaded, resolved by the word-range
// engine as `sharded` at 1/2/4/8 workers, against the one-worker `bit`
// engine as the reference.  Families:
//  - sharded_step/clique/tN: everyone transmits (all-collide worst case);
//    the acceptance row — at n >= 16384 and 4 threads the sharded backend
//    must be >= 2x faster than `bit`, asserted only when the host has
//    >= 4 hardware threads (the gate is meaningless on smaller machines;
//    the measured speedup is always recorded).
//  - sharded_scaling/gnp/tN: rotating transmitter slices on a dense gnp
//    graph (deliveries + collisions mixed), correctness cross-checked via
//    tx/rx totals against the reference on every row.
// Sizes below 8192 are raised to 8192: sharding only exists for big rows.
#include "harness.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "sim/backend.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace radiocast::bench {
namespace {

constexpr std::uint64_t kSteps = 16;
constexpr std::uint32_t kMinNodes = 8192;
constexpr std::uint32_t kMaxNodes = 16384;
constexpr std::uint32_t kAcceptanceNodes = 16384;
constexpr double kAcceptanceSpeedup = 2.0;

/// Best-of-`kReps` measurement: engine construction and stepping repeated,
/// keeping the fastest wall time — damps scheduler noise on shared CI
/// runners, where the >= 2x acceptance gate must not flake.
StepResult best_of_steps(const graph::Graph& g, sim::BackendKind backend,
                         std::size_t threads, bool all_transmit) {
  constexpr int kReps = 3;
  StepResult best;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto r = run_dense_steps(g, backend, threads, all_transmit, kSteps);
    if (rep == 0 || r.wall_ns < best.wall_ns) best = r;
  }
  return best;
}

void scaling_family(Context& ctx, const std::string& family,
                    const graph::Graph& g, bool all_transmit,
                    bool acceptance_family) {
  const auto hw = sim::resolve_thread_count(0);
  const auto reference =
      best_of_steps(g, sim::BackendKind::kBit, 0, all_transmit);

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const auto sharded =
        best_of_steps(g, sim::BackendKind::kSharded, threads, all_transmit);
    const bool agree = sharded.tx_total == reference.tx_total &&
                       sharded.rx_total == reference.rx_total;
    const double speedup =
        sharded.wall_ns ? static_cast<double>(reference.wall_ns) /
                              static_cast<double>(sharded.wall_ns)
                        : 0.0;

    Sample s;
    s.family = "sharded_step/" + family + "/t" + std::to_string(threads);
    s.n = g.node_count();
    s.m = g.edge_count();
    s.rounds = kSteps;
    s.transmissions = sharded.tx_total;
    s.wall_ns = sharded.wall_ns;
    s.ok = agree;
    s.extra = {{"speedup_vs_bit", speedup},
               {"bit_wall_ns", static_cast<double>(reference.wall_ns)},
               {"hw_threads", static_cast<double>(hw)}};
    // Acceptance: >= 2x at 4 workers on the clique at n >= 16384, gated on
    // the host actually having >= 4 hardware threads.
    if (acceptance_family && threads == 4 && hw >= 4 &&
        g.node_count() >= kAcceptanceNodes) {
      s.ok = s.ok && speedup >= kAcceptanceSpeedup;
    }
    ctx.record(std::move(s));
  }
}

void run(Context& ctx) {
  // Raise the ladder into sharded territory and cap the bitmap cost.
  std::vector<std::uint32_t> sizes;
  for (const std::uint32_t s : ctx.sizes(kMaxNodes)) {
    const std::uint32_t n = std::max(kMinNodes, s);
    if (std::find(sizes.begin(), sizes.end(), n) == sizes.end()) {
      sizes.push_back(n);
    }
  }
  for (const std::uint32_t n : sizes) {
    scaling_family(ctx, "clique", graph::complete(n), /*all_transmit=*/true,
                   /*acceptance_family=*/true);
  }
  for (const std::uint32_t n : sizes) {
    // Dense enough that kAuto would pick a bit backend (avg degree well
    // above n/64 words), sparse enough to keep CSR construction sane.
    Rng rng(n + 3);
    const double p = 1024.0 / n;
    scaling_family(ctx, "gnp", graph::gnp_connected(n, p, rng),
                   /*all_transmit=*/false, /*acceptance_family=*/false);
  }
}

const bool registered = register_scenario(
    {"sharded_scaling",
     "sharded word-range engine thread scaling vs the one-worker bit engine",
     {"micro", "scaling"},
     &run});

}  // namespace
}  // namespace radiocast::bench
