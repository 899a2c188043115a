// Tests for the §1 baselines: round-robin (O(log n)-bit labels), color-robin
// over a proper G² coloring (O(log Δ)-bit labels) and the randomized Decay
// protocol.  These mechanize the introduction's feasibility claims.
#include <gtest/gtest.h>

#include <numeric>

#include "analysis/experiments.hpp"
#include "baselines/baselines.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "graph/traversal.hpp"
#include "runtime/scheme.hpp"
#include "support/rng.hpp"

namespace radiocast::baselines {
namespace {

TEST(RoundRobin, InformsPath) {
  const auto run = runtime::run_scheme("round-robin", graph::path(8), 0);
  EXPECT_TRUE(run.all_informed);
  EXPECT_GT(run.completion_round, 0u);
}

TEST(RoundRobin, NoCollisionsEver) {
  // With one transmitter per slot no listener can ever experience a collision
  // — verified indirectly: completion <= n * ecc (each full cycle advances
  // the frontier by at least one BFS layer).
  Rng rng(81);
  for (int rep = 0; rep < 8; ++rep) {
    const auto g = graph::gnp_connected(20, 0.15, rng);
    const auto run = runtime::run_scheme("round-robin", g, 0);
    ASSERT_TRUE(run.all_informed);
    EXPECT_LE(run.completion_round,
              20ull * (graph::eccentricity(g, 0) + 1));
  }
}

TEST(RoundRobin, LabelBitsLogarithmic) {
  const auto rr16 = runtime::run_scheme("round-robin", graph::path(16), 0);
  const auto rr100 = runtime::run_scheme("round-robin", graph::path(100), 0);
  EXPECT_EQ(rr16.label_bits, 8u);    // 2*log2(16)
  EXPECT_EQ(rr100.label_bits, 14u);  // 2*7
}

TEST(RoundRobin, AllFamilies) {
  for (const auto& w : radiocast::analysis::quick_suite(18, 11)) {
    const auto run = runtime::run_scheme("round-robin", w.graph, w.source);
    EXPECT_TRUE(run.all_informed) << w.family;
  }
}

TEST(ColorRobin, InformsWithinColorTimesEcc) {
  Rng rng(82);
  for (int rep = 0; rep < 8; ++rep) {
    const auto g = graph::gnp_connected(25, 0.12, rng);
    const auto coloring = graph::square_coloring(g);
    const auto run = runtime::run_scheme("color-robin", g, 0);
    ASSERT_TRUE(run.all_informed);
    EXPECT_LE(run.completion_round,
              static_cast<std::uint64_t>(coloring.count) *
                  (graph::eccentricity(g, 0) + 1));
  }
}

TEST(ColorRobin, BeatsRoundRobinOnBoundedDegree) {
  // On a path with *randomly permuted ids*, Δ = 2 keeps the coloring at <= 4
  // colors (C·ecc rounds) while round-robin waits ~n/2 rounds per hop.  (With
  // sequential ids round-robin is accidentally optimal on a path, which is
  // why the permutation matters.)
  const std::uint32_t n = 60;
  Rng rng(85);
  std::vector<graph::NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  rng.shuffle(perm);
  graph::GraphBuilder b(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) b.add_edge(perm[i], perm[i + 1]);
  const auto g = std::move(b).build();
  const auto cr = runtime::run_scheme("color-robin", g, perm[0]);
  const auto rr = runtime::run_scheme("round-robin", g, perm[0]);
  ASSERT_TRUE(cr.all_informed);
  ASSERT_TRUE(rr.all_informed);
  EXPECT_LT(cr.completion_round, rr.completion_round / 5);
  EXPECT_LT(cr.label_bits, rr.label_bits);
}

TEST(ColorRobin, AllFamilies) {
  for (const auto& w : radiocast::analysis::quick_suite(18, 12)) {
    const auto run = runtime::run_scheme("color-robin", w.graph, w.source);
    EXPECT_TRUE(run.all_informed) << w.family;
  }
}

TEST(Decay, InformsWithHighProbability) {
  Rng rng(83);
  int successes = 0;
  for (int rep = 0; rep < 10; ++rep) {
    const auto g = graph::gnp_connected(20, 0.15, rng);
    const auto run = runtime::run_scheme(
        "decay", g, 0, {.seed = static_cast<std::uint64_t>(rep) + 1});
    successes += run.all_informed ? 1 : 0;
  }
  EXPECT_GE(successes, 9);  // randomized: generous cap makes failure unlikely
}

TEST(Decay, DeterministicForSeed) {
  const auto g = graph::grid(4, 4);
  const auto a = runtime::run_scheme("decay", g, 0, {.seed = 99});
  const auto b = runtime::run_scheme("decay", g, 0, {.seed = 99});
  EXPECT_EQ(a.completion_round, b.completion_round);
}

TEST(Decay, LabelFree) {
  const auto run = runtime::run_scheme("decay", graph::path(10), 0,
                                       {.seed = 1});
  EXPECT_EQ(run.label_bits, 0u);
}

TEST(Comparison, LambdaUsesFewestBits) {
  // The paper's core comparison: 2 bits (λ) vs Θ(log Δ) vs Θ(log n).
  Rng rng(84);
  const auto g = graph::gnp_connected(64, 0.1, rng);
  const auto b = runtime::run_scheme("b", g, 0);
  const auto rr = runtime::run_scheme("round-robin", g, 0);
  const auto cr = runtime::run_scheme("color-robin", g, 0);
  ASSERT_TRUE(b.all_informed);
  ASSERT_TRUE(rr.all_informed);
  ASSERT_TRUE(cr.all_informed);
  EXPECT_LE(2u, rr.label_bits);
  EXPECT_LE(2u, cr.label_bits);
  // And B still meets its 2n-3 guarantee while RR needs ~n per frontier layer.
  EXPECT_LE(b.completion_round, 2ull * 64 - 3);
}

TEST(Protocols, RejectInvalidParameters) {
  EXPECT_THROW(RoundRobinProtocol(5, 5, std::nullopt),
               radiocast::ContractViolation);
  EXPECT_THROW(ColorRobinProtocol(2, 2, std::nullopt),
               radiocast::ContractViolation);
}

}  // namespace
}  // namespace radiocast::baselines
