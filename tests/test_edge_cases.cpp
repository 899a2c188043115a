// Adversarial and boundary cases across the whole stack: degenerate graphs,
// extreme sources, contract behavior on invalid inputs, and topologies chosen
// to stress specific code paths (double designation, deep chains, dense
// collisions).
#include <gtest/gtest.h>

#include "analysis/experiments.hpp"
#include "core/protocols.hpp"
#include "core/verifier.hpp"
#include "graph/generators.hpp"
#include "graph/traversal.hpp"
#include "runtime/scheme.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"

namespace radiocast {
namespace {

using graph::NodeId;

TEST(EdgeCases, DisconnectedGraphIsRejectedByConstruction) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1).add_edge(2, 3);
  const auto g = std::move(b).build();
  // Lemma 2.4's progress guarantee requires connectivity; the construction
  // fails fast with a contract violation instead of looping.
  EXPECT_THROW(core::build_stage_sets(g, 0), ContractViolation);
}

TEST(EdgeCases, WheelFromHubIsOneShot) {
  const auto run = runtime::run_scheme("b", graph::wheel(12), 0);
  EXPECT_TRUE(run.all_informed);
  EXPECT_EQ(run.completion_round, 1u);
}

TEST(EdgeCases, WheelFromRimNode) {
  const auto run = runtime::run_scheme("b", graph::wheel(12), 5);
  EXPECT_TRUE(run.all_informed);
  EXPECT_LE(run.completion_round, 5u);
}

TEST(EdgeCases, PetersenAllSources) {
  const auto g = graph::petersen();
  for (NodeId s = 0; s < 10; ++s) {
    const auto run = runtime::run_scheme("b", g, s);
    ASSERT_TRUE(run.all_informed) << s;
    EXPECT_LE(run.completion_round, 17u);
  }
}

TEST(EdgeCases, LollipopFromTailTip) {
  // Deep chain into a clique: the clique is informed by a single chain node,
  // then one round floods it... collisions inside the clique stress DOM.
  const auto g = graph::lollipop(10, 15);
  const auto run = runtime::run_scheme("b", g, g.node_count() - 1);
  EXPECT_TRUE(run.all_informed);
  EXPECT_LE(run.completion_round, run.bound);
}

TEST(EdgeCases, LollipopFromCliqueCore) {
  const auto g = graph::lollipop(10, 15);
  const auto run = runtime::run_scheme("b", g, 0);
  EXPECT_TRUE(run.all_informed);
}

TEST(EdgeCases, CompleteBipartiteBothSidesAndAck) {
  const auto g = graph::complete_bipartite(3, 17);
  for (const NodeId s : {0u, 5u}) {
    const auto run = runtime::run_scheme("ack", g, s);
    ASSERT_TRUE(run.all_informed) << s;
    ASSERT_NE(run.ack_round, 0u) << s;
  }
}

TEST(EdgeCases, DeepCaterpillarLegsDoNotStallChain) {
  // Legs create large NEW sets whose members never dominate anything.
  const auto g = graph::caterpillar(20, 5);
  const auto run = runtime::run_scheme("b", g, 0);
  EXPECT_TRUE(run.all_informed);
  EXPECT_LE(run.completion_round, run.bound);
}

TEST(EdgeCases, TwoCliquesBridgedByOneEdge) {
  graph::GraphBuilder b(16);
  for (NodeId u = 0; u < 8; ++u) {
    for (NodeId v = u + 1; v < 8; ++v) {
      b.add_edge(u, v);
      b.add_edge(u + 8, v + 8);
    }
  }
  b.add_edge(7, 8);
  const auto g = std::move(b).build();
  for (const NodeId s : {0u, 7u, 8u}) {
    const auto labeling = core::label_broadcast(g, s);
    sim::Engine engine(g, core::make_broadcast_protocols(labeling, 1),
                       {sim::TraceLevel::kFull});
    engine.run_until([](const sim::Engine& e) { return e.all_informed(); }, 80);
    ASSERT_TRUE(engine.all_informed()) << s;
    ASSERT_TRUE(core::verify_lemma_2_8(g, labeling, engine.trace()).empty())
        << s;
  }
}

TEST(EdgeCases, StarOfStars) {
  // Hub connected to sub-hubs, each with leaves: two-level fanout where every
  // sub-hub must be in DOM_2 and every leaf collides with nothing.
  graph::GraphBuilder b(1 + 5 + 5 * 6);
  NodeId next = 6;
  for (NodeId h = 1; h <= 5; ++h) {
    b.add_edge(0, h);
    for (int leaf = 0; leaf < 6; ++leaf) b.add_edge(h, next++);
  }
  const auto g = std::move(b).build();
  const auto run = runtime::run_scheme("b", g, 0);
  EXPECT_TRUE(run.all_informed);
  EXPECT_EQ(run.completion_round, 3u);  // hub -> sub-hubs -> leaves
}

TEST(EdgeCases, MaxFreshPolicyBeatsOrMatchesOnFanouts) {
  // The |NEW|-maximizing policy should never inform fewer nodes per stage on
  // a clean two-level fanout.
  graph::GraphBuilder b(1 + 4 + 4 * 4);
  NodeId next = 5;
  for (NodeId h = 1; h <= 4; ++h) {
    b.add_edge(0, h);
    for (int leaf = 0; leaf < 4; ++leaf) b.add_edge(h, next++);
  }
  const auto g = std::move(b).build();
  const auto fast =
      runtime::run_scheme("b", g, 0, {.policy = core::DomPolicy::kMaxFresh});
  const auto base = runtime::run_scheme("b", g, 0);
  ASSERT_TRUE(fast.all_informed);
  ASSERT_TRUE(base.all_informed);
  EXPECT_LE(fast.completion_round, base.completion_round);
}

TEST(EdgeCases, SelfStabilizedAfterQuiescence) {
  // Stepping the engine long after completion must not wake anything up.
  const auto g = graph::grid(4, 4);
  const auto labeling = core::label_broadcast(g, 0);
  sim::Engine engine(g, core::make_broadcast_protocols(labeling, 1));
  for (int i = 0; i < 200; ++i) engine.step();
  EXPECT_TRUE(engine.all_informed());
  EXPECT_GE(engine.silent_streak(), 150u);
}

TEST(EdgeCases, ArbWithCoordinatorEqualsZ) {
  // Force the degenerate labeling where the coordinator's λ_ack z happens to
  // be adjacent: 2-node graph, coordinator 0 => z = 1; source z.
  const auto g = graph::path(2);
  EXPECT_TRUE(runtime::run_scheme("arb", g, 1).ok);
  EXPECT_TRUE(runtime::run_scheme("arb", g, 0).ok);
}

TEST(EdgeCases, HugeStarAckConstantTime) {
  // Acknowledged broadcast on a star is O(1) regardless of n.
  const auto run = runtime::run_scheme("ack", graph::star(2000), 0);
  EXPECT_TRUE(run.all_informed);
  EXPECT_EQ(run.completion_round, 1u);
  EXPECT_EQ(run.ack_round, 2u);
}

TEST(EdgeCases, LongPathStress) {
  const auto run = runtime::run_scheme("ack", graph::path(1500), 0);
  EXPECT_TRUE(run.all_informed);
  EXPECT_EQ(run.completion_round, 2997u);  // 2n-3
  EXPECT_EQ(run.ack_round, 2997u + 1499u);  // t + n - 1 (l = n case)
}

TEST(EdgeCases, MultiSessionOnTwoNodes) {
  const auto run = runtime::run_scheme("multi", graph::path(2), 0,
                                       {.payloads = {9, 8, 7, 6}});
  EXPECT_TRUE(run.ok);
  EXPECT_EQ(run.ack_rounds[0], 2u);
  EXPECT_EQ(run.rounds_per_message, 2u);
}

TEST(EdgeCases, OneBitOnDoubleStar) {
  // Two hubs sharing an edge, each with leaves — a stranding trap for naive
  // 1-bit searchers (both hubs designated => every shared leaf collides).
  graph::GraphBuilder b(12);
  b.add_edge(0, 1);
  for (NodeId leaf = 2; leaf < 7; ++leaf) b.add_edge(0, leaf);
  for (NodeId leaf = 7; leaf < 12; ++leaf) b.add_edge(1, leaf);
  const auto g = std::move(b).build();
  for (const NodeId s : {0u, 2u, 11u}) {
    const auto run = runtime::run_scheme("onebit", g, s, {.max_attempts = 256});
    EXPECT_TRUE(run.ok) << s;
  }
}

}  // namespace
}  // namespace radiocast
