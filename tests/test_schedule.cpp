// Differential tests: the analytically predicted schedule (schedule.hpp) must
// match the engine's recorded execution transmission-for-transmission — the
// constructive converse of the Lemma 2.8 verifier.
#include <gtest/gtest.h>

#include "analysis/experiments.hpp"
#include "analysis/stats.hpp"
#include "core/protocols.hpp"
#include "core/schedule.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"

namespace radiocast::core {
namespace {

/// Runs B and compares the trace against the prediction.
void expect_schedule_matches(const Graph& g, NodeId source) {
  const auto labeling = label_broadcast(g, source);
  const auto plan = predict_schedule(g, labeling);

  sim::Engine engine(g, make_broadcast_protocols(labeling, 1),
                     {sim::TraceLevel::kFull});
  engine.run_until([](const sim::Engine& e) { return e.all_informed(); },
                   4ull * g.node_count() + 8);
  ASSERT_TRUE(engine.all_informed());

  // Every planned round appears verbatim in the trace; every trace round with
  // activity appears in the plan.
  const auto& trace = engine.trace();
  std::size_t plan_idx = 0;
  for (std::size_t t0 = 0; t0 < trace.rounds().size(); ++t0) {
    const auto& rec = trace.rounds()[t0];
    if (rec.transmissions.empty()) continue;
    ASSERT_LT(plan_idx, plan.rounds.size()) << "unplanned activity in round "
                                            << t0 + 1;
    const auto& planned = plan.rounds[plan_idx++];
    ASSERT_EQ(planned.round, t0 + 1);
    std::vector<NodeId> tx;
    for (const auto& [v, msg] : rec.transmissions) {
      tx.push_back(v);
      EXPECT_EQ(msg.kind == sim::MsgKind::kData, planned.is_data);
    }
    EXPECT_EQ(tx, planned.transmitters) << "round " << t0 + 1;
  }
  EXPECT_EQ(plan_idx, plan.rounds.size())
      << "planned rounds missing from trace";

  // Per-node predictions match engine counters.  The source is excluded from
  // the informed-round comparison: the engine records its first µ *reception*
  // (an echo of a later retransmission), while the plan defines the source as
  // informed from the start.
  EXPECT_EQ(plan.completion_round, engine.last_first_data_reception());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (v != source) {
      EXPECT_EQ(plan.informed_round[v], engine.first_data_reception(v)) << v;
    }
    EXPECT_EQ(plan.tx_count[v], engine.tx_count(v)) << v;
  }
}

TEST(Schedule, MatchesEngineOnFigure1) {
  expect_schedule_matches(graph::figure1(), 0);
}

TEST(Schedule, MatchesEngineOnPathsAndStars) {
  expect_schedule_matches(graph::path(17), 0);
  expect_schedule_matches(graph::path(17), 8);
  expect_schedule_matches(graph::star(12), 0);
  expect_schedule_matches(graph::star(12), 4);
}

TEST(Schedule, MatchesEngineAcrossFamilies) {
  for (const auto& w : analysis::standard_suite(20, 88)) {
    expect_schedule_matches(w.graph, w.source);
  }
}

class ScheduleFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleFuzz, MatchesEngineOnRandomGraphs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1009 + 11);
  const auto g = graph::gnp_connected(18, 0.15, rng);
  for (NodeId s = 0; s < g.node_count(); s += 4) {
    expect_schedule_matches(g, s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleFuzz, ::testing::Range(0, 8));

TEST(Schedule, SingleNodeIsEmpty) {
  const auto labeling = label_broadcast(graph::path(1), 0);
  const auto plan = predict_schedule(graph::path(1), labeling);
  EXPECT_TRUE(plan.rounds.empty());
  EXPECT_EQ(plan.completion_round, 0u);
}

TEST(Schedule, DutyCycleBoundedByStages) {
  // A node transmits at most once per stage it dominates plus one stay.
  const auto labeling = label_broadcast(graph::path(31), 0);
  const auto plan = predict_schedule(graph::path(31), labeling);
  for (const auto c : plan.tx_count) {
    EXPECT_LE(c, labeling.stages.ell);
  }
}

// --- Summary statistics
// -------------------------------------------------------

TEST(Stats, MeanVarianceMinMax) {
  analysis::Summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, SingleObservation) {
  analysis::Summary s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, EmptyThrowsOnQuery) {
  analysis::Summary s;
  EXPECT_THROW((void)s.mean(), ContractViolation);
  EXPECT_THROW((void)s.min(), ContractViolation);
}

TEST(Stats, MergeEqualsSequential) {
  Rng rng(9);
  analysis::Summary whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform() * 10 - 5;
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Stats, MergeWithEmpty) {
  analysis::Summary a, b;
  a.add(1.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);  // adopt
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

}  // namespace
}  // namespace radiocast::core
