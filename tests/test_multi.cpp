// Tests for the multi-message acknowledged session (§1.2 motivation): many
// consecutive broadcasts over a single labeling, next message gated on the
// previous ack.
#include <gtest/gtest.h>

#include "analysis/experiments.hpp"
#include "graph/generators.hpp"
#include "runtime/scheme.hpp"
#include "support/rng.hpp"

namespace radiocast::core {
namespace {

TEST(Multi, SingleMessageMatchesAckBroadcast) {
  const auto single = runtime::run_scheme("ack", graph::figure1(), 0);
  const auto multi = runtime::run_scheme("multi", graph::figure1(), 0,
                                         {.payloads = {42}});
  ASSERT_TRUE(multi.ok);
  ASSERT_EQ(multi.ack_rounds.size(), 1u);
  EXPECT_EQ(multi.ack_rounds[0], single.ack_round);
}

TEST(Multi, DeliversAllPayloadsInOrder) {
  const std::vector<std::uint32_t> payloads = {7, 7, 9, 1, 0xFFFF};
  const auto run = runtime::run_scheme("multi", graph::figure1(), 0,
                                       {.payloads = payloads});
  EXPECT_TRUE(run.ok);
  EXPECT_EQ(run.ack_rounds.size(), payloads.size());
}

TEST(Multi, EveryInstanceTakesIdenticalTime) {
  // Determinism: each instance replays the same execution, so inter-ack gaps
  // are constant.
  const auto run = runtime::run_scheme("multi", graph::figure1(), 0,
                                       {.payloads = {1, 2, 3, 4, 5, 6}});
  ASSERT_TRUE(run.ok);
  for (std::size_t k = 1; k < run.ack_rounds.size(); ++k) {
    EXPECT_EQ(run.ack_rounds[k] - run.ack_rounds[k - 1],
              run.rounds_per_message)
        << "instance " << k;
  }
}

TEST(Multi, PathPipeline) {
  const auto run = runtime::run_scheme("multi", graph::path(9), 0,
                                       {.payloads = {10, 20, 30}});
  EXPECT_TRUE(run.ok);
  // Per instance: informed by t = 2n-3 = 15 (ell = 9), z acks at 2*ell-2 = 16,
  // the chain walks back to the source by 3*ell-4 = 23.  The next instance
  // starts the round right after the ack, so the inter-ack gap equals the
  // full instance span of 23 rounds.
  EXPECT_EQ(run.ack_rounds[0], 23u);
  EXPECT_EQ(run.rounds_per_message, 23u);
}

TEST(Multi, RepeatedPayloadValuesAreDistinguishedByTag) {
  // Identical payloads must still be counted as separate messages.
  const std::vector<std::uint32_t> payloads(7, 123);
  const auto run = runtime::run_scheme("multi", graph::grid(3, 4), 0,
                                       {.payloads = payloads});
  EXPECT_TRUE(run.ok);
  EXPECT_EQ(run.ack_rounds.size(), 7u);
}

TEST(Multi, ManyMessagesCrossTagWraparound) {
  // More instances than a byte of tag space exercises the cyclic tags.
  std::vector<std::uint32_t> payloads(230);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    payloads[i] = static_cast<std::uint32_t>(i * 3 + 1);
  }
  const auto run = runtime::run_scheme("multi", graph::star(6), 0,
                                       {.payloads = payloads});
  EXPECT_TRUE(run.ok);
  EXPECT_EQ(run.ack_rounds.size(), payloads.size());
}

TEST(Multi, AcrossFamilies) {
  for (const auto& w : analysis::quick_suite(16, 515)) {
    const auto run = runtime::run_scheme("multi", w.graph, w.source,
                                         {.payloads = {5, 6, 7}});
    EXPECT_TRUE(run.ok) << w.family;
    EXPECT_EQ(run.ack_rounds.size(), 3u) << w.family;
  }
}

TEST(Multi, AllSourcesOnRandomGraph) {
  Rng rng(616);
  const auto g = graph::gnp_connected(11, 0.25, rng);
  for (graph::NodeId s = 0; s < g.node_count(); ++s) {
    const auto run = runtime::run_scheme("multi", g, s, {.payloads = {1, 2}});
    EXPECT_TRUE(run.ok) << "source " << s;
  }
}

TEST(Multi, EmptyScheduleSendsMuOnce) {
  // The registry reads an empty schedule as "send µ once".
  const auto run = runtime::run_scheme("multi", graph::path(3), 0, {.mu = 17});
  EXPECT_TRUE(run.ok);
  const auto once = runtime::run_scheme("multi", graph::path(3), 0,
                                        {.payloads = {17}});
  EXPECT_EQ(run.ack_rounds, once.ack_rounds);
  EXPECT_EQ(run.ack_rounds.size(), 1u);
}

TEST(Multi, RejectsSingletonGraph) {
  EXPECT_THROW(
      runtime::run_scheme("multi", graph::path(1), 0, {.payloads = {1}}),
      ContractViolation);
}

}  // namespace
}  // namespace radiocast::core
