// Exhaustive verification on all small connected graphs: the theorems are
// universally quantified, so we check every connected graph on <= 5 nodes
// (728 on 5 nodes) with every source, and every 6-node graph (26 704) with
// every source for the headline bound.
#include <gtest/gtest.h>

#include "core/protocols.hpp"
#include "core/verifier.hpp"
#include "graph/enumerate.hpp"
#include "graph/traversal.hpp"
#include "onebit/labeler.hpp"
#include "runtime/scheme.hpp"
#include "sim/engine.hpp"

namespace radiocast::core {
namespace {

using graph::NodeId;

TEST(Exhaustive, BroadcastAndLemma28UpTo5Nodes) {
  std::uint64_t executions = 0;
  for (std::uint32_t n = 2; n <= 5; ++n) {
    graph::for_each_connected_graph(n, [&](const graph::Graph& g) {
      for (NodeId s = 0; s < n; ++s) {
        for (const auto policy :
             {DomPolicy::kAscendingId, DomPolicy::kPreferDropNew}) {
          const auto labeling = label_broadcast(g, s, {policy, 0});
          sim::Engine engine(g, make_broadcast_protocols(labeling, 1),
                             {sim::TraceLevel::kFull});
          engine.run_until(
              [](const sim::Engine& e) { return e.all_informed(); }, 4 * n + 8);
          ASSERT_TRUE(engine.all_informed())
              << g.summary() << " source " << s;
          ASSERT_LE(engine.last_first_data_reception(), 2ull * n - 3);
          const auto verdict = verify_lemma_2_8(g, labeling, engine.trace());
          ASSERT_TRUE(verdict.empty()) << g.summary() << " s=" << s << ": "
                                       << verdict;
          ++executions;
        }
      }
    });
  }
  EXPECT_GT(executions, 7000u);
}

TEST(Exhaustive, TheoremBound6Nodes) {
  // All 26 704 connected graphs on 6 nodes, every source: Theorem 2.9.
  std::uint64_t executions = 0;
  graph::for_each_connected_graph(6, [&](const graph::Graph& g) {
    for (NodeId s = 0; s < 6; ++s) {
      const auto run = runtime::run_scheme("b", g, s);
      ASSERT_TRUE(run.all_informed) << g.summary() << " source " << s;
      ASSERT_LE(run.completion_round, 9u);  // 2*6-3
      ASSERT_LE(run.ell, 6u);               // Lemma 2.6
      ++executions;
    }
  });
  EXPECT_EQ(executions, 26704u * 6);
}

TEST(Exhaustive, AcknowledgedUpTo5Nodes) {
  for (std::uint32_t n = 2; n <= 5; ++n) {
    graph::for_each_connected_graph(n, [&](const graph::Graph& g) {
      for (NodeId s = 0; s < n; ++s) {
        const auto run = runtime::run_scheme("ack", g, s);
        ASSERT_TRUE(run.all_informed) << g.summary() << " source " << s;
        ASSERT_NE(run.ack_round, 0u) << g.summary() << " source " << s;
        // Corollary 3.8 window.
        ASSERT_GE(run.ack_round, 2ull * run.ell - 2);
        ASSERT_LE(run.ack_round, std::max<std::uint64_t>(3ull * run.ell - 4,
                                                         2ull * run.ell - 2));
        // Corrected Theorem 3.9 window.
        ASSERT_GE(run.ack_round, run.completion_round + 1);
        ASSERT_LE(run.ack_round, run.completion_round + n - 1);
      }
    });
  }
}

TEST(Exhaustive, Fact31UpTo5Nodes) {
  for (std::uint32_t n = 2; n <= 5; ++n) {
    graph::for_each_connected_graph(n, [&](const graph::Graph& g) {
      for (NodeId s = 0; s < n; ++s) {
        const auto lab = label_acknowledged(g, s);
        for (const auto& l : lab.labels) {
          const auto v = l.value();
          ASSERT_NE(v, 0b101u);
          ASSERT_NE(v, 0b111u);
          ASSERT_NE(v, 0b011u);
        }
      }
    });
  }
}

TEST(Exhaustive, ArbitrarySourceUpTo4Nodes) {
  // B_arb: every connected graph on <= 4 nodes, every (source, coordinator).
  for (std::uint32_t n = 2; n <= 4; ++n) {
    graph::for_each_connected_graph(n, [&](const graph::Graph& g) {
      for (NodeId coord = 0; coord < n; ++coord) {
        for (NodeId s = 0; s < n; ++s) {
          const auto run = runtime::run_scheme("arb", g, s,
                                               {.coordinator = coord});
          ASSERT_TRUE(run.ok)
              << g.summary() << " source " << s << " coord " << coord;
        }
      }
    });
  }
}

TEST(Exhaustive, ArbitrarySource5NodesFixedCoordinator) {
  graph::for_each_connected_graph(5, [&](const graph::Graph& g) {
    for (NodeId s = 0; s < 5; ++s) {
      const auto run = runtime::run_scheme("arb", g, s);
      ASSERT_TRUE(run.ok) << g.summary() << " source " << s;
    }
  });
}

TEST(Exhaustive, CommonRoundUpTo5Nodes) {
  for (std::uint32_t n = 2; n <= 5; ++n) {
    graph::for_each_connected_graph(n, [&](const graph::Graph& g) {
      const auto run = runtime::run_scheme("common-round", g, 0);
      ASSERT_TRUE(run.ok) << g.summary();
    });
  }
}

TEST(Exhaustive, OneBitRadius2UpTo5Nodes) {
  // §5: the radius-<=2 one-bit claim, exhaustively (n=6 lives in test_onebit).
  for (std::uint32_t n = 2; n <= 5; ++n) {
    graph::for_each_connected_graph(n, [&](const graph::Graph& g) {
      for (NodeId s = 0; s < n; ++s) {
        if (graph::eccentricity(g, s) > 2) continue;
        const auto lab =
            onebit::find_onebit_labeling(g, s, {.max_attempts = 128});
        ASSERT_TRUE(lab.ok) << g.summary() << " source " << s;
      }
    });
  }
}

}  // namespace
}  // namespace radiocast::core
