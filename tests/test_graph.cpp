// Tests for src/graph: CSR construction, generators, traversal, the square
// coloring, IO round-trips and exhaustive enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "graph/coloring.hpp"
#include "graph/enumerate.hpp"
#include "graph/generators.hpp"
#include "graph/hash.hpp"
#include "graph/io.hpp"
#include "graph/traversal.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace radiocast::graph {
namespace {

TEST(GraphBuilder, BuildsSortedCsr) {
  GraphBuilder b(4);
  b.add_edge(2, 1).add_edge(0, 3).add_edge(1, 0);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 3u);
  const auto n1 = g.neighbors(1);
  EXPECT_TRUE(std::is_sorted(n1.begin(), n1.end()));
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_TRUE(g.has_edge(3, 0));
  EXPECT_FALSE(g.has_edge(2, 3));
}

TEST(GraphBuilder, DeduplicatesParallelEdges) {
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(1, 0).add_edge(0, 1);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(GraphBuilder, RejectsSelfLoops) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(1, 1), ContractViolation);
}

TEST(GraphBuilder, RejectsOutOfRangeIds) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 2), ContractViolation);
}

TEST(GraphBuilder, SortedRunsMergeWithLooseEdges) {
  // Two presorted runs interleaved with unsorted add_edge calls must build
  // the same CSR as inserting every edge individually.
  const std::vector<std::pair<NodeId, NodeId>> run1 = {{0, 1}, {0, 5}, {2, 3}};
  const std::vector<std::pair<NodeId, NodeId>> run2 = {{1, 4}, {3, 5}};
  GraphBuilder streamed(6);
  streamed.add_edge(4, 2);
  streamed.add_sorted_run(run1);
  streamed.add_edge(5, 1);
  streamed.add_sorted_run(run2);
  streamed.add_edge(0, 3);
  const Graph a = std::move(streamed).build();

  GraphBuilder plain(6);
  plain.add_edge(4, 2).add_edge(5, 1).add_edge(0, 3);
  for (const auto& run : {run1, run2}) {
    for (const auto& [u, v] : run) plain.add_edge(u, v);
  }
  const Graph b = std::move(plain).build();

  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (NodeId v = 0; v < 6; ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end())) << v;
  }
}

TEST(GraphBuilder, SortedRunsRejectUnsortedOrOutOfRangeInput) {
  GraphBuilder b(4);
  const std::vector<std::pair<NodeId, NodeId>> reversed = {{1, 2}, {0, 1}};
  EXPECT_THROW(b.add_sorted_run(reversed), ContractViolation);
  const std::vector<std::pair<NodeId, NodeId>> swapped = {{2, 1}};
  EXPECT_THROW(b.add_sorted_run(swapped), ContractViolation);
  const std::vector<std::pair<NodeId, NodeId>> oob = {{0, 4}};
  EXPECT_THROW(b.add_sorted_run(oob), ContractViolation);
}

TEST(GraphBuilder, SortedRunsDeduplicateAcrossRuns) {
  const std::vector<std::pair<NodeId, NodeId>> run = {{0, 1}, {1, 2}};
  GraphBuilder b(3);
  b.add_sorted_run(run);
  b.add_sorted_run(run);
  b.add_edge(0, 1);
  EXPECT_EQ(std::move(b).build().edge_count(), 2u);
}

TEST(GraphBuilder, FromSortedStreamMatchesPairListBuild) {
  // The two-pass streaming path must produce the same CSR as the classic
  // builder on a non-trivial generator (a grid, streamed in lex order).
  const std::uint32_t rows = 7, cols = 9, n = rows * cols;
  const auto id = [cols](std::uint32_t r, std::uint32_t c) {
    return r * cols + c;
  };
  const Graph streamed =
      GraphBuilder::from_sorted_stream(n, [&](auto&& edge) {
        for (std::uint32_t r = 0; r < rows; ++r) {
          for (std::uint32_t c = 0; c < cols; ++c) {
            if (c + 1 < cols) edge(id(r, c), id(r, c + 1));
            if (r + 1 < rows) edge(id(r, c), id(r + 1, c));
          }
        }
      });
  const Graph reference = grid(rows, cols);
  ASSERT_EQ(streamed.edge_count(), reference.edge_count());
  for (NodeId v = 0; v < n; ++v) {
    const auto ns = streamed.neighbors(v);
    const auto nr = reference.neighbors(v);
    EXPECT_TRUE(std::equal(ns.begin(), ns.end(), nr.begin(), nr.end())) << v;
  }
}

TEST(GraphBuilder, FromSortedStreamRejectsUnsortedStreams) {
  EXPECT_THROW(GraphBuilder::from_sorted_stream(
                   3,
                   [](auto&& edge) {
                     edge(1, 2);
                     edge(0, 1);
                   }),
               ContractViolation);
  EXPECT_THROW(GraphBuilder::from_sorted_stream(3,
                                                [](auto&& edge) {
                                                  edge(0, 1);
                                                  edge(0, 1);
                                                }),
               ContractViolation);
  EXPECT_THROW(
      GraphBuilder::from_sorted_stream(3, [](auto&& edge) { edge(2, 1); }),
      ContractViolation);
}

TEST(Graph, EmptyGraphQueries) {
  const Graph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(Graph, SummaryNamesCounts) {
  EXPECT_EQ(path(5).summary(), "Graph(n=5, m=4)");
}

// --- Generators: structural invariants -------------------------------------

TEST(Generators, PathStructure) {
  const Graph g = path(6);
  EXPECT_EQ(g.edge_count(), 5u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(3), 2u);
  EXPECT_EQ(diameter(g), 5u);
}

TEST(Generators, SingleVertexPath) {
  const Graph g = path(1);
  EXPECT_EQ(g.node_count(), 1u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, CycleStructure) {
  const Graph g = cycle(7);
  EXPECT_EQ(g.edge_count(), 7u);
  for (NodeId v = 0; v < 7; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_EQ(diameter(g), 3u);
}

TEST(Generators, StarStructure) {
  const Graph g = star(9);
  EXPECT_EQ(g.degree(0), 8u);
  for (NodeId v = 1; v < 9; ++v) EXPECT_EQ(g.degree(v), 1u);
  EXPECT_EQ(diameter(g), 2u);
}

TEST(Generators, CompleteStructure) {
  const Graph g = complete(6);
  EXPECT_EQ(g.edge_count(), 15u);
  EXPECT_EQ(diameter(g), 1u);
}

TEST(Generators, CompleteBipartiteStructure) {
  const Graph g = complete_bipartite(3, 4);
  EXPECT_EQ(g.edge_count(), 12u);
  for (NodeId u = 0; u < 3; ++u) EXPECT_EQ(g.degree(u), 4u);
  for (NodeId v = 3; v < 7; ++v) EXPECT_EQ(g.degree(v), 3u);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 3));
}

TEST(Generators, GridStructure) {
  const Graph g = grid(3, 4);
  EXPECT_EQ(g.node_count(), 12u);
  EXPECT_EQ(g.edge_count(), 3u * 3 + 2u * 4);  // horizontal + vertical
  EXPECT_EQ(g.degree(0), 2u);                  // corner
  EXPECT_EQ(g.degree(5), 4u);                  // interior (1,1)
  EXPECT_EQ(diameter(g), 5u);
}

TEST(Generators, TorusIsFourRegular) {
  const Graph g = torus(4, 5);
  EXPECT_EQ(g.node_count(), 20u);
  for (NodeId v = 0; v < 20; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, HypercubeStructure) {
  const Graph g = hypercube(4);
  EXPECT_EQ(g.node_count(), 16u);
  for (NodeId v = 0; v < 16; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_EQ(diameter(g), 4u);
}

TEST(Generators, BalancedTreeStructure) {
  const Graph g = balanced_tree(3, 2);  // 1 + 3 + 9
  EXPECT_EQ(g.node_count(), 13u);
  EXPECT_EQ(g.edge_count(), 12u);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, RandomTreeIsTree) {
  Rng rng(1);
  for (const std::uint32_t n : {2u, 5u, 33u, 200u}) {
    const Graph g = random_tree(n, rng);
    EXPECT_EQ(g.edge_count(), n - 1u);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Generators, CaterpillarStructure) {
  const Graph g = caterpillar(4, 2);
  EXPECT_EQ(g.node_count(), 12u);
  EXPECT_EQ(g.edge_count(), 11u);  // tree
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, LollipopStructure) {
  const Graph g = lollipop(5, 3);
  EXPECT_EQ(g.node_count(), 8u);
  EXPECT_EQ(g.edge_count(), 10u + 3u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(7), 1u);  // tail end
}

TEST(Generators, GnpConnectedAlwaysConnected) {
  Rng rng(7);
  for (const double p : {0.0, 0.01, 0.1, 0.5}) {
    for (int rep = 0; rep < 5; ++rep) {
      const Graph g = gnp_connected(40, p, rng);
      EXPECT_TRUE(is_connected(g)) << "p=" << p;
      EXPECT_EQ(g.node_count(), 40u);
    }
  }
}

TEST(Generators, GnpDeterministicForSeed) {
  Rng a(42), b(42);
  const Graph g1 = gnp_connected(30, 0.2, a);
  const Graph g2 = gnp_connected(30, 0.2, b);
  EXPECT_EQ(g1.edge_count(), g2.edge_count());
  for (NodeId v = 0; v < 30; ++v) EXPECT_EQ(g1.degree(v), g2.degree(v));
}

TEST(Generators, RandomGeometricConnectedEvenWhenSparse) {
  Rng rng(3);
  const Graph g = random_geometric(50, 0.05, rng);  // radius far too small
  EXPECT_TRUE(is_connected(g));                     // stitched
}

/// The unit-disk definition spelled directly: every pair tested, then
/// components joined one at a time by the closest cross-component pair,
/// ties broken by the first pair in (u, v) scan order.  O(n²) per join; the
/// differential below pins `random_geometric` to it edge for edge.
Graph reference_random_geometric(std::uint32_t n, double radius, Rng& rng) {
  std::vector<double> x(n), y(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    x[i] = rng.uniform();
    y[i] = rng.uniform();
  }
  const double r2 = radius * radius;
  GraphBuilder b(n);
  std::vector<NodeId> comp(n);
  for (NodeId v = 0; v < n; ++v) comp[v] = v;
  const auto join = [&](NodeId u, NodeId v) {
    const NodeId from = comp[u], to = comp[v];
    if (from == to) return;
    for (NodeId& c : comp)
      if (c == from) c = to;
  };
  const auto d2 = [&](NodeId u, NodeId v) {
    const double dx = x[u] - x[v];
    const double dy = y[u] - y[v];
    return dx * dx + dy * dy;
  };
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (d2(u, v) <= r2) {
        b.add_edge(u, v);
        join(u, v);
      }
    }
  }
  for (;;) {
    NodeId bu = kNoNode, bv = kNoNode;
    double best = std::numeric_limits<double>::max();
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (comp[u] != comp[v] && d2(u, v) < best) {
          best = d2(u, v);
          bu = u;
          bv = v;
        }
      }
    }
    if (bu == kNoNode) break;
    b.add_edge(bu, bv);
    join(bu, bv);
  }
  return std::move(b).build();
}

bool same_graph(const Graph& a, const Graph& b) {
  if (a.node_count() != b.node_count()) return false;
  for (NodeId v = 0; v < a.node_count(); ++v) {
    const auto x = a.neighbors(v), y = b.neighbors(v);
    if (!std::equal(x.begin(), x.end(), y.begin(), y.end())) return false;
  }
  return true;
}

// Seeded differential: the grid-and-Kruskal generator against the O(n²)
// reference — same edges, and the same RNG state afterwards (the next draw),
// across sparse (many stitches), threshold, dense and radius >= 1 inputs.
TEST(Generators, RandomGeometricMatchesQuadraticReference) {
  for (const std::uint32_t n : {1u, 2u, 3u, 17u, 120u, 250u}) {
    for (const double radius : {1e-6, 0.01, 0.05, 0.1, 0.25, 0.6, 1.0, 1.5}) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        Rng fast_rng(seed), ref_rng(seed);
        const Graph fast = random_geometric(n, radius, fast_rng);
        const Graph ref = reference_random_geometric(n, radius, ref_rng);
        EXPECT_TRUE(same_graph(fast, ref))
            << "n=" << n << " radius=" << radius << " seed=" << seed;
        EXPECT_EQ(fast_rng.next(), ref_rng.next())
            << "n=" << n << " radius=" << radius << " seed=" << seed;
      }
    }
  }
}

// Generator output pinned by canonical hash, as the all-pairs unit-disk
// generator produced it: stitched (tiny radius), radius >= 1, n in {1, 2},
// dense, and the gnp / sgnp families beside them.
TEST(Generators, GoldenDescriptorHashes) {
  const std::pair<const char*, const char*> golden[] = {
      {"disk:8000:0.01995:7", "9b5e3f06205cbad6"},
      {"disk:2000:0.03989:7", "c282c80682e692e2"},
      {"disk:2048:0.1:7", "f0db7389b85a6e77"},
      {"disk:1:0.1:1", "392209f14dea4c24"},
      {"disk:2:0.1:1", "505f902eddfa2326"},
      {"disk:2:0.001:3", "505f902eddfa2326"},
      {"disk:300:0.0001:2", "5dd1a19680e0b099"},
      {"disk:1000:0.005:11", "0864361abd032831"},
      {"disk:500:0.03:5", "15ff43a95f3899a6"},
      {"disk:40:1:4", "75d3eb9534a72e83"},
      {"disk:25:1.5:9", "b6bcbd5838b73d24"},
      {"disk:60:0.7:1", "e1968a993ee8399d"},
      {"gnp:8000:0.001250:7", "72a947921d8b78d6"},
      {"gnp:200:0.02:3", "de43821d275a2dea"},
      {"gnp:5000:0.002:7", "ad6e00adf1b48471"},
      {"gnp:2000:0.005:3", "f95e32a6d5803f9f"},
      {"gnp:4096:0.2:2", "89e4f14980200cb2"},
      {"gnp:3000:0.5:6", "9d34d306716f0cf6"},
      {"gnp:1500:1:4", "da3dfbe31a49162a"},    // p = 1
      {"gnp:1449:0.0:5", "eca19e911ddbd620"},  // p = 0: stitch only
      {"sgnp:8000:10:7", "4d420075818e4c71"},
      {"sgnp:1000:3:5", "2c6a234479184d76"},
      {"sgnp:20000:2:9", "0affe3623a93bca9"},
  };
  for (const auto& [descriptor, hash] : golden) {
    EXPECT_EQ(hash_hex(canonical_hash(from_descriptor(descriptor))), hash)
        << descriptor;
  }
}

// Descriptor arguments parse whole or not at all: garbage, signs, trailing
// junk, non-finite reals and integers past 32 bits are contract violations
// (never std::invalid_argument / std::out_of_range, never a silent wrap).
TEST(Generators, DescriptorRejectsMalformedArguments) {
  for (const char* bad :
       {"gnp:10:abc:1", "gnp:10:0.1:x", "gnp:10:0.1:1x", "disk:10:0.1x:1",
        "disk:10::1", "disk:10:inf:1", "disk:10:nan:1", "gnp:10:1e999:1",
        "path:-3", "path:+3", "path: 3", "path:3.0", "path:", "path:abc",
        "path:4294967296", "path:4294967298", "tree:5:4294967296",
        "sgnp:10:2:18446744073709551617", "grid:3:99999999999999999999"}) {
    EXPECT_THROW(from_descriptor(bad), ContractViolation) << bad;
  }
  // Leading zeros and exponent spellings still parse to the same graph.
  EXPECT_EQ(canonical_hash(from_descriptor("path:0004")),
            canonical_hash(path(4)));
  EXPECT_EQ(canonical_hash(from_descriptor("disk:30:1e-1:3")),
            canonical_hash(from_descriptor("disk:30:0.1:3")));
  // The largest 32-bit seed is accepted and distinct from seed 0, which
  // 2^32 used to alias.
  EXPECT_NE(canonical_hash(from_descriptor("tree:40:4294967295")),
            canonical_hash(from_descriptor("tree:40:0")));
}

TEST(Generators, SeriesParallelConnected) {
  Rng rng(11);
  for (const std::uint32_t edges : {1u, 2u, 8u, 40u, 150u}) {
    const Graph g = series_parallel(edges, rng);
    EXPECT_TRUE(is_connected(g));
    EXPECT_GE(g.node_count(), 2u);
    EXPECT_LE(g.edge_count(), edges);
  }
}

TEST(Generators, ClusteredConnected) {
  Rng rng(13);
  const Graph g = clustered(5, 6, 0.4, rng);
  EXPECT_EQ(g.node_count(), 30u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, Figure1Shape) {
  const Graph g = figure1();
  EXPECT_EQ(g.node_count(), 13u);
  EXPECT_EQ(g.edge_count(), 16u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(0), 3u);  // Γ(s) = {A, C, B}
}

// --- Traversal --------------------------------------------------------------

TEST(Traversal, BfsDistancesOnPath) {
  const Graph g = path(6);
  const auto d = bfs_distances(g, 0);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(d[v], v);
}

TEST(Traversal, BfsDistancesFromMiddle) {
  const Graph g = path(7);
  const auto d = bfs_distances(g, 3);
  EXPECT_EQ(d[0], 3u);
  EXPECT_EQ(d[6], 3u);
  EXPECT_EQ(d[3], 0u);
}

TEST(Traversal, DisconnectedDetected) {
  GraphBuilder b(4);
  b.add_edge(0, 1).add_edge(2, 3);
  const Graph g = std::move(b).build();
  EXPECT_FALSE(is_connected(g));
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[2], kUnreachable);
}

TEST(Traversal, EccentricityRequiresConnected) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph g = std::move(b).build();
  EXPECT_THROW(eccentricity(g, 0), ContractViolation);
}

TEST(Traversal, EccentricityAndDiameter) {
  const Graph g = path(9);
  EXPECT_EQ(eccentricity(g, 0), 8u);
  EXPECT_EQ(eccentricity(g, 4), 4u);
  EXPECT_EQ(diameter(g), 8u);
}

TEST(Traversal, BfsLayersPartitionVertices) {
  Rng rng(5);
  const Graph g = gnp_connected(25, 0.15, rng);
  const auto layers = bfs_layers(g, 0);
  std::set<NodeId> seen;
  const auto dist = bfs_distances(g, 0);
  for (std::size_t d = 0; d < layers.size(); ++d) {
    for (const NodeId v : layers[d]) {
      EXPECT_TRUE(seen.insert(v).second);
      EXPECT_EQ(dist[v], d);
    }
  }
  EXPECT_EQ(seen.size(), g.node_count());
}

// --- Square coloring --------------------------------------------------------

class SquareColoringTest : public ::testing::TestWithParam<int> {};

TEST_P(SquareColoringTest, ProperAtDistanceTwo) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Graph g = gnp_connected(40, 0.1 + 0.02 * GetParam(), rng);
  const auto c = square_coloring(g);
  EXPECT_TRUE(is_square_proper(g, c));
  const std::uint64_t delta = g.max_degree();
  EXPECT_LE(c.count, delta * delta + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SquareColoringTest, ::testing::Range(0, 8));

TEST(SquareColoring, StarNeedsNColors) {
  // All leaves are at distance 2 through the centre.
  const auto c = square_coloring(star(7));
  EXPECT_EQ(c.count, 7u);
  EXPECT_TRUE(is_square_proper(star(7), c));
}

TEST(SquareColoring, PathNeedsThreeColors) {
  const auto c = square_coloring(path(10));
  EXPECT_EQ(c.count, 3u);
}

TEST(SquareColoring, ImproperColoringDetected) {
  Coloring c;
  c.color = {0, 0, 1};  // adjacent nodes 0,1 share a color
  c.count = 2;
  EXPECT_FALSE(is_square_proper(path(3), c));
}

// --- IO ----------------------------------------------------------------------

TEST(Io, EdgeListRoundTrip) {
  Rng rng(17);
  const Graph g = gnp_connected(20, 0.2, rng);
  std::stringstream ss;
  write_edge_list(g, ss);
  const Graph h = read_edge_list(ss);
  ASSERT_EQ(h.node_count(), g.node_count());
  ASSERT_EQ(h.edge_count(), g.edge_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (const NodeId w : g.neighbors(v)) EXPECT_TRUE(h.has_edge(v, w));
  }
}

TEST(Io, ParsesCommentsAndHeader) {
  std::stringstream ss("# comment\nnodes 5\n0 1\n1 2 # trailing\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(Io, MalformedNodeIdsAreContractViolations) {
  for (const char* bad : {"x 1\n", "1 y\n", "4294967296 1\n", "-1 2\n",
                          "1 2.5\n", "3\n"}) {
    std::stringstream ss(bad);
    EXPECT_THROW(read_edge_list(ss), ContractViolation) << bad;
  }
}

TEST(Io, DotContainsAllEdges) {
  const Graph g = cycle(4);
  const auto dot = to_dot(g, {}, 0);
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("n3"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);
}

// --- Enumeration -------------------------------------------------------------

TEST(Enumerate, CountsMatchOeisA001187) {
  // Connected labeled graphs: 1, 1, 4, 38, 728, 26704 for n = 1..6.
  EXPECT_EQ(connected_graph_count(1), 1u);
  EXPECT_EQ(connected_graph_count(2), 1u);
  EXPECT_EQ(connected_graph_count(3), 4u);
  EXPECT_EQ(connected_graph_count(4), 38u);
  EXPECT_EQ(connected_graph_count(5), 728u);
  EXPECT_EQ(connected_graph_count(6), 26704u);
}

TEST(Enumerate, AllVisitedGraphsAreConnected) {
  for_each_connected_graph(5, [](const Graph& g) {
    ASSERT_TRUE(is_connected(g));
    ASSERT_EQ(g.node_count(), 5u);
  });
}

}  // namespace
}  // namespace radiocast::graph
