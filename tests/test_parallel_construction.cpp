// Differential suite for the parallel construction paths: stage sets,
// labelings, and square coloring must be BYTE-IDENTICAL to their sequential
// counterparts at every thread count (the determinism contract of
// parallel/chunked.hpp), and SweepRunner's pooled graph resolution must
// match a one-worker pool.  Runs under both the `differential` and `threaded`
// ctest labels, so the TSan job exercises the pool fan-out for data races.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "core/labeling.hpp"
#include "core/stages.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "graph/hash.hpp"
#include "graph/traversal.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/sweep.hpp"
#include "support/rng.hpp"

namespace radiocast {
namespace {

using core::DomPolicy;
using core::kAllDomPolicies;

/// The structurally diverse fixture set: a long path (worst-case stage
/// count), a grid, a random sparse gnp, a denser gnp, a random tree, and the
/// streamed sparse generator itself.
std::vector<std::pair<std::string, graph::Graph>> fixture_graphs() {
  std::vector<std::pair<std::string, graph::Graph>> out;
  out.emplace_back("path", graph::path(257));
  out.emplace_back("grid", graph::grid(17, 19));
  {
    Rng rng(7);
    out.emplace_back("gnp_sparse", graph::gnp_connected(300, 0.02, rng));
  }
  {
    Rng rng(11);
    out.emplace_back("gnp_dense", graph::gnp_connected(160, 0.15, rng));
  }
  {
    Rng rng(13);
    out.emplace_back("tree", graph::random_tree(400, rng));
  }
  {
    Rng rng(17);
    out.emplace_back("sgnp", graph::sparse_gnp_connected(500, 6.0, rng));
  }
  return out;
}

void expect_same_stages(const core::StageSets& a, const core::StageSets& b,
                        const std::string& what) {
  EXPECT_EQ(a.dom, b.dom) << what;
  EXPECT_EQ(a.fresh, b.fresh) << what;
  EXPECT_EQ(a.frontier, b.frontier) << what;
  EXPECT_EQ(a.ell, b.ell) << what;
  EXPECT_EQ(a.stage_of, b.stage_of) << what;
  EXPECT_EQ(a.dom_member, b.dom_member) << what;
  EXPECT_EQ(a.source, b.source) << what;
}

TEST(ParallelStageSets, ByteIdenticalAcrossThreadCountsAndPolicies) {
  const auto graphs = fixture_graphs();
  par::ThreadPool pool2(2);
  par::ThreadPool pool8(8);
  for (const auto& [name, g] : graphs) {
    for (const DomPolicy policy : kAllDomPolicies) {
      const auto seq = core::build_stage_sets(g, 0, policy, 42);
      const auto par2 = core::build_stage_sets(g, 0, policy, 42, &pool2);
      const auto par8 = core::build_stage_sets(g, 0, policy, 42, &pool8);
      const std::string what =
          name + "/" + core::to_string(policy);
      expect_same_stages(seq, par2, what + "/t2");
      expect_same_stages(seq, par8, what + "/t8");
    }
  }
}

TEST(ParallelLabeling, BroadcastByteIdenticalAcrossThreadCounts) {
  const auto graphs = fixture_graphs();
  for (const auto& [name, g] : graphs) {
    for (const DomPolicy policy : kAllDomPolicies) {
      core::LabelingOptions opt;
      opt.policy = policy;
      opt.seed = 42;
      opt.threads = 1;
      const auto seq = core::label_broadcast(g, 0, opt);
      for (const std::size_t threads : {2u, 8u}) {
        opt.threads = threads;
        const auto par = core::label_broadcast(g, 0, opt);
        const std::string what = name + "/" + core::to_string(policy) +
                                 "/t" + std::to_string(threads);
        EXPECT_EQ(seq.labels, par.labels) << what;
        EXPECT_EQ(seq.z, par.z) << what;
        EXPECT_EQ(seq.source, par.source) << what;
        expect_same_stages(seq.stages, par.stages, what);
      }
    }
  }
}

TEST(ParallelLabeling, AckAndArbitraryByteIdenticalAcrossThreadCounts) {
  // The derived schemes only add sequential post-passes on top of
  // label_broadcast, so one policy per graph suffices here.
  const auto graphs = fixture_graphs();
  for (const auto& [name, g] : graphs) {
    core::LabelingOptions seq_opt;
    core::LabelingOptions par_opt;
    par_opt.threads = 8;
    const auto ack_seq = core::label_acknowledged(g, 0, seq_opt);
    const auto ack_par = core::label_acknowledged(g, 0, par_opt);
    EXPECT_EQ(ack_seq.labels, ack_par.labels) << name;
    EXPECT_EQ(ack_seq.z, ack_par.z) << name;
    const auto arb_seq = core::label_arbitrary(g, 0, seq_opt);
    const auto arb_par = core::label_arbitrary(g, 0, par_opt);
    EXPECT_EQ(arb_seq.labels, arb_par.labels) << name;
    EXPECT_EQ(arb_seq.coordinator, arb_par.coordinator) << name;
    EXPECT_EQ(arb_seq.z, arb_par.z) << name;
  }
}

TEST(ParallelLabeling, ThreadsZeroMeansHardwareConcurrency) {
  Rng rng(23);
  const auto g = graph::sparse_gnp_connected(300, 5.0, rng);
  core::LabelingOptions opt;
  const auto seq = core::label_broadcast(g, 0, opt);
  opt.threads = 0;
  const auto par = core::label_broadcast(g, 0, opt);
  EXPECT_EQ(seq.labels, par.labels);
}

TEST(ParallelColoring, ByteIdenticalAcrossThreadCounts) {
  for (const auto& [name, g] : fixture_graphs()) {
    const auto seq = graph::square_coloring(g);
    for (const std::size_t threads : {2u, 8u, 0u}) {
      const auto par = graph::square_coloring(g, threads);
      const std::string what = name + "/t" + std::to_string(threads);
      EXPECT_EQ(seq.color, par.color) << what;
      EXPECT_EQ(seq.count, par.count) << what;
      EXPECT_TRUE(graph::is_square_proper(g, par)) << what;
    }
  }
}

TEST(StageSetsMembership, BitmapMatchesLevelScanFallback) {
  Rng rng(29);
  const auto g = graph::gnp_connected(200, 0.03, rng);
  const auto s = core::build_stage_sets(g, 0);
  ASSERT_EQ(s.dom_member.size(), g.node_count());
  core::StageSets fallback = s;
  fallback.dom_member.clear();  // decoded/hand-built sets take this path
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(s.in_any_dom(v), fallback.in_any_dom(v)) << v;
  }
}

TEST(SparseGnp, ConnectedDeterministicAndNearTargetDegree) {
  Rng rng_a(31);
  Rng rng_b(31);
  const auto a = graph::sparse_gnp_connected(4096, 8.0, rng_a);
  const auto b = graph::sparse_gnp_connected(4096, 8.0, rng_b);
  EXPECT_TRUE(graph::is_connected(a));
  EXPECT_EQ(a.node_count(), 4096u);
  // Same seed, same graph (edge-for-edge).
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (graph::NodeId v = 0; v < a.node_count(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end())) << v;
  }
  // Average degree within 25% of the target (binomial concentration at
  // n·deg/2 = 16384 expected edges makes this generous).
  const double avg = 2.0 * static_cast<double>(a.edge_count()) / 4096.0;
  EXPECT_GT(avg, 6.0);
  EXPECT_LT(avg, 10.0);
}

TEST(SparseGnp, DegenerateParametersStillConnect) {
  Rng rng(37);
  const auto zero = graph::sparse_gnp_connected(64, 0.0, rng);
  EXPECT_TRUE(graph::is_connected(zero));
  EXPECT_EQ(zero.edge_count(), 63u);  // pure stitching tree
  const auto one = graph::sparse_gnp_connected(1, 5.0, rng);
  EXPECT_EQ(one.node_count(), 1u);
  // avg_degree >= n-1 saturates to the clique.
  const auto dense = graph::sparse_gnp_connected(16, 100.0, rng);
  EXPECT_EQ(dense.edge_count(), 120u);
}

TEST(SparseGnp, DescriptorRoundTrip) {
  const auto g = graph::from_descriptor("sgnp:512:6:9");
  Rng rng(9);
  const auto direct = graph::sparse_gnp_connected(512, 6.0, rng);
  EXPECT_EQ(g.node_count(), direct.node_count());
  EXPECT_EQ(g.edge_count(), direct.edge_count());
}

// SweepRunner builds every graph a submission names but the runner has
// never seen on the pool, ahead of the serial resolve loop.  One merged
// submission (fresh descriptors, a duplicate, a hash + generator ref, and
// a hash-mismatch ref in its own batch) must give the same results and
// the same graph table on a 1-worker and a 4-worker pool.
TEST(ParallelGraphResolution, MergedSubmissionIdenticalAcrossPoolWidths) {
  const auto spec = [](const std::string& descriptor, std::uint64_t hash) {
    runtime::ExperimentSpec s;
    s.scheme = "b";
    s.graph.generator = descriptor;
    s.graph.hash = hash;
    return s;
  };
  const std::uint64_t sgnp_hash =
      graph::canonical_hash(graph::from_descriptor("sgnp:300:6:4"));
  const std::vector<runtime::ExperimentSpec> fresh = {
      spec("disk:400:0.09:1", 0), spec("gnp:200:0.03:2", 0),
      spec("disk:400:0.09:1", 0),  // duplicate descriptor
      spec("sgnp:300:6:4", sgnp_hash), spec("grid:9:7", 0),
      spec("disk:3:0.001:5", 0)};
  const std::vector<runtime::ExperimentSpec> mismatch = {
      spec("path:12", graph::canonical_hash(graph::path(13)))};
  // Above gnp's split minimum, so it fans out from inside the pooled
  // materialization; the malformed one fails in the same pool pass.
  const std::vector<runtime::ExperimentSpec> gnp = {
      spec("gnp:1500:0.004:3", 0)};
  const std::vector<runtime::ExperimentSpec> malformed = {
      spec("gnp:1500:abc:3", 0)};

  struct Outcome {
    std::string merged_error;
    std::string malformed_error;
    std::vector<std::string> formatted;
    std::size_t graphs_after_error = 0;
    std::size_t graphs = 0;
  };
  const auto run = [&](std::size_t workers) {
    par::ThreadPool pool(workers);
    runtime::SweepRunner runner(pool);
    Outcome out;
    // The mismatch poisons the merged sweep with the serial loop's own
    // violation, after the graphs of the specs before it are registered.
    try {
      runner.run_merged({&fresh, &gnp, &mismatch, &malformed});
    } catch (const ContractViolation& violation) {
      out.merged_error = violation.what();
    }
    out.graphs_after_error = runner.graph_count();
    try {
      runner.run_merged({&malformed, &gnp});
    } catch (const ContractViolation& violation) {
      out.malformed_error = violation.what();
    }
    const auto results = runner.run_merged({&fresh, &gnp});
    out.formatted = analysis::format_sweep(fresh, results[0].results);
    const auto gnp_lines = analysis::format_sweep(gnp, results[1].results);
    out.formatted.insert(out.formatted.end(), gnp_lines.begin(),
                         gnp_lines.end());
    out.graphs = runner.graph_count();
    return out;
  };
  const Outcome one = run(1);
  const Outcome four = run(4);
  EXPECT_NE(one.merged_error.find("does not match its generator"),
            std::string::npos)
      << one.merged_error;
  EXPECT_EQ(one.merged_error, four.merged_error);
  EXPECT_NE(one.malformed_error.find("'abc'"), std::string::npos)
      << one.malformed_error;
  EXPECT_EQ(one.malformed_error, four.malformed_error);
  EXPECT_EQ(one.formatted, four.formatted);
  EXPECT_EQ(one.graphs_after_error, four.graphs_after_error);
  EXPECT_EQ(one.graphs, four.graphs);
  EXPECT_EQ(one.graphs, 7u);  // six distinct fresh graphs plus path:12
}

// gnp_connected splits its draws over a pool by jumping a copy of the
// generator to each chunk's first pair.  The graph and the state the
// caller's generator is left in must not depend on the pool or its width;
// the next draws are pinned to the serial loop's.
TEST(Generators, GnpIdenticalAcrossPoolWidths) {
  struct Case {
    std::uint32_t n;
    double p;
    std::uint64_t seed;
    std::uint64_t next_draw;  ///< serial loop's next draw, 0 = unpinned
  };
  const Case cases[] = {
      {8000, 0.00125, 7, 0xff5274d8a0977e0eULL},
      {200, 0.02, 3, 0},
      {5000, 0.002, 7, 0xe0f466e7f165b19aULL},
      {2000, 0.005, 3, 0},
      {4096, 0.2, 2, 0xb06486e804902a02ULL},
      {3000, 0.5, 6, 0},
      {1500, 1.0, 4, 0},
      {1449, 0.0, 5, 0},
      // Mean degree about 1: many multi-vertex components span chunks, so
      // their roots, and the stitch, depend on the union order.
      {2000, 0.0005, 9, 0},
  };
  std::vector<std::unique_ptr<par::ThreadPool>> pools;
  pools.push_back(nullptr);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    pools.push_back(std::make_unique<par::ThreadPool>(workers));
  }
  for (const Case& c : cases) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> outcomes;
    for (const auto& pool : pools) {
      Rng rng(c.seed);
      const graph::Graph g = graph::gnp_connected(c.n, c.p, rng, pool.get());
      outcomes.emplace_back(graph::canonical_hash(g), rng.next());
    }
    for (std::size_t w = 1; w < outcomes.size(); ++w) {
      EXPECT_EQ(outcomes[w], outcomes[0])
          << c.n << ":" << c.p << ":" << c.seed << " pool " << w;
    }
    if (c.next_draw != 0) {
      EXPECT_EQ(outcomes[0].second, c.next_draw) << c.n << ":" << c.p;
    }
  }
  // from_descriptor passes its pool through to the generator.
  EXPECT_EQ(graph::canonical_hash(
                graph::from_descriptor("gnp:2000:0.005:3", pools[3].get())),
            graph::canonical_hash(graph::from_descriptor("gnp:2000:0.005:3")));
}

}  // namespace
}  // namespace radiocast
