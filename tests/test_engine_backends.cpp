// Differential tests for the pluggable engine backends: the scalar CSR walk,
// the bit-parallel dense stepper, the sharded multi-core stepper and the
// hybrid CSR-scatter stepper (past the bitmap memory cap) must be bit-exact
// — identical per-round traces (transmissions, deliveries, collisions),
// identical first-data receptions, ack rounds, tx/rx counters, and stamp
// accounting — on randomized graphs, with and without collision detection
// (paper §1.1: hear iff exactly one neighbour transmits; transmitters hear
// nothing).  Compiled B_ack and B_arb specs, answered by recorded results,
// must agree with the engine.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "core/protocols.hpp"
#include "graph/bit_adjacency.hpp"
#include "graph/generators.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/scheme.hpp"
#include "runtime/sweep.hpp"
#include "runtime/wire.hpp"
#include "sim/backend.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"

namespace radiocast {
namespace {

using graph::Graph;
using graph::NodeId;

// ---------------------------------------------------------------------------
// Helpers

/// Deterministic pseudo-random talker: transmits in round r iff a hash of
/// (seed, id, r) says so, independent of anything it hears — so two engines
/// running separate instances make identical decisions.  Odd ids stamp their
/// messages (exercising max_stamp bookkeeping); every node records what it
/// hears and how many collision signals it got.
class HashTalker final : public sim::Protocol {
 public:
  HashTalker(std::uint64_t seed, std::uint32_t id, std::uint32_t period)
      : seed_(seed), id_(id), period_(period) {}

  std::optional<sim::Message> on_round() override {
    ++round_;
    std::uint64_t h = seed_ ^ (std::uint64_t{id_} * 0x9e3779b97f4a7c15ull) ^
                      (round_ * 0xbf58476d1ce4e5b9ull);
    h ^= h >> 31;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 29;
    if (h % period_ != 0) return std::nullopt;
    sim::Message m{sim::MsgKind::kData, 0, id_, std::nullopt};
    if (id_ % 2 == 1) m.stamp = round_ + id_;
    return m;
  }
  void on_hear(const sim::Message& m) override {
    heard_.emplace_back(round_, m);
  }
  void on_collision() override { ++collisions_; }
  bool informed() const override { return !heard_.empty(); }

  const std::vector<std::pair<std::uint64_t, sim::Message>>& heard() const {
    return heard_;
  }
  std::uint64_t collisions() const { return collisions_; }

 private:
  std::uint64_t seed_;
  std::uint32_t id_;
  std::uint32_t period_;
  std::uint64_t round_ = 0;
  std::vector<std::pair<std::uint64_t, sim::Message>> heard_;
  std::uint64_t collisions_ = 0;
};

std::vector<std::unique_ptr<sim::Protocol>> hash_talkers(std::uint32_t n,
                                                         std::uint64_t seed,
                                                         std::uint32_t period) {
  std::vector<std::unique_ptr<sim::Protocol>> out;
  out.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    out.push_back(std::make_unique<HashTalker>(seed, v, period));
  }
  return out;
}

/// A pool of randomized connected graphs spanning sparse and dense regimes.
std::vector<Graph> random_graphs(std::size_t count, std::uint64_t seed) {
  std::vector<Graph> graphs;
  Rng rng(seed);
  while (graphs.size() < count) {
    switch (graphs.size() % 5) {
      case 0: {
        const auto n = 2 + static_cast<std::uint32_t>(rng.below(40));
        const double p = 0.05 + 0.01 * static_cast<double>(rng.below(85));
        graphs.push_back(graph::gnp_connected(n, p, rng));
        break;
      }
      case 1:
        graphs.push_back(graph::random_tree(
            2 + static_cast<std::uint32_t>(rng.below(48)), rng));
        break;
      case 2:
        graphs.push_back(
            graph::grid(2 + static_cast<std::uint32_t>(rng.below(6)),
                        2 + static_cast<std::uint32_t>(rng.below(6))));
        break;
      case 3:
        graphs.push_back(
            graph::complete(2 + static_cast<std::uint32_t>(rng.below(66))));
        break;
      default: {
        // Word-boundary sizes: n around 64/128 stresses the last-word masks.
        const auto n = 60 + static_cast<std::uint32_t>(rng.below(10));
        graphs.push_back(graph::gnp_connected(n, 0.4, rng));
        break;
      }
    }
  }
  return graphs;
}

void expect_traces_equal(const sim::Trace& a, const sim::Trace& b,
                         const std::string& what) {
  ASSERT_EQ(a.rounds().size(), b.rounds().size()) << what;
  for (std::size_t r = 0; r < a.rounds().size(); ++r) {
    const auto& ra = a.rounds()[r];
    const auto& rb = b.rounds()[r];
    EXPECT_EQ(ra.transmissions, rb.transmissions) << what << " round " << r + 1;
    EXPECT_EQ(ra.deliveries, rb.deliveries) << what << " round " << r + 1;
    EXPECT_EQ(ra.collisions, rb.collisions) << what << " round " << r + 1;
  }
}

void expect_engines_equal(const sim::Engine& a, const sim::Engine& b,
                          const std::string& what) {
  const auto n = a.graph().node_count();
  EXPECT_EQ(a.round(), b.round()) << what;
  EXPECT_EQ(a.transmissions_total(), b.transmissions_total()) << what;
  EXPECT_EQ(a.max_stamp_seen(), b.max_stamp_seen()) << what;
  EXPECT_EQ(a.silent_streak(), b.silent_streak()) << what;
  EXPECT_EQ(a.informed_count(), b.informed_count()) << what;
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(a.first_data_reception(v), b.first_data_reception(v))
        << what << " node " << v;
    EXPECT_EQ(a.tx_count(v), b.tx_count(v)) << what << " node " << v;
    EXPECT_EQ(a.rx_count(v), b.rx_count(v)) << what << " node " << v;
  }
  expect_traces_equal(a.trace(), b.trace(), what);
}

// ---------------------------------------------------------------------------
// BitAdjacency

TEST(BitAdjacency, MatchesCsrNeighbourhoods) {
  Rng rng(11);
  for (const std::uint32_t n : {1u, 5u, 63u, 64u, 65u, 130u}) {
    const Graph g = n < 3 ? graph::path(n) : graph::gnp_connected(n, 0.3, rng);
    const graph::BitAdjacency adj(g);
    ASSERT_EQ(adj.node_count(), g.node_count());
    ASSERT_EQ(adj.words_per_row(), (n + 63) / 64);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(adj.test(u, v), g.has_edge(u, v)) << u << "-" << v;
      }
    }
  }
}

TEST(BitAdjacency, RowBitsAreExactlyNeighbours) {
  const Graph g = graph::star(70);  // centre 0, leaves 1..69: two words
  const graph::BitAdjacency adj(g);
  const auto row = adj.row(0);
  std::uint32_t bits = 0;
  for (const auto word : row) {
    bits += static_cast<std::uint32_t>(std::popcount(word));
  }
  EXPECT_EQ(bits, 69u);
  EXPECT_FALSE(adj.test(0, 0));
}

// ---------------------------------------------------------------------------
// Backend selection

TEST(BackendSelection, ExplicitRequestsAreHonored) {
  const Graph g = graph::complete(128);
  EXPECT_EQ(sim::choose_backend(g, sim::BackendKind::kScalar),
            sim::BackendKind::kScalar);
  EXPECT_EQ(sim::choose_backend(g, sim::BackendKind::kBit),
            sim::BackendKind::kBit);
  EXPECT_EQ(sim::choose_backend(g, sim::BackendKind::kSharded, 2),
            sim::BackendKind::kSharded);
  EXPECT_EQ(sim::make_engine_backend(g, sim::BackendKind::kBit)->kind(),
            sim::BackendKind::kBit);
  EXPECT_EQ(sim::make_engine_backend(g, sim::BackendKind::kSharded, 3)->kind(),
            sim::BackendKind::kSharded);
}

TEST(BackendSelection, ShardedNameRoundTrips) {
  EXPECT_STREQ(sim::to_string(sim::BackendKind::kSharded), "sharded");
  ASSERT_TRUE(sim::parse_backend("sharded").has_value());
  EXPECT_EQ(*sim::parse_backend("sharded"), sim::BackendKind::kSharded);
  EXPECT_FALSE(sim::parse_backend("shard").has_value());
}

TEST(BackendSelection, HybridNameRoundTrips) {
  EXPECT_STREQ(sim::to_string(sim::BackendKind::kHybrid), "hybrid");
  ASSERT_TRUE(sim::parse_backend("hybrid").has_value());
  EXPECT_EQ(*sim::parse_backend("hybrid"), sim::BackendKind::kHybrid);
  EXPECT_FALSE(sim::parse_backend("hyb").has_value());
}

TEST(BackendSelection, AutoPicksHybridPastTheBitmapCap) {
  // n = 65536 would need a 512 MiB bitmap — past kBitBackendMemoryCap the
  // auto rule keeps shard-style stepping alive via the hybrid backend
  // instead of silently degrading to the scalar walk.
  const Graph big = graph::path(65536);
  EXPECT_EQ(sim::choose_backend(big, sim::BackendKind::kAuto),
            sim::BackendKind::kHybrid);
  EXPECT_EQ(sim::choose_backend(big, sim::BackendKind::kAuto, 8),
            sim::BackendKind::kHybrid);
  EXPECT_EQ(sim::make_engine_backend(big, sim::BackendKind::kAuto)->kind(),
            sim::BackendKind::kHybrid);
  // Over the cap but below kHybridAutoMinNodes the scalar walk still wins
  // (too small to amortize the shard machinery).
  const Graph mid = graph::path(30000);
  EXPECT_EQ(sim::choose_backend(mid, sim::BackendKind::kAuto),
            sim::BackendKind::kScalar);
}

TEST(BackendSelection, AutoUpgradesToShardedOnBigDenseGraphsWithThreads) {
  // Dense enough for bit (avg degree >= n/64 words) and n >= the sharded
  // threshold: kAuto upgrades iff at least two workers are available.
  Rng rng(42);
  const Graph big = graph::gnp_connected(8192, 0.05, rng);
  EXPECT_EQ(sim::choose_backend(big, sim::BackendKind::kAuto, 4),
            sim::BackendKind::kSharded);
  EXPECT_EQ(sim::choose_backend(big, sim::BackendKind::kAuto, 1),
            sim::BackendKind::kBit);
  // Below the size threshold the upgrade never happens, threads or not.
  const Graph small = graph::complete(256);
  EXPECT_EQ(sim::choose_backend(small, sim::BackendKind::kAuto, 8),
            sim::BackendKind::kBit);
}

TEST(BackendSelection, ShardsAreCacheAlignedAndCoverAllWords) {
  Rng rng(9);
  const Graph g = graph::gnp_connected(300, 0.4, rng);  // 5 words per row
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    sim::WordRangeEngine engine(g, sim::BackendKind::kSharded, threads);
    EXPECT_EQ(engine.thread_count(), threads);
    EXPECT_GE(engine.shard_count(), 1u);
    EXPECT_LE(engine.shard_count(), threads);
  }
  // `bit` is the one-worker engine: one shard whatever `threads` says.
  sim::WordRangeEngine bit(g, sim::BackendKind::kBit, 8);
  EXPECT_EQ(bit.thread_count(), 1u);
  EXPECT_EQ(bit.shard_count(), 1u);
  EXPECT_STREQ(bit.name(), "bit");
}

TEST(BackendSelection, AutoPicksByDensity) {
  // Dense: a clique's average degree n-1 far exceeds n/64 words per row.
  EXPECT_EQ(sim::choose_backend(graph::complete(256), sim::BackendKind::kAuto),
            sim::BackendKind::kBit);
  // Sparse: a long path (average degree ~2) should stay scalar.
  EXPECT_EQ(sim::choose_backend(graph::path(4096), sim::BackendKind::kAuto),
            sim::BackendKind::kScalar);
  // Tiny graphs stay scalar regardless of density.
  EXPECT_EQ(sim::choose_backend(graph::complete(8), sim::BackendKind::kAuto),
            sim::BackendKind::kScalar);
}

TEST(BackendSelection, EngineReportsResolvedKind) {
  const Graph g = graph::complete(256);
  sim::Engine e(g, hash_talkers(g.node_count(), 1, 4),
                {sim::TraceLevel::kCounters, false, sim::BackendKind::kAuto});
  EXPECT_EQ(e.backend_kind(), sim::BackendKind::kBit);
  EXPECT_STREQ(e.backend_name(), "bit");
}

// ---------------------------------------------------------------------------
// Scalar vs bit vs sharded: randomized protocol traffic, with and without
// collision detection.  60 randomized graphs per (mode, challenger).

void run_random_traffic_differential(bool collision_detection,
                                     std::uint64_t seed,
                                     sim::BackendKind challenger,
                                     std::size_t threads = 0) {
  const auto graphs = random_graphs(60, seed);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    const auto n = g.node_count();
    const std::uint32_t period = 2 + static_cast<std::uint32_t>(i % 5);
    sim::Engine scalar(g, hash_talkers(n, seed + i, period),
                       {sim::TraceLevel::kFull, collision_detection,
                        sim::BackendKind::kScalar});
    sim::Engine other(g, hash_talkers(n, seed + i, period),
                      {sim::TraceLevel::kFull, collision_detection, challenger,
                       threads});
    const std::uint64_t rounds = 24;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      EXPECT_EQ(scalar.step(), other.step());
    }
    const std::string what =
        "graph " + std::to_string(i) + " " + g.summary() +
        (collision_detection ? " (cd)" : "") + " vs " + other.backend_name();
    expect_engines_equal(scalar, other, what);
    for (NodeId v = 0; v < n; ++v) {
      const auto& ps = dynamic_cast<const HashTalker&>(scalar.protocol(v));
      const auto& pb = dynamic_cast<const HashTalker&>(other.protocol(v));
      EXPECT_EQ(ps.heard(), pb.heard()) << what << " node " << v;
      EXPECT_EQ(ps.collisions(), pb.collisions()) << what << " node " << v;
      if (!collision_detection) {
        EXPECT_EQ(ps.collisions(), 0u) << what;
      }
    }
  }
}

TEST(BackendDifferential, RandomTrafficScalarVsBit) {
  run_random_traffic_differential(/*collision_detection=*/false, 0xC0FFEE,
                                  sim::BackendKind::kBit);
}

TEST(BackendDifferential, RandomTrafficScalarVsBitWithCollisionDetection) {
  run_random_traffic_differential(/*collision_detection=*/true, 0xBEEF,
                                  sim::BackendKind::kBit);
}

TEST(BackendDifferential, RandomTrafficScalarVsSharded) {
  run_random_traffic_differential(/*collision_detection=*/false, 0x5AAD,
                                  sim::BackendKind::kSharded, /*threads=*/3);
}

TEST(BackendDifferential, RandomTrafficScalarVsShardedWithCollisionDetection) {
  run_random_traffic_differential(/*collision_detection=*/true, 0xD00D,
                                  sim::BackendKind::kSharded, /*threads=*/4);
}

TEST(BackendDifferential, RandomTrafficScalarVsHybrid) {
  run_random_traffic_differential(/*collision_detection=*/false, 0x4B1D,
                                  sim::BackendKind::kHybrid, /*threads=*/2);
}

TEST(BackendDifferential, RandomTrafficScalarVsHybridWithCollisionDetection) {
  run_random_traffic_differential(/*collision_detection=*/true, 0xFADE,
                                  sim::BackendKind::kHybrid, /*threads=*/3);
}

TEST(BackendDifferential, HybridDenseSlicesMatchScalarOnClique) {
  // complete(512) saturates every shard word, so every transmitter row is
  // admitted as a dense slice — exercising the word-fold resolution path
  // and its heard-bit attribution pass at several thread counts.
  const Graph g = graph::complete(512);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    sim::WordRangeEngine probe(g, sim::BackendKind::kHybrid, threads);
    EXPECT_GT(probe.dense_slice_words(), 0u) << threads;
    sim::Engine scalar(
        g, hash_talkers(g.node_count(), 99, 3),
        {sim::TraceLevel::kFull, true, sim::BackendKind::kScalar});
    sim::Engine hybrid(
        g, hash_talkers(g.node_count(), 99, 3),
        {sim::TraceLevel::kFull, true, sim::BackendKind::kHybrid, threads});
    for (int r = 0; r < 12; ++r) EXPECT_EQ(scalar.step(), hybrid.step());
    expect_engines_equal(scalar, hybrid,
                         "clique hybrid t" + std::to_string(threads));
  }
}

TEST(BackendDifferential, ExplicitBitPastTheBitmapCapStaysSparse) {
  // path(65536) as a full bitmap would take 512 MiB.  An explicit `bit`
  // request builds the one-worker word-range engine instead: no path row is
  // dense enough for a slice, so every row scatters its CSR neighbours.
  const Graph g = graph::path(65536);
  const auto n = g.node_count();
  sim::WordRangeEngine probe(g, sim::BackendKind::kBit);
  EXPECT_EQ(probe.dense_slice_words(), 0u);
  EXPECT_EQ(probe.shard_count(), 1u);
  sim::Engine scalar(g, hash_talkers(n, 7, 3),
                     {sim::TraceLevel::kFull, true, sim::BackendKind::kScalar});
  sim::Engine bit(g, hash_talkers(n, 7, 3),
                  {sim::TraceLevel::kFull, true, sim::BackendKind::kBit});
  EXPECT_EQ(bit.backend_kind(), sim::BackendKind::kBit);
  for (int r = 0; r < 8; ++r) EXPECT_EQ(scalar.step(), bit.step());
  expect_engines_equal(scalar, bit, "path(65536) explicit bit");
}

TEST(BackendDifferential, HybridBroadcastAtBitmapScale) {
  // A sparse graph past the bitmap cap, end-to-end: kAuto resolves to the
  // hybrid backend and must reproduce the scalar run exactly.
  Rng rng(123);
  const Graph g = graph::sparse_gnp_connected(70000, 6.0, rng);
  const auto hybrid = runtime::run_scheme("b", g, 0);  // kAuto → hybrid
  EXPECT_TRUE(hybrid.all_informed);
  EXPECT_LE(hybrid.completion_round, hybrid.bound);
  const auto scalar = runtime::run_scheme(
      "b", g, 0, {}, {.backend = sim::BackendKind::kScalar});
  EXPECT_EQ(hybrid.completion_round, scalar.completion_round);
  EXPECT_EQ(hybrid.data_tx_count, scalar.data_tx_count);
  EXPECT_EQ(hybrid.stay_count, scalar.stay_count);
  EXPECT_EQ(hybrid.max_node_tx, scalar.max_node_tx);
}

// ---------------------------------------------------------------------------
// Algorithm B: scalar engine vs bit engine vs sharded engine on 110
// randomized graphs — traces, informed rounds, and counters.

TEST(BackendDifferential, BroadcastScalarVsBitVsSharded) {
  const auto graphs = random_graphs(110, 0xF00D);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    const auto n = g.node_count();
    const NodeId source = static_cast<NodeId>(i % n);
    const std::uint32_t mu = 42;
    const auto labeling = core::label_broadcast(g, source);

    sim::Engine scalar(
        g, core::make_broadcast_protocols(labeling, mu),
        {sim::TraceLevel::kFull, false, sim::BackendKind::kScalar});
    sim::Engine bit(g, core::make_broadcast_protocols(labeling, mu),
                    {sim::TraceLevel::kFull, false, sim::BackendKind::kBit});
    sim::Engine sharded(
        g, core::make_broadcast_protocols(labeling, mu),
        {sim::TraceLevel::kFull, false, sim::BackendKind::kSharded, 3});
    const std::uint64_t max_rounds = 4ull * n + 16;
    scalar.run_until([](const sim::Engine& e) { return e.all_informed(); },
                     max_rounds);
    bit.run_until([](const sim::Engine& e) { return e.all_informed(); },
                  max_rounds);
    sharded.run_until([](const sim::Engine& e) { return e.all_informed(); },
                      max_rounds);

    const std::string what = "graph " + std::to_string(i) + " " + g.summary();
    ASSERT_TRUE(scalar.all_informed()) << what;
    expect_engines_equal(scalar, bit, what);
    expect_engines_equal(scalar, sharded, what + " (sharded)");
  }
}

// ---------------------------------------------------------------------------
// Stamped messages (B_ack) across backends: max_stamp accounting must agree.

TEST(BackendDifferential, AcknowledgedBroadcastScalarVsBit) {
  const auto graphs = random_graphs(20, 0xACDC);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    if (g.node_count() < 2) continue;
    const auto scalar = runtime::run_scheme(
        "ack", g, 0, {}, {.backend = sim::BackendKind::kScalar});
    const auto bit = runtime::run_scheme(
        "ack", g, 0, {}, {.backend = sim::BackendKind::kBit});
    const std::string what = "graph " + std::to_string(i) + " " + g.summary();
    EXPECT_EQ(scalar.all_informed, bit.all_informed) << what;
    EXPECT_EQ(scalar.completion_round, bit.completion_round) << what;
    EXPECT_EQ(scalar.ack_round, bit.ack_round) << what;
    EXPECT_EQ(scalar.max_stamp, bit.max_stamp) << what;
  }
}

// ---------------------------------------------------------------------------
// Scheme-level equivalence: "b" across backends and the compiled opt-in.

TEST(BackendDifferential, RunnersAgreeAcrossBackends) {
  const auto graphs = random_graphs(15, 0x5EED);
  for (const auto& g : graphs) {
    runtime::ExecutionConfig exec{.backend = sim::BackendKind::kScalar,
                                  .trace = sim::TraceLevel::kFull};
    const auto scalar = runtime::run_scheme("b", g, 0, {}, exec);
    exec.backend = sim::BackendKind::kBit;
    const auto bit = runtime::run_scheme("b", g, 0, {}, exec);
    const auto compiled = runtime::run_scheme("b", g, 0, {},
                                              {.compiled = true});
    EXPECT_TRUE(scalar.all_informed) << g.summary();
    for (const auto* run : {&bit, &compiled}) {
      EXPECT_EQ(run->all_informed, scalar.all_informed) << g.summary();
      EXPECT_EQ(run->completion_round, scalar.completion_round) << g.summary();
      EXPECT_EQ(run->max_node_tx, scalar.max_node_tx) << g.summary();
      EXPECT_EQ(run->ell, scalar.ell) << g.summary();
      EXPECT_EQ(run->stay_count, scalar.stay_count) << g.summary();
      EXPECT_EQ(run->data_tx_count, scalar.data_tx_count) << g.summary();
    }
  }
}

TEST(BackendDifferential, OneBitRunnerAgreesAcrossBackends) {
  Rng rng(77);
  for (int i = 0; i < 6; ++i) {
    const Graph g = graph::grid(2 + i, 3 + i);
    const auto scalar = runtime::run_scheme(
        "onebit", g, 0, {}, {.backend = sim::BackendKind::kScalar});
    const auto bit = runtime::run_scheme(
        "onebit", g, 0, {}, {.backend = sim::BackendKind::kBit});
    EXPECT_EQ(scalar.ok, bit.ok) << g.summary();
    EXPECT_EQ(scalar.completion_round, bit.completion_round) << g.summary();
    EXPECT_EQ(scalar.ones, bit.ones) << g.summary();
  }
}

// ---------------------------------------------------------------------------
// Compiled specs: the SweepRunner answers them with the recorded engine
// result, which must equal a fresh engine run field for field, except
// `polls` (a dispatch cost the record leaves out).

void expect_recorded_matches_engine(const char* scheme,
                                    const std::vector<Graph>& graphs,
                                    bool rotate_coordinator) {
  par::ThreadPool pool(2);
  runtime::SweepRunner runner(pool);
  std::vector<runtime::ExperimentSpec> specs;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto n = graphs[i].node_count();
    if (n < 2) continue;
    runtime::ExperimentSpec spec;
    spec.scheme = scheme;
    spec.graph = runner.add_graph(graphs[i]);
    spec.source = static_cast<NodeId>((i + 1) % n);
    if (rotate_coordinator) {
      spec.options.coordinator =
          i % 3 == 0 ? spec.source : static_cast<NodeId>((i / 2) % n);
    }
    spec.config.compiled = true;
    specs.push_back(std::move(spec));
  }
  const auto recorded = runner.run(specs);
  const auto stats = runner.cache_stats();
  ASSERT_EQ(stats.compiled_misses + stats.compiled_hits, specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& spec = specs[i];
    auto engine = runtime::run_scheme(scheme, runner.resolve(spec.graph),
                                      spec.source, spec.options);
    EXPECT_TRUE(engine.ok) << scheme << " spec #" << i;
    engine.polls = 0;
    EXPECT_EQ(runtime::wire::encode_result(recorded[i]),
              runtime::wire::encode_result(engine))
        << scheme << " spec #" << i;
  }
}

TEST(CompiledAck, RunnerAgreesWithEngineRunner) {
  expect_recorded_matches_engine("ack", random_graphs(25, 0xACE2), false);
}

TEST(CompiledArb, RunnerAgreesWithEngineRunner) {
  expect_recorded_matches_engine("arb", random_graphs(20, 0xA7B2), true);
}

// ---------------------------------------------------------------------------
// Collision-detection equivalence at the engine-option level (§1.1 remark).

TEST(CollisionDetection, SignalDeliveredIdenticallyAcrossBackends) {
  // K4: three neighbours transmitting at once → every listener collides.
  const Graph g = graph::complete(65);  // spans a word boundary
  for (const auto kind : {sim::BackendKind::kScalar, sim::BackendKind::kBit,
                          sim::BackendKind::kSharded}) {
    sim::Engine e(g, hash_talkers(g.node_count(), 5, 2),
                  {sim::TraceLevel::kFull, true, kind, 2});
    for (int r = 0; r < 8; ++r) e.step();
    std::uint64_t signals = 0, recorded = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      signals += dynamic_cast<const HashTalker&>(e.protocol(v)).collisions();
    }
    for (const auto& round : e.trace().rounds()) {
      recorded += round.collisions.size();
    }
    EXPECT_EQ(signals, recorded) << to_string(kind);
    EXPECT_GT(signals, 0u) << to_string(kind);
  }
}

}  // namespace
}  // namespace radiocast
