// The runtime layer's oracles:
//  - a registry-driven differential suite that iterates every registered
//    scheme uniformly across engine backends (scalar/bit/sharded), dispatch
//    strategies (scan/active-set), and ± collision detection, asserting
//    full trace equality against the scalar × scan oracle;
//  - the paper verifiers (Lemma 2.8, Theorem 3.9, §4) on every
//    registry execution, and golden full-trace hashes for B, B_ack and
//    B_arb at every backend × dispatch, recorded when a flat predictor
//    still checked the engine trace for trace;
//  - recorded results: a compiled spec reports the engine's own result;
//  - SweepRunner determinism (byte-identical batch output at 1, 2, and 8
//    worker threads) and PlanCache hit/miss accounting (labelings computed
//    exactly once per cache key);
//  - the activity contract: multi-message, round-robin, color-robin,
//    decay, and beep hint, so the active set polls strictly less than the
//    scan while staying bit-exact; every scheme the engine benchmark runs
//    polls about once per transmission; decay's drawn-ahead coin stream
//    matches golden executions.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "graph/generators.hpp"
#include "runtime/scheme.hpp"
#include "runtime/sweep.hpp"
#include "runtime/wire.hpp"
#include "support/rng.hpp"

namespace radiocast {
namespace {

using graph::Graph;
using runtime::ExecutionConfig;
using runtime::ExperimentSpec;
using runtime::SchemeOptions;
using runtime::SchemeRegistry;
using runtime::SchemeResult;

void expect_trace_equal(const sim::Trace& a, const sim::Trace& b,
                        const std::string& context) {
  ASSERT_EQ(a.rounds().size(), b.rounds().size()) << context;
  for (std::size_t t = 0; t < a.rounds().size(); ++t) {
    const auto& ra = a.rounds()[t];
    const auto& rb = b.rounds()[t];
    EXPECT_EQ(ra.transmissions, rb.transmissions)
        << context << " round " << t + 1;
    EXPECT_EQ(ra.deliveries, rb.deliveries) << context << " round " << t + 1;
    EXPECT_EQ(ra.collisions, rb.collisions) << context << " round " << t + 1;
  }
}

void expect_results_equal(const SchemeResult& a, const SchemeResult& b,
                          const std::string& context) {
  EXPECT_EQ(a.ok, b.ok) << context;
  EXPECT_EQ(a.all_informed, b.all_informed) << context;
  EXPECT_EQ(a.rounds, b.rounds) << context;
  EXPECT_EQ(a.completion_round, b.completion_round) << context;
  EXPECT_EQ(a.ack_round, b.ack_round) << context;
  EXPECT_EQ(a.done_round, b.done_round) << context;
  EXPECT_EQ(a.T, b.T) << context;
  EXPECT_EQ(a.tx_total, b.tx_total) << context;
  EXPECT_EQ(a.max_stamp, b.max_stamp) << context;
  EXPECT_EQ(a.ack_rounds, b.ack_rounds) << context;
}

std::vector<Graph> differential_graphs() {
  Rng rng(0xC0FFEE);
  std::vector<Graph> graphs;
  graphs.push_back(graph::path(9));
  graphs.push_back(graph::grid(3, 4));
  graphs.push_back(graph::star(8));
  graphs.push_back(graph::gnp_connected(12, 0.3, rng));
  return graphs;
}

TEST(SchemeRegistry, ListsEveryBuiltinScheme) {
  auto& registry = SchemeRegistry::instance();
  for (const char* name :
       {"b", "ack", "common-round", "arb", "multi", "onebit", "onebit-ack",
        "round-robin", "color-robin", "decay", "beep"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
  const auto all = registry.schemes();
  EXPECT_GE(all.size(), 11u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->name(), all[i]->name());  // sorted, unique
  }
  EXPECT_EQ(registry.find("no-such-scheme"), nullptr);
}

// Every registered scheme, uniformly: scalar × scan (the seed path) is the
// oracle; every other (backend × dispatch) combination and the
// collision-detection mode must reproduce its trace bit for bit.
TEST(SchemeDifferential, AllSchemesAgreeAcrossBackendsAndDispatch) {
  const auto graphs = differential_graphs();
  struct Variant {
    sim::BackendKind backend;
    sim::DispatchKind dispatch;
    std::size_t threads;
    const char* tag;
  };
  const Variant variants[] = {
      {sim::BackendKind::kBit, sim::DispatchKind::kScan, 0, "bit/scan"},
      {sim::BackendKind::kScalar, sim::DispatchKind::kActiveSet, 0,
       "scalar/active"},
      {sim::BackendKind::kBit, sim::DispatchKind::kActiveSet, 0,
       "bit/active"},
      {sim::BackendKind::kSharded, sim::DispatchKind::kScan, 2,
       "sharded/scan"},
      {sim::BackendKind::kSharded, sim::DispatchKind::kActiveSet, 2,
       "sharded/active"},
  };
  SchemeOptions opt;
  opt.payloads = {7, 8};  // exercised by "multi" only
  for (const auto* scheme : SchemeRegistry::instance().schemes()) {
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const Graph& g = graphs[gi];
      for (const bool cd : {false, true}) {
        ExecutionConfig oracle_cfg;
        oracle_cfg.backend = sim::BackendKind::kScalar;
        oracle_cfg.dispatch = sim::DispatchKind::kScan;
        oracle_cfg.collision_detection = cd;
        oracle_cfg.trace = sim::TraceLevel::kFull;
        const auto plan = scheme->label(g, 0, opt);
        const auto oracle =
            runtime::run_with_plan(*scheme, g, 0, plan, opt, oracle_cfg);
        EXPECT_EQ(scheme->verify(g, 0, *plan, oracle.trace), "")
            << scheme->name() << " graph#" << gi << (cd ? " +cd" : "");
        for (const Variant& v : variants) {
          ExecutionConfig cfg = oracle_cfg;
          cfg.backend = v.backend;
          cfg.dispatch = v.dispatch;
          cfg.threads = v.threads;
          const std::string context = std::string(scheme->name()) +
                                      " graph#" + std::to_string(gi) + " " +
                                      v.tag + (cd ? " +cd" : "");
          const auto run =
              runtime::run_with_plan(*scheme, g, 0, plan, opt, cfg);
          expect_results_equal(oracle, run, context);
          expect_trace_equal(oracle.trace, run.trace, context);
        }
      }
    }
  }
}

// A compiled spec is answered by a recorded result: `compile` runs the
// engine once at counters level and `replay` hands that result back.  It
// equals the engine run field for field except `polls`, a one-off
// `run_scheme` of the spec agrees with it, and a full-trace compiled spec
// takes the engine outright.
TEST(SchemeDifferential, CompiledReplayMatchesEngineTrace) {
  const auto graphs = differential_graphs();
  for (const char* name : {"b", "ack", "arb"}) {
    const auto* scheme = SchemeRegistry::instance().find(name);
    ASSERT_NE(scheme, nullptr);
    ASSERT_TRUE(scheme->can_compile());
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const Graph& g = graphs[gi];
      const std::string context =
          std::string(name) + " graph#" + std::to_string(gi);
      ExecutionConfig engine_cfg;
      engine_cfg.trace = sim::TraceLevel::kFull;
      ExecutionConfig full_cfg = engine_cfg;
      full_cfg.compiled = true;
      const auto engine = runtime::run_scheme(*scheme, g, 0, {}, engine_cfg);
      const auto full = runtime::run_scheme(*scheme, g, 0, {}, full_cfg);
      expect_results_equal(engine, full, context);
      EXPECT_EQ(engine.polls, full.polls) << context;
      expect_trace_equal(engine.trace, full.trace, context);

      ExecutionConfig compiled_cfg;
      compiled_cfg.compiled = true;
      const auto plan = scheme->label(g, 0, {});
      const auto record = scheme->compile(g, 0, plan, {}, compiled_cfg);
      ASSERT_NE(record, nullptr) << context;
      const auto replayed = scheme->replay(g, 0, *record, compiled_cfg);
      EXPECT_TRUE(replayed.trace.rounds().empty()) << context;
      SchemeResult want = engine;
      want.polls = 0;
      EXPECT_EQ(runtime::wire::encode_result(replayed),
                runtime::wire::encode_result(want))
          << context;
      EXPECT_EQ(runtime::wire::encode_result(
                    runtime::run_scheme(*scheme, g, 0, {}, compiled_cfg)),
                runtime::wire::encode_result(replayed))
          << context;
    }
  }
}

TEST(SchemeRuntime, EveryRegisteredSchemeRejectsOutOfRangeSource) {
  // run_scheme checks the source before label() can index by it.
  const Graph g = graph::path(4);
  for (const auto* scheme : SchemeRegistry::instance().schemes()) {
    EXPECT_THROW(runtime::run_scheme(*scheme, g, g.node_count()),
                 ContractViolation)
        << scheme->name();
  }
}

TEST(SchemeRuntime, VerifyHookChecksLemma28) {
  const Graph g = graph::grid(4, 4);
  const auto* scheme = SchemeRegistry::instance().find("b");
  ASSERT_NE(scheme, nullptr);
  const auto plan = scheme->label(g, 0, {});
  ExecutionConfig cfg;
  cfg.trace = sim::TraceLevel::kFull;
  const auto run = runtime::run_with_plan(*scheme, g, 0, plan, {}, cfg);
  ASSERT_TRUE(run.ok);
  EXPECT_EQ(scheme->verify(g, 0, *plan, run.trace), "");
}

// FNV-1a over every round's transmissions, deliveries and collisions,
// messages included field by field.
std::uint64_t trace_hash(const sim::Trace& trace) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  const auto mix_message = [&mix](const sim::Message& m) {
    mix(static_cast<std::uint64_t>(m.kind));
    mix(m.phase);
    mix(m.payload);
    mix(m.stamp ? *m.stamp + 1 : 0);
  };
  for (const auto& round : trace.rounds()) {
    mix(round.transmissions.size());
    for (const auto& [v, m] : round.transmissions) {
      mix(v);
      mix_message(m);
    }
    mix(round.deliveries.size());
    for (const auto& [v, m] : round.deliveries) {
      mix(v);
      mix_message(m);
    }
    mix(round.collisions.size());
    for (const auto v : round.collisions) mix(v);
  }
  return h;
}

// B, B_ack and B_arb full traces pinned by hash.  The hashes were recorded
// while the flat compiled predictors still reproduced these engine traces
// trace for trace, so they carry that oracle forward: every backend ×
// dispatch must reproduce them, and each trace must pass its scheme's
// paper verifier.
TEST(GoldenTraces, PaperSchemesMatchRecordedHashes) {
  struct Golden {
    const char* graph;
    const char* scheme;
    graph::NodeId source;
    graph::NodeId coordinator;
    std::uint64_t rounds;
    std::uint64_t hash;
  };
  const Golden goldens[] = {
      {"path:40", "b", 0, 0, 77, 0x2d972384317c7aa3ull},
      {"path:40", "b", 20, 0, 39, 0xec87fbadfb24bc51ull},
      {"path:40", "b", 39, 0, 77, 0x239b9a7ea55d4583ull},
      {"path:40", "ack", 0, 0, 116, 0x30608d35169b8369ull},
      {"path:40", "ack", 20, 0, 59, 0x9dc190d5a463243dull},
      {"path:40", "ack", 39, 0, 116, 0x36d2a3a3d793ae09ull},
      {"path:40", "arb", 0, 0, 271, 0xd732dc031a6a47c9ull},
      {"path:40", "arb", 20, 0, 329, 0xb221a35e6c31e1f5ull},
      {"path:40", "arb", 39, 13, 256, 0xe07b5552c7322f44ull},
      {"path:40", "arb", 13, 39, 347, 0xb62be2c7eda64494ull},
      {"star:33", "b", 0, 0, 1, 0x56dacdc851626a0eull},
      {"star:33", "b", 16, 0, 3, 0xb7b2dac47c5438deull},
      {"star:33", "b", 32, 0, 3, 0x9f45a3dd9d8f6aeeull},
      {"star:33", "ack", 0, 0, 2, 0x8b0d5b064074cf4dull},
      {"star:33", "ack", 16, 0, 5, 0x8c0e3a91880c785aull},
      {"star:33", "ack", 32, 0, 5, 0xe75a3aa7faebb46aull},
      {"star:33", "arb", 0, 0, 5, 0xc662c34e71d7d52bull},
      {"star:33", "arb", 16, 0, 6, 0x2ece6a6d3e562fdbull},
      {"star:33", "arb", 32, 11, 16, 0x000f2cdf37bd362eull},
      {"star:33", "arb", 11, 32, 16, 0x46b602b1330a386eull},
      {"grid:6:7", "b", 0, 0, 21, 0x350cb3e675094a20ull},
      {"grid:6:7", "b", 21, 0, 17, 0xd41ffe74a50b7f7full},
      {"grid:6:7", "b", 41, 0, 21, 0xa5d6f79820286542ull},
      {"grid:6:7", "ack", 0, 0, 32, 0x5e99c972b386e99eull},
      {"grid:6:7", "ack", 21, 0, 26, 0xa89fe1c769429491ull},
      {"grid:6:7", "ack", 41, 0, 32, 0x893a57a9ebe07f9dull},
      {"grid:6:7", "arb", 0, 0, 75, 0x1d61a0f3e99ce938ull},
      {"grid:6:7", "arb", 21, 0, 82, 0x204af2fe5195ee39ull},
      {"grid:6:7", "arb", 41, 14, 86, 0x6bd8c404c828272full},
      {"grid:6:7", "arb", 14, 41, 100, 0xa99a6bcc9df999b8ull},
      {"gnp:60:0.08:3", "b", 0, 0, 13, 0x048e125f49ff14f0ull},
      {"gnp:60:0.08:3", "b", 30, 0, 9, 0xafd0c5d0e2b4a5f6ull},
      {"gnp:60:0.08:3", "b", 59, 0, 11, 0x68d6601e4389b8f6ull},
      {"gnp:60:0.08:3", "ack", 0, 0, 18, 0xceb3eb17a4e2cdd2ull},
      {"gnp:60:0.08:3", "ack", 30, 0, 13, 0xdd32938212e74679ull},
      {"gnp:60:0.08:3", "ack", 59, 0, 14, 0x70ed5add4d456becull},
      {"gnp:60:0.08:3", "arb", 0, 0, 45, 0x60ac52df060e09b2ull},
      {"gnp:60:0.08:3", "arb", 30, 0, 55, 0xc0fd030eee326f20ull},
      {"gnp:60:0.08:3", "arb", 59, 20, 33, 0x994e2c4cba9a5559ull},
      {"gnp:60:0.08:3", "arb", 20, 59, 38, 0x75143ae1af5d49e3ull},
      {"disk:80:0.2:5", "b", 0, 0, 13, 0x22077fe3815835c8ull},
      {"disk:80:0.2:5", "b", 40, 0, 19, 0x6b6611511869231cull},
      {"disk:80:0.2:5", "b", 79, 0, 15, 0x92e79d1a45920e48ull},
      {"disk:80:0.2:5", "ack", 0, 0, 20, 0xa0ffb4643459277dull},
      {"disk:80:0.2:5", "ack", 40, 0, 29, 0x7737f3488dc1544aull},
      {"disk:80:0.2:5", "ack", 79, 0, 23, 0x53674777e949edb9ull},
      {"disk:80:0.2:5", "arb", 0, 0, 47, 0x8c63ca0a2edf6257ull},
      {"disk:80:0.2:5", "arb", 40, 0, 57, 0x7f8bd48c6307206eull},
      {"disk:80:0.2:5", "arb", 79, 26, 60, 0x81c57c1c8752afabull},
      {"disk:80:0.2:5", "arb", 26, 79, 64, 0x20c2619289e0ffc1ull},
      {"sgnp:150:4:7", "b", 0, 0, 13, 0xb31a0fa910a2fd9bull},
      {"sgnp:150:4:7", "b", 75, 0, 13, 0x28623161e592fed3ull},
      {"sgnp:150:4:7", "b", 149, 0, 13, 0xb77065ab4d96229eull},
      {"sgnp:150:4:7", "ack", 0, 0, 20, 0xc29cd897d4bd0940ull},
      {"sgnp:150:4:7", "ack", 75, 0, 19, 0xfda2abf2e1d76b6aull},
      {"sgnp:150:4:7", "ack", 149, 0, 20, 0x5a09786d6a528a72ull},
      {"sgnp:150:4:7", "arb", 0, 0, 47, 0x4c612f6bba6cbfccull},
      {"sgnp:150:4:7", "arb", 75, 0, 60, 0xd4839c4954442d61ull},
      {"sgnp:150:4:7", "arb", 149, 50, 50, 0x0cab5d85bffee75eull},
      {"sgnp:150:4:7", "arb", 50, 149, 60, 0x3533a6eefe4d2baaull},
  };
  struct Variant {
    sim::BackendKind backend;
    sim::DispatchKind dispatch;
    std::size_t threads;
  };
  const Variant variants[] = {
      {sim::BackendKind::kScalar, sim::DispatchKind::kScan, 0},
      {sim::BackendKind::kScalar, sim::DispatchKind::kActiveSet, 0},
      {sim::BackendKind::kBit, sim::DispatchKind::kScan, 0},
      {sim::BackendKind::kBit, sim::DispatchKind::kActiveSet, 0},
      {sim::BackendKind::kSharded, sim::DispatchKind::kScan, 2},
      {sim::BackendKind::kSharded, sim::DispatchKind::kActiveSet, 2},
      {sim::BackendKind::kHybrid, sim::DispatchKind::kActiveSet, 2},
  };
  std::string cached_descriptor;
  Graph g;
  for (const Golden& want : goldens) {
    if (want.graph != cached_descriptor) {
      g = graph::from_descriptor(want.graph);
      cached_descriptor = want.graph;
    }
    const auto* scheme = SchemeRegistry::instance().find(want.scheme);
    ASSERT_NE(scheme, nullptr);
    SchemeOptions opt;
    opt.coordinator = want.coordinator;
    const auto plan = scheme->label(g, want.source, opt);
    for (const Variant& v : variants) {
      ExecutionConfig cfg;
      cfg.backend = v.backend;
      cfg.dispatch = v.dispatch;
      cfg.threads = v.threads;
      cfg.trace = sim::TraceLevel::kFull;
      const auto run =
          runtime::run_with_plan(*scheme, g, want.source, plan, opt, cfg);
      const std::string context =
          std::string(want.scheme) + " " + want.graph + " src " +
          std::to_string(want.source) + " r " +
          std::to_string(want.coordinator) + " " + to_string(v.backend) +
          "/" + std::to_string(static_cast<int>(v.dispatch));
      EXPECT_TRUE(run.ok) << context;
      EXPECT_EQ(run.rounds, want.rounds) << context;
      EXPECT_EQ(trace_hash(run.trace), want.hash) << context;
      EXPECT_EQ(scheme->verify(g, want.source, *plan, run.trace), "")
          << context;
      if (std::string(want.scheme) == "b") {  // the per-kind counters
        EXPECT_EQ(run.stay_count,
                  run.trace.count_transmissions(sim::MsgKind::kStay))
            << context;
        EXPECT_EQ(run.data_tx_count,
                  run.trace.count_transmissions(sim::MsgKind::kData))
            << context;
      }
    }
  }
}

// Satellite: the multi-message protocol and the baselines now implement the
// sim::Protocol activity contract, so the active set does strictly less
// dispatch work than the scan while reproducing it exactly.
TEST(ActivityContract, NewHintsCutPollsWithoutChangingResults) {
  const Graph g = graph::path(64);
  for (const char* name : {"multi", "round-robin", "color-robin", "beep"}) {
    const auto* scheme = SchemeRegistry::instance().find(name);
    ASSERT_NE(scheme, nullptr);
    SchemeOptions opt;
    opt.payloads = {3, 4};
    const auto plan = scheme->label(g, 0, opt);
    ExecutionConfig scan_cfg;
    scan_cfg.dispatch = sim::DispatchKind::kScan;
    scan_cfg.trace = sim::TraceLevel::kFull;
    ExecutionConfig active_cfg = scan_cfg;
    active_cfg.dispatch = sim::DispatchKind::kActiveSet;
    const auto scan = runtime::run_with_plan(*scheme, g, 0, plan, opt,
                                             scan_cfg);
    const auto active = runtime::run_with_plan(*scheme, g, 0, plan, opt,
                                               active_cfg);
    expect_results_equal(scan, active, name);
    expect_trace_equal(scan.trace, active.trace, name);
    EXPECT_LT(active.polls, scan.polls) << name;
    // kAuto must now resolve to the active set for these protocols.
    ExecutionConfig auto_cfg = scan_cfg;
    auto_cfg.dispatch = sim::DispatchKind::kAuto;
    const auto resolved = runtime::run_with_plan(*scheme, g, 0, plan, opt,
                                                 auto_cfg);
    EXPECT_EQ(resolved.polls, active.polls) << name;
  }
  // Decay: identical rng draw sequence, so bit-exact too.
  const auto* decay = SchemeRegistry::instance().find("decay");
  SchemeOptions opt;
  opt.seed = 99;
  const auto plan = decay->label(g, 0, opt);
  ExecutionConfig scan_cfg;
  scan_cfg.dispatch = sim::DispatchKind::kScan;
  scan_cfg.trace = sim::TraceLevel::kFull;
  ExecutionConfig active_cfg = scan_cfg;
  active_cfg.dispatch = sim::DispatchKind::kActiveSet;
  const auto scan = runtime::run_with_plan(*decay, g, 0, plan, opt, scan_cfg);
  const auto active =
      runtime::run_with_plan(*decay, g, 0, plan, opt, active_cfg);
  expect_results_equal(scan, active, "decay");
  expect_trace_equal(scan.trace, active.trace, "decay");
  EXPECT_LT(active.polls, scan.polls) << "decay";
}

/// One dense and one sparse graph for the poll-budget and golden tests.
std::pair<Graph, Graph> dense_and_sparse_graphs() {
  Rng rng(0xB0D6E7);
  Graph dense = graph::gnp_connected(96, 0.4, rng);
  Graph sparse = graph::sparse_gnp_connected(600, 8.0, rng);
  return {std::move(dense), std::move(sparse)};
}

// Event-exact activity hints: on a fault-free, no-CD active-set run every
// scheme the engine benchmark exercises polls a node only in rounds where
// it transmits.  B_arb's actual source spends one extra poll computing its
// ack countdown the round after "ready" arrives (hence the +1).
TEST(ActivityContract, PollsTrackTransmissions) {
  const auto [dense, sparse] = dense_and_sparse_graphs();
  SchemeOptions opt;
  opt.seed = 5;
  opt.payloads = {3, 4};
  ExecutionConfig cfg;
  cfg.dispatch = sim::DispatchKind::kActiveSet;
  for (const Graph* g : {&dense, &sparse}) {
    for (const char* name : {"b", "ack", "arb", "multi", "common-round",
                             "decay", "round-robin", "color-robin"}) {
      const auto run = runtime::run_scheme(name, *g, 1, opt, cfg);
      const std::string context =
          std::string(name) + " n=" + std::to_string(g->node_count());
      EXPECT_TRUE(run.all_informed) << context;
      EXPECT_GT(run.tx_total, 0u) << context;
      EXPECT_LE(run.polls, run.tx_total + 1) << context;
    }
  }
}

// Decay draws its coins ahead of the polls; the draw sequence, and with it
// every execution, is pinned to the one recorded when decay flipped its
// coin at every poll.
TEST(ActivityContract, DecayCoinStreamMatchesGolden) {
  const auto [dense, sparse] = dense_and_sparse_graphs();
  struct Golden {
    const Graph* g;
    graph::NodeId source;
    std::uint64_t seed;
    std::uint64_t rounds, tx_total, completion_round;
  };
  const Golden goldens[] = {{&sparse, 0, 11, 60, 5393, 60},
                            {&sparse, 317, 22, 49, 4045, 49},
                            {&dense, 5, 33, 14, 214, 14}};
  for (const Golden& want : goldens) {
    for (const auto dispatch :
         {sim::DispatchKind::kScan, sim::DispatchKind::kActiveSet}) {
      SchemeOptions opt;
      opt.seed = want.seed;
      ExecutionConfig cfg;
      cfg.dispatch = dispatch;
      const auto run = runtime::run_scheme("decay", *want.g, want.source,
                                           opt, cfg);
      const std::string context =
          "seed " + std::to_string(want.seed) + " dispatch " +
          std::to_string(static_cast<int>(dispatch));
      EXPECT_TRUE(run.ok) << context;
      EXPECT_EQ(run.rounds, want.rounds) << context;
      EXPECT_EQ(run.tx_total, want.tx_total) << context;
      EXPECT_EQ(run.completion_round, want.completion_round) << context;
    }
  }
}

// ---------------------------------------------------------------------------
// SweepRunner + PlanCache
// ---------------------------------------------------------------------------

std::vector<std::string> run_suite_batch(std::size_t threads) {
  par::ThreadPool pool(threads);
  runtime::SweepRunner runner(pool);
  const auto suite = analysis::quick_suite(16, /*seed=*/3);
  ExecutionConfig engine_cfg;
  auto specs = analysis::scheme_specs(
      runner, suite,
      {"b", "ack", "common-round", "arb", "multi", "round-robin",
       "color-robin", "decay", "beep"},
      engine_cfg);
  // Mix in compiled specs: same scheme, compiled execution path.
  ExecutionConfig compiled_cfg;
  compiled_cfg.compiled = true;
  for (const char* name : {"b", "ack", "arb"}) {
    ExperimentSpec spec;
    spec.scheme = name;
    spec.graph = specs.front().graph;
    spec.source = 0;
    spec.config = compiled_cfg;
    spec.label = std::string("compiled/") + name;
    specs.push_back(std::move(spec));
  }
  return analysis::format_sweep(specs, runner.run(specs));
}

TEST(SweepRunner, BatchOutputIsIdenticalAtAnyThreadCount) {
  const auto one = run_suite_batch(1);
  const auto two = run_suite_batch(2);
  const auto eight = run_suite_batch(8);
  ASSERT_EQ(one.size(), two.size());
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], two[i]) << "line " << i;
    EXPECT_EQ(one[i], eight[i]) << "line " << i;
  }
}

TEST(SweepRunner, PlanCacheComputesEachKeyOnceAndCountsHits) {
  par::ThreadPool pool(4);
  runtime::SweepRunner runner(pool);
  const runtime::GraphRef g = runner.add_graph(graph::path(10));

  const auto spec = [&](const char* scheme, graph::NodeId source) {
    ExperimentSpec s;
    s.scheme = scheme;
    s.graph = g;
    s.source = source;
    return s;
  };
  // Three specs share the (b, src 0) labeling, one uses (b, src 1), two
  // share (ack, src 0): 3 distinct keys, 6 lookups.
  const std::vector<ExperimentSpec> batch = {spec("b", 0),   spec("b", 0),
                                             spec("b", 0),   spec("b", 1),
                                             spec("ack", 0), spec("ack", 0)};
  const auto first = runner.run(batch);
  auto stats = runner.cache_stats();
  EXPECT_EQ(stats.plan_misses, 3u);
  EXPECT_EQ(stats.plan_hits, 3u);
  EXPECT_EQ(runner.cache().plan_count(), 3u);
  for (const auto& r : first) EXPECT_TRUE(r.ok);

  // Identical batch again: every lookup is a warm hit.
  const auto second = runner.run(batch);
  stats = runner.cache_stats();
  EXPECT_EQ(stats.plan_misses, 3u);
  EXPECT_EQ(stats.plan_hits, 9u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].completion_round, second[i].completion_round);
    EXPECT_EQ(first[i].rounds, second[i].rounds);
  }

  // B_arb's labeling ignores the source, so two sources share one plan.
  const std::vector<ExperimentSpec> arb_batch = {spec("arb", 0),
                                                 spec("arb", 3)};
  runner.run(arb_batch);
  stats = runner.cache_stats();
  EXPECT_EQ(stats.plan_misses, 4u);
  EXPECT_EQ(stats.plan_hits, 10u);

  // Recorded results cache per recorded_result_key.
  ExperimentSpec compiled = spec("b", 0);
  compiled.config.compiled = true;
  const std::vector<ExperimentSpec> compiled_batch = {compiled, compiled};
  const auto compiled_results = runner.run(compiled_batch);
  stats = runner.cache_stats();
  EXPECT_EQ(stats.compiled_misses, 1u);
  EXPECT_EQ(stats.compiled_hits, 1u);
  EXPECT_EQ(stats.plan_misses, 4u);  // labeling reused from the cache
  EXPECT_EQ(compiled_results[0].completion_round,
            first[0].completion_round);

  runner.clear_cache();
  EXPECT_EQ(runner.cache().plan_count(), 0u);
  EXPECT_EQ(runner.cache_stats().plan_hits, 0u);
}

TEST(SweepRunner, GraphsAreContentAddressed) {
  par::ThreadPool pool(2);
  runtime::SweepRunner runner(pool);
  const runtime::GraphRef ref = runner.add_graph(graph::cycle(8));
  EXPECT_NE(ref.hash, 0u);
  EXPECT_TRUE(runner.has_graph(ref.hash));
  EXPECT_EQ(runner.resolve(ref).node_count(), 8u);
  EXPECT_EQ(runner.graph_count(), 1u);

  // Registering the same graph again is idempotent — content addressing.
  const runtime::GraphRef again = runner.add_graph(graph::cycle(8));
  EXPECT_EQ(again.hash, ref.hash);
  EXPECT_EQ(runner.graph_count(), 1u);

  // A ref the runner has never seen materializes from its descriptor.
  runtime::GraphRef by_gen;
  by_gen.generator = "star:6";
  EXPECT_EQ(runner.resolve(by_gen).node_count(), 6u);
  EXPECT_EQ(runner.graph_count(), 2u);

  // A hash that matches neither a registered graph nor the descriptor is
  // a contract violation, not a silent wrong-graph execution.
  runtime::GraphRef wrong;
  wrong.hash = 0xdeadbeefdeadbeefull;
  wrong.generator = "star:6";
  EXPECT_THROW(runner.resolve(wrong), ContractViolation);
  runtime::GraphRef unknown;
  unknown.hash = 0x1234u;
  EXPECT_THROW(runner.resolve(unknown), ContractViolation);
}

TEST(SweepRunner, LambdaAckFamilySharesOneLabelingAcrossSchemes) {
  par::ThreadPool pool(4);
  runtime::SweepRunner runner(pool);
  const runtime::GraphRef g = runner.add_graph(graph::grid(4, 4));

  // ack, common-round, and multi all construct λ_ack: one labeling must
  // serve all three (the cache-stats oracle for plan-family keying).
  std::vector<ExperimentSpec> batch;
  for (const char* scheme : {"ack", "common-round", "multi"}) {
    ExperimentSpec s;
    s.scheme = scheme;
    s.graph = g;
    s.source = 0;
    batch.push_back(std::move(s));
  }
  const auto results = runner.run(batch);
  for (const auto& r : results) EXPECT_TRUE(r.ok);
  const auto stats = runner.cache_stats();
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_EQ(stats.plan_hits, 2u);
  EXPECT_EQ(runner.cache().plan_count(), 1u);

  // B's λ is a different construction and must NOT share the family.
  ExperimentSpec b;
  b.scheme = "b";
  b.graph = g;
  b.source = 0;
  runner.run({b});
  EXPECT_EQ(runner.cache_stats().plan_misses, 2u);
}

}  // namespace
}  // namespace radiocast
