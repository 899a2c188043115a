// Recorded results: a spec that opts into `config.compiled` is answered by
// the scheme's own engine result, recorded once per key and replayed from
// the PlanCache / PlanStore.  These oracles pin that the sweep and the
// daemon answer such a spec exactly as `run_scheme` does:
//  - every registered scheme, with and without a fault plan, at pool widths
//    1 and 4: a cold batch records, a repeat is all record hits, and a new
//    runner over the same store is all record store hits;
//  - a fault plan is part of the key: a faulted spec never replays the
//    fault-free record of the same spec, and a repeat is a record hit;
//  - a resilient B_ack spec records and replays its own result;
//  - plain and resilient B_ack on one graph and source never share a
//    record;
//  - a batch mixing record owners, duplicates and engine specs answers
//    every spec in its own slot, with one wall time per spec;
//  - a one-node network records its trivial answer.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/plan_store.hpp"
#include "runtime/scheme.hpp"
#include "runtime/sweep.hpp"
#include "runtime/wire.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/faults.hpp"

namespace radiocast {
namespace {

using runtime::ExperimentSpec;
using runtime::SchemeResult;

constexpr const char* kGraph = "gnp:300:0.03:5";

ExperimentSpec compiled_spec(std::string scheme, const char* faults = "",
                             const char* graph = kGraph) {
  ExperimentSpec spec;
  spec.scheme = std::move(scheme);
  spec.graph.generator = graph;
  spec.config.compiled = true;
  if (*faults != '\0') {
    const auto parsed = sim::parse_fault_plan(faults);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    spec.config.faults = parsed.plan;
  }
  return spec;
}

ExperimentSpec resilient(ExperimentSpec spec) {
  spec.options.resilient = true;
  return spec;
}

std::string canonical(const SchemeResult& r) {
  return runtime::wire::encode_result(r);
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "radiocast_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// The one-off answer for `spec`, computed without any cache.
std::string in_process(const ExperimentSpec& spec) {
  const graph::Graph g = graph::from_descriptor(spec.graph.generator);
  return canonical(runtime::run_scheme(spec.scheme, g, spec.source,
                                       spec.options, spec.config));
}

/// Fault-free and faulted copies of one compiled spec per scheme, the
/// fault-free one first so a stale record would be there to be replayed.
std::vector<ExperimentSpec> clean_then_faulted() {
  std::vector<ExperimentSpec> specs;
  for (const char* scheme : {"b", "ack", "arb"}) {
    specs.push_back(compiled_spec(scheme));
    specs.push_back(compiled_spec(scheme, "edge-loss:0.3:5"));
  }
  return specs;
}

/// A fault-free and a faulted compiled spec for every registered scheme, on
/// a graph small enough for the n²-round baselines to run out their budget.
std::vector<ExperimentSpec> every_scheme_both_ways() {
  std::vector<ExperimentSpec> specs;
  for (const runtime::Scheme* scheme :
       runtime::SchemeRegistry::instance().schemes()) {
    for (const char* faults : {"", "edge-loss:0.1:7"}) {
      specs.push_back(
          compiled_spec(std::string(scheme->name()), faults, "grid:6:6"));
    }
  }
  return specs;
}

std::vector<std::string> in_process(const std::vector<ExperimentSpec>& specs) {
  std::vector<std::string> out;
  for (const ExperimentSpec& spec : specs) out.push_back(in_process(spec));
  return out;
}

void expect_answers(const std::vector<SchemeResult>& results,
                    const std::vector<ExperimentSpec>& specs,
                    const std::vector<std::string>& want,
                    const std::string& what) {
  ASSERT_EQ(results.size(), specs.size()) << what;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(canonical(results[i]), want[i])
        << what << ": " << specs[i].scheme
        << (specs[i].config.faults.enabled() ? " faulted" : "");
  }
}

TEST(RecordedResult, EverySchemeRecordsAndReplaysInSweep) {
  const auto specs = every_scheme_both_ways();
  const auto want = in_process(specs);
  for (const std::size_t width : {1u, 4u}) {
    const std::string what = "width " + std::to_string(width);
    const std::string dir =
        fresh_dir("recorded_sweep_w" + std::to_string(width));
    {
      par::ThreadPool pool(width);
      runtime::PlanStore store(dir);
      runtime::SweepRunner runner(pool);
      runner.attach_store(&store);
      expect_answers(runner.run(specs), specs, want, what + " cold");
      EXPECT_EQ(runner.cache_stats().compiled_misses, specs.size()) << what;
      expect_answers(runner.run(specs), specs, want, what + " repeat");
      const auto stats = runner.cache_stats();
      EXPECT_EQ(stats.compiled_misses, specs.size()) << what;
      EXPECT_EQ(stats.compiled_hits, specs.size()) << what;
    }
    par::ThreadPool pool(width);
    runtime::PlanStore store(dir);
    runtime::SweepRunner runner(pool);
    runner.attach_store(&store);
    expect_answers(runner.run(specs), specs, want, what + " restart");
    const auto stats = runner.cache_stats();
    EXPECT_EQ(stats.compiled_misses, 0u) << what;
    EXPECT_EQ(stats.compiled_hits, 0u) << what;
    EXPECT_EQ(stats.compiled_store_hits, specs.size()) << what;
  }
}

TEST(RecordedResult, EverySchemeRecordsAndReplaysInServe) {
  const auto specs = every_scheme_both_ways();
  const auto want = in_process(specs);
  // One batch through a daemon over `runner`; returns the done frame's
  // cache stats (cumulative over the runner's life).
  const auto serve = [&](runtime::SweepRunner& runner, std::uint64_t id,
                         const std::string& what) {
    serve::Server server(runner, serve::ServerOptions{});
    server.start();
    serve::Client client;
    EXPECT_TRUE(client.connect_tcp(server.tcp_port())) << what;
    const auto outcome = client.run_batch(specs, id);
    EXPECT_TRUE(outcome.ok) << what << ": " << outcome.error;
    expect_answers(outcome.results, specs, want, what);
    client.close();
    server.stop();
    return outcome.done.get("stats");
  };
  for (const std::size_t width : {1u, 4u}) {
    const std::string what = "width " + std::to_string(width);
    const std::string dir =
        fresh_dir("recorded_serve_w" + std::to_string(width));
    {
      par::ThreadPool pool(width);
      runtime::PlanStore store(dir);
      runtime::SweepRunner runner(pool);
      runner.attach_store(&store);
      const auto cold = serve(runner, 1, what + " cold");
      EXPECT_EQ(cold.get("compiled_misses").as_uint(), specs.size()) << what;
      const auto repeat = serve(runner, 2, what + " repeat");
      EXPECT_EQ(repeat.get("compiled_misses").as_uint(), specs.size())
          << what;
      EXPECT_EQ(repeat.get("compiled_hits").as_uint(), specs.size()) << what;
    }
    par::ThreadPool pool(width);
    runtime::PlanStore store(dir);
    runtime::SweepRunner runner(pool);
    runner.attach_store(&store);
    const auto restart = serve(runner, 3, what + " restart");
    EXPECT_EQ(restart.get("compiled_misses").as_uint(), 0u) << what;
    EXPECT_EQ(restart.get("compiled_store_hits").as_uint(), specs.size())
        << what;
  }
}

// Record owners, their duplicates, a resident record and engine specs in
// one merged batch: each answer lands in its own spec's slot.
TEST(RecordedResult, MixedBatchKeepsSpecOrder) {
  par::ThreadPool pool(4);
  runtime::SweepRunner runner(pool);
  const ExperimentSpec b = compiled_spec("b");
  const ExperimentSpec ack = compiled_spec("ack", "edge-loss:0.1:7");
  const ExperimentSpec arb = compiled_spec("arb");
  ExperimentSpec engine_b = b;
  engine_b.config.compiled = false;
  ExperimentSpec engine_ack = ack;
  engine_ack.config.compiled = false;
  runner.run({arb});  // resident before the mixed batch

  const std::vector<ExperimentSpec> batch = {
      engine_b, b, ack, arb, b, engine_ack, ack, b, engine_b};
  const auto merged = runner.run_merged({&batch});
  ASSERT_EQ(merged.size(), 1u);
  ASSERT_EQ(merged[0].spec_wall_ns.size(), batch.size());
  expect_answers(merged[0].results, batch, in_process(batch), "mixed");
  // Engine specs report their dispatch cost; recorded answers read 0.
  EXPECT_GT(merged[0].results[0].polls, 0u);
  EXPECT_EQ(merged[0].results[1].polls, 0u);
  const auto stats = runner.cache_stats();
  EXPECT_EQ(stats.compiled_misses, 3u);  // arb before, then b and ack
  EXPECT_EQ(stats.compiled_hits, 4u);    // arb, two b and one ack copies
}

TEST(RecordedResult, FaultedCompiledSpecHasItsOwnRecordInSweep) {
  par::ThreadPool pool(2);
  runtime::SweepRunner runner(pool);
  const auto specs = clean_then_faulted();
  const auto results = runner.run(specs);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(canonical(results[i]), in_process(specs[i]))
        << specs[i].scheme << " spec #" << i;
  }
  // At 30% loss plain B does not finish within its budget.
  EXPECT_FALSE(results[1].ok);
  EXPECT_EQ(runner.cache_stats().compiled_misses, specs.size());
  // A repeated faulted batch is answered by its own records.
  const std::vector<ExperimentSpec> faulted = {specs[1], specs[3], specs[5]};
  const auto again = runner.run(faulted);
  for (std::size_t i = 0; i < faulted.size(); ++i) {
    EXPECT_EQ(canonical(again[i]), canonical(results[2 * i + 1]));
  }
  const auto stats = runner.cache_stats();
  EXPECT_EQ(stats.compiled_misses, specs.size());
  EXPECT_EQ(stats.compiled_hits, faulted.size());
}

TEST(RecordedResult, FaultedCompiledSpecHasItsOwnRecordInServe) {
  par::ThreadPool pool(2);
  runtime::SweepRunner runner(pool);
  serve::Server server(runner, serve::ServerOptions{});
  server.start();
  serve::Client client;
  ASSERT_TRUE(client.connect_tcp(server.tcp_port()));
  const auto specs = clean_then_faulted();
  const auto outcome = client.run_batch(specs, /*id=*/1);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  ASSERT_EQ(outcome.results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(canonical(outcome.results[i]), in_process(specs[i]))
        << specs[i].scheme << " spec #" << i;
  }
  client.close();
  server.stop();
}

TEST(RecordedResult, ResilientAckCompiledSpecRuns) {
  par::ThreadPool pool(2);
  runtime::SweepRunner runner(pool);
  const auto spec = resilient(compiled_spec("ack"));
  const auto results = runner.run({spec, spec});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(canonical(results[0]), in_process(spec));
  EXPECT_EQ(canonical(results[1]), canonical(results[0]));
}

TEST(RecordedResult, ResilientAckNeverReplaysPlainAck) {
  const auto plain = compiled_spec("ack");
  const auto retry = resilient(plain);
  const std::string want_plain = in_process(plain);
  const std::string want_retry = in_process(retry);
  // The two modes transmit differently, so a shared record would show.
  ASSERT_NE(want_plain, want_retry);

  par::ThreadPool pool(2);
  runtime::SweepRunner runner(pool);
  EXPECT_EQ(canonical(runner.run({plain})[0]), want_plain);
  EXPECT_EQ(canonical(runner.run({retry})[0]), want_retry);
  // Both in one batch, resilient first this time.
  const auto both = runner.run({retry, plain});
  EXPECT_EQ(canonical(both[0]), want_retry);
  EXPECT_EQ(canonical(both[1]), want_plain);
}

// A one-node network never starts an engine (Scheme::run_trivial); its
// recorded result is that trivial answer.
TEST(RecordedResult, SingleNodeCompiledSpecIsTrivial) {
  par::ThreadPool pool(2);
  runtime::SweepRunner runner(pool);
  for (const char* scheme : {"b", "ack"}) {
    ExperimentSpec spec = compiled_spec(scheme);
    spec.graph.generator = "path:1";
    const auto result = runner.run({spec})[0];
    EXPECT_TRUE(result.ok) << scheme;
    EXPECT_EQ(result.rounds, 0u) << scheme;
    EXPECT_EQ(canonical(result), in_process(spec)) << scheme;
  }
}

}  // namespace
}  // namespace radiocast
