// Recorded results: a spec that opts into `config.compiled` is answered by
// the scheme's own engine result, recorded once per key and replayed from
// the PlanCache / PlanStore.  These oracles pin that the sweep and the
// daemon answer such a spec exactly as `run_scheme` does:
//  - an enabled fault plan takes the engine, also after a fault-free run of
//    the same spec was recorded;
//  - a resilient B_ack spec records and replays its own result;
//  - plain and resilient B_ack on one graph and source never share a
//    record;
//  - a one-node network records its trivial answer.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "parallel/thread_pool.hpp"
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

ExperimentSpec compiled_spec(const char* scheme, const char* faults = "") {
  ExperimentSpec spec;
  spec.scheme = scheme;
  spec.graph.generator = kGraph;
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

TEST(RecordedResult, FaultedCompiledSpecRunsTheEngineInSweep) {
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
  // A later batch, with the fault-free records resident, still runs.
  const auto again = runner.run({specs[1]});
  EXPECT_EQ(canonical(again[0]), canonical(results[1]));
}

TEST(RecordedResult, FaultedCompiledSpecRunsTheEngineInServe) {
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
