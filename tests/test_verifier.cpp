// Tests for the trace verifiers themselves: Lemma 2.8 (B), Theorem 3.9
// (B_ack) and §4 (B_arb).  Each must accept honest executions and reject
// perturbations — otherwise the sweep and differential tests that rely on
// them prove nothing.
#include <gtest/gtest.h>

#include "core/protocols.hpp"
#include "core/verifier.hpp"
#include "graph/generators.hpp"
#include "runtime/scheme.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"

namespace radiocast::core {
namespace {

using sim::Message;
using sim::MsgKind;
using sim::RoundRecord;
using sim::Trace;

/// Runs B on figure1 and returns (labeling, honest trace).
std::pair<Labeling, Trace> honest_run() {
  const auto g = graph::figure1();
  auto labeling = label_broadcast(g, 0);
  sim::Engine engine(g, make_broadcast_protocols(labeling, 1),
                     {sim::TraceLevel::kFull});
  engine.run_until([](const sim::Engine& e) { return e.all_informed(); }, 32);
  return {std::move(labeling), engine.trace()};
}

Trace truncate(const Trace& t, std::size_t rounds) {
  Trace out;
  for (std::size_t i = 0; i < rounds && i < t.rounds().size(); ++i) {
    out.push(t.rounds()[i]);
  }
  return out;
}

TEST(Verifier, AcceptsHonestTrace) {
  const auto [labeling, trace] = honest_run();
  EXPECT_TRUE(verify_lemma_2_8(graph::figure1(), labeling, trace).empty());
}

TEST(Verifier, AcceptsTruncatedQuiescentTail) {
  // Rounds after completion are silent; verifying a prefix that still covers
  // all activity must pass.
  const auto [labeling, trace] = honest_run();
  const auto t7 = truncate(trace, 7);
  EXPECT_TRUE(verify_lemma_2_8(graph::figure1(), labeling, t7).empty());
}

TEST(Verifier, RejectsExtraTransmitter) {
  const auto [labeling, trace] = honest_run();
  Trace bad = truncate(trace, 7);
  // Inject a rogue µ transmission in round 3 by node 4 (D ∉ DOM_2).
  Trace tampered;
  for (std::size_t i = 0; i < bad.rounds().size(); ++i) {
    RoundRecord r = bad.rounds()[i];
    if (i == 2) {
      r.transmissions.emplace_back(
          4u, Message{MsgKind::kData, 0, 1, std::nullopt});
      std::sort(r.transmissions.begin(), r.transmissions.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
    }
    tampered.push(r);
  }
  const auto verdict = verify_lemma_2_8(graph::figure1(), labeling, tampered);
  EXPECT_NE(verdict.find("DOM"), std::string::npos) << verdict;
}

TEST(Verifier, RejectsMissingTransmitter) {
  const auto [labeling, trace] = honest_run();
  Trace tampered;
  for (std::size_t i = 0; i < 7; ++i) {
    RoundRecord r = trace.rounds()[i];
    if (i == 2) r.transmissions.pop_back();  // drop one DOM_2 member
    tampered.push(r);
  }
  EXPECT_FALSE(verify_lemma_2_8(graph::figure1(), labeling, tampered).empty());
}

TEST(Verifier, RejectsStayInOddRound) {
  const auto [labeling, trace] = honest_run();
  Trace tampered;
  for (std::size_t i = 0; i < 7; ++i) {
    RoundRecord r = trace.rounds()[i];
    if (i == 4) {
      r.transmissions.emplace_back(
          12u, Message{MsgKind::kStay, 0, 0, std::nullopt});
    }
    tampered.push(r);
  }
  EXPECT_FALSE(verify_lemma_2_8(graph::figure1(), labeling, tampered).empty());
}

TEST(Verifier, RejectsForgedFirstReception) {
  const auto [labeling, trace] = honest_run();
  Trace tampered;
  for (std::size_t i = 0; i < 7; ++i) {
    RoundRecord r = trace.rounds()[i];
    if (i == 2) {
      // Node 12 (H ∈ NEW_4) pretending to be informed in round 3.
      r.deliveries.emplace_back(
          12u, Message{MsgKind::kData, 0, 1, std::nullopt});
    }
    tampered.push(r);
  }
  const auto verdict = verify_lemma_2_8(graph::figure1(), labeling, tampered);
  EXPECT_NE(verdict.find("NEW"), std::string::npos) << verdict;
}

TEST(Verifier, RejectsActivityAfterCompletion) {
  const auto [labeling, trace] = honest_run();
  Trace tampered = truncate(trace, 8);
  RoundRecord late;  // round 9: a µ transmission after 2ℓ-3 = 7
  late.transmissions.emplace_back(
      3u, Message{MsgKind::kData, 0, 1, std::nullopt});
  tampered.push(late);
  EXPECT_FALSE(verify_lemma_2_8(graph::figure1(), labeling, tampered).empty());
}

TEST(Verifier, RejectsWrongStaySender) {
  const auto [labeling, trace] = honest_run();
  Trace tampered;
  for (std::size_t i = 0; i < 7; ++i) {
    RoundRecord r = trace.rounds()[i];
    if (i == 3) {
      // Round 4's stays are {E, F}; replace F (6) with D (4, x2 = 0).
      for (auto& [v, msg] : r.transmissions) {
        if (v == 6) v = 4;
      }
    }
    tampered.push(r);
  }
  const auto verdict = verify_lemma_2_8(graph::figure1(), labeling, tampered);
  EXPECT_NE(verdict.find("stay"), std::string::npos) << verdict;
}

TEST(Verifier, SingleNodeGraphTriviallyValid) {
  const auto g = graph::path(1);
  const auto labeling = label_broadcast(g, 0);
  Trace empty;
  EXPECT_TRUE(verify_lemma_2_8(g, labeling, empty).empty());
}

TEST(Verifier, AgreesWithHonestRunsOnRandomGraphs) {
  Rng rng(777);
  for (int rep = 0; rep < 15; ++rep) {
    const auto g = graph::gnp_connected(15, 0.2, rng);
    const auto labeling = label_broadcast(g, 0);
    sim::Engine engine(g, make_broadcast_protocols(labeling, 2),
                       {sim::TraceLevel::kFull});
    engine.run_until([](const sim::Engine& e) { return e.all_informed(); }, 64);
    EXPECT_TRUE(verify_lemma_2_8(g, labeling, engine.trace()).empty());
  }
}

/// A full-trace run of a registry scheme.
Trace full_trace(const char* scheme, const Graph& g, NodeId source,
                 NodeId coordinator = 0) {
  runtime::SchemeOptions opt;
  opt.coordinator = coordinator;
  const auto run = runtime::run_scheme(scheme, g, source, opt,
                                       {.trace = sim::TraceLevel::kFull});
  EXPECT_TRUE(run.ok) << scheme;
  return run.trace;
}

/// `trace` with every delivery to `v` dropped.
Trace deaf(const Trace& trace, NodeId v) {
  Trace out;
  for (RoundRecord r : trace.rounds()) {
    std::erase_if(r.deliveries, [v](const auto& d) { return d.first == v; });
    out.push(std::move(r));
  }
  return out;
}

TEST(AckVerifier, AcceptsHonestRuns) {
  Rng rng(41);
  for (int rep = 0; rep < 10; ++rep) {
    const auto g = graph::gnp_connected(20, 0.2, rng);
    const auto source = static_cast<NodeId>(rep);
    EXPECT_EQ(verify_ack_completion(g, source, full_trace("ack", g, source)),
              "");
  }
  EXPECT_EQ(verify_ack_completion(graph::path(1), 0, Trace{}), "");
}

TEST(AckVerifier, RejectsUninformedNodeAndMissingAck) {
  const auto g = graph::grid(4, 5);
  const Trace honest = full_trace("ack", g, 0);
  const auto uninformed = verify_ack_completion(g, 0, deaf(honest, 13));
  EXPECT_NE(uninformed.find("node 13"), std::string::npos) << uninformed;
  const auto no_ack = verify_ack_completion(g, 0, deaf(honest, 0));
  EXPECT_NE(no_ack.find("never receives an ack"), std::string::npos)
      << no_ack;
}

TEST(AckVerifier, RejectsCompletionPastTwoNMinusThree) {
  // path(3) from 0: 2n - 3 = 3, but node 2 first hears µ in round 4.
  const auto g = graph::path(3);
  const Message mu{MsgKind::kData, 0, 7, 1};
  const Message ack{MsgKind::kAck, 0, 0, 4};
  Trace t;
  t.push({{{0, mu}}, {{1, mu}}, {}});
  t.push({});
  t.push({});
  t.push({{{1, mu}}, {{2, mu}}, {}});
  t.push({{{1, ack}}, {{0, ack}}, {}});
  const auto verdict = verify_ack_completion(g, 0, t);
  EXPECT_NE(verdict.find("2n-3"), std::string::npos) << verdict;

  // An ack that overtakes µ: node 2 is informed only after the source
  // heard its ack.
  Trace overtaken;
  overtaken.push({{{0, mu}}, {{1, mu}}, {}});
  overtaken.push({{{1, ack}}, {{0, ack}}, {}});
  overtaken.push({{{1, mu}}, {{2, mu}}, {}});
  const auto order = verify_ack_completion(g, 0, overtaken);
  EXPECT_NE(order.find("not before the source's ack"), std::string::npos)
      << order;
}

TEST(ArbVerifier, AcceptsHonestRuns) {
  Rng rng(43);
  for (int rep = 0; rep < 10; ++rep) {
    const auto g = graph::gnp_connected(20, 0.2, rng);
    const auto source = static_cast<NodeId>(rep);
    const auto coordinator = static_cast<NodeId>(rep % 3 == 0 ? rep : 19);
    EXPECT_EQ(verify_arb_delivery(
                  g, source, full_trace("arb", g, source, coordinator)),
              "");
  }
}

TEST(ArbVerifier, RejectsEarlyRelayForeignPayloadAndDeafNode) {
  const auto g = graph::grid(4, 5);
  const NodeId source = 7;
  const Trace honest = full_trace("arb", g, source, 0);
  // Node 12 puts µ on the air in round 1, before anyone could tell it.
  Trace early;
  for (std::size_t t = 0; t < honest.rounds().size(); ++t) {
    RoundRecord r = honest.rounds()[t];
    if (t == 0) r.transmissions.push_back({12, {MsgKind::kData, 3, 42, 1}});
    early.push(std::move(r));
  }
  const auto relay = verify_arb_delivery(g, source, early);
  EXPECT_NE(relay.find("before receiving"), std::string::npos) << relay;
  // The same forged transmission with another payload is not µ at all.
  Trace foreign;
  for (std::size_t t = 0; t < honest.rounds().size(); ++t) {
    RoundRecord r = honest.rounds()[t];
    if (t + 1 == honest.rounds().size()) {
      r.transmissions.push_back({12, {MsgKind::kData, 3, 43, 1}});
    }
    foreign.push(std::move(r));
  }
  const auto payload = verify_arb_delivery(g, source, foreign);
  EXPECT_NE(payload.find("not mu"), std::string::npos) << payload;
  const auto never = verify_arb_delivery(g, source, deaf(honest, 19));
  EXPECT_NE(never.find("node 19"), std::string::npos) << never;
}

}  // namespace
}  // namespace radiocast::core
