#include "checks.hpp"

#include <tuple>

namespace perfbench {

using radiocast::runtime::SchemeResult;
using radiocast::runtime::wire::BinaryResult;

namespace {

std::uint64_t theorem_bound(std::uint32_t n) {
  return n >= 2 ? 2ull * n - 3 : 0;
}

std::string check_fields(const std::string& scheme, bool ok,
                         bool all_informed, std::uint64_t completion,
                         std::uint64_t ack_round, std::uint32_t n) {
  if (guarantees_success(scheme) && !ok) return scheme + ": ok=false";
  if (scheme == "b" || scheme == "ack") {
    if (!all_informed) return scheme + ": not all informed";
    if (completion > theorem_bound(n)) {
      return scheme + ": completion_round " + std::to_string(completion) +
             " > 2n-3 = " + std::to_string(theorem_bound(n));
    }
  }
  if (scheme == "ack" && ack_round <= completion) {
    return "ack: ack_round " + std::to_string(ack_round) +
           " <= completion_round " + std::to_string(completion);
  }
  return {};
}

auto observables(const SchemeResult& r) {
  return std::tie(r.ok, r.all_informed, r.labeling_found, r.rounds,
                  r.completion_round, r.ack_round, r.bound, r.ell, r.special,
                  r.max_stamp, r.done_round, r.T, r.last_learned, r.stay_count,
                  r.data_tx_count, r.max_node_tx, r.tx_total, r.polls,
                  r.attempts, r.ones, r.label_bits, r.ack_rounds,
                  r.rounds_per_message);
}

}  // namespace

bool guarantees_success(const std::string& scheme) {
  return scheme == "b" || scheme == "ack" || scheme == "arb" ||
         scheme == "multi" || scheme == "color-robin";
}

std::string check_result(const std::string& scheme, const SchemeResult& r,
                         std::uint32_t n) {
  return check_fields(scheme, r.ok, r.all_informed, r.completion_round,
                      r.ack_round, n);
}

std::string check_binary(const std::string& scheme, const BinaryResult& r,
                         std::uint32_t n) {
  return check_fields(scheme, r.ok, r.all_informed, r.completion_round,
                      r.ack_round, n);
}

std::string compare_canonical(const SchemeResult& got,
                              const SchemeResult& want) {
  namespace wire = radiocast::runtime::wire;
  const std::string a = wire::encode_result(got);
  const std::string b = wire::encode_result(want);
  if (a == b) return {};
  return "canonical results differ: " + a + " vs " + b;
}

std::string compare_compiled_engine(const std::string& scheme,
                                    const SchemeResult& compiled,
                                    const SchemeResult& engine) {
  const bool arb = scheme == "arb";
  const auto defined = [arb](const SchemeResult& r) {
    return std::make_tuple(r.ok, r.all_informed, r.rounds, r.tx_total,
                           r.ack_round, r.done_round, r.T, r.ell, r.special,
                           r.bound, r.label_bits, r.max_node_tx,
                           arb ? 0 : r.completion_round,
                           arb ? 0 : r.max_stamp);
  };
  if (defined(compiled) == defined(engine)) return {};
  namespace wire = radiocast::runtime::wire;
  return scheme + ": compiled replay differs from engine run: " +
         wire::encode_result(compiled) + " vs " + wire::encode_result(engine);
}

bool same_result(const SchemeResult& a, const SchemeResult& b) {
  return observables(a) == observables(b);
}

bool same_binary(const BinaryResult& got, const SchemeResult& want) {
  BinaryResult expected = radiocast::runtime::wire::binary_result(want, 0);
  BinaryResult actual = got;
  actual.wall_ns = 0;
  return actual == expected;
}

std::string verify_b_trace(const radiocast::graph::Graph& g,
                           radiocast::graph::NodeId source) {
  namespace rt = radiocast::runtime;
  const rt::Scheme& b = *rt::SchemeRegistry::instance().find("b");
  const auto plan = b.label(g, source, {});
  rt::ExecutionConfig full;
  full.trace = radiocast::sim::TraceLevel::kFull;
  const auto result = rt::run_with_plan(b, g, source, plan, {}, full);
  const std::string why = b.verify(g, source, *plan, result.trace);
  return why.empty() ? why : "b verifier: " + why;
}

}  // namespace perfbench
