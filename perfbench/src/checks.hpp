// Output checks.  Every result a workload receives is checked against the
// paper's guarantees; a seeded sample is also re-derived in-process.  Each
// check returns an empty string when it passes, else the reason.
#pragma once

#include <cstdint>
#include <string>

#include "runtime/scheme.hpp"
#include "runtime/wire.hpp"

namespace perfbench {

/// True iff the scheme guarantees success, so `ok == false` is a failure
/// (decay is randomized and guarantees nothing).
bool guarantees_success(const std::string& scheme);

/// B and B_ack inform every node by round 2n-3; B_ack's source hears the
/// acknowledgement after the last first reception.
std::string check_result(const std::string& scheme,
                         const radiocast::runtime::SchemeResult& r,
                         std::uint32_t n);
std::string check_binary(const std::string& scheme,
                         const radiocast::runtime::wire::BinaryResult& r,
                         std::uint32_t n);

/// Every observable the wire carries, compared through its canonical
/// encoding.
std::string compare_canonical(const radiocast::runtime::SchemeResult& got,
                              const radiocast::runtime::SchemeResult& want);

/// A compiled replay against the engine run of the same spec, on the
/// observables the replay defines: it leaves polls and the trace-derived
/// counters at zero, and for arb also completion_round and max_stamp.
std::string compare_compiled_engine(
    const std::string& scheme, const radiocast::runtime::SchemeResult& compiled,
    const radiocast::runtime::SchemeResult& engine);

/// Field equality of two results of one deterministic spec (cheap enough to
/// run on every result of a measured window).
bool same_result(const radiocast::runtime::SchemeResult& a,
                 const radiocast::runtime::SchemeResult& b);

/// A binary record against the full result it should project, ignoring the
/// execution wall time.
bool same_binary(const radiocast::runtime::wire::BinaryResult& got,
                 const radiocast::runtime::SchemeResult& want);

/// Runs B from `source` on the engine at full trace level and checks the
/// trace with `Scheme::verify` (the Lemma 2.8 characterization).
std::string verify_b_trace(const radiocast::graph::Graph& g,
                           radiocast::graph::NodeId source);

}  // namespace perfbench
