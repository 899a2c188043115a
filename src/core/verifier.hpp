/// \file verifier.hpp
/// \brief Checks the paper's guarantees against a recorded trace: the exact
///        per-round characterization of B (Lemma 2.8), B_ack's acknowledged
///        completion (Theorem 3.9) and B_arb's delivery (§4).
///
/// Lemma 2.8: in round 2i-1 the transmitters of µ are exactly DOM_i and the
/// first-time receivers of µ are exactly NEW_i; in round 2i the "stay"
/// transmitters are exactly the x2-labeled members of NEW_i.  This is the
/// strongest per-round statement in the paper, so the test suite runs it over
/// every family and policy; benches reuse it as a self-check.
#pragma once

#include <string>

#include "core/labeling.hpp"
#include "sim/trace.hpp"

namespace radiocast::core {

/// Returns an empty string if the trace matches Lemma 2.8 (plus
/// Observation 3.3: no µ/stay transmissions after round 2ℓ-3); otherwise a
/// human-readable diagnostic naming the first violated round.
std::string verify_lemma_2_8(const Graph& g, const Labeling& labeling,
                             const sim::Trace& trace);

/// Theorem 3.9 (B_ack), in one pass over the trace: every node other than
/// `source` first receives µ (kData) before the source first receives an
/// ack, and the last of those first receptions falls within 2n - 3.
/// Empty string iff the trace satisfies it.
std::string verify_ack_completion(const Graph& g, NodeId source,
                                  const sim::Trace& trace);

/// §4 (B_arb), in one pass over the trace.  A message carries µ when it is
/// a phase-3 kData or a phase-2 kAck (the source's µ on its way to the
/// coordinator).  Every such message carries the same payload, every node
/// other than `source` receives one, and no node other than `source`
/// transmits one before its first such reception.  Empty string iff the
/// trace satisfies it.
std::string verify_arb_delivery(const Graph& g, NodeId source,
                                const sim::Trace& trace);

}  // namespace radiocast::core
