/// \file message.hpp
/// \brief Wire messages exchanged by radio protocols.
///
/// The paper's algorithms use a handful of message shapes: the source message
/// µ, a constant-size "stay", an "ack" carrying a round stamp (Algorithm 2),
/// and the B_arb phase messages "initialize" and "ready".  One tagged struct
/// covers all of them; protocols only read the fields their algorithm defines,
/// and the metrics module charges each field to the wire-size accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace radiocast::sim {

/// Message kind tag (constant wire cost).
enum class MsgKind : std::uint8_t {
  kData,   ///< the source message µ (payload identifies which µ)
  kStay,   ///< "stay in the dominating set" (Algorithm 1, line 15)
  kAck,    ///< acknowledgement (Algorithm 2, lines 19/30)
  kInit,   ///< B_arb phase-1 "initialize"
  kReady,  ///< B_arb phase-2 "ready" (payload carries T)
};

/// Number of `MsgKind` values (the per-kind counters' array size).
inline constexpr std::size_t kMsgKindCount = 5;

const char* to_string(MsgKind k);

/// A transmitted message.  `stamp` is the O(log n)-bit round counter of
/// Algorithm 2 (`std::nullopt` means the field is not on the wire, as in
/// Algorithm 1).  `phase` is B_arb's 2-bit phase tag (0 when unused).
struct Message {
  MsgKind kind = MsgKind::kData;
  std::uint8_t phase = 0;
  std::uint32_t payload = 0;
  std::optional<std::uint64_t> stamp;

  friend bool operator==(const Message&, const Message&) = default;
};

/// Human-readable rendering, e.g. "Data(p=7)@3" for a stamped data message.
std::string to_string(const Message& m);

}  // namespace radiocast::sim
