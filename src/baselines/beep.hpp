/// \file beep.hpp
/// \brief Anonymous bit-by-bit broadcast under collision detection.
///
/// Paper §1.1: "If collision detection is available, broadcast is trivially
/// feasible, even in anonymous networks: consecutive bits of the source
/// message can be transmitted by a sequence of silent and noisy rounds,
/// using silence as 0 and a message or collision as 1."
///
/// This protocol reproduces that remark.  Nodes are fully anonymous (no
/// labels, no ids, identical code); only *energy vs silence* is observable,
/// which requires the engine's collision-detection mode.  The message is sent
/// as frames of 1 start-beep plus L data beeps:
///
///   - the source emits its frame in rounds 1 .. L+1;
///   - every node at BFS distance d first senses energy in round
///     (d-1)(L+1)+1, decodes the following L rounds, then relays the whole
///     frame once.  All distance-d nodes relay in unison, so listeners at
///     distance d+1 see the OR of identical aligned frames — exactly the
///     frame itself.  No collision ever corrupts a bit.
///
/// Completion takes ecc(source) · (L+1) rounds — and it works on the
/// unlabeled four-cycle, which is impossible without collision detection
/// (experiment E7/E11).
#pragma once

#include <cstdint>
#include <optional>

#include "sim/protocol.hpp"

namespace radiocast::baselines {

class BeepBroadcastProtocol final : public sim::Protocol {
 public:
  /// `bits`: frame width L (message length in bits, known network-wide).
  /// `source_message`: engaged iff this node is the source.
  BeepBroadcastProtocol(std::uint32_t bits,
                        std::optional<std::uint32_t> source_message);

  std::optional<sim::Message> on_round() override;
  void on_hear(const sim::Message& m) override;
  void on_collision() override;
  bool informed() const override { return decoded_.has_value(); }

  /// Activity contract: an idle node waits for its first sensed energy (the
  /// engine re-arms on deliveries *and* collisions, and every reception is
  /// folded in exactly one round later); decoding and relaying nodes treat
  /// every round as meaningful — under collision detection, silence is data
  /// — so they are woken every round until the frame is out; a finished
  /// node never acts again.
  std::uint64_t next_active_round() const override;
  void skip_rounds(std::uint64_t rounds) override { round_ += rounds; }

  /// Observer: the decoded message (engaged once informed).
  std::optional<std::uint32_t> decoded() const noexcept { return decoded_; }

 private:
  bool frame_bit(std::uint32_t value, std::uint32_t k) const;

  enum class State : std::uint8_t { kIdle, kDecoding, kRelaying, kDone };

  std::uint32_t bits_;
  State state_;
  std::optional<std::uint32_t> decoded_;
  std::uint64_t round_ = 0;
  std::uint64_t frame_start_ = 0;  ///< local round of the sensed start beep
  /// Relay frame = rounds anchor+1 .. anchor+bits+1.
  std::uint64_t relay_anchor_ = 0;
  std::uint32_t accum_ = 0;        ///< bits decoded so far (MSB first)
  std::uint32_t decoded_count_ = 0;
  bool energy_this_round_ = false;
};

}  // namespace radiocast::baselines
