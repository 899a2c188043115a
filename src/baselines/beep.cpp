#include "baselines/beep.hpp"

#include "support/contracts.hpp"

namespace radiocast::baselines {

using sim::Message;
using sim::MsgKind;

BeepBroadcastProtocol::BeepBroadcastProtocol(
    std::uint32_t bits, std::optional<std::uint32_t> source_message)
    : bits_(bits),
      state_(source_message ? State::kRelaying : State::kIdle),
      decoded_(source_message) {
  RC_EXPECTS(bits_ >= 1 && bits_ <= 32);
  if (source_message) {
    RC_EXPECTS_MSG(bits_ == 32 || *source_message < (1u << bits_),
                   "message does not fit in the frame width");
    relay_anchor_ = 0;  // source's frame occupies rounds 1 .. bits+1
  }
}

bool BeepBroadcastProtocol::frame_bit(std::uint32_t value,
                                      std::uint32_t k) const {
  // k = 1..bits_, MSB first.
  return ((value >> (bits_ - k)) & 1u) != 0;
}

std::optional<Message> BeepBroadcastProtocol::on_round() {
  ++round_;
  // Fold in the previous round's observation: the engine's callbacks fire
  // after on_round, and silence (no callback at all) is as meaningful as
  // energy under collision detection.
  const bool energy = energy_this_round_;
  energy_this_round_ = false;
  const std::uint64_t prev = round_ - 1;
  if (state_ == State::kIdle) {
    if (prev >= 1 && energy) {
      // Sensed the start beep of the upstream relay frame.
      frame_start_ = prev;
      state_ = State::kDecoding;
      accum_ = 0;
      decoded_count_ = 0;
    }
  } else if (state_ == State::kDecoding) {
    if (prev > frame_start_) {
      accum_ = (accum_ << 1) | (energy ? 1u : 0u);
      if (++decoded_count_ == bits_) {
        decoded_ = accum_;
        state_ = State::kRelaying;
        // Relay frame directly follows the decoded frame, so all nodes of
        // the same BFS layer relay in unison.
        relay_anchor_ = frame_start_ + bits_;
      }
    }
  }

  if (state_ == State::kRelaying) {
    const std::uint64_t offset = round_ - relay_anchor_;
    if (offset == 1) {
      return Message{MsgKind::kData, 0, 1, std::nullopt};  // start beep
    }
    if (offset >= 2 && offset <= bits_ + 1) {
      const auto k = static_cast<std::uint32_t>(offset - 1);
      if (frame_bit(*decoded_, k)) {
        return Message{MsgKind::kData, 0, 1, std::nullopt};
      }
      return std::nullopt;  // silent bit round
    }
    state_ = State::kDone;
  }
  return std::nullopt;
}

void BeepBroadcastProtocol::on_hear(const Message&) {
  energy_this_round_ = true;
}
void BeepBroadcastProtocol::on_collision() { energy_this_round_ = true; }

std::uint64_t BeepBroadcastProtocol::next_active_round() const {
  switch (state_) {
    case State::kIdle:
    case State::kDone:
      // Sensed energy always re-arms the node one round before it is folded
      // in, so sleeping here can never skip a meaningful round.
      return kIdle;
    case State::kDecoding:
    case State::kRelaying:
      return round_ + 1;
  }
  return kAlwaysActive;
}

}  // namespace radiocast::baselines
