#include "baselines/baselines.hpp"

#include <bit>

#include "support/contracts.hpp"

namespace radiocast::baselines {

using sim::Message;
using sim::MsgKind;

namespace {

std::uint32_t bits_for(std::uint32_t values) {
  return values <= 1 ? 1u : std::bit_width(values - 1);
}

}  // namespace

// ---------------------------------------------------------------------------
// RoundRobinProtocol
// ---------------------------------------------------------------------------

RoundRobinProtocol::RoundRobinProtocol(
    std::uint32_t id, std::uint32_t modulus,
    std::optional<std::uint32_t> source_message)
    : id_(id), modulus_(modulus), payload_(source_message) {
  RC_EXPECTS(modulus_ >= 1 && id_ < modulus_);
}

std::optional<Message> RoundRobinProtocol::on_round() {
  ++round_;
  if (payload_ && (round_ - 1) % modulus_ == id_) {
    return Message{MsgKind::kData, 0, *payload_, std::nullopt};
  }
  return std::nullopt;
}

void RoundRobinProtocol::on_hear(const Message& m) {
  if (m.kind == MsgKind::kData && !payload_) payload_ = m.payload;
}

// ---------------------------------------------------------------------------
// ColorRobinProtocol
// ---------------------------------------------------------------------------

ColorRobinProtocol::ColorRobinProtocol(
    std::uint32_t color, std::uint32_t color_count,
    std::optional<std::uint32_t> source_message)
    : color_(color), count_(color_count), payload_(source_message) {
  RC_EXPECTS(count_ >= 1 && color_ < count_);
}

std::optional<Message> ColorRobinProtocol::on_round() {
  ++round_;
  if (payload_ && (round_ - 1) % count_ == color_) {
    return Message{MsgKind::kData, 0, *payload_, std::nullopt};
  }
  return std::nullopt;
}

void ColorRobinProtocol::on_hear(const Message& m) {
  if (m.kind == MsgKind::kData && !payload_) payload_ = m.payload;
}

// ---------------------------------------------------------------------------
// DecayProtocol
// ---------------------------------------------------------------------------

DecayProtocol::DecayProtocol(std::uint32_t n, std::uint64_t seed,
                             std::optional<std::uint32_t> source_message)
    : phase_len_(bits_for(n) + 1), payload_(source_message), rng_(seed) {
  if (payload_) draw_ahead();
}

bool DecayProtocol::coin(std::uint64_t r) {
  const std::uint64_t step = (r - 1) % phase_len_;  // 0-based step j
  return rng_.bernoulli(1.0 / static_cast<double>(1ull << step));
}

void DecayProtocol::draw_ahead() {
  anchor_ = rng_;
  anchor_round_ = round_;
  next_tx_ = round_ + 1;
  while (!coin(next_tx_)) ++next_tx_;
}

std::optional<Message> DecayProtocol::on_round() {
  ++round_;
  if (!payload_ || round_ < next_tx_) return std::nullopt;
  RC_ASSERT(round_ == next_tx_);
  draw_ahead();
  return Message{MsgKind::kData, 0, *payload_, std::nullopt};
}

void DecayProtocol::on_hear(const Message& m) {
  if (m.kind == MsgKind::kData && !payload_) {
    payload_ = m.payload;
    draw_ahead();
  }
}

void DecayProtocol::on_restart(std::uint64_t crashed_from) {
  if (!payload_) return;
  // The node was up from anchor_round_ + 1 through crashed_from - 1 and
  // never reached next_tx_ (a poll there would have moved the anchor).
  RC_ASSERT(anchor_round_ < crashed_from && crashed_from <= next_tx_);
  rng_ = anchor_;
  for (std::uint64_t r = anchor_round_ + 1; r < crashed_from; ++r) {
    const bool transmit = coin(r);
    RC_ASSERT(!transmit);
  }
  draw_ahead();
}

}  // namespace radiocast::baselines
