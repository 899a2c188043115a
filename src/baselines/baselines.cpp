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
    : phase_len_(bits_for(n) + 1), payload_(source_message), rng_(seed) {}

std::optional<Message> DecayProtocol::on_round() {
  ++round_;
  if (!payload_) return std::nullopt;
  const std::uint64_t step = (round_ - 1) % phase_len_;  // 0-based step j
  const double p = 1.0 / static_cast<double>(1ull << step);
  if (rng_.bernoulli(p)) {
    return Message{MsgKind::kData, 0, *payload_, std::nullopt};
  }
  return std::nullopt;
}

void DecayProtocol::on_hear(const Message& m) {
  if (m.kind == MsgKind::kData && !payload_) payload_ = m.payload;
}

}  // namespace radiocast::baselines
