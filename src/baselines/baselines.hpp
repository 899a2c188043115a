/// \file baselines.hpp
/// \brief The comparison schemes the paper positions λ against (§1).
///
/// 1. Round-robin: unique ids = Θ(log n)-bit labels; the node with
///    id ≡ (t-1) mod M transmits when informed.  Collision-free by
///    construction; completes within M · ecc(s) rounds.
/// 2. Color-robin: a proper coloring of G² (≤ Δ²+1 colors, Θ(log Δ)-bit
///    labels); informed nodes of color ≡ (t-1) mod C transmit.  Two
///    same-color transmitters are never within distance 2, so every
///    transmission is heard by all listening neighbours; completes within
///    C · ecc(s) rounds.
/// 3. Decay (Bar-Yehuda–Goldreich–Itai): randomized, label-free, knows n.
///    Rounds are grouped into phases of ⌈log2 n⌉+1 steps; in step j every
///    informed node transmits with probability 2^{-j}.  Expected
///    O(D log n + log² n) completion.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>

#include "graph/graph.hpp"
#include "sim/protocol.hpp"
#include "support/rng.hpp"

namespace radiocast::baselines {

using graph::NodeId;

/// Cap on how far ahead the robin protocols hint.  An earlier-than-needed
/// hint is always contract-safe (the extra poll returns nullopt), and a
/// hint beyond the engine's calendar ring would land in its far-wake heap —
/// which dense graphs churn, because every reception re-arms the node and
/// strands the heap entry.  48 stays comfortably inside the 64-slot ring.
inline constexpr std::uint64_t kRobinHintHorizon = 48;

/// Round-robin over unique ids (label = (id, modulus)).
class RoundRobinProtocol final : public sim::Protocol {
 public:
  RoundRobinProtocol(std::uint32_t id, std::uint32_t modulus,
                     std::optional<std::uint32_t> source_message);

  std::optional<sim::Message> on_round() override;
  void on_hear(const sim::Message& m) override;
  bool informed() const override { return payload_.has_value(); }

  /// Activity contract: an uninformed node is silent until it hears µ (the
  /// engine re-arms on delivery); an informed one transmits only in its own
  /// slot, every `modulus` rounds (hint capped at kRobinHintHorizon).
  std::uint64_t next_active_round() const override {
    if (!payload_) return kIdle;
    const std::uint64_t d = (id_ + modulus_ - round_ % modulus_) % modulus_;
    return round_ + std::min(d + 1, kRobinHintHorizon);
  }
  void skip_rounds(std::uint64_t rounds) override { round_ += rounds; }

 private:
  std::uint32_t id_;
  std::uint32_t modulus_;
  std::optional<std::uint32_t> payload_;
  std::uint64_t round_ = 0;
};

/// Round-robin over color classes of a proper G² coloring
/// (label = (color, color_count)).
class ColorRobinProtocol final : public sim::Protocol {
 public:
  ColorRobinProtocol(std::uint32_t color, std::uint32_t color_count,
                     std::optional<std::uint32_t> source_message);

  std::optional<sim::Message> on_round() override;
  void on_hear(const sim::Message& m) override;
  bool informed() const override { return payload_.has_value(); }

  /// Same contract as RoundRobinProtocol with the color class as the slot.
  std::uint64_t next_active_round() const override {
    if (!payload_) return kIdle;
    const std::uint64_t d = (color_ + count_ - round_ % count_) % count_;
    return round_ + std::min(d + 1, kRobinHintHorizon);
  }
  void skip_rounds(std::uint64_t rounds) override { round_ += rounds; }

 private:
  std::uint32_t color_;
  std::uint32_t count_;
  std::optional<std::uint32_t> payload_;
  std::uint64_t round_ = 0;
};

/// BGI Decay: label-free randomized baseline that knows n.
class DecayProtocol final : public sim::Protocol {
 public:
  DecayProtocol(std::uint32_t n, std::uint64_t seed,
                std::optional<std::uint32_t> source_message);

  std::optional<sim::Message> on_round() override;
  void on_hear(const sim::Message& m) override;
  bool informed() const override { return payload_.has_value(); }

  /// Uninformed nodes never act (and, crucially, never draw from the rng,
  /// matching the scan path's draw sequence); informed ones flip a coin
  /// every round, so they are woken every round.
  std::uint64_t next_active_round() const override {
    return payload_ ? round_ + 1 : kIdle;
  }
  void skip_rounds(std::uint64_t rounds) override { round_ += rounds; }

 private:
  std::uint32_t phase_len_;
  std::optional<std::uint32_t> payload_;
  std::uint64_t round_ = 0;
  Rng rng_;
};

}  // namespace radiocast::baselines
