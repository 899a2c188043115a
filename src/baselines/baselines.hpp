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

#include <cstdint>
#include <optional>

#include "graph/graph.hpp"
#include "sim/protocol.hpp"
#include "support/rng.hpp"

namespace radiocast::baselines {

using graph::NodeId;

/// Round-robin over unique ids (label = (id, modulus)).
class RoundRobinProtocol final : public sim::Protocol {
 public:
  RoundRobinProtocol(std::uint32_t id, std::uint32_t modulus,
                     std::optional<std::uint32_t> source_message);

  std::optional<sim::Message> on_round() override;
  void on_hear(const sim::Message& m) override;
  bool informed() const override { return payload_.has_value(); }

  /// Activity contract: an uninformed node is silent until it hears µ; an
  /// informed one transmits only in its own slot, every `modulus` rounds.
  /// The hint is the exact next slot, and it is already exact right after
  /// the reception that informs the node, so the protocol opts into the
  /// post-hear re-query: a node is polled once per transmission.
  std::uint64_t next_active_round() const override {
    if (!payload_) return kIdle;
    const std::uint64_t d = (id_ + modulus_ - round_ % modulus_) % modulus_;
    return round_ + d + 1;
  }
  bool wants_post_hear_hint() const override { return true; }
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
    return round_ + d + 1;
  }
  bool wants_post_hear_hint() const override { return true; }
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

  /// Uninformed nodes never act and never draw from the rng.  An informed
  /// node flips one coin per round it is up, in round order; it draws those
  /// coins ahead, up to the first one that says transmit, so the hint is
  /// exactly that round — both after a poll and right after the reception
  /// that informs the node (hence the post-hear opt-in).  The draw
  /// sequence is the one a node polled every round would make.
  std::uint64_t next_active_round() const override {
    return payload_ ? next_tx_ : kIdle;
  }
  bool wants_post_hear_hint() const override { return true; }
  void skip_rounds(std::uint64_t rounds) override { round_ += rounds; }

  /// A crash window [crashed_from, round_] swallowed rounds whose coins the
  /// lookahead already drew.  Rewinds to the generator state at `anchor_`,
  /// redraws the coins of the rounds before the crash (all "listen": the
  /// transmission they led to lies inside or after the window) and draws
  /// ahead again from the current round, as if the node had been polled
  /// in every round it was up and in no other.
  void on_restart(std::uint64_t crashed_from) override;

 private:
  /// The round-r coin: one uniform draw, true with probability 2^{-j} at
  /// phase step j = (r-1) mod phase_len_.
  bool coin(std::uint64_t r);
  /// Saves the generator as the anchor for round_ and draws coins for
  /// rounds round_+1, round_+2, ... until one says transmit (step 0 always
  /// does, so at most phase_len_ draws).
  void draw_ahead();

  std::uint32_t phase_len_;
  std::optional<std::uint32_t> payload_;
  std::uint64_t round_ = 0;
  std::uint64_t next_tx_ = 0;       ///< informed: the next transmitting round
  std::uint64_t anchor_round_ = 0;  ///< the coins of rounds <= this are final
  Rng rng_;                         ///< state after the coin of round next_tx_
  Rng anchor_;                      ///< state after the coin of anchor_round_
};

}  // namespace radiocast::baselines
