/// \file protocol.hpp
/// \brief The universal-algorithm interface.
///
/// A universal deterministic broadcast algorithm decides, per round, from the
/// node's **label and local history only** (paper §1.1).  This interface makes
/// that structural: a protocol object is constructed from its label (and, for
/// the source, the message), and the engine only ever calls `on_round()` and
/// `on_hear()`.  There is no way for a protocol to see the graph, the global
/// round number, or any other node's state.  Collisions are invisible: the
/// engine simply does not call `on_hear` (no collision detection).
#pragma once

#include <cstdint>

#include "sim/message.hpp"

namespace radiocast::sim {

/// Per-node protocol state machine.
class Protocol {
 public:
  /// `next_active_round()` return value: no guarantee — poll every round.
  static constexpr std::uint64_t kAlwaysActive = 0;
  /// `next_active_round()` return value: provably silent until the next
  /// reception (the engine re-arms the node when it hears or senses a
  /// collision).
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};

  virtual ~Protocol() = default;

  Protocol() = default;
  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// Called once at the start of every round, in lockstep at all nodes.
  /// Return a message to transmit it this round, or std::nullopt to listen.
  virtual std::optional<Message> on_round() = 0;

  /// Called after the round resolves iff this node listened and exactly one
  /// of its neighbours transmitted.  Never called for transmitting nodes.
  virtual void on_hear(const Message& m) = 0;

  /// Called instead of on_hear iff this node listened, two or more
  /// neighbours transmitted, **and** the engine was configured with
  /// `collision_detection = true`.  The default radio model of the paper has
  /// no collision detection, so the default engine never calls this; the
  /// hook exists to reproduce the paper's §1.1 remark that collision
  /// detection makes broadcast trivially feasible even in anonymous networks.
  virtual void on_collision() {}

  /// Observer hook for the harness/tests only: whether this node holds the
  /// source message.  Protocol logic of *other* nodes never reads this.
  /// Must be monotone — once true it stays true — so the engine can
  /// maintain its informed counter incrementally (every shipped protocol
  /// "learns" µ exactly once).
  virtual bool informed() const = 0;

  // -- Activity contract (optional; powers active-set dispatch) -------------
  //
  // A protocol's transmissions are a deterministic function of its label and
  // local history, so a protocol usually *knows* the next local round in
  // which it could possibly transmit.  Declaring that round lets the engine
  // skip the `on_round()` poll in provably silent rounds, making per-round
  // dispatch cost proportional to network activity instead of n.

  /// The earliest local round r' > (current local round) in which this node
  /// might transmit, **assuming it hears nothing in between**; the engine
  /// re-queries after every poll and re-arms the node for the next round
  /// whenever it hears a message or senses a collision.  Contract: for every
  /// skipped round r < r', `on_round()` would have returned std::nullopt and
  /// had no effect beyond advancing the local clock (which the engine
  /// restores via `skip_rounds`).  Return `kIdle` when no such round exists
  /// without a reception, or `kAlwaysActive` (the default) to be polled
  /// every round — the safe answer for protocols without the contract.
  virtual std::uint64_t next_active_round() const { return kAlwaysActive; }

  /// Engine notification that `rounds` lockstep rounds elapsed in which this
  /// node was neither polled nor delivered anything.  A protocol overriding
  /// `next_active_round` must advance its local clock here (typically
  /// `round_ += rounds;`); the engine guarantees the clock equals the global
  /// round at every `on_round`, `on_hear`, and `on_collision` call.
  virtual void skip_rounds(std::uint64_t rounds) { (void)rounds; }

  /// Post-hear hint opt-in.  By default the engine re-arms a node for the
  /// very next round after every `on_hear`/`on_collision` — the safe blanket
  /// rule, because a reception may enable a transmission the pre-reception
  /// hint could not predict (e.g. B's stay-triggered retransmission, B_ack's
  /// ack forwarding).  On dense graphs that blanket re-arm is the dominant
  /// calendar cost: every delivery buys a poll even when the recipient has
  /// nothing to do.
  ///
  /// A protocol returning true here strengthens its `next_active_round`
  /// contract: the hint must be accurate immediately after *any* event
  /// (`on_hear`, `on_collision`), with reception-triggered rules included —
  /// not just after `on_round` polls.  The engine then re-queries the hint
  /// after delivering an event and schedules exactly that wake (or none for
  /// `kIdle`) instead of the blanket next-round poll.  The usual laxity
  /// still applies: a spuriously early wake is trace-safe (the skipped-poll
  /// contract makes the extra poll a no-op), but a missed wake changes the
  /// execution.  kScan ignores this entirely, so scan-vs-active trace
  /// equality pins the strengthened hints.
  virtual bool wants_post_hear_hint() const { return false; }

  /// Fault-injection notification (sim/faults.hpp): this node just recovered
  /// from a crash window that began in local round `crashed_from` (the
  /// first round of the merged window; overlapping or touching windows
  /// count as one).  The model is fail-stop with state retention — the
  /// protocol's state survives, it simply missed every round of the window
  /// (neither transmitted nor heard nor was polled).  By the time this is
  /// called the local clock has already been caught up (via `skip_rounds`)
  /// to the round *before* the recovery round; `on_round` for the recovery
  /// round follows, and the engine re-queries the activity hint after it.
  /// A protocol that computed ahead for rounds it then spent crashed (decay
  /// draws its coins up to the next transmission) uses `crashed_from` to
  /// undo the work for the rounds it never saw.  Default: nothing — most
  /// protocols just resume where they stopped.
  virtual void on_restart(std::uint64_t crashed_from) { (void)crashed_from; }
};

}  // namespace radiocast::sim
