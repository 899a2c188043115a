/// \file faults.hpp
/// \brief Deterministic fault injection for the round engine.
///
/// The paper's model (§1.1) is pristine: lockstep rounds over perfectly
/// reliable links.  Real radio deployments are not — links lose packets,
/// nodes reboot, and adversaries jam.  A `FaultPlan` describes a seeded,
/// fully deterministic perturbation of one execution:
///
///  - **Edge loss**: every successful delivery (as resolved by the backend)
///    is independently dropped with probability `edge_loss_ppm / 10^6`,
///    decided by a pure hash of (seed, round, transmitter, listener) — so
///    the outcome is identical across backends, dispatch strategies, and
///    thread counts.  Losses apply to *deliveries only*: a collision is
///    already noise and stays noise (the backend's resolution is the ground
///    truth the faults filter, never recompute).
///  - **Crash windows**: a node crashed in rounds [from, until] neither
///    transmits nor hears anything.  At round until+1 it restarts with its
///    protocol state intact (fail-stop with state retention, not amnesia):
///    the engine catches its local clock up, calls
///    `Protocol::on_restart(from)` with the first round of the (merged)
///    window, and re-arms its calendar wake.
///  - **Jam windows**: in a jammed round every non-crashed listener
///    experiences collision/silence — no deliveries happen, and in
///    collision-detection mode every such listener receives the
///    `on_collision()` signal (an adversarial transmitter is always "one
///    more neighbour talking").
///
/// Faults are applied by the engine *between* backend round-resolution and
/// delivery, so all backends stay untouched and bit-exact; a disabled plan
/// (`enabled() == false`) leaves every engine code path byte-identical to
/// the unfaulted engine.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace radiocast::sim {

using graph::NodeId;

/// Bernoulli-loss probabilities are fixed-point parts-per-million so the
/// wire encoding is an exact integer (no float canonicalization).
inline constexpr std::uint32_t kLossDenominator = 1'000'000;

/// Node `node` is crashed for every round in [from_round, until_round]
/// (1-based, inclusive); it restarts at until_round + 1.  Overlapping
/// windows for one node merge (the node is crashed while any window covers
/// the round; it restarts once, when the last one ends).
struct CrashWindow {
  NodeId node = 0;
  std::uint64_t from_round = 0;
  std::uint64_t until_round = 0;

  friend bool operator==(const CrashWindow&, const CrashWindow&) = default;
};

/// Every round in [from_round, until_round] (1-based, inclusive) is jammed.
struct JamWindow {
  std::uint64_t from_round = 0;
  std::uint64_t until_round = 0;

  friend bool operator==(const JamWindow&, const JamWindow&) = default;
};

/// A complete, seeded fault description for one execution.  Value type:
/// cheap to copy around `EngineOptions`/`ExecutionConfig`, compared
/// field-for-field, and wire-encodable (runtime/wire.hpp, version >= 2).
struct FaultPlan {
  /// Per-directed-edge delivery loss probability in parts per million
  /// (0 .. kLossDenominator).
  std::uint32_t edge_loss_ppm = 0;
  /// Seed of the deterministic loss draw.
  std::uint64_t seed = 0;
  std::vector<CrashWindow> crashes;
  std::vector<JamWindow> jams;

  /// True iff the plan perturbs anything.  A seed alone does not: with no
  /// loss, crashes, or jams there is nothing to draw.
  bool enabled() const noexcept {
    return edge_loss_ppm != 0 || !crashes.empty() || !jams.empty();
  }

  /// Empty string iff the plan is well-formed for an n-node execution:
  /// loss <= 10^6 ppm, every window non-empty (from >= 1, until >= from),
  /// every crash node < n.
  std::string validate(NodeId node_count) const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// The splitmix64 finalizer: the deterministic mixing primitive behind the
/// loss draw (and any other seeded per-round decision that must be
/// identical across thread counts and backends).
inline std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The edge-loss draw: true iff the delivery tx -> rx in `round` is dropped.
/// A pure function of its arguments — evaluation order, dispatch strategy,
/// and backend cannot change it.
inline bool fault_drops_delivery(std::uint64_t seed, std::uint64_t round,
                                 NodeId tx, NodeId rx,
                                 std::uint32_t loss_ppm) noexcept {
  if (loss_ppm == 0) return false;
  const std::uint64_t h =
      splitmix64(splitmix64(splitmix64(seed ^ round) ^ tx) ^ rx);
  return h % kLossDenominator < loss_ppm;
}

/// `parse_fault_plan` outcome.
struct ParsedFaultPlan {
  bool ok = false;
  FaultPlan plan;
  std::string error;  ///< non-empty iff !ok
};

/// Parses the CLI fault grammar: comma-separated clauses
///   edge-loss:P[:SEED]   P a probability in [0, 1] ("0.1") or a percentage
///                        ("10%"); SEED defaults to 0
///   crash:V:R0:R1        node V crashed for rounds [R0, R1]
///   jam:R0[:R1]          rounds [R0, R1] jammed (R1 defaults to R0)
/// e.g. "edge-loss:0.1:7,crash:3:10:20,jam:5,jam:40:42".
ParsedFaultPlan parse_fault_plan(std::string_view text);

/// Renders a plan back into the clause grammar (diagnostics / round trip).
std::string format_fault_plan(const FaultPlan& plan);

/// Per-execution fault state: the engine owns one iff its plan is enabled.
/// `begin_round` must be called once per round with consecutive round
/// numbers (1, 2, ...); it advances the crash/jam event cursors.
class FaultSession {
 public:
  /// The plan must satisfy `plan.validate(node_count).empty()`.
  FaultSession(const FaultPlan& plan, NodeId node_count);

  /// Advances to `round`, updating crash and jam state.  Appends the nodes
  /// that restart *this* round (crashed through round-1, alive again now)
  /// to `restarted`, ascending.
  void begin_round(std::uint64_t round, std::vector<NodeId>& restarted);

  bool any_crashed() const noexcept { return crashed_count_ > 0; }
  bool crashed(NodeId v) const { return crash_depth_[v] != 0; }
  /// First round of v's current merged crash window — or, once v has
  /// restarted, of the window it just left (0 = never crashed).  Windows
  /// that overlap or touch merge, so this is the round v went down, not
  /// the start of the last clause that kept it down.
  std::uint64_t crashed_since(NodeId v) const { return crash_from_[v]; }
  /// True iff the round passed to the last `begin_round` is jammed.
  bool jammed() const noexcept { return jam_depth_ > 0; }

  /// The edge-loss draw for this session's plan.
  bool drops(std::uint64_t round, NodeId tx, NodeId rx) const noexcept {
    return fault_drops_delivery(seed_, round, tx, rx, loss_ppm_);
  }

  // -- fault observables ----------------------------------------------------
  void count_lost(std::uint64_t k) noexcept { lost_deliveries_ += k; }
  void count_jammed_round() noexcept { ++jammed_rounds_; }
  std::uint64_t lost_deliveries() const noexcept { return lost_deliveries_; }
  std::uint64_t jammed_rounds() const noexcept { return jammed_rounds_; }

 private:
  enum class EventKind : std::uint8_t { kCrash, kRestart, kJamOn, kJamOff };
  struct Event {
    std::uint64_t round = 0;
    EventKind kind = EventKind::kCrash;
    NodeId node = 0;
  };

  std::uint32_t loss_ppm_ = 0;
  std::uint64_t seed_ = 0;
  std::vector<Event> events_;  ///< sorted by (round, kind, node)
  std::size_t next_event_ = 0;
  std::vector<std::uint8_t> crash_depth_;  ///< overlapping-window counter
  std::vector<std::uint64_t> crash_from_;  ///< see crashed_since()
  std::size_t crashed_count_ = 0;
  std::size_t jam_depth_ = 0;
  std::uint64_t lost_deliveries_ = 0;
  std::uint64_t jammed_rounds_ = 0;
};

}  // namespace radiocast::sim
