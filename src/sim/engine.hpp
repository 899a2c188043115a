/// \file engine.hpp
/// \brief Synchronous radio-network round engine.
///
/// Implements the model of paper §1.1 exactly:
///  - all nodes act in lockstep rounds;
///  - a listening node hears a message iff **exactly one** neighbour
///    transmits that round;
///  - collisions are indistinguishable from silence (the protocol callback is
///    simply not invoked — there is no collision-detection signal);
///  - a transmitting node hears nothing in that round.
///
/// The engine is a thin facade over two pluggable strategies:
///
///  - **Round resolution** (`EngineBackend`, sim/backend.hpp): given the
///    transmitter set, who hears what.  Scalar CSR walk, bit-parallel dense
///    stepping, or the multi-core sharded variant; `EngineOptions::backend`
///    selects one (kAuto picks by density), every backend is bit-exact.
///  - **Protocol dispatch** (`DispatchKind`, sim/dispatch.hpp): how the
///    per-round decisions are collected.  `kScan` polls all n protocols
///    every round (seed behaviour); `kActiveSet` keeps a calendar queue of
///    wake rounds fed by the `Protocol` activity contract and polls only
///    woken nodes, so dispatch cost tracks activity instead of n.  Dense
///    rounds (>= `dispatch_shard_min_polls` polls with >= 2 worker threads)
///    shard the sweep over an engine-owned thread pool with fixed node
///    ranges concatenated in order — decisions, traces, and counters stay
///    bit-exact with the serial scan in every mode.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <queue>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/backend.hpp"
#include "sim/dispatch.hpp"
#include "sim/faults.hpp"
#include "sim/protocol.hpp"
#include "sim/trace.hpp"

namespace radiocast::sim {

/// How much ground truth to record.
enum class TraceLevel : std::uint8_t {
  kCounters,  ///< per-node first-data-reception round + global counters only
  kFull,      ///< full per-round transmissions/deliveries/collisions
};

struct EngineOptions {
  TraceLevel trace = TraceLevel::kCounters;
  /// When true, a listener with >= 2 transmitting neighbours receives the
  /// `on_collision()` signal (noise distinguishable from silence).  The
  /// paper's model sets this to false; §1.1's "trivially feasible with
  /// collision detection" remark is reproduced with it on.
  bool collision_detection = false;
  /// Round-resolution backend; kAuto selects by graph density and size.
  BackendKind backend = BackendKind::kAuto;
  /// Worker threads for the sharded backend and the sharded decision sweep
  /// (0 = hardware concurrency).  kAuto backend selection uses it too.
  std::size_t threads = 0;
  /// Protocol-dispatch strategy; kAuto picks kActiveSet iff any protocol
  /// provides an activity hint at construction, kScan otherwise.
  DispatchKind dispatch = DispatchKind::kAuto;
  /// Polls per round before the decision sweep is sharded over the dispatch
  /// pool (needs >= 2 workers).  Exposed so tests can force the threshold.
  std::size_t dispatch_shard_min_polls = kDispatchShardMinPolls;
  /// Deterministic fault injection (sim/faults.hpp): edge loss, crash
  /// windows, jam rounds.  Applied between backend round-resolution and
  /// delivery, so the backends stay bit-exact; a disabled plan (the default)
  /// leaves every engine code path byte-identical to the unfaulted engine.
  FaultPlan faults = {};
  /// kActiveSet only: honor `Protocol::wants_post_hear_hint()` — re-query
  /// `next_active_round()` after each delivered event instead of blindly
  /// re-arming the listener for the next round.  Traces are identical either
  /// way (the strengthened hint contract guarantees skipped polls are
  /// no-ops); off exists for A/B measurement of the re-arm cost.
  bool post_hear_hint = true;
};

class Engine {
 public:
  /// One protocol instance per vertex; `protocols[v]` runs at vertex v.
  Engine(const graph::Graph& g,
         std::vector<std::unique_ptr<Protocol>> protocols,
         EngineOptions options = {});

  /// Executes one round.  Returns true iff at least one node transmitted.
  bool step();

  /// Runs until `pred(*this)` holds (checked after every round) or
  /// `max_rounds` rounds have elapsed.  Returns the number of the round after
  /// which the predicate first held, or 0 if it never did within the budget.
  ///
  /// Contract: 0 is unambiguously "predicate never held".  Rounds are
  /// 1-based (`step()` pre-increments), so a held predicate always reports a
  /// round >= 1, and `max_rounds == 0` is an explicit no-op budget — no
  /// round runs and 0 is returned without touching any protocol.
  template <typename Pred>
  std::uint64_t run_until(Pred&& pred, std::uint64_t max_rounds) {
    if (max_rounds == 0) return 0;
    while (round_ < max_rounds) {
      step();
      if (pred(*this)) return round_;
    }
    return 0;
  }

  /// Rounds executed so far (the last completed round number, 1-based).
  std::uint64_t round() const noexcept { return round_; }

  /// True iff every protocol reports `informed()`.  Amortized O(1): the
  /// engine maintains an incremental informed counter (receptions refresh
  /// it eagerly; informed() is monotone by contract) plus a cursor that
  /// walks each node at most once across the whole execution — the per-call
  /// cost is one virtual informed() probe at the first unresolved node,
  /// matching the seed's early-exit scan without its O(n) worst case.
  bool all_informed() const;

  /// Number of informed protocols.  Exact: lazily reconciles nodes whose
  /// informed-ness changed inside on_round (possible in collision-detection
  /// protocols that decode silence, e.g. the beep baseline) by probing the
  /// still-unmarked tail — O(uninformed), never worse than the seed's full
  /// scan.
  std::uint32_t informed_count() const;

  /// Round of `v`'s first successful reception of a kData message (0 = never).
  /// Maintained at every trace level.
  std::uint64_t first_data_reception(NodeId v) const {
    RC_EXPECTS(v < first_data_.size());
    return first_data_[v];
  }

  /// Largest round in which any node first received kData (0 if none did).
  std::uint64_t last_first_data_reception() const;

  /// Total transmissions so far (all kinds).
  std::uint64_t transmissions_total() const noexcept { return tx_total_; }

  /// Transmissions of one message kind so far, at every trace level.
  std::uint64_t transmissions_of(MsgKind kind) const noexcept {
    return tx_by_kind_[static_cast<std::size_t>(kind)];
  }

  /// Total `on_round()` polls issued so far — the dispatch-cost observable
  /// the active-set strategy minimizes (kScan pays n per round).
  std::uint64_t polls_total() const noexcept { return polls_total_; }

  /// Per-node energy accounting (always maintained): number of rounds `v`
  /// transmitted / successfully received.  The paper motivates short labels
  /// with weak devices; transmission duty cycle is the other battery cost.
  std::uint64_t tx_count(NodeId v) const {
    RC_EXPECTS(v < tx_count_.size());
    return tx_count_[v];
  }
  std::uint64_t rx_count(NodeId v) const {
    RC_EXPECTS(v < rx_count_.size());
    return rx_count_[v];
  }
  /// Maximum per-node transmission count (worst duty cycle in the network).
  std::uint64_t max_tx_count() const;

  /// Rounds with no transmission since the last transmitting round.
  std::uint64_t silent_streak() const noexcept { return silent_streak_; }

  /// Fault observables (0 unless `EngineOptions::faults` is enabled):
  /// deliveries dropped by the Bernoulli edge-loss draw, and rounds
  /// suppressed by a jam window.
  std::uint64_t faults_lost_deliveries() const noexcept {
    return fault_session_ ? fault_session_->lost_deliveries() : 0;
  }
  std::uint64_t faults_jammed_rounds() const noexcept {
    return fault_session_ ? fault_session_->jammed_rounds() : 0;
  }

  /// Maximum stamp value ever put on the wire (message-size accounting).
  std::uint64_t max_stamp_seen() const noexcept { return max_stamp_; }

  const Trace& trace() const;

  /// Moves the recorded trace out (kFull only).  For callers that outlive
  /// a short-lived engine and want the ground truth without the deep copy
  /// `trace()` would force; the engine's trace is empty afterwards.
  Trace take_trace();

  Protocol& protocol(NodeId v) {
    RC_EXPECTS(v < protocols_.size());
    return *protocols_[v];
  }
  const Protocol& protocol(NodeId v) const {
    RC_EXPECTS(v < protocols_.size());
    return *protocols_[v];
  }

  const graph::Graph& graph() const noexcept { return graph_; }

  /// The backend actually in use (kAuto is resolved at construction).
  BackendKind backend_kind() const noexcept { return backend_->kind(); }
  const char* backend_name() const noexcept { return backend_->name(); }

  /// The dispatch strategy actually in use (kAuto resolved at construction).
  DispatchKind dispatch_kind() const noexcept { return dispatch_; }

 private:
  /// Calendar ring size: wake rounds within this many rounds of the present
  /// live in per-round buckets; farther wakes wait in a min-heap and are
  /// drained into the ring as their round approaches.
  static constexpr std::size_t kCalendarSlots = 64;
  /// wake_round_ value: not scheduled (idle until a reception re-arms).
  static constexpr std::uint64_t kNoWake = ~std::uint64_t{0};

  /// Fills `woken_` with the ids to poll this round, ascending (kActiveSet).
  void gather_woken();
  /// Queues node v for an `on_round` poll in (future) round r.
  void schedule_wake(NodeId v, std::uint64_t r);
  /// Polls protocol v for the current round and records its decision into
  /// the sink vectors; returns the post-poll activity hint (kActiveSet).
  std::uint64_t poll_node(NodeId v,
                          std::vector<std::pair<NodeId, Message>>& decisions,
                          std::uint64_t& max_stamp);
  /// Catches protocol v's local clock up to the current round before an
  /// event delivery (kActiveSet; no-op when v was polled this round).
  void sync_clock(NodeId v);
  /// Re-arms node v after a delivered event: the blanket next-round poll, or
  /// a fresh `next_active_round()` hint for post-hear-hint protocols.
  void rearm_after_event(NodeId v);
  /// Collects this round's decisions from `to_poll` (ascending ids) into
  /// `decisions_`/`tx_ids_`, serially or sharded over the dispatch pool.
  void collect_decisions(std::span<const NodeId> to_poll);
  /// Filters `resolution_` through the fault session (crash suppression,
  /// Bernoulli loss, jam); `want_collisions` says whether a jammed round
  /// must materialize its all-listeners collision list.
  void apply_faults(bool want_collisions);
  /// Marks v informed in the incremental counter if its protocol now is.
  void refresh_informed(NodeId v) {
    if (!informed_[v] && protocols_[v]->informed()) {
      informed_[v] = 1;
      ++informed_count_;
    }
  }

  const graph::Graph& graph_;
  std::vector<std::unique_ptr<Protocol>> protocols_;
  EngineOptions options_;
  std::unique_ptr<EngineBackend> backend_;
  Trace trace_;

  std::uint64_t round_ = 0;
  std::uint64_t tx_total_ = 0;
  std::array<std::uint64_t, kMsgKindCount> tx_by_kind_{};
  std::uint64_t polls_total_ = 0;
  std::uint64_t silent_streak_ = 0;
  std::uint64_t max_stamp_ = 0;
  std::vector<std::uint64_t> first_data_;
  std::vector<std::uint64_t> tx_count_;
  std::vector<std::uint64_t> rx_count_;

  // Incremental informed tracking (see all_informed()).  Mutable: the
  // observers reconcile lazily, marking nodes whose protocols turned
  // informed since the last delivery-time refresh.
  mutable std::vector<std::uint8_t> informed_;
  mutable std::size_t informed_count_ = 0;
  mutable NodeId informed_cursor_ = 0;

  // Dispatch state.  kScan polls `all_nodes_` every round; kActiveSet keeps
  // the calendar: wake_round_[v] is the ground truth (kNoWake = idle), the
  // ring buckets + far-wake heap index it by round with lazy deletion, and
  // local_round_[v] tracks each protocol's clock so skipped rounds are
  // restored via Protocol::skip_rounds before the next call.
  DispatchKind dispatch_ = DispatchKind::kScan;
  /// True iff local_round_ clocks are maintained: kActiveSet always, and any
  /// dispatch mode when faults are enabled (a crashed node misses polls, so
  /// even kScan must restore its clock via skip_rounds on restart).
  bool clocked_ = false;
  /// resolve_thread_count(options_.threads), cached — querying hardware
  /// concurrency is a syscall, far too slow for the per-round path.
  std::size_t dispatch_workers_ = 1;
  std::vector<NodeId> all_nodes_;
  /// Per-node `wants_post_hear_hint()` opt-in (kActiveSet with
  /// `options_.post_hear_hint` only; empty otherwise): deliveries to these
  /// nodes re-arm from a fresh hint instead of the blanket next-round poll.
  std::vector<std::uint8_t> post_hear_;
  std::vector<NodeId> woken_;
  std::vector<std::uint64_t> wake_round_;
  std::vector<std::uint64_t> local_round_;
  std::vector<std::vector<NodeId>> calendar_;
  std::priority_queue<std::pair<std::uint64_t, NodeId>,
                      std::vector<std::pair<std::uint64_t, NodeId>>,
                      std::greater<>>
      far_wakes_;

  // Sharded decision sweep: lazily created pool + per-shard reused sinks.
  // Workers never share a sink; `hints_scratch_[i]` (parallel to the poll
  // list) is written by exactly one worker and read serially afterwards.
  struct SweepShard {
    std::vector<std::pair<NodeId, Message>> decisions;
    std::uint64_t max_stamp = 0;
  };
  std::unique_ptr<par::ThreadPool> dispatch_pool_;
  std::vector<SweepShard> sweep_shards_;
  std::vector<std::uint64_t> hints_scratch_;

  // Fault injection: owned session iff options_.faults.enabled(), plus
  // per-round scratch (nodes restarting this round; the kScan poll list
  // with crashed nodes removed).
  std::unique_ptr<FaultSession> fault_session_;
  std::vector<NodeId> restarted_;
  std::vector<NodeId> scan_scratch_;

  // Scratch reused across rounds.
  std::vector<std::pair<NodeId, Message>> decisions_;
  std::vector<NodeId> tx_ids_;
  RoundResolution resolution_;
};

}  // namespace radiocast::sim
