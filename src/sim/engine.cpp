#include "sim/engine.hpp"

#include <algorithm>
#include <numeric>

#include "parallel/parallel_for.hpp"

namespace radiocast::sim {

Engine::Engine(const graph::Graph& g,
               std::vector<std::unique_ptr<Protocol>> protocols,
               EngineOptions options)
    : graph_(g),
      protocols_(std::move(protocols)),
      options_(options),
      backend_(make_engine_backend(g, options.backend, options.threads)) {
  RC_EXPECTS_MSG(protocols_.size() == g.node_count(),
                 "one protocol per vertex required");
  for (const auto& p : protocols_) RC_EXPECTS(p != nullptr);
  const auto n = g.node_count();
  first_data_.assign(n, 0);
  tx_count_.assign(n, 0);
  rx_count_.assign(n, 0);
  informed_.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (protocols_[v]->informed()) {
      informed_[v] = 1;
      ++informed_count_;
    }
  }

  dispatch_workers_ = resolve_thread_count(options_.threads);

  // Resolve the dispatch strategy.  kAuto upgrades to the active set iff any
  // protocol declares an activity hint, so populations of hint-less
  // protocols keep the zero-overhead scan.
  dispatch_ = options_.dispatch;
  std::vector<std::uint64_t> initial_hints;
  if (dispatch_ != DispatchKind::kScan) {
    initial_hints.reserve(n);
    bool any_hint = false;
    for (NodeId v = 0; v < n; ++v) {
      const auto h = protocols_[v]->next_active_round();
      initial_hints.push_back(h);
      any_hint = any_hint || h != Protocol::kAlwaysActive;
    }
    if (dispatch_ == DispatchKind::kAuto) {
      dispatch_ = any_hint ? DispatchKind::kActiveSet : DispatchKind::kScan;
    }
  }
  if (dispatch_ == DispatchKind::kActiveSet) {
    wake_round_.assign(n, kNoWake);
    local_round_.assign(n, 0);
    calendar_.resize(kCalendarSlots);
    for (NodeId v = 0; v < n; ++v) {
      const auto h = initial_hints[v];
      if (h == Protocol::kIdle) continue;
      schedule_wake(v, h == Protocol::kAlwaysActive ? 1 : h);
    }
    if (options_.post_hear_hint) {
      post_hear_.resize(n);
      for (NodeId v = 0; v < n; ++v) {
        post_hear_[v] = protocols_[v]->wants_post_hear_hint() ? 1 : 0;
      }
    }
  } else {
    all_nodes_.resize(n);
    std::iota(all_nodes_.begin(), all_nodes_.end(), NodeId{0});
  }

  if (options_.faults.enabled()) {
    const std::string problem = options_.faults.validate(n);
    RC_EXPECTS_MSG(problem.empty(), "invalid fault plan");
    fault_session_ = std::make_unique<FaultSession>(options_.faults, n);
    // Crashed nodes miss polls in any dispatch mode, so clocks must be
    // tracked even under kScan to restore them on restart.
    if (local_round_.empty()) local_round_.assign(n, 0);
  }
  clocked_ = dispatch_ == DispatchKind::kActiveSet || fault_session_ != nullptr;
}

std::uint64_t Engine::max_tx_count() const {
  std::uint64_t best = 0;
  for (const auto c : tx_count_) best = std::max(best, c);
  return best;
}

void Engine::schedule_wake(NodeId v, std::uint64_t r) {
  RC_ASSERT(r > round_);
  if (wake_round_[v] <= r) return;  // an earlier-or-equal wake is queued
  wake_round_[v] = r;
  if (r < round_ + kCalendarSlots) {
    calendar_[r % kCalendarSlots].push_back(v);
  } else {
    far_wakes_.emplace(r, v);
  }
}

void Engine::gather_woken() {
  woken_.clear();
  // Move far wakes whose round entered the ring window into their bucket.
  // Entries are lazily deleted: wake_round_ is the ground truth, so a node
  // re-armed to an earlier round leaves a stale entry behind that simply
  // fails the equality check when drained or popped.
  while (!far_wakes_.empty() &&
         far_wakes_.top().first < round_ + kCalendarSlots) {
    const auto [r, v] = far_wakes_.top();
    far_wakes_.pop();
    if (wake_round_[v] == r) calendar_[r % kCalendarSlots].push_back(v);
  }
  auto& bucket = calendar_[round_ % kCalendarSlots];
  for (const NodeId v : bucket) {
    if (wake_round_[v] == round_) {
      // Clearing the wake also deduplicates: a second entry for the same
      // (node, round) no longer matches.
      wake_round_[v] = kNoWake;
      woken_.push_back(v);
    }
  }
  bucket.clear();
  // Bucket pushes arrive as a few ascending runs (poll order, then delivery
  // order), so the list is usually already sorted; backends require strictly
  // increasing transmitter ids, which polling in id order guarantees.
  if (!std::is_sorted(woken_.begin(), woken_.end())) {
    std::sort(woken_.begin(), woken_.end());
  }
}

std::uint64_t Engine::poll_node(
    NodeId v, std::vector<std::pair<NodeId, Message>>& decisions,
    std::uint64_t& max_stamp) {
  Protocol& p = *protocols_[v];
  const bool active = dispatch_ == DispatchKind::kActiveSet;
  if (clocked_) {
    // Restore the rounds skipped while the node slept (or was crashed);
    // on_round advances the clock over the current round itself.
    if (local_round_[v] + 1 < round_) {
      p.skip_rounds(round_ - 1 - local_round_[v]);
    }
    local_round_[v] = round_;
  }
  if (auto msg = p.on_round()) {
    if (msg->stamp && *msg->stamp > max_stamp) max_stamp = *msg->stamp;
    decisions.emplace_back(v, *msg);
  }
  return active ? p.next_active_round() : Protocol::kAlwaysActive;
}

void Engine::sync_clock(NodeId v) {
  if (local_round_[v] < round_) {
    protocols_[v]->skip_rounds(round_ - local_round_[v]);
    local_round_[v] = round_;
  }
}

void Engine::rearm_after_event(NodeId v) {
  // Blanket rule: every reception may change what a protocol does next, so
  // the node is polled next round.  Opted-in protocols (wants_post_hear_hint)
  // answer next_active_round accurately right after the event, so dense
  // receptions stop churning the calendar with wasted next-round polls.
  if (!post_hear_.empty() && post_hear_[v]) {
    const auto h = protocols_[v]->next_active_round();
    if (h == Protocol::kIdle) return;
    schedule_wake(v, h == Protocol::kAlwaysActive ? round_ + 1 : h);
    return;
  }
  schedule_wake(v, round_ + 1);
}

void Engine::collect_decisions(std::span<const NodeId> to_poll) {
  polls_total_ += to_poll.size();
  const bool active = dispatch_ == DispatchKind::kActiveSet;
  const bool shard = to_poll.size() >= options_.dispatch_shard_min_polls &&
                     dispatch_workers_ >= 2;

  if (!shard) {
    if (!clocked_) {
      // Serial scan: the seed's tight loop, no calendar or clock bookkeeping.
      for (const NodeId v : to_poll) {
        if (auto msg = protocols_[v]->on_round()) {
          if (msg->stamp && *msg->stamp > max_stamp_) max_stamp_ = *msg->stamp;
          decisions_.emplace_back(v, *msg);
        }
      }
      return;
    }
    for (const NodeId v : to_poll) {
      const auto hint = poll_node(v, decisions_, max_stamp_);
      if (active && hint != Protocol::kIdle) {
        schedule_wake(v, hint == Protocol::kAlwaysActive ? round_ + 1 : hint);
      }
    }
    return;
  }

  // Dense round: shard the sweep over fixed contiguous poll-list ranges.
  // Protocol objects are per-node, so polls on distinct nodes are
  // independent; concatenating the shard sinks in range order reproduces the
  // serial sweep's output exactly.  Scheduling mutates the shared calendar,
  // so hints are recorded per poll-list slot and applied serially below.
  if (!dispatch_pool_) {
    dispatch_pool_ = std::make_unique<par::ThreadPool>(dispatch_workers_);
  }
  const std::size_t shard_count = dispatch_pool_->thread_count();
  sweep_shards_.resize(shard_count);
  if (active) hints_scratch_.resize(to_poll.size());
  const std::size_t chunk = (to_poll.size() + shard_count - 1) / shard_count;
  par::parallel_for(*dispatch_pool_, shard_count, [&](std::size_t s) {
    const std::size_t begin = std::min(s * chunk, to_poll.size());
    const std::size_t end = std::min(begin + chunk, to_poll.size());
    SweepShard& sink = sweep_shards_[s];
    sink.decisions.clear();
    sink.max_stamp = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const auto hint = poll_node(to_poll[i], sink.decisions, sink.max_stamp);
      if (active) hints_scratch_[i] = hint;
    }
  });
  for (SweepShard& sink : sweep_shards_) {
    for (auto& d : sink.decisions) decisions_.push_back(std::move(d));
    max_stamp_ = std::max(max_stamp_, sink.max_stamp);
  }
  if (active) {
    for (std::size_t i = 0; i < to_poll.size(); ++i) {
      const auto hint = hints_scratch_[i];
      if (hint == Protocol::kIdle) continue;
      schedule_wake(to_poll[i],
                    hint == Protocol::kAlwaysActive ? round_ + 1 : hint);
    }
  }
}

void Engine::apply_faults(bool want_collisions) {
  FaultSession& fs = *fault_session_;
  if (fs.jammed()) {
    // Adversarial jam: everything the backend resolved is noise.  When an
    // observer consumes collision lists, every non-transmitting, non-crashed
    // node senses the jam (the adversary is "one more neighbour talking" —
    // even on a round with no legitimate transmitter).
    fs.count_jammed_round();
    resolution_.deliveries.clear();
    resolution_.collisions.clear();
    if (want_collisions) {
      const auto n = static_cast<NodeId>(protocols_.size());
      std::size_t t = 0;
      for (NodeId v = 0; v < n; ++v) {
        if (t < tx_ids_.size() && tx_ids_[t] == v) {
          ++t;
          continue;
        }
        if (!fs.crashed(v)) resolution_.collisions.push_back(v);
      }
    }
    return;
  }
  if (!resolution_.deliveries.empty()) {
    std::uint64_t lost = 0;
    std::erase_if(resolution_.deliveries, [&](const auto& delivery) {
      const auto [w, tx_index] = delivery;
      if (fs.crashed(w)) return true;  // crash suppression, not edge loss
      if (fs.drops(round_, tx_ids_[tx_index], w)) {
        ++lost;
        return true;
      }
      return false;
    });
    fs.count_lost(lost);
  }
  if (fs.any_crashed() && !resolution_.collisions.empty()) {
    std::erase_if(resolution_.collisions,
                  [&fs](NodeId w) { return fs.crashed(w); });
  }
}

bool Engine::step() {
  ++round_;

  // Phase 0 (faults only): advance crash/jam state and recover restarts.
  // A restarting node kept its protocol state but missed every crashed
  // round; catch its clock up to round_-1, notify it (with the round its
  // merged crash window began), then poll it this round like any awake
  // node (kScan lists it naturally; kActiveSet merges it into the woken set
  // below — its calendar wake may have fired, and been consumed,
  // mid-crash).
  if (fault_session_) {
    restarted_.clear();
    fault_session_->begin_round(round_, restarted_);
    for (const NodeId v : restarted_) {
      if (local_round_[v] + 1 < round_) {
        protocols_[v]->skip_rounds(round_ - 1 - local_round_[v]);
      }
      local_round_[v] = round_ - 1;
      protocols_[v]->on_restart(fault_session_->crashed_since(v));
    }
  }

  // Phase 1: collect decisions in lockstep.  No delivery happens until every
  // node has decided, so protocols cannot observe same-round transmissions.
  // kScan polls everyone; kActiveSet polls only calendar-woken nodes — a
  // skipped poll is contractually a nullopt with no state change, so both
  // produce identical decision vectors.  Crashed nodes are not polled at
  // all (their consumed wakes are re-armed by the restart force-poll).
  decisions_.clear();
  tx_ids_.clear();
  if (dispatch_ == DispatchKind::kScan) {
    if (fault_session_ && fault_session_->any_crashed()) {
      scan_scratch_.clear();
      for (const NodeId v : all_nodes_) {
        if (!fault_session_->crashed(v)) scan_scratch_.push_back(v);
      }
      collect_decisions(scan_scratch_);
    } else {
      collect_decisions(all_nodes_);
    }
  } else {
    gather_woken();
    if (fault_session_) {
      if (fault_session_->any_crashed()) {
        // A crashed node's wake fired into the void: gather_woken already
        // cleared wake_round_, so dropping it here consumes the wake.
        std::erase_if(woken_, [this](NodeId v) {
          return fault_session_->crashed(v);
        });
      }
      if (!restarted_.empty()) {
        bool merged = false;
        for (const NodeId v : restarted_) {
          if (!std::binary_search(woken_.begin(), woken_.end(), v)) {
            woken_.push_back(v);
            merged = true;
          }
        }
        if (merged) std::sort(woken_.begin(), woken_.end());
      }
    }
    if (!woken_.empty()) collect_decisions(woken_);
  }
  for (const auto& [t, msg] : decisions_) tx_ids_.push_back(t);

  // Phase 2: backend-resolved outcome — who hears which transmitter, who
  // sits under a collision.  Collision lists are only materialized when an
  // observer (trace or the CD signal) will consume them; a fully silent
  // round skips resolution entirely (and, under kActiveSet, has done no
  // protocol work at all).
  const bool record_full = options_.trace == TraceLevel::kFull;
  if (tx_ids_.empty()) {
    resolution_.clear();
  } else {
    backend_->resolve(tx_ids_, record_full || options_.collision_detection,
                      resolution_);
  }

  // Phase 2.5 (faults only): filter the backend's ground truth — crashed
  // listeners hear nothing, lossy edges drop deliveries, jammed rounds
  // turn everything into collision/silence.  Runs even on a transmission-
  // free round: a jam is an adversarial transmitter, so collision-detecting
  // listeners still sense it.
  if (fault_session_) {
    apply_faults(record_full || options_.collision_detection);
  }

  // Phase 3: deliver.  Sleeping listeners get their local clock restored
  // before the event and re-armed: by default for the next round (every
  // reception can change what a protocol does next), or — for protocols
  // that opt into the post-hear hint — from a fresh next_active_round()
  // query, so a reception that provably enables nothing schedules nothing.
  RoundRecord record;
  if (record_full) record.transmissions = decisions_;
  const bool active = dispatch_ == DispatchKind::kActiveSet;

  for (const auto& [w, tx_index] : resolution_.deliveries) {
    const Message& m = decisions_[tx_index].second;
    if (clocked_) sync_clock(w);
    protocols_[w]->on_hear(m);
    ++rx_count_[w];
    if (m.kind == MsgKind::kData && first_data_[w] == 0) {
      first_data_[w] = round_;
    }
    refresh_informed(w);
    if (active) rearm_after_event(w);
    if (record_full) record.deliveries.emplace_back(w, m);
  }
  if (options_.collision_detection) {
    for (const NodeId w : resolution_.collisions) {
      if (clocked_) sync_clock(w);
      protocols_[w]->on_collision();
      refresh_informed(w);
      if (active) rearm_after_event(w);
    }
  }
  if (record_full) record.collisions = resolution_.collisions;

  tx_total_ += decisions_.size();
  for (const auto& [t, msg] : decisions_) {
    ++tx_count_[t];
    ++tx_by_kind_[static_cast<std::size_t>(msg.kind)];
  }
  silent_streak_ = decisions_.empty() ? silent_streak_ + 1 : 0;
  if (record_full) trace_.push(std::move(record));
  return !decisions_.empty();
}

bool Engine::all_informed() const {
  // Below the cursor every node has been seen informed (monotone by
  // contract); above it, delivery-time refreshes let the walk skip by flag.
  // Each node is probed until it first reports informed, so a stalled
  // broadcast costs one virtual call per query — the seed's early-exit —
  // and a completed one costs nothing after the cursor reaches n.
  const auto n = static_cast<NodeId>(protocols_.size());
  while (informed_cursor_ < n) {
    const NodeId v = informed_cursor_;
    if (!informed_[v]) {
      if (!protocols_[v]->informed()) return false;
      informed_[v] = 1;
      ++informed_count_;
    }
    ++informed_cursor_;
  }
  return true;
}

std::uint32_t Engine::informed_count() const {
  const auto n = static_cast<NodeId>(protocols_.size());
  for (NodeId v = informed_cursor_; v < n; ++v) {
    if (!informed_[v] && protocols_[v]->informed()) {
      informed_[v] = 1;
      ++informed_count_;
    }
  }
  return static_cast<std::uint32_t>(informed_count_);
}

std::uint64_t Engine::last_first_data_reception() const {
  std::uint64_t last = 0;
  for (const auto r : first_data_) last = std::max(last, r);
  return last;
}

const Trace& Engine::trace() const {
  RC_EXPECTS_MSG(options_.trace == TraceLevel::kFull,
                 "full trace was not recorded; construct Engine with "
                 "TraceLevel::kFull");
  return trace_;
}

Trace Engine::take_trace() {
  RC_EXPECTS_MSG(options_.trace == TraceLevel::kFull,
                 "full trace was not recorded; construct Engine with "
                 "TraceLevel::kFull");
  return std::move(trace_);
}

}  // namespace radiocast::sim
