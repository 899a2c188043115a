#include "onebit/labeler.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace radiocast::onebit {

namespace {

/// Shared dynamics state for one stage-by-stage replay / construction.
struct Wave {
  explicit Wave(const Graph& g, NodeId source)
      : graph(g),
        informed(g.node_count(), false),
        in_set(g.node_count(), false) {
    informed[source] = true;
    tx = {source};
    fresh = unique_hearers(tx);
    for (const NodeId v : fresh) informed[v] = true;
    informed_count = 1 + static_cast<std::uint32_t>(fresh.size());
  }

  /// Nodes that hear uniquely from `transmitters` while uninformed.
  std::vector<NodeId> unique_hearers(const std::vector<NodeId>& transmitters) {
    std::vector<NodeId> out;
    std::vector<std::uint32_t>& cnt = scratch_count;
    cnt.assign(graph.node_count(), 0);
    for (const NodeId t : transmitters) {
      for (const NodeId w : graph.neighbors(t)) ++cnt[w];
    }
    for (const NodeId t : transmitters) cnt[t] = 0;  // transmitters cannot hear
    for (NodeId v = 0; v < graph.node_count(); ++v) {
      if (!informed[v] && cnt[v] == 1) out.push_back(v);
    }
    return out;
  }

  /// Applies a designator choice B ⊆ fresh: advances one stage.
  /// Returns false on stall (no newly informed node while some remain).
  bool advance(const std::vector<NodeId>& designators) {
    // T_{i+1} = B ∪ { v ∈ T_i : |Γ(v) ∩ B| = 1 }.
    for (const NodeId b : designators) in_set[b] = true;
    std::vector<NodeId> next_tx = designators;
    for (const NodeId v : tx) {
      std::uint32_t c = 0;
      for (const NodeId w : graph.neighbors(v)) {
        if (in_set[w]) ++c;
      }
      if (c == 1) next_tx.push_back(v);
    }
    for (const NodeId b : designators) in_set[b] = false;
    std::sort(next_tx.begin(), next_tx.end());

    tx = std::move(next_tx);
    fresh = unique_hearers(tx);
    for (const NodeId v : fresh) informed[v] = true;
    informed_count += static_cast<std::uint32_t>(fresh.size());
    return !fresh.empty() || informed_count == graph.node_count();
  }

  bool done() const { return informed_count == graph.node_count(); }

  const Graph& graph;
  std::vector<bool> informed;
  std::vector<bool> in_set;  // scratch membership flags
  std::vector<std::uint32_t> scratch_count;
  std::vector<NodeId> tx;     ///< T_i: µ transmitters of the current odd round
  std::vector<NodeId> fresh;  ///< NEW_i: just informed by T_i
  std::uint32_t informed_count = 0;
};

/// Greedy designator selection for one stage.
///
/// Full frontier coverage can be self-defeating: covering every frontier node
/// at once may force two designators next to the same node, which then
/// *collides* forever (radio semantics), while deferring it one wave would
/// have informed it cleanly.  So instead of set-cover we greedily maximize
/// the exact number of frontier nodes that will hear uniquely next round,
/// simulating the full transmitter set T' = B ∪ {v ∈ T : |Γ(v) ∩ B| = 1} for
/// every candidate designator set B ⊆ NEW.  ε-greedy randomization (driven by
/// `rng`) lets restarts escape local optima.
std::vector<NodeId> choose_designators(Wave& w, Rng& rng) {
  const Graph& g = w.graph;

  // Frontier reachable by the next wave: uninformed neighbours of T ∪ NEW.
  std::vector<NodeId> frontier;
  {
    std::vector<bool> seen(g.node_count(), false);
    auto scan = [&](const std::vector<NodeId>& src) {
      for (const NodeId v : src) {
        for (const NodeId y : g.neighbors(v)) {
          if (!w.informed[y] && !seen[y]) {
            seen[y] = true;
            frontier.push_back(y);
          }
        }
      }
    };
    scan(w.tx);
    scan(w.fresh);
  }
  if (frontier.empty()) return {};

  std::vector<bool> chosen(g.node_count(), false);
  std::vector<NodeId> designators;

  // Score of a candidate designator set B (current `designators` plus the
  // hypothetical `extra`): #frontier nodes hearing exactly one transmitter of
  // T' = B ∪ retained(T), minus a dominant penalty per *stranded* frontier
  // node.  Stranding is the irreversibility hazard of 1-bit labels: a node
  // whose neighbours are all informed but none of them is in T' can never be
  // informed, because informed non-transmitters are permanently mute (a fresh
  // node not in B gets bit 0; a veteran that misses a stay beat retires).
  std::vector<std::uint32_t> cnt(g.node_count(), 0);
  std::vector<bool> in_next_tx(g.node_count(), false);
  auto objective = [&](NodeId extra) -> std::int64_t {
    for (const NodeId y : frontier) cnt[y] = 0;
    std::vector<NodeId> next_tx = designators;
    if (extra != graph::kNoNode) next_tx.push_back(extra);
    for (const NodeId v : w.tx) {
      std::uint32_t c = 0;
      for (const NodeId u : g.neighbors(v)) {
        if (chosen[u] || u == extra) ++c;
      }
      if (c == 1) next_tx.push_back(v);  // veteran retained by exactly one stay
    }
    for (const NodeId t : next_tx) {
      in_next_tx[t] = true;
      for (const NodeId y : g.neighbors(t)) {
        if (!w.informed[y]) ++cnt[y];
      }
    }
    std::int64_t unique = 0, stranded = 0;
    for (const NodeId y : frontier) {
      if (cnt[y] == 1) ++unique;
      bool doomed = true;
      for (const NodeId u : g.neighbors(y)) {
        if (!w.informed[u] || in_next_tx[u]) {
          doomed = false;
          break;
        }
      }
      if (doomed) ++stranded;
    }
    for (const NodeId t : next_tx) in_next_tx[t] = false;
    return unique - 1000 * stranded;
  };

  std::vector<NodeId> pool = w.fresh;
  rng.shuffle(pool);
  std::int64_t current = objective(graph::kNoNode);
  bool forced_once = false;
  for (std::size_t additions = 0; additions < pool.size(); ++additions) {
    NodeId best = graph::kNoNode;
    std::int64_t best_val = current;
    for (const NodeId v : pool) {
      if (chosen[v]) continue;
      const auto val = objective(v);
      if (val > best_val || (val == best_val && best != graph::kNoNode &&
                             rng.bernoulli(0.25))) {
        best_val = val;
        best = v;
      }
    }
    if (best == graph::kNoNode || best_val <= current) {
      // No single designator helps.  Once per stage, force a random pick so
      // pairs (designator + the veteran it retains) get a chance; restarts
      // randomize which one.
      if (!forced_once && current <= 0 && !pool.empty()) {
        forced_once = true;
        NodeId pick = pool[rng.below(pool.size())];
        if (!chosen[pick]) {
          chosen[pick] = true;
          designators.push_back(pick);
          current = objective(graph::kNoNode);
          continue;
        }
      }
      break;
    }
    chosen[best] = true;
    designators.push_back(best);
    current = best_val;
  }

  std::sort(designators.begin(), designators.end());
  return designators;
}

}  // namespace

std::uint64_t onebit_completion_round(const Graph& g, NodeId source,
                                      const std::vector<bool>& bits,
                                      std::uint64_t max_stages) {
  RC_EXPECTS(bits.size() == g.node_count());
  RC_EXPECTS(source < g.node_count());
  if (g.node_count() == 1) return 0;
  if (max_stages == 0) max_stages = 4ull * g.node_count() + 8;

  Wave w(g, source);
  std::uint64_t stage = 1;
  while (!w.done() && stage < max_stages) {
    std::vector<NodeId> designators;
    for (const NodeId v : w.fresh) {
      if (bits[v]) designators.push_back(v);
    }
    if (!w.advance(designators)) return 0;  // stalled
    ++stage;
  }
  return w.done() ? 2 * stage - 1 : 0;
}

OneBitResult find_onebit_labeling(const Graph& g, NodeId source,
                                  const OneBitOptions& opt) {
  OneBitResult out;
  RC_EXPECTS(source < g.node_count());
  if (g.node_count() == 1) {
    out.ok = true;
    out.bits.assign(1, false);
    return out;
  }
  const std::uint64_t max_stages =
      opt.max_stages ? opt.max_stages : 4ull * g.node_count() + 8;

  Rng master(opt.seed ^ 0x6f6e65626974ULL);
  for (std::uint32_t attempt = 0; attempt < opt.max_attempts; ++attempt) {
    Rng rng = master.split();
    ++out.attempts;

    Wave w(g, source);
    std::vector<bool> bits(g.node_count(), false);
    std::uint64_t stage = 1;
    bool failed = false;
    while (!w.done()) {
      if (++stage > max_stages) {
        failed = true;
        break;
      }
      const auto designators = choose_designators(w, rng);
      for (const NodeId b : designators) bits[b] = true;
      if (!w.advance(designators)) {
        failed = true;
        break;
      }
    }
    if (failed) continue;

    // Authoritative re-check of the closed-form dynamics (paranoia: the
    // construction and the replay must agree bit-for-bit).
    const auto completion =
        onebit_completion_round(g, source, bits, max_stages);
    if (completion == 0) continue;

    out.ok = true;
    out.bits = std::move(bits);
    out.completion_round = completion;
    out.stages = static_cast<std::uint32_t>(stage);
    return out;
  }
  return out;
}

NodeId last_informed_node(const Graph& g, NodeId source,
                          const std::vector<bool>& bits) {
  // Replay and remember the last NEW set.
  std::vector<bool> informed(g.node_count(), false);
  informed[source] = true;
  std::vector<NodeId> tx{source};
  std::vector<NodeId> fresh, last_fresh;
  std::vector<std::uint32_t> cnt(g.node_count(), 0);
  std::vector<bool> in_set(g.node_count(), false);
  const std::uint64_t max_stages = 4ull * g.node_count() + 8;
  for (std::uint64_t stage = 1; stage <= max_stages; ++stage) {
    cnt.assign(g.node_count(), 0);
    for (const auto t : tx) {
      for (const auto w : g.neighbors(t)) ++cnt[w];
    }
    for (const auto t : tx) cnt[t] = 0;
    fresh.clear();
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!informed[v] && cnt[v] == 1) fresh.push_back(v);
    }
    if (fresh.empty()) break;
    last_fresh = fresh;
    for (const auto v : fresh) informed[v] = true;
    std::vector<NodeId> designators;
    for (const auto v : fresh) {
      if (bits[v]) designators.push_back(v);
    }
    for (const auto b : designators) in_set[b] = true;
    std::vector<NodeId> next_tx = designators;
    for (const auto v : tx) {
      std::uint32_t c = 0;
      for (const auto w : g.neighbors(v)) {
        if (in_set[w]) ++c;
      }
      if (c == 1) next_tx.push_back(v);
    }
    for (const auto b : designators) in_set[b] = false;
    std::sort(next_tx.begin(), next_tx.end());
    tx = std::move(next_tx);
  }
  RC_ASSERT_MSG(!last_fresh.empty(), "no node was ever informed");
  return last_fresh.front();
}

}  // namespace radiocast::onebit
