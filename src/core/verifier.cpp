#include "core/verifier.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

namespace radiocast::core {

namespace {

std::string round_diag(const char* what, std::uint64_t round,
                       const std::vector<NodeId>& got,
                       const std::vector<NodeId>& want) {
  std::ostringstream os;
  os << what << " mismatch in round " << round << ": got {";
  for (const auto v : got) os << v << ' ';
  os << "} want {";
  for (const auto v : want) os << v << ' ';
  os << "}";
  return os.str();
}

}  // namespace

std::string verify_lemma_2_8(const Graph& g, const Labeling& labeling,
                             const sim::Trace& trace) {
  const auto& stages = labeling.stages;
  if (g.node_count() == 1) return {};
  const std::uint64_t last_activity = 2ull * stages.ell - 3;
  const auto& rounds = trace.rounds();

  for (std::size_t t0 = 0; t0 < rounds.size(); ++t0) {
    const std::uint64_t t = t0 + 1;
    const auto& rec = rounds[t0];

    std::vector<NodeId> data_tx, stay_tx;
    for (const auto& [v, msg] : rec.transmissions) {
      switch (msg.kind) {
        case sim::MsgKind::kData:
          data_tx.push_back(v);
          break;
        case sim::MsgKind::kStay:
          stay_tx.push_back(v);
          break;
        default:
          // Acks are outside Lemma 2.8; Observation 3.4 places them after
          // round 2ℓ-3, which we check below.
          if (t <= last_activity) {
            return "ack transmission before the end of the broadcast (Obs 3.4)";
          }
      }
    }

    if (t % 2 == 1) {
      // Odd round t = 2i-1: µ transmitters must be exactly DOM_i.
      const std::uint64_t i = (t + 1) / 2;
      std::vector<NodeId> want_dom;
      if (i <= stages.dom.size()) want_dom = stages.dom[i - 1];
      if (data_tx != want_dom) {
        return round_diag("DOM (Lemma 2.8 1a)", t, data_tx, want_dom);
      }
      if (!stay_tx.empty()) {
        return "stay transmission in an odd round";
      }
      // First-time receivers of µ must be exactly NEW_i.
      std::vector<NodeId> first_rx;
      for (const auto& [v, msg] : rec.deliveries) {
        if (msg.kind != sim::MsgKind::kData) continue;
        // First reception iff no earlier data delivery to v.
        bool earlier = false;
        for (std::size_t u0 = 0; u0 < t0 && !earlier; ++u0) {
          for (const auto& [w, m2] : rounds[u0].deliveries) {
            if (w == v && m2.kind == sim::MsgKind::kData) {
              earlier = true;
              break;
            }
          }
        }
        if (!earlier && v != stages.source) first_rx.push_back(v);
      }
      std::sort(first_rx.begin(), first_rx.end());
      std::vector<NodeId> want_new;
      if (i <= stages.fresh.size()) want_new = stages.fresh[i - 1];
      if (first_rx != want_new) {
        return round_diag("NEW (Lemma 2.8 1b)", t, first_rx, want_new);
      }
    } else {
      // Even round t = 2i: stay transmitters must be exactly the x2-labeled
      // members of NEW_i.
      const std::uint64_t i = t / 2;
      std::vector<NodeId> want_stay;
      if (i <= stages.fresh.size()) {
        for (const NodeId v : stages.fresh[i - 1]) {
          if (labeling.labels[v].x2) want_stay.push_back(v);
        }
      }
      if (stay_tx != want_stay) {
        return round_diag("stay (Lemma 2.8 2a)", t, stay_tx, want_stay);
      }
      if (!data_tx.empty()) {
        return "µ transmission in an even round";
      }
    }

    if (t > last_activity && (!data_tx.empty() || !stay_tx.empty())) {
      return "µ/stay transmission after round 2ℓ-3 (Observation 3.3)";
    }
  }
  return {};
}

std::string verify_ack_completion(const Graph& g, NodeId source,
                                  const sim::Trace& trace) {
  const auto n = g.node_count();
  if (n == 1) return {};
  std::vector<std::uint64_t> first_data(n, 0);
  std::uint64_t ack_round = 0;
  const auto& rounds = trace.rounds();
  for (std::size_t t0 = 0; t0 < rounds.size() && ack_round == 0; ++t0) {
    for (const auto& [v, msg] : rounds[t0].deliveries) {
      if (msg.kind == sim::MsgKind::kData && first_data[v] == 0) {
        first_data[v] = t0 + 1;
      } else if (msg.kind == sim::MsgKind::kAck && v == source) {
        ack_round = t0 + 1;
      }
    }
  }
  std::ostringstream os;
  if (ack_round == 0) {
    os << "source " << source << " never receives an ack";
    return os.str();
  }
  std::uint64_t last = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (v == source) continue;
    if (first_data[v] == 0 || first_data[v] >= ack_round) {
      os << "node " << v << " first receives mu in round " << first_data[v]
         << " (0 = never), not before the source's ack in round "
         << ack_round;
      return os.str();
    }
    last = std::max(last, first_data[v]);
  }
  if (last > 2ull * n - 3) {
    os << "last first reception of mu in round " << last << " > 2n-3 = "
       << 2ull * n - 3;
    return os.str();
  }
  return {};
}

std::string verify_arb_delivery(const Graph& g, NodeId source,
                                const sim::Trace& trace) {
  const auto carries_mu = [](const sim::Message& m) {
    return (m.kind == sim::MsgKind::kData && m.phase == 3) ||
           (m.kind == sim::MsgKind::kAck && m.phase == 2);
  };
  const auto n = g.node_count();
  std::vector<std::uint64_t> first_mu(n, 0);
  std::optional<std::uint32_t> mu;
  std::ostringstream os;
  const auto& rounds = trace.rounds();
  for (std::size_t t0 = 0; t0 < rounds.size(); ++t0) {
    const std::uint64_t t = t0 + 1;
    for (const auto& [v, msg] : rounds[t0].transmissions) {
      if (!carries_mu(msg)) continue;
      if (!mu) mu = msg.payload;
      if (msg.payload != *mu) {
        os << "node " << v << " transmits payload " << msg.payload
           << " in round " << t << ", not mu = " << *mu;
        return os.str();
      }
      if (v != source && first_mu[v] == 0) {
        os << "node " << v << " transmits mu in round " << t
           << " before receiving it";
        return os.str();
      }
    }
    for (const auto& [v, msg] : rounds[t0].deliveries) {
      if (carries_mu(msg) && first_mu[v] == 0) first_mu[v] = t;
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (v != source && first_mu[v] == 0) {
      os << "node " << v << " never receives mu";
      return os.str();
    }
  }
  return {};
}

}  // namespace radiocast::core
