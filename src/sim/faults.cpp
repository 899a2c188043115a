#include "sim/faults.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>

namespace radiocast::sim {

std::string FaultPlan::validate(NodeId node_count) const {
  if (edge_loss_ppm > kLossDenominator) {
    return "fault plan: edge loss exceeds 1.0 (" +
           std::to_string(edge_loss_ppm) + " ppm)";
  }
  for (const CrashWindow& w : crashes) {
    if (w.node >= node_count) {
      return "fault plan: crash node " + std::to_string(w.node) +
             " out of range (n=" + std::to_string(node_count) + ")";
    }
    if (w.from_round == 0 || w.until_round < w.from_round) {
      return "fault plan: empty crash window [" +
             std::to_string(w.from_round) + ", " +
             std::to_string(w.until_round) + "] (rounds are 1-based)";
    }
  }
  for (const JamWindow& w : jams) {
    if (w.from_round == 0 || w.until_round < w.from_round) {
      return "fault plan: empty jam window [" + std::to_string(w.from_round) +
             ", " + std::to_string(w.until_round) + "] (rounds are 1-based)";
    }
  }
  return {};
}

namespace {

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  while (true) {
    const std::size_t pos = text.find(sep);
    out.push_back(text.substr(0, pos));
    if (pos == std::string_view::npos) break;
    text.remove_prefix(pos + 1);
  }
  return out;
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

/// "0.1" or "10%" -> parts per million, exact for <= 6 decimal digits.
bool parse_probability_ppm(std::string_view text, std::uint32_t& out) {
  double scale = 1e6;
  if (!text.empty() && text.back() == '%') {
    text.remove_suffix(1);
    scale = 1e4;
  }
  if (text.empty()) return false;
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return false;
  const double ppm = value * scale;
  if (!(ppm >= 0.0) || ppm > static_cast<double>(kLossDenominator)) {
    return false;
  }
  out = static_cast<std::uint32_t>(std::llround(ppm));
  return true;
}

}  // namespace

ParsedFaultPlan parse_fault_plan(std::string_view text) {
  ParsedFaultPlan result;
  auto fail = [&result](std::string message) {
    result.ok = false;
    result.error = std::move(message);
    return result;
  };
  for (std::string_view clause : split(text, ',')) {
    if (clause.empty()) return fail("faults: empty clause");
    const std::vector<std::string_view> parts = split(clause, ':');
    const std::string_view kind = parts[0];
    if (kind == "edge-loss") {
      if (parts.size() < 2 || parts.size() > 3) {
        return fail("faults: edge-loss wants edge-loss:P[:SEED]");
      }
      if (!parse_probability_ppm(parts[1], result.plan.edge_loss_ppm)) {
        return fail("faults: bad loss probability \"" +
                    std::string(parts[1]) + "\" (want 0..1 or 0%..100%)");
      }
      if (parts.size() == 3 && !parse_u64(parts[2], result.plan.seed)) {
        return fail("faults: bad seed \"" + std::string(parts[2]) + "\"");
      }
    } else if (kind == "crash") {
      if (parts.size() != 4) {
        return fail("faults: crash wants crash:V:R0:R1");
      }
      std::uint64_t node = 0;
      CrashWindow w;
      if (!parse_u64(parts[1], node) || !parse_u64(parts[2], w.from_round) ||
          !parse_u64(parts[3], w.until_round)) {
        return fail("faults: bad crash clause \"" + std::string(clause) +
                    "\"");
      }
      w.node = static_cast<NodeId>(node);
      if (w.node != node) {
        return fail("faults: crash node out of range");
      }
      result.plan.crashes.push_back(w);
    } else if (kind == "jam") {
      if (parts.size() < 2 || parts.size() > 3) {
        return fail("faults: jam wants jam:R0[:R1]");
      }
      JamWindow w;
      if (!parse_u64(parts[1], w.from_round)) {
        return fail("faults: bad jam round \"" + std::string(parts[1]) +
                    "\"");
      }
      w.until_round = w.from_round;
      if (parts.size() == 3 && !parse_u64(parts[2], w.until_round)) {
        return fail("faults: bad jam round \"" + std::string(parts[2]) +
                    "\"");
      }
      result.plan.jams.push_back(w);
    } else {
      return fail("faults: unknown clause \"" + std::string(kind) +
                  "\" (want edge-loss/crash/jam)");
    }
  }
  // Window sanity that does not need the node count.
  for (const CrashWindow& w : result.plan.crashes) {
    if (w.from_round == 0 || w.until_round < w.from_round) {
      return fail("faults: empty crash window (rounds are 1-based)");
    }
  }
  for (const JamWindow& w : result.plan.jams) {
    if (w.from_round == 0 || w.until_round < w.from_round) {
      return fail("faults: empty jam window (rounds are 1-based)");
    }
  }
  result.ok = true;
  return result;
}

std::string format_fault_plan(const FaultPlan& plan) {
  std::ostringstream out;
  const char* sep = "";
  if (plan.edge_loss_ppm != 0) {
    out << "edge-loss:"
        << static_cast<double>(plan.edge_loss_ppm) / kLossDenominator << ":"
        << plan.seed;
    sep = ",";
  }
  for (const CrashWindow& w : plan.crashes) {
    out << sep << "crash:" << w.node << ":" << w.from_round << ":"
        << w.until_round;
    sep = ",";
  }
  for (const JamWindow& w : plan.jams) {
    out << sep << "jam:" << w.from_round << ":" << w.until_round;
    sep = ",";
  }
  return out.str();
}

FaultSession::FaultSession(const FaultPlan& plan, NodeId node_count)
    : loss_ppm_(plan.edge_loss_ppm),
      seed_(plan.seed),
      crash_depth_(node_count, 0),
      crash_from_(node_count, 0) {
  events_.reserve(2 * (plan.crashes.size() + plan.jams.size()));
  for (const CrashWindow& w : plan.crashes) {
    events_.push_back({w.from_round, EventKind::kCrash, w.node});
    events_.push_back({w.until_round + 1, EventKind::kRestart, w.node});
  }
  for (const JamWindow& w : plan.jams) {
    events_.push_back({w.from_round, EventKind::kJamOn, 0});
    events_.push_back({w.until_round + 1, EventKind::kJamOff, 0});
  }
  std::sort(events_.begin(), events_.end(),
            [](const Event& a, const Event& b) {
              if (a.round != b.round) return a.round < b.round;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.node < b.node;
            });
}

void FaultSession::begin_round(std::uint64_t round,
                               std::vector<NodeId>& restarted) {
  restarted.clear();
  while (next_event_ < events_.size() && events_[next_event_].round <= round) {
    const Event& e = events_[next_event_++];
    switch (e.kind) {
      case EventKind::kCrash:
        if (crash_depth_[e.node]++ == 0) {
          ++crashed_count_;
          crash_from_[e.node] = e.round;
        }
        break;
      case EventKind::kRestart:
        if (--crash_depth_[e.node] == 0) {
          --crashed_count_;
          // Restarts strictly before `round` (engine started mid-plan)
          // would also land here; the engine always advances one round at
          // a time from round 1, so e.round == round in practice, and a
          // late report is still a restart the protocol must see.
          restarted.push_back(e.node);
        }
        break;
      case EventKind::kJamOn:
        ++jam_depth_;
        break;
      case EventKind::kJamOff:
        --jam_depth_;
        break;
    }
  }
  // kCrash sorts before kRestart at equal rounds, so a node whose windows
  // touch ([1,5] then [6,9]) never produces a spurious restart; distinct
  // nodes restarting the same round arrive node-ascending.  A node can both
  // restart and re-crash at `round` only via windows like [1,5]+[6,9],
  // which the ordering already collapsed — but [1,5]+[6,6]-style chains
  // ending exactly here can leave a just-restarted node re-crashed; drop
  // those from the report.
  std::erase_if(restarted, [this](NodeId v) { return crashed(v); });
}

}  // namespace radiocast::sim
