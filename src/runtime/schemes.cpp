/// \file schemes.cpp
/// \brief The built-in scheme registrations: the paper's algorithms (B,
///        B_ack, common-round, B_arb, multi-message, one-bit) and the §1
///        comparison baselines (round-robin, color-robin, decay, beep),
///        each expressed once through the `runtime::Scheme` interface.
#include <algorithm>
#include <bit>
#include <optional>

#include "baselines/baselines.hpp"
#include "baselines/beep.hpp"
#include "core/arb.hpp"
#include "core/multi.hpp"
#include "core/protocols.hpp"
#include "core/verifier.hpp"
#include "graph/coloring.hpp"
#include "onebit/labeler.hpp"
#include "runtime/scheme.hpp"
#include "support/bytes.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace radiocast::runtime {
namespace {

std::uint64_t theorem_bound(std::uint32_t n) {
  return n >= 2 ? 2ull * n - 3 : 0;
}

std::uint32_t bits_for(std::uint32_t values) {
  return values <= 1 ? 1u : std::bit_width(values - 1);
}

/// The multi-message schedule a spec denotes (empty payloads = one µ).
std::vector<std::uint32_t> multi_schedule(const SchemeOptions& opt) {
  return opt.payloads.empty() ? std::vector<std::uint32_t>{opt.mu}
                              : opt.payloads;
}

// ---------------------------------------------------------------------------
// Plan codecs: the PlanStore payload formats.  Every payload opens with a
// one-byte shape tag, so a record that reaches the wrong decoder (renamed
// file, family collision) fails the tag check instead of misparsing.  The
// struct-level helpers below are shared by every scheme whose plan embeds
// that struct; decoders return false on any reader failure or semantic
// violation and never throw on untrusted bytes.
// ---------------------------------------------------------------------------

using support::ByteReader;
using support::ByteWriter;

constexpr std::uint8_t kTagLabeling = 0x4C;  // 'L': LabelingPlan
constexpr std::uint8_t kTagArb = 0x41;       // 'A': ArbPlan
constexpr std::uint8_t kTagOneBit = 0x4F;    // 'O': OneBitPlan
constexpr std::uint8_t kTagColoring = 0x43;  // 'C': ColoringPlan
constexpr std::uint8_t kTagEmpty = 0x45;     // 'E': EmptyPlan

void encode_labels(const std::vector<core::Label>& labels, ByteWriter& out) {
  out.u64(labels.size());
  for (const core::Label& l : labels) out.u8(l.value());
}

bool decode_labels(ByteReader& in, std::vector<core::Label>& out) {
  const std::uint64_t count = in.u64();
  if (!in.ok() || count > in.remaining()) return false;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint8_t v = in.u8();
    if (v > 7) return false;
    out.push_back({(v & 4) != 0, (v & 2) != 0, (v & 1) != 0});
  }
  return in.ok();
}

void encode_node_sets(const std::vector<std::vector<NodeId>>& sets,
                      ByteWriter& out) {
  out.u64(sets.size());
  for (const auto& set : sets) out.vec_u32(set);
}

bool decode_node_sets(ByteReader& in,
                      std::vector<std::vector<NodeId>>& out) {
  const std::uint64_t count = in.u64();
  if (!in.ok() || count > in.remaining()) return false;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(in.vec_u32());
    if (!in.ok()) return false;
  }
  return true;
}

void encode_stage_sets(const core::StageSets& s, ByteWriter& out) {
  encode_node_sets(s.dom, out);
  encode_node_sets(s.fresh, out);
  encode_node_sets(s.frontier, out);
  out.u32(s.ell);
  out.vec_u32(s.stage_of);
  out.u32(s.source);
}

bool decode_stage_sets(ByteReader& in, core::StageSets& out) {
  if (!decode_node_sets(in, out.dom)) return false;
  if (!decode_node_sets(in, out.fresh)) return false;
  if (!decode_node_sets(in, out.frontier)) return false;
  out.ell = in.u32();
  out.stage_of = in.vec_u32();
  out.source = in.u32();
  return in.ok() && out.dom.size() == out.fresh.size() &&
         out.dom.size() == out.frontier.size();
}

void encode_labeling(const core::Labeling& l, ByteWriter& out) {
  encode_labels(l.labels, out);
  encode_stage_sets(l.stages, out);
  out.u32(l.source);
  out.u32(l.z);
}

bool decode_labeling(ByteReader& in, core::Labeling& out) {
  if (!decode_labels(in, out.labels)) return false;
  if (!decode_stage_sets(in, out.stages)) return false;
  out.source = in.u32();
  out.z = in.u32();
  return in.ok() && out.labels.size() == out.stages.stage_of.size();
}

std::size_t node_sets_bytes(const std::vector<std::vector<NodeId>>& sets) {
  std::size_t bytes = sets.size() * sizeof(std::vector<NodeId>);
  for (const auto& set : sets) bytes += set.size() * sizeof(NodeId);
  return bytes;
}

/// Resident bytes of a λ, λ_ack or λ_arb labeling's labels and stage sets.
template <typename AnyLabeling>
std::size_t labeling_bytes(const AnyLabeling& l) {
  return l.labels.size() * sizeof(core::Label) +
         node_sets_bytes(l.stages.dom) + node_sets_bytes(l.stages.fresh) +
         node_sets_bytes(l.stages.frontier) +
         l.stages.stage_of.size() * sizeof(std::uint32_t);
}

// ---------------------------------------------------------------------------
// λ schemes: B, B_ack, common-round, multi (one λ/λ_ack labeling as plan)
// ---------------------------------------------------------------------------

struct LabelingPlan final : Plan {
  core::Labeling labeling;

  std::size_t footprint() const noexcept override {
    return sizeof(*this) + labeling_bytes(labeling);
  }
};

/// Shared base of the schemes whose plan is one λ or λ_ack labeling: B,
/// B_ack, common-round and multi.  It owns the plan's type and codec.
class LabelingScheme : public Scheme {
 public:
  void encode_plan(const Plan& plan, ByteWriter& out) const override {
    out.u8(kTagLabeling);
    encode_labeling(labeling_of(plan), out);
  }
  PlanPtr decode_plan(ByteReader& in) const override {
    if (in.u8() != kTagLabeling || !in.ok()) return nullptr;
    auto plan = std::make_shared<LabelingPlan>();
    if (!decode_labeling(in, plan->labeling)) return nullptr;
    return plan;
  }

 protected:
  static PlanPtr make_plan(core::Labeling labeling) {
    auto plan = std::make_shared<LabelingPlan>();
    plan->labeling = std::move(labeling);
    return plan;
  }
  static const core::Labeling& labeling_of(const Plan& plan) {
    return static_cast<const LabelingPlan&>(plan).labeling;
  }
};

/// Algorithm B (Theorem 2.9): 2-bit labels, known source.
class BScheme final : public LabelingScheme {
 public:
  std::string_view name() const noexcept override { return "b"; }
  std::string_view description() const noexcept override {
    return "Algorithm B: 2-bit labels, broadcast from a known source "
           "(Theorem 2.9)";
  }

  PlanPtr label(const Graph& g, NodeId source,
                const SchemeOptions& opt) const override {
    return make_plan(core::label_broadcast(g, source, {opt.policy, opt.seed}));
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph&, NodeId, const Plan& plan,
      const SchemeOptions& opt) const override {
    return core::make_broadcast_protocols(labeling_of(plan), opt.mu);
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions&) const override {
    return core::default_round_budget(g.node_count(), 4);
  }

  bool run_trivial(const Graph& g, NodeId, const Plan& plan,
                   const SchemeOptions&, SchemeResult& out) const override {
    if (g.node_count() != 1) return false;
    out.ok = out.all_informed = true;
    out.ell = labeling_of(plan).stages.ell;
    return true;
  }

  void collect(const sim::Engine& e, const Graph& g, NodeId, const Plan& plan,
               const SchemeOptions&, const ExecutionConfig&,
               SchemeResult& out) const override {
    out.ok = out.all_informed;
    out.completion_round = e.last_first_data_reception();
    out.bound = theorem_bound(g.node_count());
    out.ell = labeling_of(plan).stages.ell;
    out.max_node_tx = e.max_tx_count();
    out.label_bits = 2;
    out.stay_count = e.transmissions_of(sim::MsgKind::kStay);
    out.data_tx_count = e.transmissions_of(sim::MsgKind::kData);
  }

  std::string verify(const Graph& g, NodeId, const Plan& plan,
                     const sim::Trace& trace) const override {
    return core::verify_lemma_2_8(g, labeling_of(plan), trace);
  }
};

/// Algorithm B_ack (Theorem 3.9): 3-bit labels, z-initiated ack chain.
class AckScheme final : public LabelingScheme {
 public:
  std::string_view name() const noexcept override { return "ack"; }
  std::string_view description() const noexcept override {
    return "Algorithm B_ack: 3-bit labels, acknowledged broadcast "
           "(Theorem 3.9)";
  }

  /// One λ_ack construction serves B_ack, common-round, and multi.
  std::string_view plan_family() const noexcept override {
    return "lambda-ack";
  }

  PlanPtr label(const Graph& g, NodeId source,
                const SchemeOptions& opt) const override {
    return make_plan(
        core::label_acknowledged(g, source, {opt.policy, opt.seed}));
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph&, NodeId, const Plan& plan,
      const SchemeOptions& opt) const override {
    return core::make_ack_protocols(labeling_of(plan), opt.mu, opt.resilient);
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions&) const override {
    return core::default_round_budget(g.node_count(), 6);
  }

  bool done(const sim::Engine& e, NodeId source,
            const SchemeOptions&) const override {
    return dynamic_cast<const core::AckBroadcastProtocol&>(
               e.protocol(source))
               .ack_round() != 0;
  }

  bool run_trivial(const Graph& g, NodeId, const Plan& plan,
                   const SchemeOptions&, SchemeResult& out) const override {
    if (g.node_count() != 1) return false;
    const auto& labeling = labeling_of(plan);
    out.ok = out.all_informed = true;
    out.ell = labeling.stages.ell;
    out.special = labeling.z;
    return true;
  }

  void collect(const sim::Engine& e, const Graph& g, NodeId source,
               const Plan& plan, const SchemeOptions&,
               const ExecutionConfig&, SchemeResult& out) const override {
    const auto& labeling = labeling_of(plan);
    out.completion_round = e.last_first_data_reception();
    out.ack_round = dynamic_cast<const core::AckBroadcastProtocol&>(
                        e.protocol(source))
                        .ack_round();
    out.ok = out.all_informed && out.ack_round != 0;
    out.bound = theorem_bound(g.node_count());
    out.ell = labeling.stages.ell;
    out.special = labeling.z;
    out.max_stamp = e.max_stamp_seen();
    out.label_bits = 3;
  }

  std::string verify(const Graph& g, NodeId source, const Plan&,
                     const sim::Trace& trace) const override {
    return core::verify_ack_completion(g, source, trace);
  }
};

/// §3 closing construction: all nodes agree on the common round 2m.
class CommonRoundScheme final : public LabelingScheme {
 public:
  std::string_view name() const noexcept override { return "common-round"; }
  std::string_view description() const noexcept override {
    return "Common-completion-round construction on top of B_ack (paper §3)";
  }

  std::string_view plan_family() const noexcept override {
    return "lambda-ack";
  }

  PlanPtr label(const Graph& g, NodeId source,
                const SchemeOptions& opt) const override {
    RC_EXPECTS_MSG(g.node_count() >= 2,
                   "common-round needs at least two nodes");
    return make_plan(
        core::label_acknowledged(g, source, {opt.policy, opt.seed}));
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph&, NodeId, const Plan& plan,
      const SchemeOptions& opt) const override {
    return core::make_common_round_protocols(labeling_of(plan), opt.mu);
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions&) const override {
    return core::default_round_budget(g.node_count(), 10);
  }

  bool done(const sim::Engine& e, NodeId,
            const SchemeOptions&) const override {
    for (NodeId v = 0; v < e.graph().node_count(); ++v) {
      const auto& p =
          dynamic_cast<const core::CommonRoundProtocol&>(e.protocol(v));
      if (p.knows_done_at() == 0) return false;
    }
    return true;
  }

  void collect(const sim::Engine& e, const Graph& g, NodeId source,
               const Plan&, const SchemeOptions&, const ExecutionConfig&,
               SchemeResult& out) const override {
    const auto& src =
        dynamic_cast<const core::CommonRoundProtocol&>(e.protocol(source));
    out.done_round = src.knows_done_at();
    out.T = out.done_round / 2;  // m
    out.completion_round = e.last_first_data_reception();
    out.label_bits = 3;
    bool ok = out.done_round != 0;
    for (NodeId v = 0; v < g.node_count() && ok; ++v) {
      const auto& p =
          dynamic_cast<const core::CommonRoundProtocol&>(e.protocol(v));
      ok = p.knows_done_at() == out.done_round &&
           p.learned_m_stamp() < out.done_round;
      out.last_learned = std::max(out.last_learned, p.learned_m_stamp());
    }
    out.ok = ok;
  }
};

// ---------------------------------------------------------------------------
// B_arb: source unknown at labeling time
// ---------------------------------------------------------------------------

struct ArbPlan final : Plan {
  core::ArbLabeling labeling;

  std::size_t footprint() const noexcept override {
    return sizeof(*this) + labeling_bytes(labeling);
  }
};

class ArbScheme final : public Scheme {
 public:
  std::string_view name() const noexcept override { return "arb"; }
  std::string_view description() const noexcept override {
    return "Algorithm B_arb: 3-bit labels, source unknown at labeling time "
           "(paper §4)";
  }

  void encode_plan(const Plan& plan, ByteWriter& out) const override {
    const auto& p = static_cast<const ArbPlan&>(plan);
    out.u8(kTagArb);
    encode_labels(p.labeling.labels, out);
    out.u32(p.labeling.coordinator);
    out.u32(p.labeling.z);
    encode_stage_sets(p.labeling.stages, out);
  }
  PlanPtr decode_plan(ByteReader& in) const override {
    if (in.u8() != kTagArb || !in.ok()) return nullptr;
    auto plan = std::make_shared<ArbPlan>();
    if (!decode_labels(in, plan->labeling.labels)) return nullptr;
    plan->labeling.coordinator = in.u32();
    plan->labeling.z = in.u32();
    if (!decode_stage_sets(in, plan->labeling.stages)) return nullptr;
    if (plan->labeling.labels.size() !=
        plan->labeling.stages.stage_of.size()) {
      return nullptr;
    }
    return plan;
  }

  /// λ_arb depends on the coordinator, not the (unknown) source — the
  /// paper's whole point — so every source on a graph shares one plan.
  std::string plan_key(NodeId, const SchemeOptions& opt) const override {
    std::string key = "r";
    key += std::to_string(opt.coordinator);
    key += "|p";
    key += std::to_string(static_cast<int>(opt.policy));
    key += "|s";
    key += std::to_string(opt.seed);
    return key;
  }

  PlanPtr label(const Graph& g, NodeId,
                const SchemeOptions& opt) const override {
    RC_EXPECTS_MSG(g.node_count() >= 2, "B_arb needs at least two nodes");
    auto plan = std::make_shared<ArbPlan>();
    plan->labeling =
        core::label_arbitrary(g, opt.coordinator, {opt.policy, opt.seed});
    return plan;
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph&, NodeId source, const Plan& plan,
      const SchemeOptions& opt) const override {
    return core::make_arb_protocols(
        static_cast<const ArbPlan&>(plan).labeling, source, opt.mu);
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions&) const override {
    return core::default_round_budget(g.node_count(), 16);
  }

  bool done(const sim::Engine& e, NodeId,
            const SchemeOptions&) const override {
    for (NodeId v = 0; v < e.graph().node_count(); ++v) {
      const auto& p = dynamic_cast<const core::ArbProtocol&>(e.protocol(v));
      if (!p.mu() || p.done_round() == 0) return false;
    }
    return true;
  }

  void collect(const sim::Engine& e, const Graph& g, NodeId,
               const Plan& plan, const SchemeOptions& opt,
               const ExecutionConfig&, SchemeResult& out) const override {
    out.special = static_cast<const ArbPlan&>(plan).labeling.coordinator;
    out.completion_round = e.last_first_data_reception();
    out.max_stamp = e.max_stamp_seen();
    out.label_bits = 3;
    bool ok = true;
    std::uint64_t done = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto& p = dynamic_cast<const core::ArbProtocol&>(e.protocol(v));
      if (!p.mu() || *p.mu() != opt.mu || p.done_round() == 0) {
        ok = false;
        break;
      }
      if (done == 0) done = p.done_round();
      if (p.done_round() != done) {
        ok = false;
        break;
      }
      if (p.is_coordinator()) out.T = p.T();
    }
    out.ok = ok;
    out.done_round = done;
  }

  std::string verify(const Graph& g, NodeId source, const Plan&,
                     const sim::Trace& trace) const override {
    return core::verify_arb_delivery(g, source, trace);
  }
};

// ---------------------------------------------------------------------------
// Multi-message acknowledged sessions (§1.2)
// ---------------------------------------------------------------------------

class MultiScheme final : public LabelingScheme {
 public:
  std::string_view name() const noexcept override { return "multi"; }
  std::string_view description() const noexcept override {
    return "Consecutive acknowledged broadcasts over one λ_ack labeling "
           "(paper §1.2)";
  }

  std::string_view plan_family() const noexcept override {
    return "lambda-ack";
  }

  PlanPtr label(const Graph& g, NodeId source,
                const SchemeOptions& opt) const override {
    RC_EXPECTS(g.node_count() >= 2);
    return make_plan(
        core::label_acknowledged(g, source, {opt.policy, opt.seed}));
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph& g, NodeId source, const Plan& plan,
      const SchemeOptions& opt) const override {
    const auto& labeling = labeling_of(plan);
    const auto payloads = multi_schedule(opt);
    std::vector<std::unique_ptr<sim::Protocol>> out;
    out.reserve(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      out.push_back(std::make_unique<core::MultiMessageProtocol>(
          labeling.labels[v],
          v == source ? payloads : std::vector<std::uint32_t>{}));
    }
    return out;
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions& opt) const override {
    return (6ull * g.node_count() + 16) * multi_schedule(opt).size();
  }

  bool done(const sim::Engine& e, NodeId source,
            const SchemeOptions& opt) const override {
    const auto& src = dynamic_cast<const core::MultiMessageProtocol&>(
        e.protocol(source));
    return src.ack_rounds().size() == multi_schedule(opt).size();
  }

  void collect(const sim::Engine& e, const Graph& g, NodeId source,
               const Plan&, const SchemeOptions& opt,
               const ExecutionConfig&, SchemeResult& out) const override {
    const auto payloads = multi_schedule(opt);
    const auto& src = dynamic_cast<const core::MultiMessageProtocol&>(
        e.protocol(source));
    out.ack_rounds = src.ack_rounds();
    out.completion_round = e.last_first_data_reception();
    out.label_bits = 3;
    bool ok = out.ack_rounds.size() == payloads.size();
    for (NodeId v = 0; v < g.node_count() && ok; ++v) {
      const auto& p = dynamic_cast<const core::MultiMessageProtocol&>(
          e.protocol(v));
      ok = p.received() == payloads;
    }
    out.ok = ok;
    if (ok && out.ack_rounds.size() >= 2) {
      out.rounds_per_message = out.ack_rounds[1] - out.ack_rounds[0];
    } else if (ok) {
      out.rounds_per_message = out.ack_rounds[0];
    }
  }
};

// ---------------------------------------------------------------------------
// One-bit schemes (§5 conclusion)
// ---------------------------------------------------------------------------

struct OneBitPlan final : Plan {
  onebit::OneBitResult search;
  NodeId z = graph::kNoNode;  ///< acknowledged variant only

  std::size_t footprint() const noexcept override {
    return sizeof(*this) + search.bits.size() / 8;
  }
};

onebit::OneBitOptions onebit_options(const SchemeOptions& opt) {
  onebit::OneBitOptions out;
  out.max_attempts = opt.max_attempts;
  out.seed = opt.seed;
  out.max_stages = opt.max_stages;
  return out;
}

std::uint32_t count_ones(const std::vector<bool>& bits) {
  std::uint32_t ones = 0;
  for (const bool b : bits) ones += b ? 1u : 0u;
  return ones;
}

/// Shared base: the randomized one-bit labeling search as the plan.
class OneBitSchemeBase : public Scheme {
 public:
  void encode_plan(const Plan& plan, ByteWriter& out) const override {
    const auto& p = static_cast<const OneBitPlan&>(plan);
    out.u8(kTagOneBit);
    out.boolean(p.search.ok);
    out.vec_bool(p.search.bits);
    out.u32(p.search.attempts);
    out.u64(p.search.completion_round);
    out.u32(p.search.stages);
    out.u32(p.z);
  }
  PlanPtr decode_plan(ByteReader& in) const override {
    if (in.u8() != kTagOneBit || !in.ok()) return nullptr;
    auto plan = std::make_shared<OneBitPlan>();
    plan->search.ok = in.boolean();
    plan->search.bits = in.vec_bool();
    plan->search.attempts = in.u32();
    plan->search.completion_round = in.u64();
    plan->search.stages = in.u32();
    plan->z = in.u32();
    if (!in.ok()) return nullptr;
    if (plan->search.ok && plan->z != graph::kNoNode &&
        plan->z >= plan->search.bits.size()) {
      return nullptr;
    }
    return plan;
  }

  std::string plan_key(NodeId source,
                       const SchemeOptions& opt) const override {
    std::string key = "src";
    key += std::to_string(source);
    key += "|s";
    key += std::to_string(opt.seed);
    key += "|a";
    key += std::to_string(opt.max_attempts);
    key += "|g";
    key += std::to_string(opt.max_stages);
    return key;
  }

  bool run_trivial(const Graph& g, NodeId, const Plan& plan,
                   const SchemeOptions&, SchemeResult& out) const override {
    const auto& p = static_cast<const OneBitPlan&>(plan);
    out.attempts = p.search.attempts;
    if (!p.search.ok) {
      out.labeling_found = false;
      return true;
    }
    out.ones = count_ones(p.search.bits);
    if (g.node_count() == 1) {
      out.ok = out.all_informed = true;
      return true;
    }
    return false;
  }
};

/// B1: algorithm B with x1 = x2 = the bit.
class OneBitScheme final : public OneBitSchemeBase {
 public:
  std::string_view name() const noexcept override { return "onebit"; }
  std::string_view description() const noexcept override {
    return "One-bit labeling under B1 (x1 = x2 = bit), engine-validated "
           "(paper §5)";
  }

  PlanPtr label(const Graph& g, NodeId source,
                const SchemeOptions& opt) const override {
    auto plan = std::make_shared<OneBitPlan>();
    plan->search = onebit::find_onebit_labeling(g, source,
                                                onebit_options(opt));
    return plan;
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph& g, NodeId source, const Plan& plan,
      const SchemeOptions& opt) const override {
    const auto& bits = static_cast<const OneBitPlan&>(plan).search.bits;
    std::vector<std::unique_ptr<sim::Protocol>> out;
    out.reserve(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const core::Label label{bits[v], bits[v], false};
      out.push_back(std::make_unique<core::BroadcastProtocol>(
          label, v == source ? std::optional<std::uint32_t>(opt.mu)
                             : std::nullopt));
    }
    return out;
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions&) const override {
    return 4ull * g.node_count() + 16;
  }

  void collect(const sim::Engine& e, const Graph&, NodeId, const Plan& plan,
               const SchemeOptions&, const ExecutionConfig&,
               SchemeResult& out) const override {
    out.ok = out.all_informed;
    out.completion_round = e.last_first_data_reception();
    out.attempts = static_cast<const OneBitPlan&>(plan).search.attempts;
    out.ones = count_ones(static_cast<const OneBitPlan&>(plan).search.bits);
    out.label_bits = 1;
  }
};

/// One-bit + z marker (3 label values): acknowledged broadcast.
class OneBitAckScheme final : public OneBitSchemeBase {
 public:
  std::string_view name() const noexcept override { return "onebit-ack"; }
  std::string_view description() const noexcept override {
    return "One-bit labeling plus z marker: acknowledged broadcast with 3 "
           "label values";
  }

  PlanPtr label(const Graph& g, NodeId source,
                const SchemeOptions& opt) const override {
    auto plan = std::make_shared<OneBitPlan>();
    plan->search = onebit::find_onebit_labeling(g, source,
                                                onebit_options(opt));
    if (plan->search.ok && g.node_count() > 1) {
      plan->z = onebit::last_informed_node(g, source, plan->search.bits);
      RC_ASSERT_MSG(!plan->search.bits[plan->z],
                    "last-informed node must carry bit 0");
    }
    return plan;
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph& g, NodeId source, const Plan& plan,
      const SchemeOptions& opt) const override {
    const auto& p = static_cast<const OneBitPlan&>(plan);
    std::vector<std::unique_ptr<sim::Protocol>> out;
    out.reserve(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const core::Label label{p.search.bits[v], p.search.bits[v], v == p.z};
      out.push_back(std::make_unique<core::AckBroadcastProtocol>(
          label, v == source ? std::optional<std::uint32_t>(opt.mu)
                             : std::nullopt));
    }
    return out;
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions&) const override {
    return 6ull * g.node_count() + 16;
  }

  bool done(const sim::Engine& e, NodeId source,
            const SchemeOptions&) const override {
    return dynamic_cast<const core::AckBroadcastProtocol&>(
               e.protocol(source))
               .ack_round() != 0;
  }

  void collect(const sim::Engine& e, const Graph&, NodeId source,
               const Plan& plan, const SchemeOptions&,
               const ExecutionConfig&, SchemeResult& out) const override {
    const auto& p = static_cast<const OneBitPlan&>(plan);
    out.ack_round = dynamic_cast<const core::AckBroadcastProtocol&>(
                        e.protocol(source))
                        .ack_round();
    out.ok = out.all_informed && out.ack_round != 0;
    out.completion_round = e.last_first_data_reception();
    out.attempts = p.search.attempts;
    out.ones = count_ones(p.search.bits);
    out.special = p.z;
    out.label_bits = 2;  // 3 label values
  }
};

// ---------------------------------------------------------------------------
// Baselines (§1): round-robin, color-robin, decay, beep
// ---------------------------------------------------------------------------

struct EmptyPlan final : Plan {};

/// Shared base of the label-free baselines (round-robin, decay, beep): one
/// empty plan per graph, whatever the source or options (decay's seed
/// parameterizes its protocols, not a plan).
class LabelFreeScheme : public Scheme {
 public:
  std::string plan_key(NodeId, const SchemeOptions&) const override {
    return {};
  }
  void encode_plan(const Plan&, ByteWriter& out) const override {
    out.u8(kTagEmpty);
  }
  PlanPtr decode_plan(ByteReader& in) const override {
    if (in.u8() != kTagEmpty || !in.ok()) return nullptr;
    return std::make_shared<EmptyPlan>();
  }
  PlanPtr label(const Graph&, NodeId, const SchemeOptions&) const override {
    return std::make_shared<EmptyPlan>();
  }
};

struct ColoringPlan final : Plan {
  graph::Coloring coloring;

  std::size_t footprint() const noexcept override {
    return sizeof(*this) + coloring.color.size() * sizeof(std::uint32_t);
  }
};

class RoundRobinScheme final : public LabelFreeScheme {
 public:
  std::string_view name() const noexcept override { return "round-robin"; }
  std::string_view description() const noexcept override {
    return "Round-robin over unique ids: Θ(log n)-bit labels, "
           "collision-free (paper §1)";
  }
  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph& g, NodeId source, const Plan&,
      const SchemeOptions& opt) const override {
    const std::uint32_t n = g.node_count();
    std::vector<std::unique_ptr<sim::Protocol>> out;
    out.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
      out.push_back(std::make_unique<baselines::RoundRobinProtocol>(
          v, n,
          v == source ? std::optional<std::uint32_t>(opt.mu) : std::nullopt));
    }
    return out;
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions&) const override {
    return 2ull * g.node_count() * g.node_count() + 16;
  }

  void collect(const sim::Engine& e, const Graph& g, NodeId, const Plan&,
               const SchemeOptions&, const ExecutionConfig&,
               SchemeResult& out) const override {
    out.ok = out.all_informed;
    out.completion_round = e.last_first_data_reception();
    out.label_bits = 2 * bits_for(g.node_count());
  }
};

class ColorRobinScheme final : public Scheme {
 public:
  std::string_view name() const noexcept override { return "color-robin"; }
  std::string_view description() const noexcept override {
    return "Round-robin over a proper G² coloring: Θ(log Δ)-bit labels "
           "(paper §1)";
  }
  std::string plan_key(NodeId, const SchemeOptions&) const override {
    return {};  // the coloring only depends on the graph
  }
  void encode_plan(const Plan& plan, ByteWriter& out) const override {
    const auto& p = static_cast<const ColoringPlan&>(plan);
    out.u8(kTagColoring);
    out.vec_u32(p.coloring.color);
    out.u32(p.coloring.count);
  }
  PlanPtr decode_plan(ByteReader& in) const override {
    if (in.u8() != kTagColoring || !in.ok()) return nullptr;
    auto plan = std::make_shared<ColoringPlan>();
    plan->coloring.color = in.vec_u32();
    plan->coloring.count = in.u32();
    if (!in.ok()) return nullptr;
    for (const std::uint32_t c : plan->coloring.color) {
      if (c >= plan->coloring.count) return nullptr;
    }
    return plan;
  }

  PlanPtr label(const Graph& g, NodeId, const SchemeOptions&) const override {
    auto plan = std::make_shared<ColoringPlan>();
    plan->coloring = graph::square_coloring(g);
    return plan;
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph& g, NodeId source, const Plan& plan,
      const SchemeOptions& opt) const override {
    const auto& coloring = static_cast<const ColoringPlan&>(plan).coloring;
    std::vector<std::unique_ptr<sim::Protocol>> out;
    out.reserve(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      out.push_back(std::make_unique<baselines::ColorRobinProtocol>(
          coloring.color[v], coloring.count,
          v == source ? std::optional<std::uint32_t>(opt.mu) : std::nullopt));
    }
    return out;
  }

  std::uint64_t round_budget(const Graph& g, const Plan& plan,
                             const SchemeOptions&) const override {
    const auto& coloring = static_cast<const ColoringPlan&>(plan).coloring;
    return static_cast<std::uint64_t>(coloring.count) *
               (g.node_count() + 2) +
           16;
  }

  void collect(const sim::Engine& e, const Graph&, NodeId, const Plan& plan,
               const SchemeOptions&, const ExecutionConfig&,
               SchemeResult& out) const override {
    out.ok = out.all_informed;
    out.completion_round = e.last_first_data_reception();
    out.label_bits =
        2 * bits_for(static_cast<const ColoringPlan&>(plan).coloring.count);
  }
};

class DecayScheme final : public LabelFreeScheme {
 public:
  std::string_view name() const noexcept override { return "decay"; }
  std::string_view description() const noexcept override {
    return "BGI Decay: randomized label-free baseline that knows n "
           "(paper §1)";
  }
  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph& g, NodeId source, const Plan&,
      const SchemeOptions& opt) const override {
    Rng master(opt.seed);
    std::vector<std::unique_ptr<sim::Protocol>> out;
    out.reserve(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      out.push_back(std::make_unique<baselines::DecayProtocol>(
          g.node_count(), master.next(),
          v == source ? std::optional<std::uint32_t>(opt.mu) : std::nullopt));
    }
    return out;
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions&) const override {
    return 64ull * (g.node_count() + 16);
  }

  void collect(const sim::Engine& e, const Graph&, NodeId, const Plan&,
               const SchemeOptions&, const ExecutionConfig&,
               SchemeResult& out) const override {
    out.ok = out.all_informed;
    out.completion_round = e.last_first_data_reception();
    out.label_bits = 0;
  }
};

class BeepScheme final : public LabelFreeScheme {
 public:
  std::string_view name() const noexcept override { return "beep"; }
  std::string_view description() const noexcept override {
    return "Anonymous bit-by-bit broadcast under collision detection "
           "(paper §1.1)";
  }
  bool needs_collision_detection() const noexcept override { return true; }
  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph& g, NodeId source, const Plan&,
      const SchemeOptions& opt) const override {
    std::vector<std::unique_ptr<sim::Protocol>> out;
    out.reserve(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      out.push_back(std::make_unique<baselines::BeepBroadcastProtocol>(
          opt.frame_bits,
          v == source ? std::optional<std::uint32_t>(opt.mu) : std::nullopt));
    }
    return out;
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions& opt) const override {
    return (static_cast<std::uint64_t>(opt.frame_bits) + 2) *
           (g.node_count() + 2);
  }

  void collect(const sim::Engine& e, const Graph& g, NodeId, const Plan&,
               const SchemeOptions& opt, const ExecutionConfig&,
               SchemeResult& out) const override {
    bool ok = out.all_informed;
    for (NodeId v = 0; v < g.node_count() && ok; ++v) {
      const auto& p = dynamic_cast<const baselines::BeepBroadcastProtocol&>(
          e.protocol(v));
      ok = p.decoded().has_value() && *p.decoded() == opt.mu;
    }
    out.ok = ok;
    // The round count, not the last first-data reception: decoding
    // finishes after the last beep.
    out.completion_round = e.round();
    out.label_bits = 0;
  }
};

}  // namespace

namespace detail {

void register_builtin_schemes(SchemeRegistry& registry) {
  registry.add(std::make_unique<BScheme>());
  registry.add(std::make_unique<AckScheme>());
  registry.add(std::make_unique<CommonRoundScheme>());
  registry.add(std::make_unique<ArbScheme>());
  registry.add(std::make_unique<MultiScheme>());
  registry.add(std::make_unique<OneBitScheme>());
  registry.add(std::make_unique<OneBitAckScheme>());
  registry.add(std::make_unique<RoundRobinScheme>());
  registry.add(std::make_unique<ColorRobinScheme>());
  registry.add(std::make_unique<DecayScheme>());
  registry.add(std::make_unique<BeepScheme>());
}

}  // namespace detail

}  // namespace radiocast::runtime
