/// \file scheme.hpp
/// \brief The scheme registry: every broadcast scheme behind one interface.
///
/// The paper's architecture is two-phase — a centralized labeling computed
/// once per network, then a universal per-node algorithm driven only by the
/// labels — and every scheme in this repo (B, B_ack, B_arb, the common-round
/// construction, the one-bit schemes, multi-message sessions, and the
/// comparison baselines) shares that shape.  `runtime::Scheme` makes the
/// shape structural:
///
///   label(g, source)      the centralized half; an opaque, shareable Plan
///   make_protocols(...)   the distributed half; one sim::Protocol per node
///   verify(trace)         optional: check a recorded execution against the
///                         paper's guarantees (Lemma 2.8 for B, Theorem 3.9
///                         for B_ack, §4 for B_arb)
///
/// `run_scheme` executes any registered scheme through one polymorphic
/// path — engine construction, round budget, stop predicate, observable
/// extraction — so a new scenario is a registry entry, not a new plumbing
/// stack.  It is the one way to run a scheme: tests, the bench harness, the
/// examples and both front ends all call it.
///
/// A spec that opts into `ExecutionConfig::compiled` is answered by a
/// recorded result: `compile` runs that same engine path once and keeps
/// its `SchemeResult`, which the sweep caches and stores under
/// `recorded_result_key` and `replay` hands back.  There is no second
/// execution model to keep in step with the engine.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/labeling.hpp"
#include "graph/graph.hpp"
#include "runtime/config.hpp"
#include "sim/engine.hpp"
#include "sim/protocol.hpp"
#include "sim/trace.hpp"
#include "support/bytes.hpp"

namespace radiocast::runtime {

using graph::Graph;
using graph::NodeId;

/// Scheme-construction knobs.  Every field has a sensible default; schemes
/// read only the fields their algorithm defines.
struct SchemeOptions {
  std::uint32_t mu = 42;  ///< the source message µ
  core::DomPolicy policy = core::DomPolicy::kAscendingId;
  std::uint64_t seed = 0;       ///< labeling tie-break / randomized schemes
  NodeId coordinator = 0;       ///< B_arb's labeled coordinator r
  std::vector<std::uint32_t> payloads = {};  ///< multi-message schedule
                                             ///< (empty = send `mu` once)
  std::uint32_t frame_bits = 8;     ///< beep frame width L
  std::uint32_t max_attempts = 64;  ///< one-bit labeling restarts
  std::uint64_t max_stages = 0;     ///< one-bit stall cap (0 = 4n + 8)
  /// B_ack's loss-tolerant retry mode (AckBroadcastProtocol): informed
  /// nodes keep retransmitting on a slotted schedule so the broadcast
  /// survives lossy links.  Part of the recorded-result key, so a resilient
  /// spec never shares a record with a plain one.
  bool resilient = false;
};

/// The centralized half of a scheme, computed once per (graph, plan-family)
/// cache key and shared read-only across executions.  Concrete schemes
/// subclass this with whatever their labeling produces (a core::Labeling, a
/// bit vector, a G² coloring, ...).
struct Plan {
  virtual ~Plan() = default;

  /// Approximate resident bytes of this plan — the unit of the PlanCache
  /// byte budget.  Concrete plans override with their real payload size;
  /// the default only charges the object header.
  virtual std::size_t footprint() const noexcept { return 64; }
};
using PlanPtr = std::shared_ptr<const Plan>;

/// The union of observables the schemes report.  `ok` is the scheme's own
/// success verdict; each scheme fills the remaining fields its algorithm
/// defines and leaves the others at their defaults.
struct SchemeResult {
  bool ok = false;             ///< scheme-specific success verdict
  bool all_informed = false;   ///< every node holds the source message
  bool labeling_found = true;  ///< one-bit: a labeling search succeeded
  std::uint64_t rounds = 0;            ///< engine rounds executed
  std::uint64_t completion_round = 0;  ///< last first-data reception
  std::uint64_t ack_round = 0;         ///< source's first ack reception (t')
  std::uint64_t bound = 0;             ///< 2n - 3 (B / B_ack)
  std::uint32_t ell = 0;               ///< stage count (Lemma 2.6)
  NodeId special = graph::kNoNode;     ///< z (ack) / coordinator (arb)
  std::uint64_t max_stamp = 0;         ///< message-size accounting
  std::uint64_t done_round = 0;  ///< arb common done round / common-round 2m
  std::uint64_t T = 0;           ///< arb phase-1 duration / common-round m
  std::uint64_t last_learned = 0;   ///< common-round: latest m-learn stamp
  std::uint64_t stay_count = 0;     ///< B: total "stay" transmissions
  std::uint64_t data_tx_count = 0;  ///< B: total µ transmissions
  std::uint64_t max_node_tx = 0;    ///< worst per-node duty cycle
  std::uint64_t tx_total = 0;       ///< transmissions, all kinds
  std::uint64_t polls = 0;       ///< on_round polls (dispatch-cost metric)
  std::uint32_t attempts = 0;    ///< one-bit restarts consumed
  std::uint32_t ones = 0;        ///< one-bit 1-labeled node count
  std::uint32_t label_bits = 0;  ///< bits per node the scheme needs
  std::vector<std::uint64_t> ack_rounds;  ///< multi: per-message ack rounds
  std::uint64_t rounds_per_message = 0;   ///< multi: constant by determinism
  sim::Trace trace;  ///< engine path at TraceLevel::kFull only
};

/// A recorded result: the engine's counters-level `SchemeResult` for one
/// `recorded_result_key`, with `polls` cleared (a dispatch cost, which the
/// key leaves out).  Shared read-only by the PlanCache; persisted as a
/// PlanStore `kCompiled` record.
struct CompiledPlan {
  SchemeResult result;

  /// Approximate resident bytes (see Plan::footprint).
  std::size_t footprint() const noexcept {
    return sizeof(*this) +
           result.ack_rounds.capacity() * sizeof(std::uint64_t);
  }
};
using CompiledPlanPtr = std::shared_ptr<const CompiledPlan>;

/// One broadcast scheme behind the uniform runtime interface.  Stateless:
/// all per-execution state lives in the engine/protocols, all per-network
/// state in the Plan, so one registered instance serves concurrent sweeps.
class Scheme {
 public:
  virtual ~Scheme() = default;

  virtual std::string_view name() const noexcept = 0;
  virtual std::string_view description() const noexcept = 0;

  /// True iff the scheme only works in collision-detection mode (beep);
  /// `run_scheme` forces the engine signal on for such schemes.
  virtual bool needs_collision_detection() const noexcept { return false; }

  /// True iff specs that opt into `ExecutionConfig::compiled` are answered
  /// by a recorded result (see `recorded_result_key`).
  virtual bool can_compile() const noexcept { return false; }

  /// The labeling identity this scheme's plans belong to.  Schemes whose
  /// `label` computes the *same* construction share a family so one cached
  /// (or stored) plan serves all of them: ack, common-round, and multi all
  /// compute λ_ack and return "lambda-ack".  Default: the scheme's own name
  /// (no sharing).  Schemes in one family must produce identical Plan
  /// objects for identical (graph, source, options).
  virtual std::string_view plan_family() const noexcept { return name(); }

  /// Cache identity of `label`: two specs with equal keys (for the same
  /// graph and plan family) share one Plan.  The default covers
  /// source-anchored labelings; schemes whose labeling ignores the source
  /// (B_arb) or the options (baselines) override to widen sharing.
  virtual std::string plan_key(NodeId source, const SchemeOptions& opt) const;

  /// True iff the scheme implements the plan codec below, making its plans
  /// persistable in a PlanStore.  (Recorded results always are.)
  virtual bool can_store_plans() const noexcept { return false; }

  /// Serializes a plan into the store's byte format.  Only called when
  /// `can_store_plans()`; the bytes must round-trip through `decode_plan`
  /// into a plan whose executions are trace-for-trace identical.
  virtual void encode_plan(const Plan& plan, support::ByteWriter& out) const;

  /// Decodes `encode_plan` output.  Returns nullptr on malformed bytes
  /// (the reader's failure flag, trailing bytes, or semantic violations) —
  /// never throws on untrusted input.
  virtual PlanPtr decode_plan(support::ByteReader& in) const;

  /// Serializes a recorded result into the store's byte format: its
  /// canonical wire JSON (runtime/wire.hpp), length-prefixed.
  void encode_compiled(const CompiledPlan& compiled,
                       support::ByteWriter& out) const;

  /// Decodes `encode_compiled` output; nullptr on malformed bytes.
  CompiledPlanPtr decode_compiled(support::ByteReader& in) const;

  /// The centralized half: computes the scheme's label assignment / plan.
  virtual PlanPtr label(const Graph& g, NodeId source,
                        const SchemeOptions& opt) const = 0;

  /// The distributed half: one protocol per node, driven by the plan.
  virtual std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph& g, NodeId source, const Plan& plan,
      const SchemeOptions& opt) const = 0;

  /// The scheme's default engine round budget (used when
  /// `ExecutionConfig::max_rounds` is 0).
  virtual std::uint64_t round_budget(const Graph& g, const Plan& plan,
                                     const SchemeOptions& opt) const = 0;

  /// Engine stop predicate, checked after every round.  Default: every
  /// protocol reports informed().
  virtual bool done(const sim::Engine& engine, NodeId source,
                    const SchemeOptions& opt) const;

  /// Extracts the scheme observables once the engine stopped.  `out` arrives
  /// with the execution-generic fields (rounds, tx_total, polls,
  /// all_informed) filled; `config` tells the scheme whether a full trace
  /// was recorded (trace-derived counters are only exact then).
  virtual void collect(const sim::Engine& engine, const Graph& g,
                       NodeId source, const Plan& plan,
                       const SchemeOptions& opt, const ExecutionConfig& config,
                       SchemeResult& out) const = 0;

  /// Degenerate-instance hook: returns true iff the result was produced
  /// without an engine (e.g. the single-node network).  Default: never.
  virtual bool run_trivial(const Graph& g, NodeId source, const Plan& plan,
                           const SchemeOptions& opt, SchemeResult& out) const;

  /// Records a result: runs the engine exactly as `run_with_plan` does, at
  /// counters level, and keeps the `SchemeResult` with `polls` cleared.
  /// The caller files it under `recorded_result_key`.
  CompiledPlanPtr compile(const Graph& g, NodeId source, const PlanPtr& plan,
                          const SchemeOptions& opt,
                          const ExecutionConfig& config) const;

  /// A copy of the recorded result.  It carries no trace: kFull specs take
  /// the engine (see `recorded_result_key`).
  SchemeResult replay(const Graph& g, NodeId source,
                      const CompiledPlan& compiled,
                      const ExecutionConfig& config) const;

  /// Checks a full-trace execution against the paper's guarantee for the
  /// scheme (empty string = OK or no verifier).  O(trace) except B's
  /// Lemma 2.8 check, which also predicts the schedule.
  virtual std::string verify(const Graph& g, NodeId source, const Plan& plan,
                             const sim::Trace& trace) const;
};

/// Name-keyed registry of scheme singletons.  `instance()` arrives with the
/// built-in schemes registered; `add` extends it (first name wins).
class SchemeRegistry {
 public:
  static SchemeRegistry& instance();

  /// Registers a scheme; returns false (and drops it) if the name is taken.
  bool add(std::unique_ptr<Scheme> scheme);

  /// Looks up a scheme by name; nullptr when unknown.  The pointer stays
  /// valid for the registry's lifetime (schemes are never removed).
  const Scheme* find(std::string_view name) const;

  /// Every registered scheme, sorted by name.
  std::vector<const Scheme*> schemes() const;

 private:
  SchemeRegistry() = default;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Scheme>> schemes_;
};

/// Uniform execution: label, then run on the engine.
/// Requires `source < g.node_count()`, checked before labeling.
SchemeResult run_scheme(const Scheme& scheme, const Graph& g, NodeId source,
                        const SchemeOptions& opt = {},
                        const ExecutionConfig& config = {});

/// Registry-name convenience overload; the name must be registered.
SchemeResult run_scheme(std::string_view name, const Graph& g, NodeId source,
                        const SchemeOptions& opt = {},
                        const ExecutionConfig& config = {});

/// Executes with an already-computed (possibly cached) plan.  A spec that
/// `recorded_result_key` sends to a recorded result reports `polls` 0 here
/// too, so a one-off run and a served answer agree field for field.
SchemeResult run_with_plan(const Scheme& scheme, const Graph& g,
                           NodeId source, const PlanPtr& plan,
                           const SchemeOptions& opt,
                           const ExecutionConfig& config);

/// The one decision whether a spec is answered by a recorded result, and
/// the key it is recorded under.  Returns nullopt when the spec takes the
/// engine: it did not opt in (`config.compiled`), the scheme cannot
/// compile, a fault plan is enabled, or it asks for a full trace.
/// Otherwise the key is `plan_key` (the spec's PlanCache key, which names
/// the graph), the scheme, the source, the canonical wire encoding of
/// `opt`, `config.max_rounds` and collision detection.  Backend, dispatch,
/// ISA and threads stay out: the differential suites pin that they never
/// change a result.
std::optional<std::string> recorded_result_key(const Scheme& scheme,
                                               std::string_view plan_key,
                                               NodeId source,
                                               const SchemeOptions& opt,
                                               const ExecutionConfig& config);

namespace detail {
/// Defined in schemes.cpp; called once from SchemeRegistry::instance().
void register_builtin_schemes(SchemeRegistry& registry);
}  // namespace detail

}  // namespace radiocast::runtime
