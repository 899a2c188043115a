// Figure F1 — regenerates the paper's Figure 1: the execution of algorithm B
// on the 13-node example, checked against the figure's published labels,
// transmit rounds and first receptions, plus the Lemma 2.8 trace verifier.
#include "harness.hpp"

#include <map>

#include "core/protocols.hpp"
#include "core/verifier.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"

namespace radiocast::bench {
namespace {

void run(Context& ctx) {
  const graph::Graph g = graph::figure1();
  const graph::NodeId source = 0;

  Sample s;
  s.family = "figure1";
  s.n = g.node_count();
  s.m = g.edge_count();

  int mismatches = 0;
  bool lemma_ok = false;
  std::uint64_t completion = 0, transmissions = 0;
  s.wall_ns = time_ns([&] {
    const core::Labeling labeling = core::label_broadcast(g, source);
    sim::Engine engine(g, core::make_broadcast_protocols(labeling, 1),
                       {sim::TraceLevel::kFull});
    engine.run_until([](const sim::Engine& e) { return e.all_informed(); }, 64);
    const auto& trace = engine.trace();
    completion = engine.last_first_data_reception();

    // Published figure data, keyed by the reconstruction's node ids
    // (s=0 A=1 C=2 B=3 D=4 E=5 F=6 G=7 P_C..P_F=8..11 H=12).
    const std::map<graph::NodeId, std::string> figure_label = {
        {0, "10"}, {1, "10"}, {2, "10"}, {3, "10"}, {4, "10"}, {5, "11"},
        {6, "11"}, {7, "01"}, {8, "00"}, {9, "00"}, {10, "00"}, {11, "00"},
        {12, "00"}};
    const std::map<graph::NodeId, std::vector<std::uint64_t>> figure_tx = {
        {0, {1}},    {1, {3}},    {2, {3, 5}}, {3, {3, 5, 7}}, {4, {5}},
        {5, {4, 5}}, {6, {4, 5}}, {7, {6}},    {8, {}},        {9, {}},
        {10, {}},    {11, {}},    {12, {}}};
    const std::map<graph::NodeId, std::uint64_t> figure_first_rx = {
        {1, 1}, {2, 1}, {3, 1}, {4, 3},  {5, 3},  {6, 3},
        {7, 5}, {8, 5}, {9, 5}, {10, 5}, {11, 5}, {12, 7}};

    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      const auto tx = trace.transmit_rounds(v);
      transmissions += tx.size();
      const bool label_ok =
          labeling.labels[v].to_string() == figure_label.at(v);
      const bool tx_ok = tx == figure_tx.at(v);
      std::uint64_t first_rx = 0;
      if (const auto r = trace.first_reception(v, sim::MsgKind::kData)) {
        first_rx = *r;
      }
      const bool rx_ok = (v == source) ? first_rx == 7  // s hears B's echo
                                       : first_rx == figure_first_rx.at(v);
      mismatches += (label_ok && tx_ok && rx_ok) ? 0 : 1;
    }
    lemma_ok = core::verify_lemma_2_8(g, labeling, trace).empty();
  });

  s.rounds = completion;
  s.transmissions = transmissions;
  s.ok = mismatches == 0 && lemma_ok;
  s.extra = {{"mismatches", static_cast<double>(mismatches)},
             {"lemma_2_8", lemma_ok ? 1.0 : 0.0}};
  ctx.record(std::move(s));
}

const bool registered = register_scenario(
    {"fig1",
     "Figure 1 reproduction: 13-node execution vs published labels/rounds",
     {"smoke", "figure"},
     &run});

}  // namespace
}  // namespace radiocast::bench
