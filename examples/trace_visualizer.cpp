// Trace visualizer: renders the Figure-1 execution as per-node timelines and
// emits Graphviz DOT for the labeled network.
//
//   $ ./trace_visualizer            # figure-1 graph
//   $ ./trace_visualizer < edges    # any edge list ("u v" per line)
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <unistd.h>

#include "core/protocols.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "sim/engine.hpp"

int main() {
  using namespace radiocast;

  graph::Graph g;
  if (!isatty(STDIN_FILENO)) g = graph::read_edge_list(std::cin);
  if (g.node_count() == 0) {
    g = graph::figure1();
    std::printf("(no stdin edge list; using the paper's Figure 1 network)\n");
  }
  const graph::NodeId source = 0;

  const core::Labeling labeling = core::label_broadcast(g, source);
  sim::Engine engine(g, core::make_broadcast_protocols(labeling, 1),
                     {sim::TraceLevel::kFull});
  engine.run_until([](const sim::Engine& e) { return e.all_informed(); },
                   4 * g.node_count() + 8);
  const auto& trace = engine.trace();

  // Per-node timeline, Figure-1 style: {transmit rounds} (reception rounds).
  std::printf("\n%-5s %-6s %-18s %s\n", "node", "label", "transmits",
              "receives");
  std::vector<std::string> dot_text(g.node_count());
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    std::ostringstream tx, rx;
    tx << "{";
    bool first = true;
    for (const auto t : trace.transmit_rounds(v)) {
      tx << (first ? "" : ",") << t;
      first = false;
    }
    tx << "}";
    rx << "(";
    first = true;
    for (const auto& [t, msg] : trace.deliveries_at(v)) {
      rx << (first ? "" : ",") << t
         << (msg.kind == sim::MsgKind::kStay ? "s" : "");
      first = false;
    }
    rx << ")";
    std::printf("%-5u %-6s %-18s %s\n", v,
                labeling.labels[v].to_string().c_str(), tx.str().c_str(),
                rx.str().c_str());
    dot_text[v] = labeling.labels[v].to_string() + "\\n" + tx.str();
  }
  std::printf("\ncompletion: all informed by round %llu\n\n",
              static_cast<unsigned long long>(
                  engine.last_first_data_reception()));
  std::printf("%s", graph::to_dot(g, dot_text, source).c_str());
  return engine.all_informed() ? 0 : 1;
}
