// SDN-style role assignment — the paper's second §1.2 scenario.
//
// An SDN controller assigns each wireless switch one of six forwarding roles
// (the λ_arb labels).  Because λ_arb does not fix the source, ANY switch can
// later originate a broadcast: here an alert is raised at three different
// switches in turn, and the same role table serves all of them, ending each
// time with a network-wide agreed completion round (acknowledged broadcast).
#include <cstdio>

#include "core/labeling.hpp"
#include "graph/generators.hpp"
#include "runtime/scheme.hpp"
#include "support/rng.hpp"

int main() {
  using namespace radiocast;

  Rng rng(1234);
  const graph::Graph fabric = graph::gnp_connected(30, 0.12, rng);
  std::printf("switch fabric: %s\n", fabric.summary().c_str());

  const graph::NodeId controller_choice = 0;  // coordinator r
  const core::ArbLabeling roles =
      core::label_arbitrary(fabric, controller_choice);
  std::printf("coordinator r = %u (role 111), chain anchor z = %u (role 001)\n",
              roles.coordinator, roles.z);

  std::vector<std::uint32_t> census(8, 0);
  for (const auto& l : roles.labels) ++census[l.value()];
  int distinct = 0;
  for (const auto c : census) distinct += c ? 1 : 0;
  std::printf("forwarding roles in use: %d (paper: 6 labels suffice)\n",
              distinct);

  for (const graph::NodeId alarm_origin : {7u, 19u, controller_choice}) {
    const auto run = runtime::run_scheme(
        "arb", fabric, alarm_origin,
        {.mu = 0xA1A7, .coordinator = controller_choice});
    std::printf("alert from switch %2u: delivered=%s, agreed completion round "
                "%llu, total rounds %llu (phase-1 span T=%llu)\n",
                alarm_origin, run.ok ? "yes" : "NO",
                static_cast<unsigned long long>(run.done_round),
                static_cast<unsigned long long>(run.rounds),
                static_cast<unsigned long long>(run.T));
    if (!run.ok) return 1;
  }
  return 0;
}
