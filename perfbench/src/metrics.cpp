#include "metrics.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"graph.materialize_ms", "ms"},
      {"graph.hash_ms", "ms"},
      {"graph.coloring_ms", "ms"},
      {"graph.bitadj_ms", "ms"},
      {"core.label_ms.b", "ms"},
      {"core.label_ms.lambda-ack", "ms"},
      {"core.label_ms.arb", "ms"},
      {"core.labelings", "count"},
      {"runtime.compile_ms", "ms"},
      {"runtime.replay_us", "us"},
      {"runtime.plan_hit_ratio", "ratio"},
      {"runtime.compiled_hit_ratio", "ratio"},
      {"runtime.plan_evictions", "count"},
      {"runtime.store_write_ms", "ms"},
      {"runtime.store_read_ms", "ms"},
      {"runtime.store_bytes", "bytes"},
      {"runtime.wire_encode_us", "us"},
      {"runtime.wire_decode_us", "us"},
      {"runtime.resbin_decode_us", "us"},
      {"runtime.bytes_per_spec", "bytes"},
      {"runtime.sweep_busy_frac", "ratio"},
      {"sim.engine_build_ms", "ms"},
      {"sim.engine_ms", "ms"},
      {"sim.rounds", "count"},
      {"sim.polls", "count"},
      {"sim.tx", "count"},
      {"sim.ns_per_poll", "ns"},
      {"sim.tx_per_poll", "ratio"},
      {"serve.exec_us_per_spec", "us"},
      {"serve.specs_per_submission", "count"},
      {"serve.coalesced_frac", "ratio"},
      {"serve.max_queue_depth", "count"},
      {"serve.fallback_splits", "count"},
      {"serve.error_frames", "count"},
  };
  return catalog;
}

void span_metrics(const std::vector<Span>& spans, std::uint64_t json_specs,
                  std::uint64_t binary_specs, RunOutput& out) {
  const auto st = span_stats(spans);
  const auto mean = [&](const char* name) {
    const auto it = st.find(name);
    return it == st.end() ? 0.0 : it->second.mean_ms();
  };
  const auto total_us = [&](const char* name) {
    const auto it = st.find(name);
    return it == st.end() ? 0.0 : it->second.total_ms * 1e3;
  };
  auto& m = out.layers;
  m["graph.materialize_ms"] = mean("graph.materialize");
  m["graph.hash_ms"] = mean("graph.hash");
  m["graph.coloring_ms"] = mean("graph.coloring");
  m["graph.bitadj_ms"] = mean("graph.bitadj");
  m["core.label_ms.b"] = mean("core.label.b");
  m["core.label_ms.lambda-ack"] = mean("core.label.lambda-ack");
  m["core.label_ms.arb"] = mean("core.label.arb");
  m["runtime.compile_ms"] = mean("runtime.compile");
  m["runtime.replay_us"] = mean("runtime.replay") * 1e3;
  m["runtime.store_write_ms"] = mean("runtime.store_write");
  m["runtime.store_read_ms"] = mean("runtime.store_read");
  const double all = static_cast<double>(json_specs + binary_specs);
  m["runtime.wire_encode_us"] = all > 0 ? total_us("wire.encode") / all : 0;
  m["runtime.wire_decode_us"] =
      json_specs ? total_us("wire.decode") / json_specs : 0;
  m["runtime.resbin_decode_us"] =
      binary_specs ? total_us("wire.resbin_decode") / binary_specs : 0;
  m["sim.engine_build_ms"] = mean("sim.engine_build");
  m["sim.engine_ms"] = mean("sim.engine");
}

void sim_metrics(const layers::SimCounters& sim, RunOutput& out) {
  auto& m = out.layers;
  const double runs = static_cast<double>(sim.runs.load());
  const double polls = static_cast<double>(sim.polls.load());
  m["sim.rounds"] = runs > 0 ? sim.rounds.load() / runs : 0;
  m["sim.polls"] = runs > 0 ? polls / runs : 0;
  m["sim.tx"] = runs > 0 ? sim.tx.load() / runs : 0;
  m["sim.ns_per_poll"] = polls > 0 ? sim.step_ns.load() / polls : 0;
  m["sim.tx_per_poll"] = polls > 0 ? sim.tx.load() / polls : 0;
}

}  // namespace perfbench
