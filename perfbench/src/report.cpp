#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "metrics.hpp"
#include "sim/simd.hpp"
#include "support/json.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

using radiocast::support::Json;

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[4] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      unsigned r[4];
      __get_cpuid(0x80000002u + leaf, &r[0], &r[1], &r[2], &r[3]);
      std::memcpy(brand + 16 * leaf, r, sizeof r);
    }
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_e2e(const char* title, const EndToEnd& e) {
  std::printf("%s\n", title);
  std::printf("  %-16s %14.2f  1/s\n", "specs_per_s", e.specs_per_s);
  std::printf("  %-16s %14.4f  ms\n", "latency_p50_ms", e.latency_p50_ms);
  std::printf("  %-16s %14.4f  ms    (p%g of %zu samples)\n",
              "latency_tail_ms", e.latency_tail.value, e.latency_tail.pct,
              e.latency_tail.samples);
  std::printf("  %-16s %14.6f  frac  (%llu failed of %llu attempted)\n",
              "failed_frac", e.failed_frac(),
              static_cast<unsigned long long>(e.failed),
              static_cast<unsigned long long>(e.attempted));
  std::printf("  %-16s %14.4f  s     (median of %zu set-ups)\n", "setup_s",
              e.setup_s, e.setups);
  std::printf("  %-16s %14.1f  MiB\n", "peak_rss_mib", e.peak_rss_mib);
}

void print_overhead(const EndToEnd& untraced, const EndToEnd& traced) {
  const auto row = [](const char* name, double u, double t) {
    std::printf(
        "  %-16s untraced %12.4f  traced %12.4f  diff %+12.4f (%+.1f%%)\n",
        name, u, t, t - u, u != 0 ? 100.0 * (t - u) / u : 0.0);
  };
  std::printf("tracing overhead (traced half minus untraced half):\n");
  row("specs_per_s", untraced.specs_per_s, traced.specs_per_s);
  row("latency_p50_ms", untraced.latency_p50_ms, traced.latency_p50_ms);
  row("latency_tail_ms", untraced.latency_tail.value,
      traced.latency_tail.value);
}

/// One budget table: self time, share, spans and what the time bought,
/// one row per layer, largest first.  Returns the leading layer other than
/// the benchmark's own.
std::string print_budget_table(const RunOutput& out,
                               const std::vector<Span>& spans) {
  const auto rows = layer_self_times(spans);
  double total = 0;
  for (const auto& r : rows) total += r.self_ms;
  std::printf("  %-8s %12s %7s %8s  %s\n", "layer", "self ms", "share",
              "spans", "buys");
  std::string leader;
  for (const auto& r : rows) {
    const auto buys = out.buys.find(r.layer);
    std::printf("  %-8s %12.1f %6.1f%% %8zu  %s\n", r.layer.c_str(),
                r.self_ms, total > 0 ? 100.0 * r.self_ms / total : 0.0,
                r.spans,
                r.layer == "bench"
                    ? "the benchmark's own request loop and checks"
                    : (buys == out.buys.end() ? "" : buys->second.c_str()));
    if (leader.empty() && r.layer != "bench") leader = r.layer;
  }
  std::printf("  %s\n  %-8s %12.1f %6.1f%%\n",
              "--------------------------------------------", "total", total,
              100.0);
  return leader;
}

/// The per-layer budgets of the traced half's requests and of the set-up
/// replica, then whether the requests' leading layer is the one the metric
/// map claims.
void print_budget(const RunOutput& out, const std::vector<Span>& spans) {
  std::vector<Span> setup;
  std::vector<Span> requests;
  for (const Span& s : spans) (s.request == 0 ? setup : requests).push_back(s);
  std::printf("per-layer budget of the traced requests (self time):\n");
  const std::string leader = print_budget_table(out, requests);
  if (!setup.empty()) {
    std::printf("per-layer budget of the set-up replica (self time):\n");
    print_budget_table(out, setup);
  }
  const bool match =
      std::find(out.claimed_leaders.begin(), out.claimed_leaders.end(),
                leader) != out.claimed_leaders.end();
  std::string claimed;
  for (const auto& l : out.claimed_leaders) {
    claimed += (claimed.empty() ? "" : ", ") + l;
  }
  std::printf("leading layer of the requests: %s; claimed: %s -> %s\n",
              leader.c_str(), claimed.c_str(), match ? "OK" : "MISMATCH");
}

}  // namespace

std::string provenance_json(const Options& opt) {
  Json h(Json::Object{});
  h.set("nproc", Json(std::uint64_t{std::thread::hardware_concurrency()}));
  h.set("cpu", Json(cpu_model()));
  h.set("isa", Json(radiocast::sim::simd::to_string(
                  radiocast::sim::simd::active_isa())));
  h.set("compiler", Json(std::string(PERFBENCH_CXX_COMPILER)));
  h.set("build_type", Json(std::string(PERFBENCH_BUILD_TYPE)));
  h.set("git_sha", Json(opt.git_sha));
  h.set("workload", Json(opt.workload));
  h.set("seed", Json(opt.seed));
  h.set("seconds", Json(opt.seconds));
  h.set("trace", Json(opt.trace));
  return h.dump();
}

int report(const Options& opt, const RunOutput& out, const Tracer& tracer) {
  const EndToEnd& e = out.e2e;
  std::printf("== %s, seed %llu, %g s%s ==\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? ", traced run" : "");
  print_e2e(opt.trace ? "end-to-end (untraced half):" : "end-to-end:", e);
  const auto metric = [](const std::string& name, double value,
                         const char* unit) {
    return "\"" + name + "\": {\"value\": " + number(value) +
           ", \"unit\": \"" + unit + "\"}";
  };
  std::vector<std::string> fields;
  if (!opt.trace) {
    fields = {metric("specs_per_s", e.specs_per_s, "1/s"),
              metric("latency_p50_ms", e.latency_p50_ms, "ms"),
              metric("latency_tail_ms", e.latency_tail.value, "ms"),
              metric("setup_s", e.setup_s, "s"),
              metric("peak_rss_mib", e.peak_rss_mib, "MiB")};
  } else {
    print_e2e("end-to-end (traced half):", out.traced);
    print_overhead(e, out.traced);
    const auto spans = tracer.spans();
    std::printf("per-layer metrics:\n");
    for (const auto& [name, unit] : per_layer_catalog()) {
      const auto it = out.layers.find(name);
      const double v = it == out.layers.end() ? 0.0 : it->second;
      std::printf("  %-28s %16.4f  %s\n", name.c_str(), v, unit.c_str());
      fields.push_back(metric(name, v, unit.c_str()));
    }
    print_budget(out, spans);
    // The file keeps the first 100 K spans (about 14 MB); the metrics
    // above use them all.
    const long written = tracer.write(opt.span_path, 100000);
    if (written >= 0) {
      std::printf("span file: %s (%ld of %zu spans)\n",
                  opt.span_path.c_str(), written, spans.size());
    } else {
      std::printf("span file: could not write %s\n", opt.span_path.c_str());
    }
  }
  const bool correct = e.failed == 0 && e.attempted > 0;
  std::printf("checks: %s\n", correct ? "all passed" : "FAILED");
  for (const auto& r : e.reasons) std::printf("  failure: %s\n", r.c_str());
  std::string line = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(e.attempted) +
                     ", \"failed\": " + std::to_string(e.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    line += (i ? ", " : "") + fields[i];
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
