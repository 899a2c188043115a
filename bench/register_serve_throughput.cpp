// Micro-bench P6 — the serve daemon: an in-process `serve::Server` under
// real socket load.  Families:
//  - serve/multi-client: several concurrent Client threads stream spec
//    batches at a warm server; reports specs/sec plus per-batch p50/p99
//    latency (the interleave cost of batch-granularity serialization).
//    Recorded, not gated (latency is host-dependent).
//  - serve/saturating/{serial,pipelined}: the pipelined-executor acceptance
//    row.  8 clients fire small overhead-dominated batches at the same
//    host twice — once at a serial server (--pipeline-depth 0) and once at
//    the staged pipeline — and the pipelined run must clear >= 2x
//    specs/sec whenever the host has >= 4 hardware threads (self-skipped
//    below that, like the other parallel gates).
//  - serve/restart/{cold,warm}: the acceptance row.  A server with a plan
//    store answers a compiled clique batch (b/ack/arb, several sources,
//    n >= 4096), is torn down, and a *fresh* server over the same store
//    directory answers the identical batch.  The warm restart must be
//    >= 3x faster, report zero labelings and zero recorded-result misses,
//    and reproduce the cold results line for line.
#include "harness.hpp"

#include <algorithm>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiments.hpp"
#include "runtime/plan_store.hpp"
#include "runtime/sweep.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace radiocast::bench {
namespace {

constexpr std::uint32_t kCliqueMinNodes = 4096;
constexpr std::uint32_t kCliqueMaxNodes = 8192;
constexpr double kAcceptanceSpeedup = 3.0;
constexpr double kPipelineSpeedup = 2.0;
constexpr unsigned kPipelineGateCores = 4;

std::vector<runtime::ExperimentSpec> client_specs(std::uint32_t n) {
  std::vector<runtime::ExperimentSpec> specs;
  for (const char* scheme : {"b", "ack", "arb", "round-robin"}) {
    runtime::ExperimentSpec spec;
    spec.scheme = scheme;
    spec.graph.generator = "grid:4:" + std::to_string(std::max(2u, n / 4));
    spec.label = std::string("serve/") + scheme;
    specs.push_back(std::move(spec));
  }
  return specs;
}

double percentile(std::vector<std::uint64_t> sorted_ns, double p) {
  if (sorted_ns.empty()) return 0.0;
  std::sort(sorted_ns.begin(), sorted_ns.end());
  const std::size_t idx = std::min(
      sorted_ns.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted_ns.size())));
  return static_cast<double>(sorted_ns[idx]) / 1e6;  // ms
}

/// Concurrent clients streaming batches at one warm server.
void multi_client_family(Context& ctx, std::uint32_t n) {
  const auto specs = client_specs(n);
  runtime::SweepRunner runner(ctx.pool());
  serve::Server server(runner, serve::ServerOptions{});
  server.start();

  // Warm the cache so the measured regime is the daemon's steady state.
  {
    serve::Client warmup;
    if (!warmup.connect_tcp(server.tcp_port())) return;
    if (!warmup.run_batch(specs).ok) return;
  }

  constexpr int kClients = 4;
  constexpr int kBatchesPerClient = 8;
  std::vector<std::vector<std::uint64_t>> latencies(kClients);
  std::vector<bool> client_ok(kClients, true);
  const std::uint64_t wall_ns = time_ns([&] {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        serve::Client client;
        if (!client.connect_tcp(server.tcp_port())) {
          client_ok[c] = false;
          return;
        }
        for (int b = 0; b < kBatchesPerClient; ++b) {
          serve::BatchOutcome outcome;
          latencies[c].push_back(time_ns([&] {
            outcome = client.run_batch(specs, static_cast<std::uint64_t>(c));
          }));
          if (!outcome.ok || outcome.results.size() != specs.size()) {
            client_ok[c] = false;
            return;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  });
  server.stop();

  std::vector<std::uint64_t> all;
  bool ok = true;
  for (int c = 0; c < kClients; ++c) {
    ok = ok && client_ok[c];
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
  }
  const std::size_t total_specs = all.size() * specs.size();
  const double secs = static_cast<double>(wall_ns) / 1e9;

  Sample s;
  s.family = "serve/multi-client";
  s.n = n;
  s.rounds = total_specs;
  s.wall_ns = wall_ns;
  s.ok = ok;
  s.extra = {
      {"specs_per_sec",
       secs > 0 ? static_cast<double>(total_specs) / secs : 0.0},
      {"batch_p50_ms", percentile(all, 0.50)},
      {"batch_p99_ms", percentile(all, 0.99)},
      {"clients", static_cast<double>(kClients)},
  };
  ctx.record(std::move(s));
}

struct SaturatingRun {
  std::uint64_t wall_ns = 0;
  bool ok = false;
  serve::PipelineStats pipeline;
};

/// One server lifetime under saturating load: `clients` threads each fire
/// `batches` copies of `specs` as fast as the daemon answers them.  The
/// cache is warmed first so the measured regime is pure serving overhead.
SaturatingRun saturate_once(Context& ctx, const serve::ServerOptions& options,
                            const std::vector<runtime::ExperimentSpec>& specs,
                            int clients, int batches) {
  SaturatingRun out;
  runtime::SweepRunner runner(ctx.pool());
  serve::Server server(runner, options);
  server.start();
  {
    serve::Client warmup;
    if (!warmup.connect_tcp(server.tcp_port()) ||
        !warmup.run_batch(specs).ok) {
      server.stop();
      return out;
    }
  }

  std::vector<char> client_ok(static_cast<std::size_t>(clients), 1);
  out.wall_ns = time_ns([&] {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        serve::Client client;
        if (!client.connect_tcp(server.tcp_port())) {
          client_ok[static_cast<std::size_t>(c)] = 0;
          return;
        }
        for (int b = 0; b < batches; ++b) {
          const auto outcome =
              client.run_batch(specs, static_cast<std::uint64_t>(b));
          if (!outcome.ok || outcome.results.size() != specs.size()) {
            client_ok[static_cast<std::size_t>(c)] = 0;
            return;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  });
  out.pipeline = server.pipeline_stats();
  server.stop();
  out.ok = std::all_of(client_ok.begin(), client_ok.end(),
                       [](char ok) { return ok != 0; });
  return out;
}

/// Serial vs pipelined under 8-client saturating load: the >= 2x gate.
void saturating_family(Context& ctx, std::uint32_t n) {
  // Two tiny specs per batch: the per-batch-overhead-dominated regime
  // where admission coalescing and stage overlap are the whole story.
  std::vector<runtime::ExperimentSpec> specs;
  for (const char* scheme : {"b", "ack"}) {
    runtime::ExperimentSpec spec;
    spec.scheme = scheme;
    spec.graph.generator = "path:" + std::to_string(std::max(8u, n / 64));
    spec.label = std::string("saturating/") + scheme;
    specs.push_back(std::move(spec));
  }
  constexpr int kClients = 8;
  constexpr int kBatchesPerClient = 16;

  serve::ServerOptions serial_options;
  serial_options.executor.pipeline_depth = 0;
  const SaturatingRun serial =
      saturate_once(ctx, serial_options, specs, kClients, kBatchesPerClient);
  const SaturatingRun pipelined = saturate_once(
      ctx, serve::ServerOptions{}, specs, kClients, kBatchesPerClient);

  const double speedup =
      pipelined.wall_ns != 0 ? static_cast<double>(serial.wall_ns) /
                                   static_cast<double>(pipelined.wall_ns)
                             : 0.0;
  const std::size_t total_specs =
      specs.size() * static_cast<std::size_t>(kClients * kBatchesPerClient);
  const bool gated =
      std::thread::hardware_concurrency() >= kPipelineGateCores;
  for (const auto* run : {&serial, &pipelined}) {
    Sample s;
    s.family = std::string("serve/saturating/") +
               (run == &serial ? "serial" : "pipelined");
    s.n = n;
    s.rounds = total_specs;
    s.wall_ns = run->wall_ns;
    s.ok = serial.ok && pipelined.ok;
    const double secs = static_cast<double>(run->wall_ns) / 1e9;
    s.extra = {
        {"specs_per_sec",
         secs > 0 ? static_cast<double>(total_specs) / secs : 0.0},
        {"pipeline_speedup", speedup},
        {"clients", static_cast<double>(kClients)},
        {"coalesced_batches",
         static_cast<double>(run->pipeline.coalesced_batches)},
        {"submissions", static_cast<double>(run->pipeline.submissions)},
    };
    if (run == &pipelined && gated) {
      s.ok = s.ok && speedup >= kPipelineSpeedup;
    }
    ctx.record(std::move(s));
  }
}

struct ServedBatch {
  std::uint64_t wall_ns = 0;
  bool ok = false;
  std::vector<std::string> lines;
  std::uint64_t plan_misses = 0;
  std::uint64_t compiled_misses = 0;
  std::uint64_t store_hits = 0;
};

/// One daemon lifetime: start a server over `dir`, run the batch, stop.
ServedBatch serve_once(Context& ctx, const std::string& dir,
                       const std::vector<runtime::ExperimentSpec>& specs) {
  ServedBatch out;
  runtime::PlanStore store(dir);
  runtime::SweepRunner runner(ctx.pool());
  runner.attach_store(&store);
  serve::Server server(runner, serve::ServerOptions{});
  server.start();
  serve::Client client;
  if (!client.connect_tcp(server.tcp_port())) return out;
  serve::BatchOutcome outcome;
  out.wall_ns = time_ns([&] { outcome = client.run_batch(specs); });
  out.ok = outcome.ok && outcome.results.size() == specs.size();
  if (out.ok) {
    out.lines = analysis::format_sweep(specs, outcome.results);
    const auto& stats = outcome.done.get("stats");
    out.plan_misses = stats.get("plan_misses").as_uint();
    out.compiled_misses = stats.get("compiled_misses").as_uint();
    out.store_hits = stats.get("plan_store_hits").as_uint() +
                     stats.get("compiled_store_hits").as_uint();
  }
  server.stop();
  return out;
}

/// Kill-and-restart on the compiled clique: the acceptance comparison.
void restart_family(Context& ctx, std::uint32_t n) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("radiocast_serve_bench_" + std::to_string(n)))
          .string();
  std::filesystem::remove_all(dir);

  std::vector<runtime::ExperimentSpec> specs;
  for (const char* scheme : {"b", "ack", "arb"}) {
    for (graph::NodeId source = 0; source < 16; ++source) {
      runtime::ExperimentSpec spec;
      spec.scheme = scheme;
      spec.graph.generator = "complete:" + std::to_string(n);
      spec.source = source;
      spec.config = ctx.exec();
      spec.config.compiled = true;
      spec.label = std::string("clique/") + scheme;
      specs.push_back(std::move(spec));
    }
  }

  const ServedBatch cold = serve_once(ctx, dir, specs);
  const ServedBatch warm = serve_once(ctx, dir, specs);
  std::filesystem::remove_all(dir);

  const bool agree = cold.ok && warm.ok && cold.lines == warm.lines;
  // The restarted daemon must answer purely from the store.
  const bool warm_from_store = warm.plan_misses == 0 &&
                               warm.compiled_misses == 0 &&
                               warm.store_hits > 0;
  const double speedup = warm.wall_ns ? static_cast<double>(cold.wall_ns) /
                                            static_cast<double>(warm.wall_ns)
                                      : 0.0;
  for (const auto* run : {&cold, &warm}) {
    Sample s;
    s.family = std::string("serve/restart/") + (run == &cold ? "cold" : "warm");
    s.n = n;
    s.m = static_cast<std::uint64_t>(n) * (n - 1) / 2;
    s.rounds = specs.size();
    s.wall_ns = run->wall_ns;
    s.ok = agree;
    const double secs = static_cast<double>(run->wall_ns) / 1e9;
    s.extra = {
        {"specs_per_sec",
         secs > 0 ? static_cast<double>(specs.size()) / secs : 0.0},
        {"warm_speedup", speedup},
        {"plan_misses", static_cast<double>(run->plan_misses)},
        {"store_hits", static_cast<double>(run->store_hits)},
    };
    if (run == &warm) {
      s.ok = s.ok && warm_from_store;
      if (n >= kCliqueMinNodes) s.ok = s.ok && speedup >= kAcceptanceSpeedup;
    }
    ctx.record(std::move(s));
  }
}

void run(Context& ctx) {
  for (const std::uint32_t n : ctx.sizes(1024)) {
    multi_client_family(ctx, n);
    saturating_family(ctx, n);
  }
  // Raise the ladder to the gated clique sizes (>= 4096).
  std::vector<std::uint32_t> sizes;
  for (const std::uint32_t s : ctx.sizes(kCliqueMaxNodes)) {
    const std::uint32_t n = std::max(kCliqueMinNodes, s);
    if (std::find(sizes.begin(), sizes.end(), n) == sizes.end()) {
      sizes.push_back(n);
    }
  }
  for (const std::uint32_t n : sizes) {
    restart_family(ctx, n);
  }
}

const bool registered = register_scenario(
    {"serve_throughput",
     "Serve daemon: multi-client specs/sec + p50/p99 latency, and the "
     "cold-vs-warm-restart plan-store acceptance",
     {"micro", "scaling"},
     &run});

}  // namespace
}  // namespace radiocast::bench
