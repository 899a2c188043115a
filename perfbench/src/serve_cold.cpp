// serve-cold: 4 closed-loop connections against an in-process
// `serve::Server` on loopback TCP.  Every batch names a graph the daemon has
// never seen, so each spec pays for materializing, hashing, labeling,
// coloring, compiling, a store write and LRU eviction.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "graph/generators.hpp"
#include "graph/hash.hpp"
#include "layers.hpp"
#include "metrics.hpp"
#include "runtime/plan_store.hpp"
#include "runtime/sweep.hpp"
#include "runtime/wire.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace rc = radiocast;
namespace fs = std::filesystem;
namespace wire = rc::runtime::wire;
using rc::runtime::ExperimentSpec;
using rc::runtime::SchemeResult;
using rc::runtime::wire::BinaryResult;
using rc::support::Json;

/// serve-cold's plan-cache budget: small enough that LRU eviction runs
/// throughout the window.
constexpr std::size_t kColdPlanCacheBytes = std::size_t{8} << 20;
/// Served results re-derived in-process after the window.
constexpr std::size_t kSampleChecks = 12;

/// One batch a connection sends.  `nodes[i]` is spec i's node count (for
/// the 2n-3 check).
struct Request {
  std::vector<ExperimentSpec> specs;
  std::vector<std::uint32_t> nodes;
  bool binary = false;
};

/// A served result kept for the in-process re-derivation.
struct Sample {
  ExperimentSpec spec;
  bool binary = false;
  SchemeResult json;
  BinaryResult record;
};

/// The traced half's per-connection counters, normalized per spec later.
struct WireTally {
  std::uint64_t json_specs = 0;
  std::uint64_t binary_specs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t exec_ns = 0;        ///< resbin wall_ns, binary batches
  double binary_roundtrip_ms = 0;   ///< round trips of binary batches

  void merge(const WireTally& o) {
    json_specs += o.json_specs;
    binary_specs += o.binary_specs;
    bytes += o.bytes;
    exec_ns += o.exec_ns;
    binary_roundtrip_ms += o.binary_roundtrip_ms;
  }
};

/// The traced half replays a request's server-side work in-process, layer
/// call by layer call, and returns what each spec should have produced.
using Replica = std::function<std::vector<SchemeResult>(const Request&,
                                                        const SpanCtx&)>;

/// One in-process server over a plan store, with its client connections.
/// Members are destroyed in reverse order: connections close before the
/// server stops, and the server before the runner, store and pool it uses.
struct ServeRig {
  std::unique_ptr<rc::par::ThreadPool> pool;
  std::unique_ptr<rc::runtime::PlanStore> store;
  std::unique_ptr<rc::runtime::SweepRunner> runner;
  std::unique_ptr<rc::serve::Server> server;
  std::vector<rc::serve::Client> clients;
};

std::unique_ptr<ServeRig> start_rig(const std::string& store_dir) {
  auto rig = std::make_unique<ServeRig>();
  rig->pool = std::make_unique<rc::par::ThreadPool>(kWorkers);
  rig->store = std::make_unique<rc::runtime::PlanStore>(store_dir);
  rig->runner = std::make_unique<rc::runtime::SweepRunner>(*rig->pool);
  rig->runner->attach_store(rig->store.get());
  rig->server = std::make_unique<rc::serve::Server>(
      *rig->runner, rc::serve::ServerOptions{});
  rig->server->start();
  rig->clients.resize(kWorkers);
  for (auto& client : rig->clients) {
    if (!client.connect_tcp(rig->server->tcp_port())) {
      throw std::runtime_error("cannot connect to the in-process server");
    }
  }
  return rig;
}

void fail_all(const Request& req, Window& w, const std::string& why) {
  for (std::size_t i = 0; i < req.specs.size(); ++i) w.tally.fail(why);
}

/// Why each served result fails the paper's guarantees ("" = passed).
std::vector<std::string> served_failures(
    const Request& req, const std::vector<SchemeResult>* json,
    const std::vector<BinaryResult>* records) {
  std::vector<std::string> why(req.specs.size());
  for (std::size_t i = 0; i < req.specs.size(); ++i) {
    const std::string& scheme = req.specs[i].scheme;
    why[i] = json ? check_result(scheme, (*json)[i], req.nodes[i])
                  : check_binary(scheme, (*records)[i], req.nodes[i]);
  }
  return why;
}

void count(const std::vector<std::string>& why, Window& w) {
  for (const auto& reason : why) {
    if (reason.empty()) {
      ++w.specs_ok;
    } else {
      w.tally.fail(reason);
    }
  }
}

/// One untraced request: the client's combined round trip.  Returns the
/// results (empty on failure) so callers can keep samples.
std::vector<SchemeResult> serve_once(rc::serve::Client& client,
                                     const Request& req, std::uint64_t id,
                                     Window& w,
                                     std::vector<BinaryResult>* records_out) {
  w.tally.attempted += req.specs.size();
  const auto t0 = Clock::now();
  if (req.binary) {
    auto out = client.run_batch_binary(req.specs, id);
    w.latency_ms.push_back(ms_between(t0, Clock::now()));
    if (!out.ok || out.records.size() != req.specs.size()) {
      fail_all(req, w, "batch failed: " + out.code + " " + out.error);
      return {};
    }
    count(served_failures(req, nullptr, &out.records), w);
    if (records_out) *records_out = std::move(out.records);
    return {};
  }
  auto out = client.run_batch(req.specs, id);
  w.latency_ms.push_back(ms_between(t0, Clock::now()));
  if (!out.ok || out.results.size() != req.specs.size()) {
    fail_all(req, w, "batch failed: " + out.code + " " + out.error);
    return {};
  }
  count(served_failures(req, &out.results, nullptr), w);
  return std::move(out.results);
}

/// The "type" of a canonical frame without parsing it: keys are sorted,
/// so the top-level "type" is the last one in the payload.
std::string frame_type(const std::string& payload) {
  const std::string key = "\"type\":\"";
  const auto at = payload.rfind(key);
  if (at == std::string::npos) return {};
  const auto start = at + key.size();
  return payload.substr(start, payload.find('"', start) - start);
}

/// One traced request: encode, round trip, decode and the in-process
/// replica each in their own span; the replica's results must equal the
/// served ones after canonical encoding.
void serve_traced(rc::serve::Client& client, const Request& req,
                  std::uint64_t id, Window& w, Tracer& tracer,
                  WireTally& tally, const Replica& replica) {
  w.tally.attempted += req.specs.size();
  ScopedSpan root(tracer, "bench.request", 0, id);
  const auto t0 = Clock::now();
  Json request(Json::Object{});
  {
    ScopedSpan span(tracer, "wire.encode", root.id(), id);
    request.set("v", Json(wire::kWireVersion));
    request.set("type", Json("batch"));
    request.set("id", Json(id));
    Json specs(Json::Array{});
    for (const auto& spec : req.specs) specs.push_back(wire::to_json(spec));
    request.set("specs", std::move(specs));
    if (req.binary) request.set("encoding", Json("binary"));
    tally.bytes += request.dump().size();
  }
  std::vector<std::string> frames;
  std::string error;
  std::uint64_t roundtrip_id = 0;
  const auto rt0 = Clock::now();
  {
    ScopedSpan span(tracer, "serve.roundtrip", root.id(), id);
    span.set_overlap(kWorkers);  // the connections in flight
    roundtrip_id = span.id();
    const std::size_t expect = req.binary ? 3 : req.specs.size() + 1;
    if (!client.send(request)) error = "send failed";
    while (error.empty() && frames.size() < expect) {
      auto frame = client.receive_raw();
      if (!frame) {
        error = "connection closed mid-batch";
      } else if (!(req.binary && frames.size() == 1) &&
                 frame_type(*frame) == "error") {
        error = "error frame: " + *frame;
      } else {
        frames.push_back(std::move(*frame));
      }
    }
  }
  const double roundtrip_ms = ms_between(rt0, Clock::now());
  std::vector<SchemeResult> results;
  std::vector<BinaryResult> records;
  if (error.empty() && req.binary) {
    ScopedSpan span(tracer, "wire.resbin_decode", root.id(), id);
    auto decoded = wire::decode_results_binary(frames[1]);
    if (!decoded.ok || decoded.value.size() != req.specs.size()) {
      error = "bad resbin frame: " + decoded.error;
    } else {
      records = std::move(decoded.value);
    }
  } else if (error.empty()) {
    ScopedSpan span(tracer, "wire.decode", root.id(), id);
    for (std::size_t i = 0; i < req.specs.size() && error.empty(); ++i) {
      const auto parsed = rc::support::parse_json(frames[i]);
      auto result = wire::result_from_json(parsed.value.get("result"));
      if (!parsed.ok || !result.ok) {
        error = "bad result frame";
      } else {
        results.push_back(std::move(result.value));
      }
    }
  }
  w.latency_ms.push_back(ms_between(t0, Clock::now()));
  for (const auto& f : frames) tally.bytes += f.size();
  if (!error.empty()) {
    fail_all(req, w, error);
    return;
  }
  const auto replicated =
      replica(req, SpanCtx{&tracer, roundtrip_id, id});
  ScopedSpan span(tracer, "bench.check", root.id(), id);
  std::vector<std::string> why;
  if (req.binary) {
    tally.binary_specs += req.specs.size();
    tally.binary_roundtrip_ms += roundtrip_ms;
    for (const auto& r : records) tally.exec_ns += r.wall_ns;
    why = served_failures(req, nullptr, &records);
  } else {
    tally.json_specs += req.specs.size();
    why = served_failures(req, &results, nullptr);
  }
  for (std::size_t i = 0; i < req.specs.size(); ++i) {
    const bool same =
        req.binary ? same_binary(records[i], replicated[i])
                   : compare_canonical(results[i], replicated[i]).empty();
    if (why[i].empty() && !same) {
      why[i] = req.specs[i].scheme +
               ": served result differs from its in-process layer replica";
    }
  }
  count(why, w);
}

/// Runs `kWorkers` closed-loop connections until `seconds` have passed,
/// each drawing requests from its own generator.  Traced when `replica`
/// is set.  Samples for the in-process re-derivation are kept from each
/// connection's first requests.
Window run_window(ServeRig& rig, double seconds,
                  const std::function<Request(std::size_t)>& make_next,
                  Tracer* tracer, const Replica* replica, WireTally* tally,
                  std::vector<Sample>* samples, std::uint64_t id_base) {
  std::vector<Window> windows(kWorkers);
  std::vector<WireTally> tallies(kWorkers);
  std::vector<std::vector<Sample>> kept(kWorkers);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kWorkers; ++c) {
    threads.emplace_back([&, c] {
      std::uint64_t id = id_base + (std::uint64_t{c} << 32);
      while (Clock::now() < deadline) {
        const Request req = make_next(c);
        ++id;
        if (replica != nullptr) {
          serve_traced(rig.clients[c], req, id, windows[c], *tracer,
                       tallies[c], *replica);
          continue;
        }
        std::vector<BinaryResult> records;
        auto results =
            serve_once(rig.clients[c], req, id, windows[c], &records);
        const std::size_t pick = id % req.specs.size();
        if (samples != nullptr &&
            kept[c].size() < kSampleChecks / kWorkers &&
            (results.size() == req.specs.size() ||
             records.size() == req.specs.size())) {
          Sample s;
          s.spec = req.specs[pick];
          s.binary = req.binary;
          if (req.binary) {
            s.record = records[pick];
          } else {
            s.json = results[pick];
          }
          kept[c].push_back(std::move(s));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  Window total;
  for (std::size_t c = 0; c < kWorkers; ++c) {
    total.merge(windows[c]);
    if (tally) tally->merge(tallies[c]);
    if (samples) {
      samples->insert(samples->end(), kept[c].begin(), kept[c].end());
    }
  }
  total.wall_s = seconds_between(start, Clock::now());
  return total;
}

/// Re-derives sampled served results in-process: the served result must
/// equal `run_scheme`'s after canonical encoding, and a compiled replay
/// must equal the engine run.
void check_samples(const std::vector<Sample>& samples, Tally& tally) {
  std::map<std::string, rc::graph::Graph> graphs;
  for (const Sample& s : samples) {
    ++tally.attempted;
    const auto& desc = s.spec.graph.generator;
    if (!graphs.count(desc)) {
      graphs.emplace(desc, rc::graph::from_descriptor(desc));
    }
    const auto& g = graphs.at(desc);
    auto cfg = s.spec.config;
    cfg.compiled = false;
    const auto engine = rc::runtime::run_scheme(s.spec.scheme, g,
                                                s.spec.source, s.spec.options,
                                                cfg);
    cfg.compiled = true;
    const auto compiled = rc::runtime::run_scheme(s.spec.scheme, g,
                                                  s.spec.source,
                                                  s.spec.options, cfg);
    const auto& inproc = s.spec.config.compiled ? compiled : engine;
    std::string why = compare_compiled_engine(s.spec.scheme, compiled, engine);
    if (why.empty()) {
      why = s.binary ? (same_binary(s.record, inproc)
                            ? ""
                            : s.spec.scheme + ": binary record differs from "
                                              "in-process run_scheme")
                     : compare_canonical(s.json, inproc);
    }
    if (!why.empty()) tally.fail("sample check: " + why);
  }
}

/// The per-layer metrics the serve workloads read from the server itself.
void server_metrics(ServeRig& rig, const WireTally& tally, RunOutput& out) {
  Json stats_request(Json::Object{});
  stats_request.set("v", Json(wire::kWireVersion));
  stats_request.set("type", Json("stats"));
  Json stats;
  if (rig.clients[0].send(stats_request)) {
    if (auto frame = rig.clients[0].receive()) stats = *frame;
  }
  const Json& cache = stats.get("cache");
  const auto u = [](const Json& j, const char* key) {
    return static_cast<double>(j.get(key).as_uint());
  };
  const auto ratio = [](double hits, double lookups) {
    return lookups > 0 ? hits / lookups : 0.0;
  };
  auto& m = out.layers;
  m["core.labelings"] = u(cache, "plan_misses");
  m["runtime.plan_hit_ratio"] =
      ratio(u(cache, "plan_hits"), u(cache, "plan_hits") +
                                       u(cache, "plan_misses") +
                                       u(cache, "plan_store_hits"));
  m["runtime.compiled_hit_ratio"] = ratio(
      u(cache, "compiled_hits"), u(cache, "compiled_hits") +
                                     u(cache, "compiled_misses") +
                                     u(cache, "compiled_store_hits"));
  m["runtime.plan_evictions"] =
      u(cache, "plan_evictions") + u(cache, "compiled_evictions");
  m["runtime.store_bytes"] = u(stats.get("store"), "bytes");
  const double specs =
      static_cast<double>(tally.json_specs + tally.binary_specs);
  m["runtime.bytes_per_spec"] = specs > 0 ? tally.bytes / specs : 0;
  m["runtime.sweep_busy_frac"] =
      tally.binary_roundtrip_ms > 0
          ? tally.exec_ns / 1e6 / (tally.binary_roundtrip_ms * kWorkers)
          : 0;
  m["serve.exec_us_per_spec"] =
      tally.binary_specs ? tally.exec_ns / 1e3 / tally.binary_specs : 0;
  const auto p = rig.server->pipeline_stats();
  m["serve.specs_per_submission"] =
      p.submissions ? static_cast<double>(p.specs) / p.submissions : 0;
  m["serve.coalesced_frac"] =
      p.batches ? static_cast<double>(p.coalesced_batches) / p.batches : 0;
  m["serve.max_queue_depth"] = static_cast<double>(p.max_queue_depth);
  m["serve.fallback_splits"] = static_cast<double>(p.fallback_splits);
  m["serve.error_frames"] = static_cast<double>(rig.server->stats().errors);
}

std::string fresh_dir(const Options& opt, const std::string& name) {
  const fs::path dir = fs::path(opt.work_dir) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// The `slot`-th batch on a graph the daemon has never seen: an sgnp, disk
/// or gnp graph with 2-8 K nodes and mean degree about 10, and two of b,
/// ack, arb (compiled) and color-robin from one source.  The family, size
/// and scheme pair cycle through fixed strata by slot, so every window
/// holds the same mix whatever the seed; the seed picks graph seeds and
/// sources.  Two specs per batch keep enough round trips in a window for a
/// p95 latency.
Request cold_request(std::uint64_t slot, std::uint64_t tag,
                     std::mt19937_64& rng, bool binary) {
  static const char* const kPairs[6][2] = {
      {"b", "ack"},         {"arb", "color-robin"}, {"b", "arb"},
      {"ack", "color-robin"}, {"b", "color-robin"}, {"ack", "arb"}};
  const std::uint32_t n = 2000 + 500 * static_cast<std::uint32_t>(
                                           (slot * 5) % 13);
  const std::string seed = std::to_string(tag % 2000000000);
  char buf[96];
  switch (slot % 3) {
    case 0:
      std::snprintf(buf, sizeof buf, "sgnp:%u:10:%s", n, seed.c_str());
      break;
    case 1:
      std::snprintf(buf, sizeof buf, "disk:%u:%.5f:%s", n,
                    std::sqrt(10.0 / (3.14159265358979 * n)), seed.c_str());
      break;
    default:
      std::snprintf(buf, sizeof buf, "gnp:%u:%.6f:%s", n, 10.0 / n,
                    seed.c_str());
      break;
  }
  const auto source = static_cast<rc::graph::NodeId>(rng() % n);
  Request req;
  req.binary = binary;
  for (const char* scheme : kPairs[(slot / 3) % 6]) {
    ExperimentSpec spec;
    spec.scheme = scheme;
    spec.graph.generator = buf;
    spec.source = source;
    spec.config.compiled = spec.scheme != "color-robin";
    spec.config.plan_cache_bytes = kColdPlanCacheBytes;
    req.specs.push_back(std::move(spec));
    req.nodes.push_back(n);
  }
  return req;
}

}  // namespace

RunOutput run_serve_cold(const Options& opt, Tracer& tracer) {
  RunOutput out;
  out.claimed_leaders = {"graph", "core"};
  // Graph seeds are unique per (phase, connection, request), so every
  // batch names a graph its server has never seen.
  struct Stream {
    std::mt19937_64 rng;
    std::uint64_t phase = 0;
    std::uint64_t count = 0;
  };
  std::vector<Stream> streams(kWorkers);
  const auto start_phase = [&](std::uint64_t phase) {
    for (std::size_t c = 0; c < kWorkers; ++c) {
      streams[c].rng.seed(mix_seed(opt.seed, (phase << 8) | c));
      streams[c].phase = phase;
      streams[c].count = 0;
    }
  };
  const auto make_next = [&](std::size_t c) {
    Stream& s = streams[c];
    const std::uint64_t slot = s.count++ * kWorkers + c;
    const std::uint64_t tag =
        mix_seed(opt.seed, (s.phase << 40) | (std::uint64_t{c} << 32) | slot);
    return cold_request(slot, tag, s.rng, slot % 2 == 1);
  };

  // Set-up: server start over an empty store, then a fixed cold prefill of
  // kColdSetupBatches closed-loop batches per connection.  The prefill's
  // shapes are the first strata, so every set-up does the same work.
  std::vector<double> setup_s;
  std::unique_ptr<ServeRig> rig;
  Tally setup_tally;
  for (int rep = 0; rep < kColdSetupRepeats; ++rep) {
    rig.reset();
    release_freed_memory();
    start_phase(1 + rep);
    const std::string dir = fresh_dir(opt, "cold-store");
    const auto t0 = Clock::now();
    rig = start_rig(dir);
    std::vector<Window> windows(kWorkers);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kWorkers; ++c) {
      threads.emplace_back([&, c] {
        for (int k = 0; k < kColdSetupBatches; ++k) {
          serve_once(rig->clients[c], make_next(c), k * kWorkers + c + 1,
                     windows[c], nullptr);
        }
      });
    }
    for (auto& t : threads) t.join();
    for (const auto& w : windows) setup_tally.merge(w.tally);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  // Peak RSS over the set-ups, a fixed amount of work.  The window's peak
  // would grow with throughput, because the runner keeps every graph.
  const double setup_rss_mib = peak_rss_mib();

  start_phase(100);
  std::vector<Sample> samples;
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  Window window = run_window(*rig, untraced_s, make_next, nullptr, nullptr,
                             nullptr, &samples, 0);
  window.tally.merge(setup_tally);
  check_samples(samples, window.tally);
  out.e2e = summarize(window, setup_s);
  out.e2e.peak_rss_mib = setup_rss_mib;
  if (!opt.trace) return out;

  // Traced: each request's server-side work replayed one layer call at a
  // time: materialize, hash, a plan-store lookup and a label per family
  // (color-robin's label is the G² coloring), plan-store writes, compile
  // and replay, and the color-robin engine run.
  start_phase(200);
  const auto& registry = rc::runtime::SchemeRegistry::instance();
  rc::runtime::PlanStore replica_store(fresh_dir(opt, "cold-replica"));
  layers::SimCounters sim;
  std::atomic<std::uint64_t> graphs_built{0};
  std::atomic<std::uint64_t> nodes_built{0};
  const Replica replica = [&](const Request& req, const SpanCtx& ctx) {
    const auto& desc = req.specs[0].graph.generator;
    const auto g = layers::materialize(ctx, desc);
    const std::string key_prefix = rc::graph::hash_hex(layers::hash(ctx, g));
    ++graphs_built;
    nodes_built += g.node_count();
    std::map<std::string, rc::runtime::PlanPtr> plans;
    std::vector<SchemeResult> results;
    for (const auto& spec : req.specs) {
      const auto& scheme = *registry.find(spec.scheme);
      const std::string key = key_prefix + "|" +
                              std::string(scheme.plan_family()) + "|" +
                              scheme.plan_key(spec.source, spec.options);
      auto& plan = plans[key];
      if (!plan) {
        // The server looks a missing plan up in its store before labeling.
        plan = layers::store_read(ctx, replica_store, scheme, key);
        if (!plan) {
          plan = layers::label(ctx, scheme, g, spec.source, spec.options);
          layers::store_write(ctx, replica_store, scheme, key, *plan);
        }
      }
      if (spec.config.compiled && scheme.can_compile()) {
        const auto compiled = layers::compile(ctx, scheme, g, spec.source,
                                              plan, spec.options, spec.config);
        layers::store_write_compiled(ctx, replica_store, scheme,
                                     key + "|" + spec.scheme, *compiled);
        results.push_back(layers::replay(ctx, scheme, g, spec.source,
                                         *compiled, spec.config));
      } else {
        results.push_back(layers::engine_run(ctx, scheme, g, spec.source, plan,
                                             spec.options, spec.config, sim));
      }
    }
    return results;
  };
  WireTally tally;
  Window traced = run_window(*rig, opt.seconds / 2, make_next, &tracer,
                             &replica, &tally, nullptr, 1ull << 62);
  for (std::size_t i = 0; i < samples.size() && i < 4; ++i) {
    const auto& spec = samples[i].spec;
    ++traced.tally.attempted;
    const std::string why = verify_b_trace(
        rc::graph::from_descriptor(spec.graph.generator), spec.source);
    if (!why.empty()) traced.tally.fail(spec.graph.generator + ": " + why);
  }
  out.traced = summarize(traced, setup_s);
  out.traced.peak_rss_mib = setup_rss_mib;
  out.e2e.absorb(traced.tally);
  span_metrics(tracer.spans(), tally.json_specs, tally.binary_specs, out);
  server_metrics(*rig, tally, out);
  sim_metrics(sim, out);
  const auto built = graphs_built.load();
  out.buys["graph"] = std::to_string(built) + " fresh graphs, mean n " +
                      std::to_string(built ? nodes_built.load() / built : 0);
  out.buys["core"] = "labelings of b, lambda-ack and arb on those graphs";
  out.buys["runtime"] = "compiles, replays and plan-store writes";
  out.buys["sim"] =
      std::to_string(sim.runs.load()) + " color-robin engine runs";
  out.buys["wire"] = std::to_string(tally.json_specs) + " JSON + " +
                     std::to_string(tally.binary_specs) + " resbin specs";
  out.buys["serve"] = std::to_string(traced.latency_ms.size()) +
                      " batch round trips, less 4x their replayed work";
  return out;
}

}  // namespace perfbench
