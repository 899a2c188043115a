// engine-sweep: one in-process caller submitting `SweepRunner::run`
// batches back to back on a 4-worker pool.  Every spec takes the engine
// path (compiled=false) and every plan is built during setup, so the engine
// does most of the work; serve and wire do none.
//
// The batches form a fixed cycle with two halves of about equal time: dense
// graphs that step on the bit backend with the SIMD kernels, and
// sgnp:200000:8, which steps on the hybrid backend.  A window runs whole
// cycles, so every run measures the same mix of batches whatever the seed.
#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>

#include "checks.hpp"
#include "graph/generators.hpp"
#include "layers.hpp"
#include "metrics.hpp"
#include "parallel/parallel_for.hpp"
#include "runtime/sweep.hpp"
#include "support/contracts.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace rc = radiocast;
using rc::graph::NodeId;
using rc::runtime::ExperimentSpec;
using rc::runtime::SchemeResult;

constexpr std::size_t kDenseSources = 8;
constexpr std::size_t kSparseSources = 4;
/// One spec per worker in every batch.
constexpr std::size_t kBatchSpecs = kWorkers;
/// Dense batches per cycle are kDenseRounds x 3 graphs x 5 schemes; 12
/// rounds take about as long as the five sparse batches on the reference
/// host.
constexpr int kDenseRounds = 12;
constexpr std::size_t kSampleChecks = 6;
const char* const kSchemes[] = {"b", "ack", "arb", "decay", "multi"};

struct SweepGraph {
  std::string descriptor;
  bool dense = true;
  std::uint32_t n = 0;
  std::vector<NodeId> sources;
  rc::runtime::GraphRef ref;
};

std::vector<SweepGraph> sweep_graphs(std::uint64_t seed) {
  const auto s = [&](std::uint64_t k) {
    return std::to_string(mix_seed(seed, 200 + k) % 1000000);
  };
  std::vector<SweepGraph> graphs = {
      {"gnp:8192:0.05:" + s(1), true, 8192, {}, {}},
      {"gnp:4096:0.2:" + s(2), true, 4096, {}, {}},
      {"disk:8192:0.1:" + s(3), true, 8192, {}, {}},
      {"sgnp:200000:8:" + s(4), false, 200000, {}, {}}};
  std::mt19937_64 rng(mix_seed(seed, 3));
  for (auto& g : graphs) {
    const std::size_t want = g.dense ? kDenseSources : kSparseSources;
    while (g.sources.size() < want) {
      const auto v = static_cast<NodeId>(rng() % g.n);
      if (std::find(g.sources.begin(), g.sources.end(), v) ==
          g.sources.end()) {
        g.sources.push_back(v);
      }
    }
  }
  return graphs;
}

ExperimentSpec make_spec(const SweepGraph& g, const char* scheme, NodeId v) {
  ExperimentSpec spec;
  spec.scheme = scheme;
  spec.graph = g.ref;
  spec.source = v;
  if (spec.scheme == "decay") spec.options.seed = v + 1;  // its coin flips
  // The sweep already runs one spec per core; engine threads beyond one
  // would put 4 x 4 threads on 4 cores (see NOTES.md).
  spec.config.threads = 1;
  return spec;
}

/// The plan a spec runs on, keyed as the sweep keys it: graph, plan family
/// and the scheme's plan key.
std::string plan_id(const SweepGraph& g, const ExperimentSpec& spec) {
  const auto& scheme =
      *rc::runtime::SchemeRegistry::instance().find(spec.scheme);
  return g.descriptor + "|" + std::string(scheme.plan_family()) + "|" +
         scheme.plan_key(spec.source, spec.options);
}

struct Batch {
  std::vector<ExperimentSpec> specs;
  std::vector<const SweepGraph*> graphs;
};

/// The cycle: per scheme, one sparse batch over the sparse sources, and
/// kDenseRounds dense batches per graph over seeded draws of its sources,
/// in seeded order.
std::vector<Batch> make_cycle(const std::vector<SweepGraph>& graphs,
                              std::uint64_t seed) {
  std::mt19937_64 rng(mix_seed(seed, 4));
  std::vector<Batch> cycle;
  for (const auto& g : graphs) {
    const int rounds = g.dense ? kDenseRounds : 1;
    for (int r = 0; r < rounds; ++r) {
      for (const char* scheme : kSchemes) {
        auto sources = g.sources;
        for (std::size_t i = 0; i < kBatchSpecs; ++i) {
          std::swap(sources[i], sources[i + rng() % (sources.size() - i)]);
        }
        Batch b;
        for (std::size_t i = 0; i < kBatchSpecs; ++i) {
          b.specs.push_back(make_spec(g, scheme, sources[i]));
          b.graphs.push_back(&g);
        }
        cycle.push_back(std::move(b));
      }
    }
  }
  for (std::size_t i = cycle.size(); i > 1; --i) {
    std::swap(cycle[i - 1], cycle[rng() % i]);
  }
  return cycle;
}

std::string spec_key(const ExperimentSpec& spec, const SweepGraph& g) {
  return g.descriptor + "|" + spec.scheme + "|" + std::to_string(spec.source);
}

/// Checks results against the paper's guarantees and against the first
/// result of the same spec (executions are deterministic).
void check_batch(const Batch& b, const std::vector<SchemeResult>& results,
                 std::map<std::string, SchemeResult>& first, Window& w) {
  for (std::size_t i = 0; i < b.specs.size(); ++i) {
    const auto& spec = b.specs[i];
    std::string why = check_result(spec.scheme, results[i], b.graphs[i]->n);
    const auto [it, fresh] =
        first.emplace(spec_key(spec, *b.graphs[i]), results[i]);
    if (why.empty() && !fresh && !same_result(results[i], it->second)) {
      why = spec.scheme + ": result differs from an earlier run of the spec";
    }
    if (why.empty()) {
      ++w.specs_ok;
    } else {
      w.tally.fail(why);
    }
  }
}

struct Busy {
  double spec_ms = 0;
  double capacity_ms = 0;
};

/// Whole cycles until `seconds` have passed.  Each batch runs through
/// `run_merged` (the sweep `run` makes, as a one-batch merge), whose
/// per-spec wall times give the pool's busy fraction.
Window run_cycles(rc::runtime::SweepRunner& runner,
                  const std::vector<Batch>& cycle, double seconds,
                  std::map<std::string, SchemeResult>& first, Busy& busy) {
  Window w;
  const auto start = Clock::now();
  do {
    for (const Batch& b : cycle) {
      w.tally.attempted += b.specs.size();
      const auto t0 = Clock::now();
      std::vector<SchemeResult> results;
      try {
        auto merged = runner.run_merged({&b.specs});
        const double wall = ms_between(t0, Clock::now());
        busy.capacity_ms += wall * kWorkers;
        for (const auto ns : merged[0].spec_wall_ns) {
          busy.spec_ms += ns / 1e6;
        }
        results = std::move(merged[0].results);
      } catch (const rc::ContractViolation& e) {
        w.latency_ms.push_back(ms_between(t0, Clock::now()));
        for (std::size_t i = 0; i < b.specs.size(); ++i) {
          w.tally.fail(std::string("sweep threw: ") + e.what());
        }
        continue;
      }
      w.latency_ms.push_back(ms_between(t0, Clock::now()));
      check_batch(b, results, first, w);
    }
  } while (seconds_between(start, Clock::now()) < seconds);
  w.wall_s = seconds_between(start, Clock::now());
  return w;
}

}  // namespace

RunOutput run_engine_sweep(const Options& opt, Tracer& tracer) {
  RunOutput out;
  out.claimed_leaders = {"sim"};
  auto graphs = sweep_graphs(opt.seed);

  // Setup: the pool and runner, every graph materialized and hashed, and
  // every plan built.  A warm-up batch holding one spec per distinct plan,
  // each with a one-round budget, builds the plans; its results are not
  // checked.
  std::vector<double> setup_s;
  std::unique_ptr<rc::par::ThreadPool> pool;
  std::unique_ptr<rc::runtime::SweepRunner> runner;
  for (int rep = 0; rep < kSweepSetupRepeats; ++rep) {
    runner.reset();
    pool.reset();
    release_freed_memory();
    const auto t0 = Clock::now();
    pool = std::make_unique<rc::par::ThreadPool>(kWorkers);
    runner = std::make_unique<rc::runtime::SweepRunner>(*pool);
    std::vector<ExperimentSpec> warm;
    std::set<std::string> planned;
    for (auto& g : graphs) {
      g.ref = runner->add_graph(rc::graph::from_descriptor(g.descriptor),
                                g.descriptor);
      for (const char* scheme : kSchemes) {
        for (const auto v : g.sources) {
          auto spec = make_spec(g, scheme, v);
          if (!planned.insert(plan_id(g, spec)).second) continue;
          spec.config.max_rounds = 1;
          warm.push_back(std::move(spec));
        }
      }
    }
    runner->run(warm);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  const auto cycle = make_cycle(graphs, opt.seed);
  std::map<std::string, SchemeResult> first;
  Busy busy;
  Window window = run_cycles(*runner, cycle, opt.trace ? opt.seconds / 2
                                                       : opt.seconds,
                             first, busy);

  // Sample checks: the sweep's engine result must equal in-process
  // run_scheme's after canonical encoding, and for compilable schemes the
  // compiled replay must equal the engine run.  Sparse arb and decay are
  // left out of the sample for their run time.
  std::mt19937_64 rng(mix_seed(opt.seed, 5));
  for (std::size_t k = 0; k < kSampleChecks; ++k) {
    const Batch& b = cycle[rng() % cycle.size()];
    const std::size_t i = rng() % b.specs.size();
    const auto& spec = b.specs[i];
    const auto& g = *b.graphs[i];
    if (!g.dense && (spec.scheme == "arb" || spec.scheme == "decay")) continue;
    ++window.tally.attempted;
    const auto& graph = runner->resolve(spec.graph);
    auto cfg = spec.config;
    const auto engine =
        rc::runtime::run_scheme(spec.scheme, graph, spec.source,
                                spec.options, cfg);
    std::string why = compare_canonical(first.at(spec_key(spec, g)), engine);
    if (why.empty() && rc::runtime::SchemeRegistry::instance()
                           .find(spec.scheme)
                           ->can_compile()) {
      cfg.compiled = true;
      const auto compiled = rc::runtime::run_scheme(
          spec.scheme, graph, spec.source, spec.options, cfg);
      why = compare_compiled_engine(spec.scheme, compiled, engine);
    }
    if (!why.empty()) window.tally.fail("sample check: " + why);
  }
  out.e2e = summarize(window, setup_s);
  if (!opt.trace) return out;

  // Traced: the setup's graph and labeling calls, then each batch as one
  // engine build and one engine run per spec on the same pool.
  const SpanCtx setup{&tracer, 0, 0};
  const auto& registry = rc::runtime::SchemeRegistry::instance();
  std::map<std::string, rc::runtime::PlanPtr> plans;
  std::vector<std::pair<ExperimentSpec, const SweepGraph*>> to_label;
  std::uint64_t bitadj_bytes = 0;
  for (const auto& g : graphs) {
    const auto graph = layers::materialize(setup, g.descriptor);
    layers::hash(setup, graph);
    if (g.dense) bitadj_bytes += layers::bitadj(setup, graph);
    for (const char* scheme : kSchemes) {
      for (const auto v : g.sources) {
        auto spec = make_spec(g, scheme, v);
        if (plans.emplace(plan_id(g, spec), nullptr).second) {
          to_label.emplace_back(std::move(spec), &g);
        }
      }
    }
  }
  const auto labeled =
      rc::par::parallel_map(*pool, to_label.size(), [&](std::size_t i) {
        const auto& [spec, g] = to_label[i];
        return layers::label(setup, *registry.find(spec.scheme),
                             runner->resolve(g->ref), spec.source,
                             spec.options);
      });
  for (std::size_t i = 0; i < to_label.size(); ++i) {
    plans[plan_id(*to_label[i].second, to_label[i].first)] = labeled[i];
  }

  layers::SimCounters sim;
  Window traced;
  std::uint64_t request = 0;
  const auto start = Clock::now();
  do {
    for (const Batch& b : cycle) {
      traced.tally.attempted += b.specs.size();
      const auto t0 = Clock::now();
      ScopedSpan root(tracer, "bench.request", 0, ++request);
      const SpanCtx ctx{&tracer, root.id(), request};
      auto results =
          rc::par::parallel_map(*pool, b.specs.size(), [&](std::size_t i) {
            const auto& spec = b.specs[i];
            const auto& scheme = *registry.find(spec.scheme);
            const auto& plan = plans.at(plan_id(*b.graphs[i], spec));
            return layers::engine_run(ctx, scheme, runner->resolve(spec.graph),
                                      spec.source, plan, spec.options,
                                      spec.config, sim);
          });
      traced.latency_ms.push_back(ms_between(t0, Clock::now()));
      check_batch(b, results, first, traced);
    }
  } while (seconds_between(start, Clock::now()) < opt.seconds / 2);
  traced.wall_s = seconds_between(start, Clock::now());

  // Sampled b traces must pass the Lemma 2.8 verifier: the first source of
  // each dense graph.  The sparse graph is left out because the verifier
  // takes about a minute on it.
  for (const auto& g : graphs) {
    if (!g.dense) continue;
    ++traced.tally.attempted;
    const std::string why =
        verify_b_trace(runner->resolve(g.ref), g.sources[0]);
    if (!why.empty()) traced.tally.fail(g.descriptor + ": " + why);
  }

  out.traced = summarize(traced, setup_s);
  out.e2e.absorb(traced.tally);
  span_metrics(tracer.spans(), 0, 0, out);
  sim_metrics(sim, out);
  const auto stats = runner->cache_stats();
  const double lookups =
      static_cast<double>(stats.plan_hits + stats.plan_misses +
                          stats.plan_store_hits);
  out.layers["core.labelings"] = static_cast<double>(stats.plan_misses);
  out.layers["runtime.plan_hit_ratio"] =
      lookups > 0 ? stats.plan_hits / lookups : 0;
  out.layers["runtime.sweep_busy_frac"] =
      busy.capacity_ms > 0 ? busy.spec_ms / busy.capacity_ms : 0;
  out.buys["graph"] = std::to_string(graphs.size()) +
                      " graphs materialized+hashed, " +
                      std::to_string(bitadj_bytes >> 20) + " MiB of bitmaps";
  out.buys["core"] = std::to_string(to_label.size()) + " labelings (setup)";
  out.buys["sim"] = std::to_string(sim.runs.load()) + " engine runs, " +
                    std::to_string(sim.polls.load()) + " polls";
  return out;
}

}  // namespace perfbench
