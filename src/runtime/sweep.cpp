#include "runtime/sweep.hpp"

#include <chrono>
#include <memory>
#include <string_view>
#include <utility>

#include "graph/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "support/contracts.hpp"

namespace radiocast::runtime {

namespace {

/// The one-character prefix that puts an entry's kind into its map key.
char tag(PlanStoreKind kind) {
  return kind == PlanStoreKind::kPlan ? 'P' : 'C';
}

std::string tagged(PlanStoreKind kind, const std::string& key) {
  std::string out(1, tag(kind));
  out += key;
  return out;
}

std::uint64_t& counter(PlanCacheStats& stats, PlanStoreKind kind,
                       CacheEvent event) {
  const bool plan = kind == PlanStoreKind::kPlan;
  if (event == CacheEvent::kHit) {
    return plan ? stats.plan_hits : stats.compiled_hits;
  }
  if (event == CacheEvent::kMiss) {
    return plan ? stats.plan_misses : stats.compiled_misses;
  }
  return plan ? stats.plan_store_hits : stats.compiled_store_hits;
}

}  // namespace

PlanPtr PlanCache::find(PlanStoreKind kind, const std::string& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(tagged(kind, key));
  if (it == entries_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return it->second.value;
}

void PlanCache::put(PlanStoreKind kind, const std::string& key,
                    PlanPtr plan) {
  RC_EXPECTS(plan != nullptr);
  std::string tagged_key = tagged(kind, key);
  const std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(tagged_key) != 0) return;
  Entry entry;
  entry.footprint = plan->footprint();
  entry.value = std::move(plan);
  lru_.push_front(tagged_key);
  entry.lru = lru_.begin();
  bytes_ += entry.footprint;
  entries_.emplace(std::move(tagged_key), std::move(entry));
  evict_over_budget(lru_.front());
}

void PlanCache::count(PlanStoreKind kind, CacheEvent event) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++counter(stats_, kind, event);
}

void PlanCache::evict_over_budget(const std::string& keep) {
  if (budget_ == 0) return;
  while (bytes_ > budget_ && lru_.size() > 1) {
    const std::string& victim = lru_.back();
    if (victim == keep) break;  // never evict the entry being inserted
    const auto it = entries_.find(victim);
    bytes_ -= it->second.footprint;
    ++(victim[0] == tag(PlanStoreKind::kPlan) ? stats_.plan_evictions
                                              : stats_.compiled_evictions);
    entries_.erase(it);
    lru_.pop_back();
  }
}

void PlanCache::set_byte_budget(std::size_t bytes) {
  const std::lock_guard<std::mutex> lock(mu_);
  budget_ = bytes;
  evict_over_budget(lru_.empty() ? std::string() : lru_.front());
}

std::size_t PlanCache::byte_budget() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return budget_;
}

std::size_t PlanCache::bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

PlanCacheStats PlanCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t PlanCache::size(PlanStoreKind kind) const {
  const char want = tag(kind);
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t out = 0;
  for (const auto& [key, entry] : entries_) out += key[0] == want ? 1 : 0;
  return out;
}

void PlanCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
  stats_ = {};
}

GraphRef SweepRunner::add_graph(graph::Graph g, std::string generator) {
  GraphRef ref;
  ref.hash = graph::canonical_hash(g);
  ref.generator = std::move(generator);
  graphs_.emplace(ref.hash, std::move(g));
  graph_count_.store(graphs_.size(), std::memory_order_relaxed);
  if (!ref.generator.empty()) {
    generator_hashes_.emplace(ref.generator, ref.hash);
  }
  return ref;
}

SweepRunner::Materialized SweepRunner::materialize(
    const std::string& descriptor) const {
  Materialized out;
  out.graph = graph::from_descriptor(descriptor, &pool_);
  out.hash = graph::canonical_hash(out.graph);
  return out;
}

std::uint64_t SweepRunner::resolve_hash(const GraphRef& ref) {
  MaterializedMap none;
  return resolve_hash(ref, none);
}

std::uint64_t SweepRunner::resolve_hash(const GraphRef& ref,
                                        MaterializedMap& prebuilt) {
  if (ref.hash != 0 && graphs_.count(ref.hash) != 0) return ref.hash;
  RC_EXPECTS_MSG(!ref.generator.empty(),
                 "graph ref is unknown and carries no generator descriptor");
  // Generator-only refs are the daemon's hot path: memoize descriptor ->
  // hash so a batch of specs naming the same generator materializes (and
  // canonically hashes) the graph once, not once per spec.
  const auto memo = generator_hashes_.find(ref.generator);
  std::uint64_t hash = 0;
  if (memo != generator_hashes_.end()) {
    hash = memo->second;
  } else {
    const auto pre = prebuilt.find(ref.generator);
    Materialized built = pre != prebuilt.end() ? std::move(pre->second)
                                               : materialize(ref.generator);
    if (built.error) std::rethrow_exception(built.error);
    hash = built.hash;
    graphs_.emplace(hash, std::move(built.graph));
    graph_count_.store(graphs_.size(), std::memory_order_relaxed);
    generator_hashes_.emplace(ref.generator, hash);
  }
  RC_EXPECTS_MSG(ref.hash == 0 || ref.hash == hash,
                 "graph ref hash does not match its generator descriptor");
  return hash;
}

SweepRunner::MaterializedMap SweepRunner::materialize_unknown(
    const std::vector<const ExperimentSpec*>& specs) const {
  std::vector<const std::string*> descriptors;
  MaterializedMap out;
  for (const ExperimentSpec* spec : specs) {
    const GraphRef& ref = spec->graph;
    if (ref.hash != 0 && graphs_.count(ref.hash) != 0) continue;
    if (ref.generator.empty() || generator_hashes_.count(ref.generator) != 0) {
      continue;
    }
    if (out.emplace(ref.generator, Materialized{}).second) {
      descriptors.push_back(&ref.generator);
    }
  }
  std::vector<Materialized> built =
      par::parallel_map(pool_, descriptors.size(), [&](std::size_t i) {
        try {
          return materialize(*descriptors[i]);
        } catch (...) {
          Materialized failed;
          failed.error = std::current_exception();
          return failed;
        }
      });
  for (std::size_t i = 0; i < descriptors.size(); ++i) {
    out[*descriptors[i]] = std::move(built[i]);
  }
  return out;
}

const graph::Graph& SweepRunner::resolve(const GraphRef& ref) {
  return graphs_.at(resolve_hash(ref));
}

std::vector<SchemeResult> SweepRunner::run(
    const std::vector<ExperimentSpec>& specs) {
  std::vector<const ExperimentSpec*> ptrs;
  ptrs.reserve(specs.size());
  for (const ExperimentSpec& spec : specs) ptrs.push_back(&spec);
  std::vector<std::uint64_t> wall_ns;
  return run_ptrs(ptrs, wall_ns);
}

std::vector<BatchResults> SweepRunner::run_merged(
    const std::vector<const std::vector<ExperimentSpec>*>& batches) {
  std::vector<const ExperimentSpec*> ptrs;
  for (const auto* batch : batches) {
    RC_EXPECTS(batch != nullptr);
    for (const ExperimentSpec& spec : *batch) ptrs.push_back(&spec);
  }
  std::vector<std::uint64_t> wall_ns;
  std::vector<SchemeResult> flat = run_ptrs(ptrs, wall_ns);

  std::vector<BatchResults> out(batches.size());
  std::size_t offset = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const std::size_t count = batches[b]->size();
    out[b].results.assign(std::make_move_iterator(flat.begin() + offset),
                          std::make_move_iterator(flat.begin() + offset +
                                                  count));
    out[b].spec_wall_ns.assign(wall_ns.begin() + offset,
                               wall_ns.begin() + offset + count);
    offset += count;
  }
  return out;
}

std::vector<SchemeResult> SweepRunner::run_ptrs(
    const std::vector<const ExperimentSpec*>& specs,
    std::vector<std::uint64_t>& wall_ns) {
  // Resolve every spec up front: scheme pointer, graph, plan key, recorded
  // result key.  Graphs the runner has never seen are built on the pool
  // first, so a cold submission pays for its slowest graph rather than the
  // sum of them.  Plans are keyed by the scheme's *plan family*, so schemes
  // that compute the same labeling (ack / common-round / multi all build
  // λ_ack) share one cache and store entry; the store files records under
  // the scheme name instead.
  constexpr std::size_t kNoOwner = static_cast<std::size_t>(-1);
  struct Artifact {
    std::string key;               ///< cache key; empty = the spec has none
    std::string_view family;       ///< the store's family for the key
    PlanPtr value;                 ///< set once loaded or built
    std::size_t owner = kNoOwner;  ///< spec that builds it on a miss
  };
  struct Resolved {
    const Scheme* scheme = nullptr;
    const graph::Graph* graph = nullptr;
    Artifact plan;    ///< PlanStoreKind::kPlan
    Artifact record;  ///< PlanStoreKind::kCompiled
  };
  auto& registry = SchemeRegistry::instance();
  MaterializedMap fresh = materialize_unknown(specs);
  std::vector<Resolved> resolved(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ExperimentSpec& spec = *specs[i];
    Resolved& r = resolved[i];
    r.scheme = registry.find(spec.scheme);
    RC_EXPECTS_MSG(r.scheme != nullptr, "unregistered scheme in sweep spec");
    const std::uint64_t graph_hash = resolve_hash(spec.graph, fresh);
    r.graph = &graphs_.at(graph_hash);
    RC_EXPECTS(spec.source < r.graph->node_count());
    if (spec.config.plan_cache_bytes != 0) {
      cache_.set_byte_budget(spec.config.plan_cache_bytes);
    }
    std::string plan_key("h");
    plan_key += graph::hash_hex(graph_hash);
    plan_key += "|";
    plan_key += r.scheme->plan_family();
    plan_key += "|";
    plan_key += r.scheme->plan_key(spec.source, spec.options);
    r.record.key = recorded_result_key(*r.scheme, plan_key, spec.source,
                                       spec.options, spec.config)
                       .value_or(std::string());
    r.record.family = r.scheme->name();
    r.plan.key = std::move(plan_key);
    r.plan.family = r.scheme->plan_family();
  }

  // Loads each spec's artifact of one kind from the cache, else from the
  // store (a store hit, not a miss).  Misses are deduplicated by key: the
  // first spec to miss owns the build and the rest take its pointer once
  // built, so "exactly once per cache key" holds structurally rather than
  // by locking.  Returns the owners.
  const auto load = [&](PlanStoreKind kind, Artifact Resolved::*which) {
    std::vector<std::size_t> owners;
    std::unordered_map<std::string_view, std::size_t> first_owner;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const Scheme& scheme = *resolved[i].scheme;
      Artifact& a = resolved[i].*which;
      if (a.key.empty()) continue;
      a.value = cache_.find(kind, a.key);
      if (a.value != nullptr) {
        cache_.count(kind, CacheEvent::kHit);
        continue;
      }
      if (store_ != nullptr) {
        if (const auto bytes = store_->get(kind, a.key, a.family)) {
          support::ByteReader reader(*bytes);
          a.value = kind == PlanStoreKind::kPlan
                        ? scheme.decode_plan(reader)
                        : scheme.decode_compiled(reader);
        }
        if (a.value != nullptr) {
          cache_.put(kind, a.key, a.value);
          cache_.count(kind, CacheEvent::kStoreHit);
          continue;
        }
      }
      a.owner = first_owner.emplace(a.key, i).first->second;
      if (a.owner == i) owners.push_back(i);
      cache_.count(kind, a.owner == i ? CacheEvent::kMiss : CacheEvent::kHit);
    }
    return owners;
  };
  // Caches a built artifact and writes it through to the store.
  const auto keep = [&](PlanStoreKind kind, const Scheme& scheme,
                        const Artifact& a) {
    cache_.put(kind, a.key, a.value);
    if (store_ == nullptr) return;
    support::ByteWriter writer;
    if (kind == PlanStoreKind::kPlan) {
      scheme.encode_plan(*a.value, writer);
    } else {
      scheme.encode_compiled(static_cast<const CompiledPlan&>(*a.value),
                             writer);
    }
    store_->put(kind, a.key, a.family, writer.bytes());
  };

  // Labelings: every missing one is computed once, in parallel over
  // distinct keys.
  const std::vector<std::size_t> label_owners =
      load(PlanStoreKind::kPlan, &Resolved::plan);
  par::parallel_for(pool_, label_owners.size(), [&](std::size_t w) {
    const ExperimentSpec& spec = *specs[label_owners[w]];
    Resolved& r = resolved[label_owners[w]];
    r.plan.value = r.scheme->label(*r.graph, spec.source, spec.options);
    keep(PlanStoreKind::kPlan, *r.scheme, r.plan);
  });
  for (Resolved& r : resolved) {
    if (r.plan.value == nullptr) {
      r.plan.value = resolved[r.plan.owner].plan.value;
    }
  }

  // Execution: one parallel pass over every spec, results in spec order
  // (parallel_map writes indexed slots).  A loaded record is copied; the
  // owner of a missing record runs the engine and files its result, which
  // its duplicates copy after the pass.  Each spec's execution wall time
  // is recorded for the serve layer's binary result encoding; it covers
  // execution only, not labeling or store writes.
  load(PlanStoreKind::kCompiled, &Resolved::record);
  wall_ns.assign(specs.size(), 0);
  const auto timed = [&](std::size_t i, auto&& run) {
    const auto start = std::chrono::steady_clock::now();
    SchemeResult result = run();
    wall_ns[i] = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    return result;
  };
  std::vector<SchemeResult> results =
      par::parallel_map(pool_, specs.size(), [&](std::size_t i) {
        const ExperimentSpec& spec = *specs[i];
        Resolved& r = resolved[i];
        if (r.record.owner != kNoOwner && r.record.owner != i) {
          return SchemeResult{};  // a duplicate: copied below
        }
        SchemeResult result = timed(i, [&] {
          if (r.record.value != nullptr) {
            return static_cast<const CompiledPlan&>(*r.record.value).result;
          }
          return run_with_plan(*r.scheme, *r.graph, spec.source, r.plan.value,
                               spec.options, spec.config);
        });
        if (r.record.owner == i) {
          auto record = std::make_shared<CompiledPlan>();
          record->result = result;
          r.record.value = std::move(record);
          keep(PlanStoreKind::kCompiled, *r.scheme, r.record);
        }
        return result;
      });
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::size_t owner = resolved[i].record.owner;
    if (owner != kNoOwner && owner != i) {
      results[i] = timed(i, [&] { return results[owner]; });
    }
  }
  return results;
}

}  // namespace radiocast::runtime
