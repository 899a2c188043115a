/// \file sweep.hpp
/// \brief Plan-caching batched execution of experiment specs.
///
/// The paper's economics: a constant-length label assignment is computed
/// once per network and then drives every subsequent execution.  The sweep
/// executor makes that the system's hot path — a batch of
/// (scheme × graph × source × config) specs runs on the project thread pool
/// with a keyed `PlanCache`: labelings are computed exactly once per
/// (graph, plan-family, plan-key) and, for specs that opt into
/// `config.compiled`, results are recorded exactly once per
/// `recorded_result_key`, then shared read-only across the batch and
/// across subsequent batches (the warm-cache regime the sweep_throughput
/// bench gates).  Both artifacts travel one path: looked up in the cache,
/// then the store, built once by the first spec that misses (a labeling
/// in the labeling pass, a record by its owner's run in the execution
/// pass), and taken by same-key duplicates from that owner.  Results
/// always arrive in spec order, so batch output is byte-identical at any
/// thread count.
///
/// Specs address graphs by value, not by process-local index: a `GraphRef`
/// carries the canonical content hash (graph/hash.hpp) plus an optional
/// generator descriptor, so the same spec is meaningful across a socket, a
/// restart, or a different process — the daemon (`serve::Server`)
/// materializes graphs it has never been sent from the descriptor alone.
/// With a `PlanStore` attached, cached plans survive restarts: misses
/// consult the store before computing, computed plans are written through,
/// and byte-budget LRU evictions fall back to disk instead of recompute.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "graph/hash.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/config.hpp"
#include "runtime/plan_store.hpp"
#include "runtime/scheme.hpp"

namespace radiocast::runtime {

/// A graph addressed by value.  `hash` is the canonical content hash
/// (`graph::canonical_hash`); `generator` is an optional
/// `graph::from_descriptor` spelling that lets a process materialize the
/// graph without being sent its edges.  A ref with hash 0 and a non-empty
/// generator resolves by materializing and hashing the generated graph.
struct GraphRef {
  std::uint64_t hash = 0;
  std::string generator;

  friend bool operator==(const GraphRef&, const GraphRef&) = default;
};

/// One experiment: a registered scheme on a content-addressed graph.
struct ExperimentSpec {
  std::string scheme;  ///< registry name ("b", "ack", "arb", ...)
  GraphRef graph;
  NodeId source = 0;
  SchemeOptions options;
  ExecutionConfig config;
  std::string label;  ///< free-form display tag (never part of a cache key)
};

/// Cache traffic counters.  A "miss" is a labeling construction (exactly one
/// per distinct key, however many specs share it); a "hit" is a spec served
/// an already-computed entry — including specs later in the same batch; a
/// "store hit" is an entry decoded from the attached `PlanStore` instead of
/// constructed (the warm-restart path: zero misses, all store hits).  The
/// `compiled_*` counters count recorded results the same way.
struct PlanCacheStats {
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  std::uint64_t plan_store_hits = 0;
  std::uint64_t plan_evictions = 0;
  std::uint64_t compiled_hits = 0;
  std::uint64_t compiled_misses = 0;
  std::uint64_t compiled_store_hits = 0;
  std::uint64_t compiled_evictions = 0;
};

/// What the sweep saw when it looked a cache key up (see PlanCacheStats).
enum class CacheEvent : std::uint8_t { kHit, kMiss, kStoreHit };

/// Keyed store of shared read-only plans with an optional byte budget.
/// Labelings and recorded results (`CompiledPlan`, itself a Plan) are one
/// entry type in one map, told apart by the `PlanStoreKind` in the key, so
/// they share one byte budget and one recency order.  The SweepRunner
/// builds missing entries in its own batch passes, so no locking happens on
/// the execution hot path; the mutex only guards the map itself.  With a
/// non-zero budget, inserting past it evicts the least-recently-used
/// entries; the newest entry is never evicted, so a single oversized plan
/// still caches.  An evicted entry stays alive for whoever holds its
/// pointer.
class PlanCache {
 public:
  PlanPtr find(PlanStoreKind kind, const std::string& key);
  /// Inserts unless the key is resident (the first writer wins).
  void put(PlanStoreKind kind, const std::string& key, PlanPtr plan);
  /// Adds one lookup outcome to the `kind`'s counters.
  void count(PlanStoreKind kind, CacheEvent event);

  /// Sets the byte budget (0 = unlimited) and evicts down to it.
  void set_byte_budget(std::size_t bytes);
  std::size_t byte_budget() const;
  /// Sum of `footprint()` over every resident entry.
  std::size_t bytes() const;

  PlanCacheStats stats() const;
  /// Resident entries of one kind.
  std::size_t size(PlanStoreKind kind) const;
  void clear();

 private:
  /// One resident entry: the payload, its byte charge, and its position in
  /// the recency list (front = most recently used).
  struct Entry {
    PlanPtr value;
    std::size_t footprint = 0;
    std::list<std::string>::iterator lru;  ///< into lru_
  };

  void evict_over_budget(const std::string& keep);

  mutable std::mutex mu_;
  /// Keyed by the kind's tag character followed by the cache key.
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  ///< entries_ keys, most recent first
  std::size_t bytes_ = 0;
  std::size_t budget_ = 0;
  PlanCacheStats stats_;
};

/// Results for one batch of a merged submission (see
/// `SweepRunner::run_merged`): the batch's `SchemeResult`s in its own spec
/// order, plus the per-spec execution wall time the serve layer's binary
/// result encoding reports.
struct BatchResults {
  std::vector<SchemeResult> results;
  std::vector<std::uint64_t> spec_wall_ns;
};

/// Executes spec batches over a content-addressed graph table with a
/// persistent plan cache.  Not itself thread-safe: one batch at a time; the
/// batch's internal work is parallelized on the caller-supplied pool.
class SweepRunner {
 public:
  /// \param pool shared worker pool (also usable by other subsystems; the
  ///        runner only submits through parallel_map and always drains).
  explicit SweepRunner(par::ThreadPool& pool) : pool_(pool) {}

  /// Registers a graph and returns its content-addressed ref (`generator`
  /// is the optional descriptor recorded on the ref for portability).
  /// Registering the same graph twice is idempotent.
  GraphRef add_graph(graph::Graph g, std::string generator = {});

  /// Resolves a ref to its graph: by hash when the graph is registered,
  /// otherwise by materializing `ref.generator` (registering the result).
  /// Generator descriptors are memoized, so a batch of generator-only refs
  /// materializes each distinct graph once.  A ref with neither a known
  /// hash nor a generator, or whose generator produces a graph with a
  /// different hash, violates a precondition.
  const graph::Graph& resolve(const GraphRef& ref);

  /// `resolve`, but returns the graph's canonical content hash (the plan
  /// cache/store key prefix) without rehashing.
  std::uint64_t resolve_hash(const GraphRef& ref);

  bool has_graph(std::uint64_t hash) const {
    return graphs_.count(hash) != 0;
  }
  /// Safe to read concurrently with a running batch (the serve daemon's
  /// stats frame polls it from connection threads).
  std::size_t graph_count() const noexcept {
    return graph_count_.load(std::memory_order_relaxed);
  }

  /// Attaches an on-disk plan store (nullptr detaches).  Plan misses then
  /// consult the store before computing, and computed plans are written
  /// through, so a new runner over the same store starts warm.
  void attach_store(PlanStore* store) { store_ = store; }
  PlanStore* store() const noexcept { return store_; }

  /// Runs the batch: resolves schemes and graphs, loads or computes every
  /// missing plan exactly once (in parallel over distinct cache keys), then
  /// executes all specs in parallel, recording each missing result once.
  /// Results are returned in spec order; for a fixed batch they are
  /// identical on any thread count.  Every spec's scheme name must be
  /// registered and its graph ref resolvable.
  std::vector<SchemeResult> run(const std::vector<ExperimentSpec>& specs);

  /// Runs several independently-owned batches as ONE sweep: the specs are
  /// concatenated (batch order, spec order within each batch), every plan /
  /// recorded result is still loaded or computed exactly once across the
  /// whole merged set, and the execution phase is one pool dispatch — so
  /// concurrent clients sweeping the same graph share one labeling and one
  /// dispatch instead of serializing N copies of the fixed batch cost.
  /// Results come back sliced per input batch, each slice in its batch's own
  /// spec order and byte-identical to what `run` would have returned for
  /// that batch alone (pinned by the serve differentials).  `spec_wall_ns`
  /// records each spec's execution wall time (a record owner's engine run
  /// included; labeling is shared and not attributed).
  std::vector<BatchResults> run_merged(
      const std::vector<const std::vector<ExperimentSpec>*>& batches);

  PlanCache& cache() noexcept { return cache_; }
  const PlanCache& cache() const noexcept { return cache_; }
  PlanCacheStats cache_stats() const { return cache_.stats(); }
  void clear_cache() { cache_.clear(); }

 private:
  /// A generator descriptor materialized ahead of the serial resolve loop:
  /// its graph and canonical hash, or what materializing it threw.
  struct Materialized {
    graph::Graph graph;
    std::uint64_t hash = 0;
    std::exception_ptr error;
  };
  using MaterializedMap = std::unordered_map<std::string, Materialized>;

  /// Materializes and hashes, in one pool pass, every distinct descriptor in
  /// `specs` that `resolve_hash` would otherwise build serially.  Nothing is
  /// registered here: the resolve loop takes each graph when it reaches its
  /// spec, so a batch that fails earlier leaves the graph table as the
  /// serial loop would, and a bad descriptor rethrows its own exception at
  /// its own spec.
  MaterializedMap materialize_unknown(
      const std::vector<const ExperimentSpec*>& specs) const;

  /// Builds and hashes one descriptor's graph; generators that can split
  /// their work (`gnp`) fan out on `pool_`, also from inside a pool task.
  Materialized materialize(const std::string& descriptor) const;

  /// `resolve_hash`, taking a descriptor's graph from `prebuilt` when it is
  /// there instead of materializing it.
  std::uint64_t resolve_hash(const GraphRef& ref, MaterializedMap& prebuilt);

  /// The shared core of `run` / `run_merged`: executes the flattened spec
  /// list, returning results in index order and per-spec execution wall
  /// times in `wall_ns` (same length as `specs`).
  std::vector<SchemeResult> run_ptrs(
      const std::vector<const ExperimentSpec*>& specs,
      std::vector<std::uint64_t>& wall_ns);

  par::ThreadPool& pool_;
  std::unordered_map<std::uint64_t, graph::Graph> graphs_;
  std::unordered_map<std::string, std::uint64_t> generator_hashes_;
  std::atomic<std::size_t> graph_count_{0};
  PlanCache cache_;
  PlanStore* store_ = nullptr;
};

}  // namespace radiocast::runtime
