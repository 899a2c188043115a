/// \file backend.hpp
/// \brief Pluggable round-resolution backends for the radio engine.
///
/// Resolving a round means: given the set of transmitters, find every
/// listening node with exactly one transmitting neighbour (it hears that
/// neighbour's message) and every listening node with two or more (a
/// collision).  Transmitters themselves never hear (paper §1.1).  Protocol
/// dispatch and bookkeeping live in `Engine` and are backend-independent;
/// only this resolution step is specialized:
///
///  - `ScalarEngine` walks transmitter adjacency lists in the CSR graph:
///    O(sum of deg(t)) per round — optimal for sparse graphs.
///  - `WordRangeEngine` folds transmitter rows into once/twice saturating
///    accumulator words (`twice |= once & row; once |= row`), split into
///    word-range shards: dense bitmap row slices where the graph is dense,
///    CSR scatter where it is not.  `twice` is exactly ">= 2 transmitting
///    neighbours", so the collision set comes for free.  `bit` is this
///    engine with one worker; `sharded` and `hybrid` run it on `threads`.
///
/// All backends produce listener-sorted results, so every `Engine`
/// observable (traces, counters, delivery order) is bit-exact across them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/simd.hpp"
#include "support/hugepage.hpp"

namespace radiocast::sim {

using graph::NodeId;

/// Which round-resolution backend an `Engine` uses.
enum class BackendKind : std::uint8_t {
  kAuto,     ///< pick by density/size (see `choose_backend`)
  kScalar,   ///< CSR adjacency walk (sparse-friendly seed implementation)
  kBit,      ///< dense bit-parallel stepping over adjacency bitmaps
  kSharded,  ///< multi-core bit-parallel stepping over word-range shards
  kHybrid,   ///< sharded CSR scatter + selective dense slices, O(n/8 + m)
};

const char* to_string(BackendKind k);

/// Parses "auto" / "scalar" / "bit" / "sharded" / "hybrid"; nullopt
/// otherwise.
std::optional<BackendKind> parse_backend(std::string_view name);

/// Resolves a thread-count request: 0 means `hardware_concurrency()`
/// (at least 1), anything else is taken verbatim.
std::size_t resolve_thread_count(std::size_t threads) noexcept;

/// Outcome of resolving one round.  Both lists are sorted by listener id and
/// exclude transmitters.  `deliveries` pairs each hearing listener with the
/// index of its unique transmitter within the round's transmitter array.
struct RoundResolution {
  std::vector<std::pair<NodeId, std::uint32_t>> deliveries;
  std::vector<NodeId> collisions;

  void clear() {
    deliveries.clear();
    collisions.clear();
  }
};

/// Round-resolution strategy bound to one graph.  Implementations keep
/// per-instance scratch sized once at construction; a backend object is not
/// safe for concurrent resolve() calls.
class EngineBackend {
 public:
  virtual ~EngineBackend() = default;

  EngineBackend() = default;
  EngineBackend(const EngineBackend&) = delete;
  EngineBackend& operator=(const EngineBackend&) = delete;

  virtual BackendKind kind() const noexcept = 0;
  virtual const char* name() const noexcept = 0;

  /// Resolves one round.  `transmitters` must be strictly increasing node
  /// ids.  When `want_collisions` is false the backend may leave
  /// `out.collisions` empty (the engine only needs the collision set for
  /// collision-detection mode or full traces).
  virtual void resolve(std::span<const NodeId> transmitters,
                       bool want_collisions, RoundResolution& out) = 0;
};

/// Sparse backend: the seed engine's per-transmitter adjacency walk, with
/// all scratch (including the transmitter membership bitmap) hoisted into
/// reused buffers cleared via touched-node bookkeeping — no per-round O(n)
/// allocation or zeroing.
class ScalarEngine final : public EngineBackend {
 public:
  explicit ScalarEngine(const graph::Graph& g);

  BackendKind kind() const noexcept override { return BackendKind::kScalar; }
  const char* name() const noexcept override { return "scalar"; }
  void resolve(std::span<const NodeId> transmitters, bool want_collisions,
               RoundResolution& out) override;

 private:
  const graph::Graph& graph_;
  std::vector<std::uint32_t> tx_neighbor_count_;
  std::vector<std::uint32_t> unique_tx_index_;
  std::vector<std::uint8_t> transmitting_;
  std::vector<NodeId> touched_;
};

/// The word-range backend behind `bit`, `sharded` and `hybrid`.  Listener
/// bits live in shared once/twice accumulator words, split into contiguous
/// cache-line-aligned word-range shards, one per worker (no two shards store
/// to the same 64-byte line).  Each shard folds in every transmitter's slice
/// of its range: a precomputed dense bitmap slice when the row has at least
/// one neighbour per `kDenseWordsPerNeighbor` shard words, else a saturating
/// per-bit scatter of the row's CSR neighbours that tracks touched words, so
/// a sparse round costs O(round footprint), not O(n/64).  Dense slices are
/// admitted in (row, shard) order under `kDenseSliceBudgetBytes`, packed
/// row-major in one huge-page-advised arena, so the arena never exceeds the
/// graph's `BitAdjacency` bitmap or the budget, and memory past the budget
/// stays O(n/8 + m).  The dense word loops run through the
/// `sim::simd` kernel set captured at construction.
///
/// A one-worker engine has one shard, resolves inline and starts no thread.
/// With more workers, rounds whose total transmitter degree reaches
/// `kInlineCutoffEdges` fan out over an engine-owned pool with a round
/// barrier.  Per-shard results are listener-sorted and concatenated in shard
/// order, so the outcome is bit-exact with `ScalarEngine` at any worker count.
class WordRangeEngine final : public EngineBackend {
 public:
  /// `kind` (kBit, kSharded or kHybrid) only names the engine: kBit runs one
  /// worker, the others `threads` workers (0 means `hardware_concurrency()`).
  WordRangeEngine(const graph::Graph& g, BackendKind kind,
                  std::size_t threads = 0);

  BackendKind kind() const noexcept override { return kind_; }
  const char* name() const noexcept override { return to_string(kind_); }
  void resolve(std::span<const NodeId> transmitters, bool want_collisions,
               RoundResolution& out) override;

  /// Workers the engine was built for; the pool starts one thread per shard
  /// and none when there is a single shard.
  std::size_t thread_count() const noexcept { return workers_; }
  std::size_t shard_count() const noexcept { return shards_.size(); }
  /// Total words of precomputed dense row slices (diagnostics/tests).
  std::size_t dense_slice_words() const noexcept { return dense_arena_.size(); }

 private:
  struct Shard {
    std::size_t begin_word = 0;
    std::size_t end_word = 0;
    NodeId begin_node = 0;
    NodeId end_node = 0;
    /// Round scratch, reused: touched accumulator words, dense rows folded
    /// in this round (transmitter index, slice), and the local result.
    std::vector<std::size_t> touched;
    std::vector<std::pair<std::uint32_t, const std::uint64_t*>> round_dense;
    RoundResolution local;
  };

  /// Row `v`'s dense slice over shard `s`, or nullptr when it scatters.
  const std::uint64_t* dense_slice(NodeId v, std::size_t s) const;
  void resolve_shard(std::size_t s, std::span<const NodeId> transmitters,
                     bool want_collisions, RoundResolution& out);

  static constexpr std::uint32_t kNoSlice = ~std::uint32_t{0};

  const simd::Kernels* kernels_ = nullptr;
  const graph::Graph& graph_;
  BackendKind kind_;
  std::size_t workers_ = 1;
  std::size_t words_ = 0;
  std::vector<Shard> shards_;
  /// Two-level O(1) slice index: `dense_row_[v]` numbers the rows holding
  /// at least one slice (empty when none does), and
  /// `slice_offset_[k * shard_count() + s]` is dense row k's arena offset
  /// over shard s, or kNoSlice.
  std::vector<std::uint32_t> dense_row_;
  std::vector<std::uint32_t> slice_offset_;
  support::HugeWords dense_arena_;
  std::vector<std::uint64_t> once_;     ///< >= 1 transmitting neighbour
  std::vector<std::uint64_t> twice_;    ///< >= 2 transmitting neighbours
  std::vector<std::uint64_t> tx_mask_;  ///< transmitter membership
  std::vector<std::uint64_t> heard_;    ///< once & ~twice & ~tx_mask
  std::vector<std::uint32_t> unique_tx_index_;
  /// Last, so its threads stop before the state its tasks use is destroyed.
  std::unique_ptr<par::ThreadPool> pool_;  ///< null with a single shard
};

/// Upper bound on the adjacency bitmap a kAuto selection may allocate.
inline constexpr std::size_t kBitBackendMemoryCap = 64u << 20;  // 64 MiB

/// kAuto upgrades kBit to kSharded at this node count and above, provided
/// at least two worker threads are available: below it a row spans so few
/// words that the per-round barrier costs more than the split saves.
inline constexpr std::uint32_t kShardedAutoMinNodes = 8192;

/// kAuto picks kHybrid over kScalar at this node count and above when the
/// full bitmap exceeds `kBitBackendMemoryCap`: below it the scalar walk's
/// touched-node bookkeeping is already cheap enough that shard setup per
/// round would dominate.
inline constexpr std::uint32_t kHybridAutoMinNodes = 65536;

/// Global budget for WordRangeEngine's precomputed dense row slices.
inline constexpr std::size_t kDenseSliceBudgetBytes = 64u << 20;  // 64 MiB

/// A (row, shard) pair gets a dense slice when the slice spans at most this
/// many words per neighbour inside the shard.  A folded word (one SIMD lane
/// of a streaming OR/AND) costs a small fraction of a scattered bit (a
/// dependent read-modify-write), so a slice pays from about one neighbour
/// per 8 words.  On graphs dense enough for kAuto to pick `bit` (average
/// degree >= n/64), nearly every row qualifies.
inline constexpr std::size_t kDenseWordsPerNeighbor = 8;

/// Below this much total transmitter degree, a multi-shard WordRangeEngine
/// resolves inline on the calling thread instead of fanning out.
inline constexpr std::size_t kInlineCutoffEdges = 1u << 14;

/// Resolves kAuto against the graph: kBit iff the bitmap fits under
/// `kBitBackendMemoryCap` and the average degree exceeds the n/64 words a
/// dense row folds per transmitter (the break-even density); kBit further
/// upgrades to kSharded when n >= `kShardedAutoMinNodes` and
/// `resolve_thread_count(threads) >= 2`.  Above the bitmap cap, graphs with
/// n >= `kHybridAutoMinNodes` go kHybrid and smaller ones kScalar.
/// Explicit requests are honored unchanged.
BackendKind choose_backend(const graph::Graph& g, BackendKind requested,
                           std::size_t threads = 0);

/// Constructs the chosen backend, resolving kAuto via `choose_backend`.
/// `threads` is the worker count for kSharded and kHybrid (0 = hardware
/// concurrency); kBit runs one worker and kScalar ignores it.
std::unique_ptr<EngineBackend> make_engine_backend(const graph::Graph& g,
                                                   BackendKind kind,
                                                   std::size_t threads = 0);

}  // namespace radiocast::sim
