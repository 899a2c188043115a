#include "sim/backend.hpp"

#include <algorithm>
#include <bit>
#include <thread>

#include "graph/bit_adjacency.hpp"
#include "parallel/parallel_for.hpp"

namespace radiocast::sim {

const char* to_string(BackendKind k) {
  switch (k) {
    case BackendKind::kAuto: return "auto";
    case BackendKind::kScalar: return "scalar";
    case BackendKind::kBit: return "bit";
    case BackendKind::kSharded: return "sharded";
    case BackendKind::kHybrid: return "hybrid";
  }
  return "?";
}

std::optional<BackendKind> parse_backend(std::string_view name) {
  if (name == "auto") return BackendKind::kAuto;
  if (name == "scalar") return BackendKind::kScalar;
  if (name == "bit") return BackendKind::kBit;
  if (name == "sharded") return BackendKind::kSharded;
  if (name == "hybrid") return BackendKind::kHybrid;
  return std::nullopt;
}

std::size_t resolve_thread_count(std::size_t threads) noexcept {
  if (threads != 0) return threads;
  const auto hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// ---------------------------------------------------------------------------
// ScalarEngine

ScalarEngine::ScalarEngine(const graph::Graph& g) : graph_(g) {
  const auto n = g.node_count();
  tx_neighbor_count_.assign(n, 0);
  unique_tx_index_.assign(n, 0);
  transmitting_.assign(n, 0);
}

void ScalarEngine::resolve(std::span<const NodeId> transmitters,
                           bool want_collisions, RoundResolution& out) {
  out.clear();
  if (transmitters.empty()) return;

  for (const NodeId t : transmitters) transmitting_[t] = 1;

  touched_.clear();
  for (std::uint32_t i = 0; i < transmitters.size(); ++i) {
    for (const NodeId w : graph_.neighbors(transmitters[i])) {
      if (tx_neighbor_count_[w] == 0) {
        touched_.push_back(w);
        unique_tx_index_[w] = i;
      }
      ++tx_neighbor_count_[w];
    }
  }

  // Canonical listener order, so traces are identical across backends.
  std::sort(touched_.begin(), touched_.end());
  for (const NodeId w : touched_) {
    if (transmitting_[w]) continue;  // a transmitting node never hears
    if (tx_neighbor_count_[w] == 1) {
      out.deliveries.emplace_back(w, unique_tx_index_[w]);
    } else if (want_collisions) {
      out.collisions.push_back(w);
    }
  }

  // Reset scratch for this round's touched nodes only.
  for (const NodeId w : touched_) tx_neighbor_count_[w] = 0;
  for (const NodeId t : transmitters) transmitting_[t] = 0;
}

// ---------------------------------------------------------------------------
// WordRangeEngine

namespace {

/// Words per 64-byte cache line: shard boundaries are multiples of this so
/// no two workers store to the same line of the shared accumulators.
constexpr std::size_t kLineWords = 8;

/// Dense slice budget in words; arena offsets are 32-bit below kNoSlice.
constexpr std::size_t kBudgetWords =
    kDenseSliceBudgetBytes / sizeof(std::uint64_t);
static_assert(kBudgetWords < ~std::uint32_t{0});

}  // namespace

WordRangeEngine::WordRangeEngine(const graph::Graph& g, BackendKind kind,
                                 std::size_t threads)
    : kernels_(&simd::active_kernels()),
      graph_(g),
      kind_(kind),
      workers_(kind == BackendKind::kBit ? 1 : resolve_thread_count(threads)),
      words_(graph::BitAdjacency::words_for(g.node_count())) {
  RC_EXPECTS(kind == BackendKind::kBit || kind == BackendKind::kSharded ||
             kind == BackendKind::kHybrid);
  const auto n = g.node_count();
  once_.assign(words_, 0);
  twice_.assign(words_, 0);
  tx_mask_.assign(words_, 0);
  heard_.assign(words_, 0);
  unique_tx_index_.assign(n, 0);

  // One shard per worker, each a cache-line-aligned word range; tiny rows
  // collapse to fewer (possibly one) shards rather than sub-line slivers.
  const std::size_t lines = (words_ + kLineWords - 1) / kLineWords;
  const std::size_t target =
      std::max<std::size_t>(1, std::min(workers_, lines));
  std::size_t chunk = (words_ + target - 1) / target;
  chunk = ((chunk + kLineWords - 1) / kLineWords) * kLineWords;
  for (std::size_t w = 0; w < words_; w += chunk) {
    Shard s;
    s.begin_word = w;
    s.end_word = std::min(words_, w + chunk);
    s.begin_node = static_cast<NodeId>(s.begin_word * 64);
    s.end_node =
        static_cast<NodeId>(std::min<std::size_t>(n, s.end_word * 64));
    shards_.push_back(std::move(s));
  }
  const std::size_t shard_count = shards_.size();
  if (shard_count > 1) pool_ = std::make_unique<par::ThreadPool>(shard_count);

  // End of shard s's part of the sorted neighbour range [from, end); the
  // last shard ends at n, so it needs no search.
  const auto shard_end = [&](const NodeId* from, const NodeId* end,
                             std::size_t s) {
    return s + 1 == shard_count
               ? end
               : std::lower_bound(from, end, shards_[s].end_node);
  };

  // Admission: (row asc, shard asc) greedy under the global budget; a slice
  // pays once the row has a neighbour inside the shard per
  // kDenseWordsPerNeighbor words.  Offsets are handed out in admission
  // order, so the arena is laid out row-major.
  std::size_t budget_words = kBudgetWords;
  std::size_t arena_words = 0;
  std::vector<std::uint32_t> offsets(shard_count);
  for (NodeId v = 0; v < n && budget_words > 0; ++v) {
    const auto nb = g.neighbors(v);
    const NodeId* p = nb.data();
    bool any = false;
    for (std::size_t s = 0; s < shard_count; ++s) {
      const NodeId* hi = shard_end(p, nb.data() + nb.size(), s);
      const auto count = static_cast<std::size_t>(hi - p);
      const std::size_t width = shards_[s].end_word - shards_[s].begin_word;
      offsets[s] = kNoSlice;
      if (width <= kDenseWordsPerNeighbor * count && width <= budget_words) {
        offsets[s] = static_cast<std::uint32_t>(arena_words);
        budget_words -= width;
        arena_words += width;
        any = true;
      }
      p = hi;
    }
    if (!any) continue;
    if (dense_row_.empty()) dense_row_.assign(n, kNoSlice);
    dense_row_[v] =
        static_cast<std::uint32_t>(slice_offset_.size() / shard_count);
    slice_offset_.insert(slice_offset_.end(), offsets.begin(), offsets.end());
  }

  // Fill: one zero-initialized arena, written row-major in a single pass
  // over each dense row's CSR neighbours.
  dense_arena_ = support::HugeWords(arena_words);
  for (NodeId v = 0; v < n && !dense_row_.empty(); ++v) {
    if (dense_row_[v] == kNoSlice) continue;
    const auto* row_offsets = &slice_offset_[dense_row_[v] * shard_count];
    const auto nb = g.neighbors(v);
    const NodeId* p = nb.data();
    for (std::size_t s = 0; s < shard_count; ++s) {
      const NodeId* hi = shard_end(p, nb.data() + nb.size(), s);
      if (row_offsets[s] != kNoSlice) {
        std::uint64_t* slice = dense_arena_.data() + row_offsets[s];
        const std::size_t w0 = shards_[s].begin_word;
        for (; p != hi; ++p) {
          slice[(*p >> 6) - w0] |= std::uint64_t{1} << (*p & 63);
        }
      }
      p = hi;
    }
  }
}

const std::uint64_t* WordRangeEngine::dense_slice(NodeId v,
                                                  std::size_t s) const {
  if (dense_row_.empty() || dense_row_[v] == kNoSlice) return nullptr;
  const std::uint32_t offset =
      slice_offset_[dense_row_[v] * shards_.size() + s];
  return offset == kNoSlice ? nullptr : dense_arena_.data() + offset;
}

void WordRangeEngine::resolve_shard(std::size_t s,
                                    std::span<const NodeId> transmitters,
                                    bool want_collisions,
                                    RoundResolution& out) {
  Shard& shard = shards_[s];
  const std::size_t w0 = shard.begin_word;
  const std::size_t width = shard.end_word - w0;
  const bool whole_graph = shards_.size() == 1;
  shard.touched.clear();
  shard.round_dense.clear();
  bool whole_range = false;

  // Accumulate.  Saturating per-bit semantics match the once/twice word
  // fold exactly, so mixing dense slices and scalar scatter is
  // order-independent: once = ">= 1 transmitting neighbour", twice = ">= 2".
  // The accumulators are all-zero between rounds, so the generic fold
  // doubles as the first-row case; per-bit scatter stays scalar — it is
  // bit-addressed, not word-addressed.
  for (std::uint32_t i = 0; i < transmitters.size(); ++i) {
    const NodeId t = transmitters[i];
    if (const auto* slice = dense_slice(t, s)) {
      kernels_->accumulate(once_.data() + w0, twice_.data() + w0, slice, width);
      shard.round_dense.emplace_back(i, slice);
      whole_range = true;
      continue;
    }
    const auto nb = graph_.neighbors(t);
    auto lo = nb.begin();
    auto hi = nb.end();
    if (!whole_graph) {
      lo = std::lower_bound(lo, hi, shard.begin_node);
      hi = std::lower_bound(lo, hi, shard.end_node);
    }
    for (auto p = lo; p != hi; ++p) {
      const NodeId w = *p;
      const std::size_t word = w >> 6;
      const std::uint64_t bit = std::uint64_t{1} << (w & 63);
      if (once_[word] & bit) {
        twice_[word] |= bit;
      } else {
        // First touch of the bit attributes it; first touch of the word
        // records it for extraction/clearing (once bits never clear within
        // a round, so word == 0 means genuinely untouched).
        if (once_[word] == 0 && !whole_range) shard.touched.push_back(word);
        once_[word] |= bit;
        unique_tx_index_[w] = i;
      }
    }
  }

  // Finalize heard bits, then attribute dense-row deliveries (a heard
  // listener has exactly one transmitting neighbour, so at most one dense
  // row hits it and scatter-recorded indices are never overwritten).
  std::uint64_t any_heard = 0;
  if (whole_range) {
    any_heard =
        kernels_->heard_sweep(heard_.data() + w0, once_.data() + w0,
                              twice_.data() + w0, tx_mask_.data() + w0, width);
  } else {
    std::sort(shard.touched.begin(), shard.touched.end());
    for (const std::size_t w : shard.touched) {
      heard_[w] = once_[w] & ~twice_[w] & ~tx_mask_[w];
    }
  }
  if (any_heard != 0) {
    for (const auto& [index, slice] : shard.round_dense) {
      for (std::size_t w = 0; w < width; ++w) {
        std::uint64_t hits = slice[w] & heard_[w0 + w];
        while (hits) {
          const auto b = static_cast<std::uint32_t>(std::countr_zero(hits));
          hits &= hits - 1;
          unique_tx_index_[((w0 + w) << 6) + b] = index;
        }
      }
    }
  }

  // Extract in ascending word order and restore the all-zero accumulator
  // invariant for the next round, touching only this round's footprint.
  const auto extract = [&](std::size_t w) {
    std::uint64_t h = heard_[w];
    while (h) {
      const auto b = static_cast<std::uint32_t>(std::countr_zero(h));
      h &= h - 1;
      const auto listener = static_cast<NodeId>((w << 6) + b);
      out.deliveries.emplace_back(listener, unique_tx_index_[listener]);
    }
    if (want_collisions) {
      std::uint64_t c = twice_[w] & ~tx_mask_[w];
      while (c) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(c));
        c &= c - 1;
        out.collisions.push_back(static_cast<NodeId>((w << 6) + b));
      }
    }
    once_[w] = 0;
    twice_[w] = 0;
  };
  if (whole_range) {
    for (std::size_t w = w0; w < shard.end_word; ++w) extract(w);
  } else {
    for (const std::size_t w : shard.touched) extract(w);
  }
}

void WordRangeEngine::resolve(std::span<const NodeId> transmitters,
                              bool want_collisions, RoundResolution& out) {
  out.clear();
  if (transmitters.empty()) return;

  for (const NodeId t : transmitters) {
    tx_mask_[t >> 6] |= std::uint64_t{1} << (t & 63);
  }

  if (!pool_) {
    resolve_shard(0, transmitters, want_collisions, out);
  } else {
    // Shards read shared state (rows, tx_mask_) and write disjoint word
    // ranges of the accumulators plus their own local buffers; the
    // parallel_for completion is the round barrier.  Small rounds run the
    // same shard code inline — identical results, no pool round trip.
    const auto run_shard = [&](std::size_t s) {
      shards_[s].local.clear();
      resolve_shard(s, transmitters, want_collisions, shards_[s].local);
    };
    std::size_t edge_work = 0;
    for (const NodeId t : transmitters) edge_work += graph_.degree(t);
    if (edge_work < kInlineCutoffEdges) {
      for (std::size_t s = 0; s < shards_.size(); ++s) run_shard(s);
    } else {
      par::parallel_for(*pool_, shards_.size(), run_shard);
    }
    // Deterministic reduction: concatenate in shard (= ascending
    // word-range) order, which is ascending listener order globally.
    for (const auto& shard : shards_) {
      out.deliveries.insert(out.deliveries.end(),
                            shard.local.deliveries.begin(),
                            shard.local.deliveries.end());
      out.collisions.insert(out.collisions.end(),
                            shard.local.collisions.begin(),
                            shard.local.collisions.end());
    }
  }

  for (const NodeId t : transmitters) tx_mask_[t >> 6] = 0;
}

// ---------------------------------------------------------------------------
// Selection

BackendKind choose_backend(const graph::Graph& g, BackendKind requested,
                           std::size_t threads) {
  if (requested != BackendKind::kAuto) return requested;
  const auto n = g.node_count();
  if (n < 64) return BackendKind::kScalar;
  const std::size_t words = graph::BitAdjacency::words_for(n);
  const std::size_t bytes = static_cast<std::size_t>(n) * words * 8;
  if (bytes > kBitBackendMemoryCap) {
    // Past the bitmap wall: keep word-range sharding alive via the hybrid
    // CSR-scatter backend when the graph is big enough to amortize it.
    return n >= kHybridAutoMinNodes ? BackendKind::kHybrid
                                    : BackendKind::kScalar;
  }
  // Scalar costs deg(t) edge visits per transmitter; bit costs ~words word
  // ops.  Prefer bit when the average degree exceeds the word cost.
  const double avg_degree = 2.0 * static_cast<double>(g.edge_count()) / n;
  if (avg_degree < static_cast<double>(words)) return BackendKind::kScalar;
  // Big-enough rows amortize the round barrier: go multi-core.
  if (n >= kShardedAutoMinNodes && resolve_thread_count(threads) >= 2) {
    return BackendKind::kSharded;
  }
  return BackendKind::kBit;
}

std::unique_ptr<EngineBackend> make_engine_backend(const graph::Graph& g,
                                                   BackendKind kind,
                                                   std::size_t threads) {
  const BackendKind chosen = choose_backend(g, kind, threads);
  if (chosen == BackendKind::kScalar) {
    return std::make_unique<ScalarEngine>(g);
  }
  return std::make_unique<WordRangeEngine>(g, chosen, threads);
}

}  // namespace radiocast::sim
