/// \file chunked.hpp
/// \brief Deterministic fixed-chunk fan-out for construction passes.
///
/// `for_chunks` / `collect_chunks` split an index range into contiguous
/// chunks executed on a ThreadPool (or inline when no pool is given or the
/// range is too small to pay for the fan-out).  Chunk results live in
/// per-chunk slots or per-chunk local vectors concatenated in chunk order,
/// so the combined output is byte-identical to a sequential left-to-right
/// loop at any thread count — the same determinism contract
/// `sim::WordRangeEngine` honors for round resolution.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace radiocast::par {

/// Upper bound on the number of chunks `for_chunks` uses for `n` items:
/// 1 when the loop runs inline (no pool, or under two grains of work),
/// otherwise enough `grain`-sized chunks to keep every worker busy without
/// letting the per-task overhead dominate.  Callers sizing per-chunk result
/// slots can allocate exactly this many.
inline std::size_t chunk_slots(const ThreadPool* pool, std::size_t n,
                               std::size_t grain) {
  if (n == 0) return 0;
  if (pool == nullptr || n < 2 * grain) return 1;
  return std::min(n / grain, pool->thread_count() * 4);
}

/// Runs `body(chunk, begin, end)` over consecutive subranges of [0, n).
/// Chunk indices are dense, ranges ascend with the index, and the chunk
/// layout depends only on (n, grain, slot count) — never on scheduling.
template <typename Body>
void for_chunks(ThreadPool* pool, std::size_t n, std::size_t grain,
                Body&& body) {
  const std::size_t slots = chunk_slots(pool, n, grain);
  if (slots == 0) return;
  if (slots == 1) {
    body(std::size_t{0}, std::size_t{0}, n);
    return;
  }
  const std::size_t chunk = (n + slots - 1) / slots;
  parallel_for(*pool, (n + chunk - 1) / chunk, [&](std::size_t index) {
    body(index, index * chunk, std::min(n, (index + 1) * chunk));
  });
}

/// Appends `emit(i, part)`-produced items for every i in [0, n) to `out`,
/// in index order: each chunk fills a private vector and the chunks are
/// concatenated ascending, so the result equals the sequential loop's.
template <typename T, typename Emit>
void collect_chunks(ThreadPool* pool, std::size_t n, std::size_t grain,
                    std::vector<T>& out, Emit&& emit) {
  const std::size_t slots = chunk_slots(pool, n, grain);
  if (slots == 0) return;
  if (slots == 1) {
    for (std::size_t i = 0; i < n; ++i) emit(i, out);
    return;
  }
  std::vector<std::vector<T>> parts(slots);
  for_chunks(pool, n, grain,
             [&](std::size_t chunk, std::size_t begin, std::size_t end) {
               auto& part = parts[chunk];
               for (std::size_t i = begin; i < end; ++i) emit(i, part);
             });
  for (const auto& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
}

}  // namespace radiocast::par
