/// \file parallel_for.hpp
/// \brief Deterministic, nesting-safe data-parallel loops on a ThreadPool.
///
/// `parallel_map` evaluates `f(i)` for i in [0, n) and returns results in
/// index order regardless of scheduling, so sweeps produce identical tables
/// on any thread count — a requirement for reproducible experiment output.
///
/// Completion is per call, never pool-wide: each call owns its chunk
/// counter, its done count and its first exception, and a caller that is
/// one of the pool's workers claims chunks alongside the helpers it
/// submits.  So a call made from inside a task on the same pool (a pooled
/// generator inside a pooled sweep) always finishes — at worst the caller
/// runs every chunk — and an exception reaches only the call whose body
/// threw.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "support/contracts.hpp"

namespace radiocast::par {

namespace detail {

/// Runs `run_chunk(c)` once for every c in [0, chunks) on up to
/// `pool.thread_count()` threads — pool helpers, plus the calling thread
/// when it is one of the pool's workers — and returns when all have
/// finished.  Chunks are claimed in ascending order; once one throws,
/// unclaimed chunks are skipped and the first exception is rethrown here.
/// Helpers that start after every chunk is claimed return at once.
void fan_out(ThreadPool& pool, std::size_t chunks,
             const std::function<void(std::size_t)>& run_chunk);

}  // namespace detail

/// Runs `body(i)` for every i in [0, n) using `pool`, blocking until done.
/// Work is split into contiguous chunks to limit queue traffic.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t n, Body body,
                  std::size_t grain = 1) {
  RC_EXPECTS(grain >= 1);
  if (n == 0) return;
  const std::size_t target_chunks = pool.thread_count() * 4;
  const std::size_t chunk =
      std::max(grain, (n + target_chunks - 1) / target_chunks);
  detail::fan_out(pool, (n + chunk - 1) / chunk, [&](std::size_t c) {
    const std::size_t end = std::min(n, (c + 1) * chunk);
    for (std::size_t i = c * chunk; i < end; ++i) body(i);
  });
}

/// Maps `f` over [0, n); results land in index order.
template <typename F>
auto parallel_map(ThreadPool& pool, std::size_t n, F f, std::size_t grain = 1)
    -> std::vector<decltype(f(std::size_t{0}))> {
  using R = decltype(f(std::size_t{0}));
  std::vector<R> out(n);
  parallel_for(
      pool, n, [&](std::size_t i) { out[i] = f(i); }, grain);
  return out;
}

}  // namespace radiocast::par
