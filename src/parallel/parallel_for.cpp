#include "parallel/parallel_for.hpp"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>

namespace radiocast::par::detail {

namespace {

/// One fan-out's private completion state.  Shared with the helper tasks,
/// which may start after the call has returned: such a helper finds no
/// chunk left and never touches `run_chunk`.
struct Call {
  Call(std::size_t chunk_count,
       const std::function<void(std::size_t)>& chunk_body)
      : chunks(chunk_count), run_chunk(&chunk_body) {}

  /// Claims and runs chunks until none is left.
  void drain() {
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      std::exception_ptr error;
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          (*run_chunk)(c);
        } catch (...) {
          error = std::current_exception();
        }
      }
      std::scoped_lock lock(mutex);
      if (error && !first_error) {
        first_error = error;
        failed.store(true, std::memory_order_relaxed);
      }
      if (++done == chunks) finished.notify_all();
    }
  }

  const std::size_t chunks;
  const std::function<void(std::size_t)>* run_chunk;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mutex;
  std::condition_variable finished;
  std::size_t done = 0;  ///< guarded by `mutex`
  std::exception_ptr first_error;
};

}  // namespace

void fan_out(ThreadPool& pool, std::size_t chunks,
             const std::function<void(std::size_t)>& run_chunk) {
  if (chunks == 0) return;
  const auto call = std::make_shared<Call>(chunks, run_chunk);
  // One of the pool's own workers must run chunks itself: when every worker
  // waits in such a call, no helper would ever start.  Any other caller
  // only waits, so the pool's threads do the work (and allocate its
  // memory), and no helper is woken just to find every chunk taken while
  // the caller still holds a core.
  const bool caller_helps = pool.is_worker_thread();
  const std::size_t helpers =
      std::min(pool.thread_count(), chunks) - (caller_helps ? 1 : 0);
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([call] { call->drain(); });
  }
  if (caller_helps) call->drain();
  std::unique_lock lock(call->mutex);
  call->finished.wait(lock, [&] { return call->done == chunks; });
  if (call->first_error) std::rethrow_exception(call->first_error);
}

}  // namespace radiocast::par::detail
