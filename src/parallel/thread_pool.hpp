/// \file thread_pool.hpp
/// \brief A small fixed-size worker pool for the experiment harness.
///
/// The message-passing parallel style of the HPC guides applies here in
/// miniature: workers pull self-contained tasks from a queue and never share
/// mutable state with each other; all coordination happens through the queue
/// (cooperative operations, not shared writes).  Determinism matters for the
/// reproduction, so `parallel_for` (see parallel_for.hpp) always writes results
/// into caller-indexed slots rather than appending in completion order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace radiocast::par {

/// Fixed-size pool executing `std::function<void()>` tasks FIFO.  The pool
/// has no completion API of its own: fan work out through `parallel_for` /
/// `parallel_map`, which wait per call and rethrow a task's exception to
/// that call.  A raw task must not throw.
class ThreadPool {
 public:
  /// \param threads number of workers; 0 means `hardware_concurrency()`.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void submit(std::function<void()> task);

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers.
  bool is_worker_thread() const noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  bool stopping_ = false;
};

}  // namespace radiocast::par
