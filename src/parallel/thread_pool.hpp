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

/// Fixed-size pool executing `std::function<void()>` tasks FIFO.
/// Exceptions escaping a task are rethrown from `wait_idle()`.
class ThreadPool {
 public:
  /// \param threads number of workers; 0 means `hardware_concurrency()`.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle.  If any task
  /// threw, rethrows the first captured exception.
  void wait_idle();

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers.
  bool is_worker_thread() const noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::size_t active_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

}  // namespace radiocast::par
