#include "parallel/thread_pool.hpp"

#include <utility>

#include "support/contracts.hpp"

namespace radiocast::par {

namespace {
thread_local const ThreadPool* t_pool = nullptr;
}  // namespace

bool ThreadPool::is_worker_thread() const noexcept { return t_pool == this; }

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  RC_EXPECTS(task != nullptr);
  {
    std::scoped_lock lock(mutex_);
    RC_EXPECTS_MSG(!stopping_, "submit after shutdown");
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::worker_loop() {
  t_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace radiocast::par
