#include "core/thread_pool.h"

#include <algorithm>

namespace visapult::core {

ThreadPool::ThreadPool(int num_threads, bool elastic) : elastic_(elastic) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

int ThreadPool::size() const {
  std::lock_guard lk(mu_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::set_clock(const Clock* clock) {
  std::lock_guard lk(mu_);
  clock_ = clock;
}

void ThreadPool::set_task_observer(TaskObserver observer) {
  std::lock_guard lk(mu_);
  observer_ = std::move(observer);
}

double ThreadPool::clock_now() const {
  return clock_ != nullptr ? clock_->now() : global_real_clock().now();
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  Entry entry;
  entry.task = std::packaged_task<void()>(std::move(fn));
  auto fut = entry.task.get_future();
  {
    std::lock_guard lk(mu_);
    entry.enqueued_at = clock_now();
    queue_.push_back(std::move(entry));
    ++submitted_;
    queue_peak_ = std::max(queue_peak_, queue_.size());
    // Elastic growth: with every worker busy (possibly blocked on work
    // this very queue feeds), a queued task could wait forever.  Give it
    // its own worker instead of gambling on one freeing up.  Parked
    // workers already woken for earlier tasks still count in idle_ until
    // they run, so compare against the queue, not against zero.
    if (elastic_ && queue_.size() > idle_ && !stopping_) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks =
      std::min(n, static_cast<std::size_t>(size()) * 2);
  const std::size_t per = (n + chunks - 1) / chunks;

  std::vector<std::future<void>> futs;
  futs.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * per;
    const std::size_t hi = std::min(end, lo + per);
    if (lo >= hi) break;
    futs.push_back(submit([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  for (auto& f : futs) f.get();  // rethrows worker exceptions
}

void ThreadPool::worker_loop() {
  for (;;) {
    Entry entry;
    TaskObserver observer;
    double picked_at;
    {
      std::unique_lock lk(mu_);
      ++idle_;
      cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      --idle_;
      if (stopping_ && queue_.empty()) return;
      entry = std::move(queue_.front());
      queue_.pop_front();
      observer = observer_;
      picked_at = clock_now();
    }
    entry.task();
    double finished_at;
    {
      std::lock_guard lk(mu_);
      ++completed_;
      finished_at = clock_now();
    }
    if (observer) {
      observer(std::max(0.0, picked_at - entry.enqueued_at),
               std::max(0.0, finished_at - picked_at));
    }
  }
}

ThreadPoolStats ThreadPool::stats() const {
  std::lock_guard lk(mu_);
  ThreadPoolStats out;
  out.submitted = submitted_;
  out.completed = completed_;
  out.queue_depth = queue_.size();
  out.queue_peak = queue_peak_;
  out.threads = static_cast<int>(workers_.size());
  return out;
}

}  // namespace visapult::core
