// Fixed-size thread pool with a parallel_for helper.
//
// Used by the renderer's parallel engines, the block servers' handler
// pools, the cache's read-ahead, and the DPSS client, where each pooled
// server connection owns a one-thread pool as its I/O worker (as in the
// paper: "the DPSS client library is multi-threaded, where the number of
// client threads is equal to the number of DPSS servers").
//
// Utilization accounting: the pool tracks queue depth (with a high-water
// mark) and per-task wait/run times against an injectable Clock.  core sits
// below obs in the module DAG, so the pool cannot own histograms itself;
// instead a TaskObserver hook receives (wait_seconds, run_seconds) after
// every task, and deployments bind it to their obs::Histogram instruments.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/clock.h"

namespace visapult::core {

// Point-in-time pool accounting, snapshotted under the queue lock.
struct ThreadPoolStats {
  std::uint64_t submitted = 0;   // tasks ever enqueued
  std::uint64_t completed = 0;   // tasks fully run
  std::size_t queue_depth = 0;   // waiting (not yet picked up)
  std::size_t queue_peak = 0;    // high-water mark of queue_depth
  int threads = 0;

  // Saturation: a queue deeper than the worker count means arrivals are
  // outrunning service.
  double saturation() const {
    return threads == 0 ? 0.0
                        : static_cast<double>(queue_depth) / threads;
  }
};

class ThreadPool {
 public:
  // elastic=true lets the pool grow past num_threads: submit() spawns an
  // extra worker whenever queued tasks outnumber idle workers.  Use this
  // for pools whose tasks may BLOCK on work serviced by the same pool
  // family (e.g. the deployment peer doors, where a chain forward waits on
  // the next hop's reply) -- a bounded pool there is a hold-and-wait
  // deadlock waiting to happen.  Grown workers persist until destruction,
  // so the thread count high-water-marks at peak concurrency.
  explicit ThreadPool(int num_threads, bool elastic = false);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Current worker count.  Read under the queue lock: an elastic pool's
  // submit() grows workers_ concurrently.
  int size() const;

  // Enqueue arbitrary work; the future resolves when it has run.
  std::future<void> submit(std::function<void()> fn);

  // Run fn(i) for i in [begin, end), split into ~2x-oversubscribed chunks.
  // Blocks until complete.  Exceptions in fn propagate from here.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  // Timestamp source for wait/run accounting (default: the process real
  // clock).  Tests inject a VirtualClock for deterministic histograms.
  // Call before the first submit(); the pointer must outlive the pool.
  void set_clock(const Clock* clock);

  // Invoked once per task, after it ran, from the worker thread that ran
  // it: (seconds queued, seconds executing).  Call before the first
  // submit(); the observer must be thread-safe.
  using TaskObserver = std::function<void(double wait_seconds,
                                          double run_seconds)>;
  void set_task_observer(TaskObserver observer);

  ThreadPoolStats stats() const;

 private:
  struct Entry {
    std::packaged_task<void()> task;
    double enqueued_at = 0.0;
  };

  void worker_loop();
  double clock_now() const;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Entry> queue_;
  bool stopping_ = false;
  bool elastic_ = false;
  std::size_t idle_ = 0;  // workers parked in cv_.wait
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::size_t queue_peak_ = 0;
  const Clock* clock_ = nullptr;  // nullptr -> global_real_clock()
  TaskObserver observer_;
  std::vector<std::thread> workers_;
};

}  // namespace visapult::core
