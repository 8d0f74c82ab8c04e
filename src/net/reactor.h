// Epoll readiness loop -- the event-driven core of the net layer.
//
// One Reactor is one event-loop thread: an epoll_wait dispatcher over
// registered fds, a task queue for cross-thread posts (woken by an
// eventfd), and a hashed TimerWheel driving connect deadlines, per-request
// read timeouts, and heartbeat ticks.  The shape follows SimGrid's
// event-driven kernel: all state attached to an fd is owned by exactly one
// loop and only ever touched from that loop's thread, so per-connection
// machinery needs no locks.  A ReactorPool runs one loop per core and
// deals connections out round-robin -- the front door that absorbs
// thousands of sockets where thread-per-connection fell over.
//
// Timer precision: the loop's wheel ticks every 50 us and the loop sleeps
// in epoll_pwait2 with a nanosecond timeout, so a timer fires no earlier
// than its deadline and, on an idle loop, typically within a tick or two
// after it.  Sub-millisecond timers (deferred replies waiting out a
// modelled disk read) rely on this; epoll_wait's millisecond timeout would
// add up to a millisecond to each.
//
// Threading contract:
//   * post(), schedule_after(), cancel_timer(), stats() -- any thread.
//   * add_fd()/mod_fd()/del_fd() -- loop thread only (post() a task to get
//     there); this is what keeps the handler table lock-free.
//   * Handlers and timer callbacks run on the loop thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/clock.h"
#include "core/status.h"
#include "net/timer_wheel.h"
#include "obs/metrics.h"

namespace visapult::net {

struct ReactorStats {
  std::uint64_t wakeups = 0;        // epoll_wait returns
  std::uint64_t fd_dispatches = 0;  // fd handler invocations
  std::uint64_t timers_fired = 0;
  std::uint64_t tasks_run = 0;      // posted tasks executed
  std::size_t fds = 0;              // currently registered (excl. wake fd)
  std::size_t timers_pending = 0;
  std::size_t tasks_queued = 0;
  // USE accounting: wall time blocked in epoll_wait (idle) vs everything
  // else in the loop body -- dispatch, posted tasks, timers (busy).
  double busy_seconds = 0.0;
  double idle_seconds = 0.0;

  double busy_fraction() const {
    const double total = busy_seconds + idle_seconds;
    return total <= 0.0 ? 0.0 : busy_seconds / total;
  }
};

class Reactor {
 public:
  // Event mask bits passed to handlers (a subset of epoll's, renamed so
  // headers above net/ need no <sys/epoll.h>).
  static constexpr std::uint32_t kReadable = 1u << 0;
  static constexpr std::uint32_t kWritable = 1u << 1;
  static constexpr std::uint32_t kError = 1u << 2;  // EPOLLERR/EPOLLHUP

  using FdHandler = std::function<void(std::uint32_t events)>;

  Reactor();
  ~Reactor();  // stop() + join

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // Stop the loop and join its thread.  Pending posted tasks are dropped
  // (their captures are destroyed on the loop thread).  Idempotent.
  void stop();

  // Run `fn` on the loop thread as soon as possible.  Thread-safe; safe to
  // call from handlers (runs after the current dispatch batch).  Only a
  // post from another thread writes the wake eventfd.
  void post(std::function<void()> fn);

  // Arm `fn` to run on the loop thread after `delay_seconds`.  Thread-safe.
  // Cancellation is best-effort: a callback may still fire if it was
  // already due when cancel_timer() was posted.
  TimerWheel::TimerId schedule_after(double delay_seconds,
                                     std::function<void()> fn);
  void cancel_timer(TimerWheel::TimerId id);

  // ---- loop-thread-only fd registry ----
  core::Status add_fd(int fd, std::uint32_t events, FdHandler handler);
  core::Status mod_fd(int fd, std::uint32_t events);
  void del_fd(int fd);

  bool on_loop_thread() const {
    return std::this_thread::get_id() == loop_thread_id_.load();
  }

  // Monotonic seconds on the loop's own epoch (what timer deadlines use).
  double now() const;

  // Override the loop's time source (busy/idle accounting, dispatch-wait
  // stamps, timer deadlines).  Test-only: a VirtualClock that does not
  // advance will starve the timer wheel.  nullptr restores the default.
  void set_clock(const core::Clock* clock) {
    clock_.store(clock, std::memory_order_relaxed);
  }

  ReactorStats stats() const;

  // Post-to-run latency of posted tasks: how long a cross-thread request
  // for loop time waited in the queue.  A saturated loop shows up here
  // before throughput drops.
  obs::HistogramSnapshot dispatch_wait() const {
    return dispatch_wait_.snapshot();
  }

 private:
  struct FdEntry {
    std::uint64_t gen = 0;
    FdHandler handler;
  };

  void run();
  void wake();
  void drain_tasks();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
  // Set by the loop thread as it starts; read from any thread by post().
  std::atomic<std::thread::id> loop_thread_id_{};

  // Loop-thread-only: fd -> handler, with a generation stamp so an event
  // raced by a close-and-recycle of the same fd number within one
  // epoll_wait batch is recognised as stale and dropped.
  std::map<int, FdEntry> fds_;
  std::uint64_t next_gen_ = 1;
  TimerWheel wheel_{/*tick_seconds=*/50e-6, /*buckets=*/1024};
  // Token -> wheel id, loop-thread-only; tokens are what schedule_after
  // returns so callers on any thread get an id synchronously.
  std::map<TimerWheel::TimerId, TimerWheel::TimerId> timer_tokens_;
  std::atomic<TimerWheel::TimerId> next_timer_token_{0};

  mutable std::mutex tasks_mu_;
  // (enqueue timestamp, task): the stamp feeds dispatch_wait_ when the
  // loop picks the task up.
  std::vector<std::pair<double, std::function<void()>>> tasks_;

  mutable std::mutex stats_mu_;
  ReactorStats stats_;
  // Live USE phase: what the loop is doing RIGHT NOW, so stats() can
  // attribute an in-progress epoll_wait park (idle) or a long dispatch
  // (busy) without waiting for the iteration-end batch add.  -1 = loop not
  // running.
  std::atomic<bool> in_wait_{false};
  std::atomic<double> phase_started_{-1.0};

  std::atomic<const core::Clock*> clock_{nullptr};
  obs::Histogram dispatch_wait_;
};

// Per-core event loops with round-robin connection placement.
class ReactorPool {
 public:
  // `loops` <= 0 picks one per hardware thread, capped at 8 (the loops are
  // I/O-bound; past the core count they only add wakeup shuffling).
  explicit ReactorPool(int loops = 0);

  int size() const { return static_cast<int>(reactors_.size()); }
  Reactor& at(int i) { return *reactors_[static_cast<std::size_t>(i)]; }
  // Round-robin dealer for new connections.  Thread-safe.
  Reactor& next();

  std::vector<ReactorStats> stats() const;

 private:
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::atomic<std::size_t> cursor_{0};
};

}  // namespace visapult::net
