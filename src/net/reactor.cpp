#include "net/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>

#include "obs/profiler.h"

namespace visapult::net {

namespace {

std::uint64_t pack(int fd, std::uint64_t gen) {
  return (gen << 32) | static_cast<std::uint32_t>(fd);
}

std::uint32_t to_epoll(std::uint32_t events) {
  std::uint32_t e = 0;
  if (events & Reactor::kReadable) e |= EPOLLIN | EPOLLRDHUP;
  if (events & Reactor::kWritable) e |= EPOLLOUT;
  return e;
}

std::uint32_t from_epoll(std::uint32_t e) {
  std::uint32_t events = 0;
  if (e & (EPOLLIN | EPOLLRDHUP)) events |= Reactor::kReadable;
  if (e & EPOLLOUT) events |= Reactor::kWritable;
  if (e & (EPOLLERR | EPOLLHUP)) {
    // A hangup must reach the read path so it can observe EOF and tear the
    // connection down; surface it as readable + error.
    events |= Reactor::kError | Reactor::kReadable;
  }
  return events;
}

// epoll_wait with a nanosecond timeout (epoll_pwait2), falling back to a
// millisecond timeout rounded up on kernels older than 5.11.
int wait_events(int epoll_fd, epoll_event* events, int max_events,
                double timeout_seconds) {
  static std::atomic<bool> have_pwait2{true};
  if (have_pwait2.load(std::memory_order_relaxed)) {
    const auto ns = static_cast<long long>(std::ceil(timeout_seconds * 1e9));
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(ns / 1000000000);
    ts.tv_nsec = static_cast<long>(ns % 1000000000);
    const int n = ::epoll_pwait2(epoll_fd, events, max_events, &ts, nullptr);
    if (n >= 0 || errno != ENOSYS) return n;
    have_pwait2.store(false, std::memory_order_relaxed);
  }
  return ::epoll_wait(epoll_fd, events, max_events,
                      static_cast<int>(std::ceil(timeout_seconds * 1e3)));
}

}  // namespace

Reactor::Reactor() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  thread_ = std::thread([this] { run(); });
}

Reactor::~Reactor() {
  stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void Reactor::stop() {
  if (stopping_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  wake();
  if (thread_.joinable()) thread_.join();
}

void Reactor::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void Reactor::post(std::function<void()> fn) {
  {
    std::lock_guard lk(tasks_mu_);
    tasks_.emplace_back(now(), std::move(fn));
  }
  // The loop looks at its queue before it sleeps (a queued task makes the
  // wait's timeout 0), so a post from the loop's own thread needs no wake.
  if (!on_loop_thread()) wake();
}

TimerWheel::TimerId Reactor::schedule_after(double delay_seconds,
                                            std::function<void()> fn) {
  // Wheel ids are allocated on the loop thread; hand callers a stable
  // token mapped to the wheel id once the arm task runs there.
  const TimerWheel::TimerId token =
      next_timer_token_.fetch_add(1, std::memory_order_relaxed) + 1;
  auto arm = [this, token, delay_seconds, fn = std::move(fn)]() mutable {
    const TimerWheel::TimerId id = wheel_.schedule(
        now() + delay_seconds, [this, token, fn = std::move(fn)] {
          timer_tokens_.erase(token);
          fn();
        });
    timer_tokens_[token] = id;
  };
  if (on_loop_thread()) {
    arm();
  } else {
    post(std::move(arm));
  }
  return token;
}

void Reactor::cancel_timer(TimerWheel::TimerId token) {
  auto disarm = [this, token] {
    auto it = timer_tokens_.find(token);
    if (it == timer_tokens_.end()) return;  // already fired (or never armed)
    wheel_.cancel(it->second);
    timer_tokens_.erase(it);
  };
  if (on_loop_thread()) {
    disarm();
  } else {
    post(disarm);
  }
}

core::Status Reactor::add_fd(int fd, std::uint32_t events, FdHandler handler) {
  FdEntry& entry = fds_[fd];
  entry.gen = next_gen_++;
  entry.handler = std::move(handler);
  epoll_event ev{};
  ev.events = to_epoll(events);
  ev.data.u64 = pack(fd, entry.gen);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    fds_.erase(fd);
    return core::internal_error(std::string("epoll_ctl add: ") +
                                std::strerror(errno));
  }
  return core::Status::ok();
}

core::Status Reactor::mod_fd(int fd, std::uint32_t events) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return core::not_found("mod_fd: fd not registered");
  }
  epoll_event ev{};
  ev.events = to_epoll(events);
  ev.data.u64 = pack(fd, it->second.gen);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return core::internal_error(std::string("epoll_ctl mod: ") +
                                std::strerror(errno));
  }
  return core::Status::ok();
}

void Reactor::del_fd(int fd) {
  if (fds_.erase(fd) > 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
}

double Reactor::now() const {
  const core::Clock* clock = clock_.load(std::memory_order_relaxed);
  if (clock != nullptr) return clock->now();
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void Reactor::drain_tasks() {
  std::vector<std::pair<double, std::function<void()>>> batch;
  {
    std::lock_guard lk(tasks_mu_);
    batch.swap(tasks_);
  }
  if (batch.empty()) return;
  const double picked = now();
  for (auto& [enqueued, fn] : batch) {
    dispatch_wait_.observe(std::max(0.0, picked - enqueued));
    fn();
  }
  std::lock_guard lk(stats_mu_);
  stats_.tasks_run += batch.size();
}

void Reactor::run() {
  loop_thread_id_.store(std::this_thread::get_id());
  epoll_event wake_ev{};
  wake_ev.events = EPOLLIN;
  wake_ev.data.u64 = pack(wake_fd_, 0);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wake_ev);

  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  double busy_since = now();
  while (!stopping_.load(std::memory_order_acquire)) {
    // Sleep until the next timer deadline, a registered fd turns ready, or
    // a post() wakes the eventfd; at most a second.
    double timeout = 1.0;
    const double next = wheel_.next_deadline();
    if (std::isfinite(next)) timeout = std::clamp(next - now(), 0.0, 1.0);
    {
      std::lock_guard lk(tasks_mu_);
      if (!tasks_.empty()) timeout = 0.0;
    }

    // USE split: the block inside epoll_wait is the loop's idle time;
    // everything from wakeup to the next wait is busy time.  The phase
    // marker lets stats() attribute the CURRENT block live -- an idle loop
    // parks in epoll_wait up to a second at a time, and a scrape mid-park
    // must count that as idle, not wait for the iteration to finish.
    const double wait_start = now();
    phase_started_.store(wait_start, std::memory_order_relaxed);
    in_wait_.store(true, std::memory_order_release);
    const int n = wait_events(epoll_fd_, events, kMaxEvents, timeout);
    const double wait_end = now();
    in_wait_.store(false, std::memory_order_relaxed);
    phase_started_.store(wait_end, std::memory_order_release);
    if (n < 0 && errno != EINTR) break;

    std::uint64_t dispatched = 0;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = static_cast<int>(events[i].data.u64 & 0xffffffffu);
      const std::uint64_t gen = events[i].data.u64 >> 32;
      if (fd == wake_fd_) {
        std::uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof drained) > 0) {
        }
        continue;
      }
      // A handler earlier in this batch may have closed this fd (and the
      // kernel may even have recycled the number); the generation stamp
      // unmasks such stale events.
      auto it = fds_.find(fd);
      if (it == fds_.end() || it->second.gen != gen) continue;
      ++dispatched;
      // Invoke a copy: the handler may del_fd its own entry, which would
      // destroy the stored closure (and its captures) out from under us.
      FdHandler handler = it->second.handler;
      OBS_STAGE("net.dispatch");
      handler(from_epoll(events[i].events));
    }

    drain_tasks();
    const std::size_t fired = wheel_.advance(now());

    const double iter_end = now();
    std::lock_guard lk(stats_mu_);
    ++stats_.wakeups;
    stats_.fd_dispatches += dispatched;
    stats_.timers_fired += fired;
    stats_.fds = fds_.size();
    stats_.timers_pending = wheel_.pending();
    stats_.busy_seconds += std::max(0.0, wait_start - busy_since) +
                           std::max(0.0, iter_end - wait_end);
    stats_.idle_seconds += std::max(0.0, wait_end - wait_start);
    // The chunk up to iter_end is in stats_ now; restart the live phase
    // here so a concurrent stats() cannot count it twice.
    phase_started_.store(iter_end, std::memory_order_relaxed);
    busy_since = iter_end;
  }
  phase_started_.store(-1.0, std::memory_order_relaxed);

  // Unwind on the loop thread: destroy handlers and queued task captures
  // here so anything they hold (connection state, shared_ptrs) is released
  // off the caller's thread but race-free.
  fds_.clear();
  timer_tokens_.clear();
  std::lock_guard lk(tasks_mu_);
  tasks_.clear();
}

ReactorStats Reactor::stats() const {
  ReactorStats out;
  {
    std::lock_guard lk(stats_mu_);
    out = stats_;
  }
  // Attribute the loop's in-progress phase (parked in epoll_wait, or busy
  // in a long dispatch) to this snapshot; the iteration-end batch add has
  // not seen it yet, so this never double-counts.
  const double started = phase_started_.load(std::memory_order_acquire);
  if (started >= 0.0) {
    const double elapsed = std::max(0.0, now() - started);
    if (in_wait_.load(std::memory_order_relaxed)) {
      out.idle_seconds += elapsed;
    } else {
      out.busy_seconds += elapsed;
    }
  }
  std::lock_guard lk(tasks_mu_);
  out.tasks_queued = tasks_.size();
  return out;
}

ReactorPool::ReactorPool(int loops) {
  int n = loops;
  if (n <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = static_cast<int>(hw == 0 ? 2 : hw);
    if (n > 8) n = 8;
  }
  reactors_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    reactors_.push_back(std::make_unique<Reactor>());
  }
}

Reactor& ReactorPool::next() {
  const std::size_t i =
      cursor_.fetch_add(1, std::memory_order_relaxed) % reactors_.size();
  return *reactors_[i];
}

std::vector<ReactorStats> ReactorPool::stats() const {
  std::vector<ReactorStats> out;
  out.reserve(reactors_.size());
  for (const auto& r : reactors_) out.push_back(r->stats());
  return out;
}

}  // namespace visapult::net
