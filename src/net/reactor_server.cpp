#include "net/reactor_server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <mutex>

#include "net/tcp.h"
#include "obs/metrics.h"

namespace visapult::net {

namespace {
constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::size_t kFrameHeader = kFrameHeaderBytes;
// Most iovecs one sendmsg() gathers: 32 queued replies.
constexpr std::size_t kMaxIov = 64;
}  // namespace

struct Conn;

// Shared between the server facade, the listener, and every connection.
// Connections hold it by shared_ptr, so a completion posted to a loop after
// the facade died still lands on live state.
struct ReactorServer::State {
  ReactorPool& pool;
  Handler handler;
  ReactorServerOptions opts;
  core::ThreadPool* workers;
  // Most requests one connection may have dispatched and not yet written
  // (Conn's window); 1 is strictly serial dispatch.
  std::uint64_t window;
  std::function<void()> timeout_observer;

  int listen_fd = -1;
  Reactor* listen_loop = nullptr;

  std::mutex mu;
  std::condition_variable drained_cv;
  bool closing = false;
  std::map<std::uint64_t, std::shared_ptr<Conn>> conns;
  std::uint64_t next_conn_id = 0;
  // Handlers running or queued; close() waits for zero so handler captures
  // (BlockServer, Master) can be torn down afterwards.
  int in_flight = 0;

  // Counters (guarded by mu; queued_write_bytes adjusted from loop threads).
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t requests = 0;
  std::uint64_t overlapped_requests = 0;
  std::uint64_t read_timeouts = 0;
  std::uint64_t overflow_closes = 0;
  std::uint64_t accept_failures = 0;
  std::size_t queued_write_bytes = 0;
  std::size_t queued_write_hwm_bytes = 0;       // high-water of the sum
  std::size_t conn_write_queue_hwm_bytes = 0;   // high-water of any one conn
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  // Per-call and per-byte, so relaxed counters instead of `mu`.
  obs::Counter send_calls;
  obs::Counter recv_calls;
  obs::Counter copy_bytes;

  State(ReactorPool& p, Handler h, ReactorServerOptions o,
        core::ThreadPool* w)
      : pool(p), handler(std::move(h)), opts(std::move(o)), workers(w),
        window(opts.overlappable ? std::max<std::uint64_t>(1, opts.window)
                                 : 1) {}
};

// One accepted connection.  Every field is owned by `loop`'s thread; the
// only cross-thread entry points are posted tasks.
struct Conn : std::enable_shared_from_this<Conn> {
  std::shared_ptr<ReactorServer::State> state;
  Reactor* loop;
  int fd;
  std::uint64_t id;

  std::vector<std::uint8_t> rbuf;  // received, not yet consumed
  std::size_t rpos = 0;            // parse cursor into rbuf
  // One queued reply: its frame header, then the handler's payload.
  struct Out {
    std::uint8_t header[kFrameHeader];
    std::vector<std::uint8_t> payload;
    std::size_t size() const { return kFrameHeader + payload.size(); }
  };
  std::deque<Out> wq;
  std::size_t wq_head_off = 0;  // bytes of wq.front() already sent
  std::size_t wq_bytes = 0;
  // The dispatch window, in request sequence numbers: [reply_seq,
  // next_seq) are dispatched but not yet in wq, either still in the
  // handler, deferred until their timer fires, or held until every earlier
  // reply is out.  Bounding the span (not just the running handlers)
  // bounds `held`.
  std::uint64_t next_seq = 0;   // stamped on the next dispatched request
  std::uint64_t reply_seq = 0;  // the next reply to go into wq
  struct Held {
    Message reply;
    TimerWheel::TimerId timer = 0;  // armed while the reply is deferred
  };
  std::map<std::uint64_t, Held> held;
  bool barrier = false;  // the window holds an unmarked request (alone)
  // A complete request sits in rbuf that the window cannot take yet.
  bool parked = false;
  bool closed = false;
  std::uint32_t armed = 0;  // current epoll interest
  TimerWheel::TimerId read_timer = 0;

  Conn(std::shared_ptr<ReactorServer::State> s, Reactor* l, int f,
       std::uint64_t i)
      : state(std::move(s)), loop(l), fd(f), id(i) {}
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }

  void start() {
    if (closed) return;  // the server closed before the loop got here
    armed = Reactor::kReadable;
    auto self = shared_from_this();
    if (!loop->add_fd(fd, armed, [self](std::uint32_t ev) {
          self->on_event(ev);
        }).is_ok()) {
      close_conn();
    }
  }

  // Whether another request could be taken right now, i.e. whether reading
  // more of the socket is useful.  While this is false EPOLLIN stays
  // disarmed, so rbuf is bounded by what arrived before the pause plus one
  // socket buffer.
  bool reading() const {
    return !parked && !barrier && in_window() < state->window;
  }

  std::uint64_t in_window() const { return next_seq - reply_seq; }

  bool may_dispatch(bool independent) const {
    return in_window() == 0 ||
           (independent && !barrier && in_window() < state->window);
  }

  void update_interest() {
    if (closed) return;
    const std::uint32_t want = (reading() ? Reactor::kReadable : 0u) |
                               (wq.empty() ? 0u : Reactor::kWritable);
    if (want == armed) return;
    armed = want;
    loop->mod_fd(fd, want);
  }

  void on_event(std::uint32_t ev) {
    if (closed) return;
    if (ev & Reactor::kWritable) flush_writes();
    if (closed) return;
    if (ev & Reactor::kReadable) read_ready();
  }

  void read_ready() {
    // Pull everything the kernel has, then parse (see reading() for what
    // bounds rbuf).
    std::uint64_t got = 0;
    for (;;) {
      std::uint8_t chunk[kReadChunk];
      state->recv_calls.inc();
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n > 0) {
        got += static_cast<std::uint64_t>(n);
        state->copy_bytes.add(static_cast<std::uint64_t>(n));
        rbuf.insert(rbuf.end(), chunk, chunk + n);
        if (static_cast<std::size_t>(n) < sizeof chunk) break;
        continue;
      }
      if (n == 0) {  // orderly peer close
        note_read_bytes(got);
        close_conn();
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      note_read_bytes(got);
      close_conn();
      return;
    }
    note_read_bytes(got);
    parse_and_dispatch();
  }

  void note_read_bytes(std::uint64_t n) {
    if (n == 0) return;
    std::lock_guard lk(state->mu);
    state->bytes_read += n;
  }

  // Dispatch every complete request in rbuf that the window admits, park
  // the first one it does not, and manage the partial-request read timer.
  void parse_and_dispatch() {
    if (closed) return;
    parked = false;
    for (;;) {
      compact();
      const std::size_t avail = rbuf.size() - rpos;
      if (avail < kFrameHeader) break;
      std::uint32_t magic, type;
      std::uint64_t len;
      std::memcpy(&magic, rbuf.data() + rpos, 4);
      std::memcpy(&type, rbuf.data() + rpos + 4, 4);
      std::memcpy(&len, rbuf.data() + rpos + 8, 8);
      if (magic != kMessageMagic || len > state->opts.max_payload) {
        close_conn();  // desynchronised or hostile peer
        return;
      }
      if (avail < kFrameHeader + len) break;
      const bool independent =
          state->opts.overlappable && state->opts.overlappable(type);
      if (!may_dispatch(independent)) {
        parked = true;
        break;
      }
      Message msg;
      msg.type = type;
      std::memcpy(&msg.trace_id, rbuf.data() + rpos + 16, 8);
      std::memcpy(&msg.span_id, rbuf.data() + rpos + 24, 8);
      const auto* p = rbuf.data() + rpos + kFrameHeader;
      state->copy_bytes.add(len);
      msg.payload.assign(p, p + len);
      rpos += kFrameHeader + static_cast<std::size_t>(len);
      cancel_read_timer();  // the next request's deadline starts afresh
      dispatch(std::move(msg), independent);
    }
    // Incomplete request we are reading: bound how long the tail may
    // dawdle.  A parked request, or a tail we are not reading, is waiting
    // on us, not on the peer.
    if (reading() && rbuf.size() - rpos > 0) {
      arm_read_timer();
    } else {
      cancel_read_timer();
    }
    update_interest();
  }

  void arm_read_timer() {
    const double t = state->opts.request_read_timeout_seconds;
    if (t <= 0 || read_timer != 0) return;
    auto self = shared_from_this();
    read_timer = loop->schedule_after(t, [self] {
      self->read_timer = 0;
      if (self->closed || !self->reading()) return;
      if (self->rbuf.size() - self->rpos == 0) return;  // became idle
      {
        std::lock_guard lk(self->state->mu);
        ++self->state->read_timeouts;
      }
      if (self->state->timeout_observer) self->state->timeout_observer();
      self->close_conn();
    });
  }

  void cancel_read_timer() {
    if (read_timer == 0) return;
    loop->cancel_timer(read_timer);
    read_timer = 0;
  }

  void compact() {
    if (rpos == rbuf.size()) {
      rbuf.clear();
      rpos = 0;
    } else if (rpos > (1u << 20)) {
      rbuf.erase(rbuf.begin(), rbuf.begin() + static_cast<std::ptrdiff_t>(rpos));
      rpos = 0;
    }
  }

  void dispatch(Message&& msg, bool independent) {
    {
      std::lock_guard lk(state->mu);
      ++state->requests;
      if (in_window() > 0) ++state->overlapped_requests;
      ++state->in_flight;
    }
    if (!independent) barrier = true;
    const bool on_loop = !state->workers || (state->opts.runs_on_loop &&
                                             state->opts.runs_on_loop(msg.type));
    const std::uint64_t seq = next_seq++;
    auto self = shared_from_this();
    auto run = [self, seq, msg = std::move(msg)]() mutable {
      const std::uint64_t req_trace = msg.trace_id;
      const std::uint64_t req_span = msg.span_id;
      Reply reply = self->state->handler(std::move(msg), self->id);
      // Replies travel under the request's trace unless the handler
      // stamped its own context.
      if (reply.message.trace_id == 0) {
        reply.message.trace_id = req_trace;
        reply.message.span_id = req_span;
      }
      // The delay runs from now, not from when the loop gets to it.
      const double due = reply.delay_seconds > 0
                             ? self->loop->now() + reply.delay_seconds
                             : 0.0;
      {
        std::lock_guard lk(self->state->mu);
        if (--self->state->in_flight == 0) {
          self->state->drained_cv.notify_all();
        }
      }
      auto finish = [self, seq, due,
                     reply = std::move(reply.message)]() mutable {
        self->complete(seq, std::move(reply), due);
      };
      if (self->loop->on_loop_thread()) {
        finish();  // inline handler: already on the loop
      } else {
        self->loop->post(std::move(finish));
      }
    };
    if (on_loop) {
      // Inline handlers still go through the task queue: a burst of
      // pipelined requests unwinds iteratively instead of recursing
      // dispatch -> complete -> dispatch down the stack.
      loop->post(std::move(run));
    } else {
      state->workers->submit(std::move(run));
    }
  }

  // Reply `seq` produced, to leave no earlier than loop time `due` (0: at
  // once).  A deferred reply waits in `held` for its timer; otherwise
  // release what is ready.
  void complete(std::uint64_t seq, Message&& reply, double due) {
    if (closed) return;
    Held& slot = held[seq];
    slot.reply = std::move(reply);
    const double wait = due - loop->now();
    if (wait > 0) {
      auto self = shared_from_this();
      slot.timer = loop->schedule_after(wait, [self, seq] {
        if (self->closed) return;
        self->held[seq].timer = 0;
        self->release();
      });
      return;
    }
    release();
  }

  // Move the head of `held` and every ready successor into the bounded
  // write queue in request order, then refill the window.
  void release() {
    while (!held.empty() && held.begin()->first == reply_seq &&
           held.begin()->second.timer == 0) {
      enqueue(std::move(held.begin()->second.reply));
      held.erase(held.begin());
      ++reply_seq;
    }
    if (in_window() == 0) barrier = false;
    const std::size_t cap = state->opts.write_queue_cap_bytes;
    if (cap > 0 && wq_bytes > cap) {
      // Back-pressure: the peer is not draining replies; shedding the
      // connection bounds memory where thread-per-connection grew stacks.
      {
        std::lock_guard lk(state->mu);
        ++state->overflow_closes;
      }
      close_conn();
      return;
    }
    flush_writes();
    if (closed) return;
    // A pipelined request may already be buffered; otherwise this re-arms
    // EPOLLIN via update_interest().
    parse_and_dispatch();
  }

  // Queue one reply: a header in front of the payload it already has.
  void enqueue(Message&& reply) {
    Out& out = wq.emplace_back();
    const std::uint32_t magic = kMessageMagic;
    const std::uint64_t len = reply.payload.size();
    std::memcpy(out.header, &magic, 4);
    std::memcpy(out.header + 4, &reply.type, 4);
    std::memcpy(out.header + 8, &len, 8);
    std::memcpy(out.header + 16, &reply.trace_id, 8);
    std::memcpy(out.header + 24, &reply.span_id, 8);
    out.payload = std::move(reply.payload);
    add_queued(out.size());
    wq_bytes += out.size();
    {
      std::lock_guard lk(state->mu);
      if (wq_bytes > state->conn_write_queue_hwm_bytes) {
        state->conn_write_queue_hwm_bytes = wq_bytes;
      }
    }
  }

  // Gather the queue's headers and payloads into one sendmsg(); a partial
  // write resumes mid-iovec on the next EPOLLOUT.
  void flush_writes() {
    std::uint64_t sent = 0;
    while (!wq.empty()) {
      iovec iov[kMaxIov];
      std::size_t n_iov = 0;
      std::size_t want = 0;
      std::size_t skip = wq_head_off;  // already sent of the head entry
      auto add = [&](const std::uint8_t* p, std::size_t len) {
        if (skip >= len) {
          skip -= len;
          return;
        }
        iov[n_iov++] = {const_cast<std::uint8_t*>(p) + skip, len - skip};
        want += len - skip;
        skip = 0;
      };
      for (auto it = wq.begin(); it != wq.end() && n_iov + 2 <= kMaxIov;
           ++it) {
        add(it->header, kFrameHeader);
        add(it->payload.data(), it->payload.size());
      }
      msghdr mh{};
      mh.msg_iov = iov;
      mh.msg_iovlen = n_iov;
      state->send_calls.inc();
      const ssize_t n = ::sendmsg(fd, &mh, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        note_written_bytes(sent);
        close_conn();
        return;
      }
      sent += static_cast<std::uint64_t>(n);
      wq_bytes -= static_cast<std::size_t>(n);
      add_queued(-static_cast<std::ptrdiff_t>(n));
      for (auto left = static_cast<std::size_t>(n); left > 0;) {
        const std::size_t rest = wq.front().size() - wq_head_off;
        if (left < rest) {
          wq_head_off += left;
          break;
        }
        left -= rest;
        wq.pop_front();
        wq_head_off = 0;
      }
      // The kernel took less than offered: its buffer is full.
      if (static_cast<std::size_t>(n) < want) break;
    }
    note_written_bytes(sent);
    update_interest();
  }

  void note_written_bytes(std::uint64_t n) {
    if (n == 0) return;
    std::lock_guard lk(state->mu);
    state->bytes_written += n;
  }

  void add_queued(std::ptrdiff_t delta) {
    std::lock_guard lk(state->mu);
    if (delta < 0 &&
        state->queued_write_bytes < static_cast<std::size_t>(-delta)) {
      state->queued_write_bytes = 0;
    } else {
      state->queued_write_bytes += delta;
    }
    if (state->queued_write_bytes > state->queued_write_hwm_bytes) {
      state->queued_write_hwm_bytes = state->queued_write_bytes;
    }
  }

  void close_conn() {
    if (closed) return;
    closed = true;
    // Pin ourselves: del_fd drops the handler's ref and conns.erase drops
    // the registry's -- without this, *this dies before the method ends.
    auto self = shared_from_this();
    cancel_read_timer();
    loop->del_fd(fd);
    ::close(fd);
    fd = -1;
    add_queued(-static_cast<std::ptrdiff_t>(wq_bytes));
    wq.clear();
    wq_bytes = 0;
    for (const auto& [seq, slot] : held) {
      if (slot.timer != 0) loop->cancel_timer(slot.timer);
    }
    held.clear();
    std::lock_guard lk(state->mu);
    ++state->closed;
    state->conns.erase(id);
    if (state->conns.empty()) state->drained_cv.notify_all();
  }
};

namespace {

// Hand a connected non-blocking socket, accepted or made by connect_local(),
// to the next loop.  Once the server is closing it closes the socket and
// returns false instead.
bool adopt(const std::shared_ptr<ReactorServer::State>& state, int fd) {
  Reactor& loop = state->pool.next();
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard lk(state->mu);
    if (state->closing) {
      ::close(fd);
      return false;
    }
    const std::uint64_t id = ++state->next_conn_id;
    conn = std::make_shared<Conn>(state, &loop, fd, id);
    state->conns[id] = conn;
    ++state->accepted;
  }
  loop.post([conn] { conn->start(); });
  return true;
}

}  // namespace

ReactorServer::ReactorServer(ReactorPool& pool, Handler handler,
                             ReactorServerOptions options,
                             core::ThreadPool* workers)
    : state_(std::make_shared<State>(pool, std::move(handler), options,
                                     workers)) {}

ReactorServer::~ReactorServer() { close(); }

void ReactorServer::set_read_timeout_observer(std::function<void()> observer) {
  state_->timeout_observer = std::move(observer);
}

core::Status ReactorServer::listen(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) {
    return core::unavailable(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const auto st =
        core::unavailable(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, state_->opts.backlog) != 0) {
    const auto st =
        core::unavailable(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const auto st =
        core::unavailable(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  port_ = ntohs(addr.sin_port);

  state_->listen_fd = fd;
  state_->listen_loop = &state_->pool.at(0);
  auto state = state_;
  // Registration must happen on the listener's loop thread.
  std::promise<core::Status> registered;
  state->listen_loop->post([state, &registered] {
    registered.set_value(state->listen_loop->add_fd(
        state->listen_fd, Reactor::kReadable, [state](std::uint32_t) {
          // Drain the accept queue; LT epoll re-signals anything left.
          for (;;) {
            const int cfd = ::accept4(state->listen_fd, nullptr, nullptr,
                                      SOCK_NONBLOCK | SOCK_CLOEXEC);
            if (cfd < 0) {
              if (errno == EINTR) continue;
              if (errno != EAGAIN && errno != EWOULDBLOCK) {
                std::lock_guard lk(state->mu);
                ++state->accept_failures;
              }
              return;
            }
            const int nodelay = 1;
            ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                         sizeof nodelay);
            if (!adopt(state, cfd)) return;
          }
        }));
  });
  if (auto st = registered.get_future().get(); !st.is_ok()) {
    ::close(fd);
    state_->listen_fd = -1;
    return st;
  }
  listening_ = true;
  return core::Status::ok();
}

core::Result<StreamPtr> ReactorServer::connect_local() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    return core::unavailable(std::string("socketpair: ") +
                             std::strerror(errno));
  }
  ::fcntl(fds[0], F_SETFL, ::fcntl(fds[0], F_GETFL, 0) | O_NONBLOCK);
  if (!adopt(state_, fds[0])) {
    ::close(fds[1]);
    return core::unavailable("door closed");
  }
  return StreamPtr(std::make_shared<TcpStream>(fds[1]));
}

void ReactorServer::close() {
  auto state = state_;
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard lk(state->mu);
    if (state->closing) return;
    state->closing = true;
    conns.reserve(state->conns.size());
    for (auto& [id, c] : state->conns) conns.push_back(c);
  }
  if (listening_) {
    // Tear the listener down on its loop so no accept callback races the
    // close; the promise makes it synchronous.
    std::promise<void> done;
    state->listen_loop->post([state, &done] {
      state->listen_loop->del_fd(state->listen_fd);
      ::close(state->listen_fd);
      state->listen_fd = -1;
      done.set_value();
    });
    done.get_future().wait();
    listening_ = false;
  }
  for (auto& conn : conns) {
    conn->loop->post([conn] { conn->close_conn(); });
  }
  // Until no handler is running or queued AND every connection has shut,
  // objects the handler references must stay alive; block here so callers
  // can sequence teardown after us.
  std::unique_lock lk(state->mu);
  state->drained_cv.wait(lk, [&] {
    return state->in_flight == 0 && state->conns.empty();
  });
}

ReactorServerStats ReactorServer::stats() const {
  std::lock_guard lk(state_->mu);
  ReactorServerStats out;
  out.accepted = state_->accepted;
  out.closed = state_->closed;
  out.requests = state_->requests;
  out.overlapped_requests = state_->overlapped_requests;
  out.read_timeouts = state_->read_timeouts;
  out.overflow_closes = state_->overflow_closes;
  out.accept_failures = state_->accept_failures;
  out.active_conns = state_->conns.size();
  out.queued_write_bytes = state_->queued_write_bytes;
  out.queued_write_hwm_bytes = state_->queued_write_hwm_bytes;
  out.conn_write_queue_hwm_bytes = state_->conn_write_queue_hwm_bytes;
  out.bytes_read = state_->bytes_read;
  out.bytes_written = state_->bytes_written;
  out.send_calls = state_->send_calls.value();
  out.recv_calls = state_->recv_calls.value();
  out.copy_bytes = state_->copy_bytes.value();
  return out;
}

}  // namespace visapult::net
