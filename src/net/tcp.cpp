#include "net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>

#include "obs/metrics.h"

namespace visapult::net {

namespace {

struct Calls {
  obs::Counter& send =
      obs::MetricsRegistry::global().counter("net_tcp_send_calls_total");
  obs::Counter& recv =
      obs::MetricsRegistry::global().counter("net_tcp_recv_calls_total");
  obs::Counter& frames =
      obs::MetricsRegistry::global().counter("net_tcp_frames_sent_total");
};

Calls& calls() {
  static Calls c;
  return c;
}

core::Status errno_status(const std::string& what) {
  return core::unavailable(what + ": " + std::strerror(errno));
}

double monotonic_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Wait until `fd` reports `events` or `deadline` (monotonic seconds,
// infinity = wait forever) passes.  Returns +1 ready, 0 deadline, -1 error.
int wait_ready(int fd, short events, double deadline) {
  for (;;) {
    int timeout_ms = -1;
    if (std::isfinite(deadline)) {
      const double remaining = deadline - monotonic_now();
      if (remaining <= 0) return 0;
      timeout_ms = static_cast<int>(std::min(remaining * 1e3 + 1, 3.6e6));
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return 1;
    if (rc == 0) {
      if (!std::isfinite(deadline)) continue;  // spurious; keep waiting
      return 0;
    }
    if (errno == EINTR) continue;
    return -1;
  }
}

core::Status set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return errno_status("fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd, F_SETFL, want) < 0) {
    return errno_status("fcntl(F_SETFL)");
  }
  return core::Status::ok();
}

}  // namespace

TcpStream::~TcpStream() {
  close();
  // No other thread can reach this stream once its last owner destroys
  // it, so releasing the descriptor here cannot race a blocked syscall.
  const int fd = fd_.exchange(-1);
  if (fd >= 0) ::close(fd);
}

core::Status TcpStream::send_all(const std::uint8_t* data, std::size_t len) {
  const int fd = fd_.load();
  std::size_t sent = 0;
  while (sent < len) {
    calls().send.inc();
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("send");
    }
    if (n == 0) return core::unavailable("send: connection closed");
    sent += static_cast<std::size_t>(n);
  }
  return core::Status::ok();
}

core::Status TcpStream::send_frame(const std::uint8_t* header,
                                   std::size_t header_len,
                                   const std::uint8_t* payload,
                                   std::size_t payload_len) {
  const int fd = fd_.load();
  calls().frames.inc();
  iovec iov[2] = {{const_cast<std::uint8_t*>(header), header_len},
                  {const_cast<std::uint8_t*>(payload), payload_len}};
  iovec* at = iov;
  std::size_t left = payload_len > 0 ? 2 : 1;
  while (left > 0) {
    msghdr mh{};
    mh.msg_iov = at;
    mh.msg_iovlen = left;
    calls().send.inc();
    const ssize_t n = ::sendmsg(fd, &mh, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("sendmsg");
    }
    if (n == 0) return core::unavailable("sendmsg: connection closed");
    // Drop what went out: whole iovecs, then the front of the next one.
    auto sent = static_cast<std::size_t>(n);
    while (left > 0 && sent >= at->iov_len) {
      sent -= at->iov_len;
      ++at;
      --left;
    }
    if (left > 0) {
      at->iov_base = static_cast<std::uint8_t*>(at->iov_base) + sent;
      at->iov_len -= sent;
    }
  }
  return core::Status::ok();
}

core::Status TcpStream::send_frames(const Frame* frames, std::size_t count) {
  // The default sends what it coalesces with send_all(), which counts no
  // frame, and every other frame with send_frame(), which counts it.
  for (std::size_t i = 0; i < count; ++i) {
    if (coalesced(frames[i])) calls().frames.inc();
  }
  return ByteStream::send_frames(frames, count);
}

core::Status TcpStream::recv_all(std::uint8_t* data, std::size_t len) {
  const int fd = fd_.load();
  const double timeout = recv_timeout_seconds_.load();
  // One deadline covers the whole read: a peer trickling a byte per
  // timeout window cannot hold the reader hostage indefinitely.
  const double deadline = timeout > 0
                              ? monotonic_now() + timeout
                              : std::numeric_limits<double>::infinity();
  std::size_t got = 0;
  while (got < len) {
    if (timeout > 0) {
      const int ready = wait_ready(fd, POLLIN, deadline);
      if (ready == 0) {
        return core::deadline_exceeded("recv: no data within " +
                                       std::to_string(timeout) + "s");
      }
      if (ready < 0) return errno_status("poll(recv)");
    }
    calls().recv.inc();
    const ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (timeout > 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        continue;  // raced another reader for the poll'd bytes
      }
      return errno_status("recv");
    }
    if (n == 0) {
      if (got == 0) return core::unavailable("recv: connection closed by peer");
      return core::data_loss("recv: connection closed mid-message");
    }
    got += static_cast<std::size_t>(n);
  }
  return core::Status::ok();
}

void TcpStream::close() {
  // Only shut the socket down here: a concurrent reader blocked in recv()
  // wakes with end-of-stream instead of racing a closed (and possibly
  // recycled) descriptor.  ~TcpStream() releases the fd.
  const int fd = fd_.load();
  if (fd >= 0 && !shut_.exchange(true)) ::shutdown(fd, SHUT_RDWR);
}

core::Status TcpStream::set_recv_timeout(double seconds) {
  if (!(seconds >= 0) || !std::isfinite(seconds)) {
    return core::invalid_argument("recv timeout must be finite and >= 0");
  }
  recv_timeout_seconds_.store(seconds);
  return core::Status::ok();
}

core::Result<StreamPtr> TcpStream::connect(const std::string& host,
                                           std::uint16_t port,
                                           const ConnectOptions& options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return core::invalid_argument("bad IPv4 address: " + host);
  }

  const std::string where = host + ":" + std::to_string(port);
  // Handshake in non-blocking mode so a full accept queue or blackholed
  // address hits the caller's deadline, not the kernel's SYN-retry clock.
  if (auto st = set_nonblocking(fd, true); !st.is_ok()) {
    ::close(fd);
    return st;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 &&
      errno != EINPROGRESS) {
    const auto st = errno_status("connect to " + where);
    ::close(fd);
    return st;
  }
  const double deadline = options.timeout_seconds > 0
                              ? monotonic_now() + options.timeout_seconds
                              : std::numeric_limits<double>::infinity();
  const int ready = wait_ready(fd, POLLOUT, deadline);
  if (ready <= 0) {
    const auto st =
        ready == 0
            ? core::deadline_exceeded(
                  "connect to " + where + ": no handshake within " +
                  std::to_string(options.timeout_seconds) + "s")
            : errno_status("poll(connect to " + where + ")");
    ::close(fd);
    return st;
  }
  int err = 0;
  socklen_t err_len = sizeof err;
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 ||
      err != 0) {
    const auto st = core::unavailable("connect to " + where + ": " +
                                      std::strerror(err != 0 ? err : errno));
    ::close(fd);
    return st;
  }
  if (auto st = set_nonblocking(fd, false); !st.is_ok()) {
    ::close(fd);
    return st;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return StreamPtr(std::make_shared<TcpStream>(fd));
}

TcpCallCounts tcp_call_counts() {
  return TcpCallCounts{calls().send.value(), calls().recv.value(),
                       calls().frames.value()};
}

TcpListener::~TcpListener() {
  close();
  const int fd = fd_.exchange(-1);
  if (fd >= 0) ::close(fd);
}

core::Status TcpListener::listen(std::uint16_t port, int backlog) {
  if (fd_.load() >= 0) {
    // Rebinding used to overwrite fd_ and leak the previous socket (still
    // accepting in the kernel, invisible to this object).  Refuse instead;
    // callers that want a new port construct a new listener.
    return core::failed_precondition(
        "listen: listener already bound to port " + std::to_string(port_));
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  // The fd stays local until the socket is fully listening: every error
  // path below must close it, leaving the listener unbound and retryable.
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const auto st = errno_status("bind");
    ::close(fd);
    return st;
  }
  if (::listen(fd, backlog) != 0) {
    const auto st = errno_status("listen");
    ::close(fd);
    return st;
  }

  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const auto st = errno_status("getsockname");
    ::close(fd);
    return st;
  }
  port_ = ntohs(addr.sin_port);
  fd_.store(fd);
  return core::Status::ok();
}

core::Result<StreamPtr> TcpListener::accept() {
  const int fd = fd_.load();
  if (fd < 0 || shut_.load()) return core::unavailable("listener closed");
  int client;
  // Retry EINTR iteratively: the old tail-recursive retry grew the stack
  // under a signal storm (e.g. a profiler's SIGPROF every few ms).
  do {
    client = ::accept(fd, nullptr, nullptr);
  } while (client < 0 && errno == EINTR && !shut_.load());
  if (client < 0) return errno_status("accept");
  if (shut_.load()) {
    // close() raced the accept: drop the connection and report closed.
    ::close(client);
    return core::unavailable("listener closed");
  }
  const int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return StreamPtr(std::make_shared<TcpStream>(client));
}

void TcpListener::close() {
  // Shutdown wakes a blocked accept() (it fails with EINVAL); the fd is
  // released in the destructor so no accept() can race a recycled fd.
  const int fd = fd_.load();
  if (fd >= 0 && !shut_.exchange(true)) ::shutdown(fd, SHUT_RDWR);
}

}  // namespace visapult::net
