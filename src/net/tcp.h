// Real TCP sockets (loopback-oriented) behind the ByteStream interface.
//
// Used by the socket-backed DPSS deployment and the real-transport
// integration tests.  IPv4 only; the reproduction always runs on 127.0.0.1.
// A TcpStream wraps any connected stream socket, so it is also the
// caller's end of a reactor door's local connection
// (ReactorServer::connect_local, a socketpair), which is how pipe
// deployments and the in-process meta clusters reach their servers.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "core/status.h"
#include "net/stream.h"

namespace visapult::net {

struct ConnectOptions {
  // Maximum seconds to wait for the TCP handshake; a server whose accept
  // queue is full (or a blackholed address) yields kDeadlineExceeded
  // instead of hanging until the kernel's SYN retries give up (minutes).
  // <= 0 waits without bound (the historical behaviour).
  double timeout_seconds = 0.0;
};

// Connected stream socket (TCP, or a local door's socketpair end).  Owns
// the fd.
class TcpStream final : public ByteStream {
 public:
  explicit TcpStream(int fd) : fd_(fd) {}
  ~TcpStream() override;

  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  core::Status send_all(const std::uint8_t* data, std::size_t len) override;
  // Header and payload in one gathered sendmsg() (more only when the
  // kernel takes part of the frame).
  core::Status send_frame(const std::uint8_t* header, std::size_t header_len,
                          const std::uint8_t* payload,
                          std::size_t payload_len) override;
  // The default batch send, with each frame it coalesces counted in
  // frames_sent too.
  core::Status send_frames(const Frame* frames, std::size_t count) override;
  // Honours set_recv_timeout(): with a timeout armed, a read that cannot
  // complete in time returns kDeadlineExceeded (the connection should be
  // considered poisoned: partial bytes may have been consumed).
  core::Status recv_all(std::uint8_t* data, std::size_t len) override;
  // Wakes any thread blocked in send/recv (via ::shutdown); the fd itself
  // is released in the destructor, when no thread can still be inside a
  // syscall on it.  Safe to call from a different thread than the reader.
  void close() override;

  core::Status set_recv_timeout(double seconds) override;

  int fd() const { return fd_.load(std::memory_order_relaxed); }

  // Connect to host:port.  TCP_NODELAY is set: the paper's light payloads
  // are small control messages where Nagle delays hurt.
  static core::Result<StreamPtr> connect(const std::string& host,
                                         std::uint16_t port,
                                         const ConnectOptions& options = {});

 private:
  std::atomic<int> fd_{-1};
  std::atomic<bool> shut_{false};
  std::atomic<double> recv_timeout_seconds_{0.0};
};

// Socket calls made by every TcpStream in this process, local door ends
// included, also exported as the global registry's net_tcp_* counters: one
// relaxed add per call.
struct TcpCallCounts {
  std::uint64_t send_calls = 0;   // send() and sendmsg()
  std::uint64_t recv_calls = 0;   // recv()
  std::uint64_t frames_sent = 0;  // frames, by send_frame() or send_frames()
};
TcpCallCounts tcp_call_counts();

// Listening socket bound to 127.0.0.1.  Port 0 picks an ephemeral port,
// readable via port() -- tests and in-process deployments depend on that.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  // Refuses (kFailedPrecondition) if this listener already holds a socket
  // -- rebinding used to silently leak the previous fd.  On bind/listen
  // failure no fd is retained, so the call may be retried.
  core::Status listen(std::uint16_t port, int backlog = 16);
  std::uint16_t port() const { return port_; }

  // Blocking accept.  Returns kUnavailable after close().
  core::Result<StreamPtr> accept();

  // Unblocks pending accept() calls (via ::shutdown); the fd is released
  // in the destructor.  Safe to call from another thread.
  void close();

 private:
  std::atomic<int> fd_{-1};
  std::atomic<bool> shut_{false};
  std::uint16_t port_ = 0;
};

}  // namespace visapult::net
