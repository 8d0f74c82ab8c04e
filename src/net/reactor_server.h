// Reactor-backed message server: the one way a DPSS master or block server
// is served.
//
// Connections come in through one of two doors and are dealt round-robin
// across a ReactorPool's event loops:
//   * listen() accepts loopback TCP connections on a non-blocking listener
//     (TcpDeployment, dpss_tool, the benchmarks);
//   * connect_local() makes a connected socketpair, adopts one end exactly
//     as it would an accepted socket, and hands the caller the other end
//     (PipeDeployment, MetaCluster and the in-process test servers): no
//     port, no listener, the same connection machinery.
//
// Each connection speaks the framed Message protocol (net/message.h) with
// an explicit state machine instead of a blocked thread:
//
//   * reads are readiness-driven and parsed incrementally; a connection
//     costs a buffer, not a thread stack;
//   * each connection keeps a small dispatch window: consecutive requests
//     the owner marks independent (ReactorServerOptions::overlappable) may
//     be dispatched and unwritten at the same time, up to the window the
//     owner sets (ReactorServerOptions::window); any other request is a
//     barrier that waits for the window to drain and then runs alone.
//     Finished replies wait in a per-connection sequence buffer and leave
//     in request order, so the bytes on the wire are those of strictly
//     serial dispatch (the pipelined DpssFile fetch paths match replies
//     positionally).  Different connections proceed independently;
//   * a handler may defer its reply (Reply::delay_seconds, e.g. a block
//     still arriving from a modelled disk): the reply is held in the
//     sequence buffer until a loop timer fires, so the wait holds no
//     thread, and a barrier still waits for every deferred predecessor;
//   * handlers run on the event loop that read the request, or on a
//     worker ThreadPool when one is given, so a handler that blocks (chain
//     forwarding to a peer) never stalls an event loop.  With a pool, the
//     request types the owner marks ReactorServerOptions::runs_on_loop
//     (handlers that never block, such as block reads) still run on the
//     loop: no thread handoff on the way in or out.  Their CPU work (a
//     block compressed for a client that asked for it) is loop time too;
//   * replies land in a BOUNDED per-connection write queue -- a peer that
//     stops reading gets its connection closed at the cap (back-pressure)
//     instead of growing an unbounded thread stack or heap.  The queue
//     holds each reply's header and its handler's payload as they are;
//     one sendmsg() gathers everything queued, so a reply is never copied
//     into a frame buffer;
//   * a per-request read timeout (timer wheel) closes connections that
//     stall mid-request, counted so server metrics can expose them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "core/status.h"
#include "core/thread_pool.h"
#include "net/message.h"
#include "net/reactor.h"
#include "net/stream.h"

namespace visapult::net {

struct ReactorServerOptions {
  int backlog = 256;
  // Bytes of un-flushed replies one connection may hold before it is
  // closed for back-pressure.  0 = unbounded (benchmarks only).
  std::size_t write_queue_cap_bytes = 4u << 20;
  // Once a request's first byte arrives, the rest must arrive within this
  // many seconds or the connection is closed (0 disables).  Idle
  // connections -- no partial request -- never time out.
  double request_read_timeout_seconds = 0.0;
  std::size_t max_payload = 1ull << 32;
  // Marks request types whose handlers are independent of each other on
  // one connection (e.g. block reads), so consecutive ones may overlap.
  // Empty: every request is a barrier (strictly serial dispatch).
  std::function<bool(std::uint32_t type)> overlappable;
  // Most overlappable requests one connection may have dispatched and not
  // yet written, deferred replies included (1 = strictly serial).  The
  // owner sizes it to what can usefully overlap: worker threads for
  // handlers that block, modelled disks for replies that are deferred.
  std::size_t window = 1;
  // Marks request types whose handlers never block, so they run on the
  // event loop that read them even when the server has a worker pool
  // (e.g. block reads, whose disk waits are loop timers).  Empty: with a
  // pool, every handler runs on the pool.
  std::function<bool(std::uint32_t type)> runs_on_loop;
};

struct ReactorServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t requests = 0;
  // Requests dispatched while another request on the same connection was
  // still in its handler: how much of the dispatch window is used.
  std::uint64_t overlapped_requests = 0;
  std::uint64_t read_timeouts = 0;
  std::uint64_t overflow_closes = 0;   // write-queue cap exceeded
  std::uint64_t accept_failures = 0;   // EMFILE etc.
  std::size_t active_conns = 0;
  std::size_t queued_write_bytes = 0;  // across live connections, right now
  // High-water marks since the server started: the aggregate write-queue
  // depth and the deepest any single connection's queue has reached.
  // Together with write_queue_cap_bytes they show how close the server has
  // come to shedding a slow consumer.
  std::size_t queued_write_hwm_bytes = 0;
  std::size_t conn_write_queue_hwm_bytes = 0;
  // Wire totals across all connections, live and closed: the front door's
  // utilization axis (bytes moved) next to the saturation axes above.
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  // Socket calls (recv(), and sendmsg() with every queued reply gathered
  // into it) and the payload bytes this door copied in user space: each
  // request's bytes into the read buffer and from it into its Message.
  // Replies go out from the handler's own payload, uncopied.
  std::uint64_t send_calls = 0;
  std::uint64_t recv_calls = 0;
  std::uint64_t copy_bytes = 0;
};

class ReactorServer {
 public:
  // One request in, one reply out, optionally deferred (a Message converts
  // to a Reply that leaves at once).  Requests marked overlappable may be
  // in the handler concurrently on one connection (from different worker
  // threads), so the handler must be thread-safe for those types; every
  // other request runs alone and after all earlier replies on its
  // connection have been written.  `conn_id` is stable for a connection's
  // lifetime and unique within this server (feeds e.g. the block server's
  // per-connection stride detector).
  using Handler = std::function<Reply(Message&&, std::uint64_t conn_id)>;

  // `workers` null runs handlers inline on the event loop (only for
  // handlers that never block); non-null offloads every request type but
  // those options.runs_on_loop marks.  The pool and the pool of reactors
  // must outlive this server.
  ReactorServer(ReactorPool& pool, Handler handler,
                ReactorServerOptions options = {},
                core::ThreadPool* workers = nullptr);
  ~ReactorServer();  // close()

  ReactorServer(const ReactorServer&) = delete;
  ReactorServer& operator=(const ReactorServer&) = delete;

  // Invoked (from a loop thread) whenever a connection is closed by the
  // per-request read timeout; lets owners count it in their own metrics.
  // Set before listen().
  void set_read_timeout_observer(std::function<void()> observer);

  // Bind 127.0.0.1:`port` (0 picks an ephemeral port) and start accepting.
  core::Status listen(std::uint16_t port);
  std::uint16_t port() const { return port_; }

  // A new connection without a listener: this server adopts one end of a
  // connected socketpair(AF_UNIX, SOCK_STREAM) as it would an accepted
  // socket (minus TCP_NODELAY), and the caller gets the other end as a
  // TcpStream.  Works with or without listen().  A closed server refuses
  // with kUnavailable, as a killed machine does.  Thread-safe.
  core::Result<StreamPtr> connect_local();

  // Stop accepting, refuse connect_local(), close every connection, and
  // wait until no handler is running or queued -- after close() returns,
  // objects the handler captured can be destroyed safely.  Idempotent.
  // Must not be called from a reactor loop thread.
  void close();

  ReactorServerStats stats() const;

  // Shared implementation state; public so the connection machinery in the
  // .cpp (namespace-scope, to keep this header free of socket headers) can
  // name it.  Not part of the API.
  struct State;

 private:
  std::shared_ptr<State> state_;
  std::uint16_t port_ = 0;
  bool listening_ = false;
};

}  // namespace visapult::net
