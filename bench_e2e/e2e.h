// End-to-end DPSS/Visapult benchmark: shared declarations.
//
// One process runs one workload against an in-process TcpDeployment (master
// plus four block servers on loopback) driven by a single closed-loop
// client.  The pieces:
//
//   * Tracer / SpanScope -- bench-side spans around calls into each layer's
//     public functions, kept in memory and written as JSON at exit.
//   * WireStream / Nic -- a ByteStream decorator on the bench's own
//     Connector that records the union of in-flight socket calls
//     ("net.wire") across the client's connections and, for the LAN
//     workloads, charges their bytes to an emulated gigabit NIC.
//   * Workload -- set-up, one timed op, the op's output check, and the
//     program counters read around the timed phase.
//   * probes -- speed-of-light ceilings for the layers the trace splits.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"
#include "dpss/protocol.h"
#include "net/shaper.h"
#include "net/stream.h"

namespace e2e {

// Seconds on the steady clock since process start.
double now_s();

// ---- tracing ----------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;
  const char* name = "";     // string literal
  double start = 0.0;
  double end = 0.0;
};

// Per-name totals over the recorded spans.  Self time is a span's duration
// minus the part of its interval covered by the union of its children.
struct SpanTotals {
  std::uint64_t count = 0;
  double seconds = 0.0;
  double self_seconds = 0.0;
};

class Tracer {
 public:
  // Record spans only for ops that start in an odd-numbered slot of
  // `slot_seconds` counted from `t0`; even slots run untraced, so one run
  // measures both and the difference is the tracing overhead.
  void arm(double t0, double slot_seconds);
  void disarm();

  // Open an op (a root span) if tracing covers time `t`; returns its id or 0.
  std::uint64_t begin_op(const char* name, std::uint64_t op, double t);
  // Open / close a child of the calling thread's innermost span; no-ops
  // (returning 0) when that thread has no traced op open.
  std::uint64_t begin(const char* name);
  void end(std::uint64_t id);

  // Socket-call bracket used by WireStream.  While at least one call is in
  // flight on any connection the interval accrues to one "net.wire" span,
  // parented to the span that issued the I/O.  io_enter returns whether the
  // call is counted (a traced span is issuing I/O); pass that to io_exit.
  bool io_enter();
  void io_exit(bool counted);

  std::map<std::string, SpanTotals> totals() const;
  std::size_t span_count() const;
  // {"workload":..., "seed":..., "spans":[...]} -- at most `max_spans`.
  visapult::core::Status write_json(const std::string& path, const std::string& workload,
                          std::uint64_t seed, std::size_t max_spans) const;

 private:
  bool traced_at(double t) const;
  void push(const Span& s);

  std::atomic<bool> armed_{false};
  double t0_ = 0.0;
  double slot_ = 1.0;
  std::atomic<std::uint64_t> next_id_{0};
  // Innermost open span of the thread currently issuing I/O (one issuer at
  // a time in every workload: the load thread, or the back end's reader).
  std::atomic<std::uint64_t> io_parent_{0};
  std::atomic<std::uint64_t> io_op_{0};

  mutable std::mutex mu_;  // guards everything below
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::size_t> open_;  // id -> index in spans_
  int in_io_ = 0;
  double io_start_ = 0.0;
  std::uint64_t io_start_parent_ = 0;
  std::uint64_t io_start_op_ = 0;
};

Tracer& tracer();

// RAII child span of the calling thread's innermost span.
class SpanScope {
 public:
  explicit SpanScope(const char* name) : id_(tracer().begin(name)) {}
  ~SpanScope() { tracer().end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::uint64_t id_;
};

// RAII root span for one op.
class OpScope {
 public:
  OpScope(const char* name, std::uint64_t op, double t)
      : id_(tracer().begin_op(name, op, t)) {}
  ~OpScope() { tracer().end(id_); }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;
  bool traced() const { return id_ != 0; }

 private:
  std::uint64_t id_;
};

// The client's NIC on the paper's gigabit LAN: one net::ShapedStream budget
// per direction, shared by all of the client's connections.  The budgets
// send into a stream that drops the bytes, so they only keep time.  `up`
// also charges the LAN's one-way delay on every send call; a message is two
// send calls (header, payload), so a request pays about one round trip.
struct Nic {
  std::shared_ptr<visapult::net::ShapedStream> up, down;
};

// The LAN testbed the repository models after the paper (netsim
// make_lan_gige): gigabit links, 50 us per hop, two hops from the DPSS to a
// host.
constexpr double kLanBytesPerSec = 125e6;
constexpr double kLanOneWaySec = 100e-6;
std::shared_ptr<Nic> make_lan_nic();

// ByteStream decorator for one client connection: brackets every send/recv
// for the wire union and, given a NIC, charges the bytes to it.
class WireStream final : public visapult::net::ByteStream {
 public:
  WireStream(visapult::net::StreamPtr inner, std::shared_ptr<Nic> nic)
      : inner_(std::move(inner)), nic_(std::move(nic)) {}
  visapult::core::Status send_all(const std::uint8_t* data,
                                  std::size_t len) override;
  visapult::core::Status recv_all(std::uint8_t* data, std::size_t len) override;
  void close() override { inner_->close(); }
  visapult::core::Status set_recv_timeout(double seconds) override {
    return inner_->set_recv_timeout(seconds);
  }

 private:
  visapult::net::StreamPtr inner_;
  std::shared_ptr<Nic> nic_;  // null: bare loopback
};

// Loopback TCP connector whose streams are WireStreams on `nic` (null for
// bare loopback); each connect is a "net.connect" span and, on the LAN,
// first waits one round trip for the handshake.
visapult::dpss::Connector wire_connector(std::shared_ptr<Nic> nic);

// ---- workloads --------------------------------------------------------------

// Ray-march step of the visapult back end (and of the render probe).
constexpr float kRenderStep = 4.0f;

// Program counters summed over the deployment, read before and after the
// timed phase; the per-layer metrics are their deltas.
struct Counters {
  double server_service_s = 0, server_service_n = 0;
  double pool_wait_s = 0, pool_wait_n = 0;
  double master_req_s = 0, master_req_n = 0;
  double requests = 0;
  double disk_model_s = 0;
  double cache_hits = 0, cache_misses = 0, evictions = 0;
  double prefetch_issued = 0, prefetch_hits = 0;
  double chain_forwards = 0;
  double reconstructed = 0, degraded_writes = 0;
  double door_bytes = 0;  // client-facing front doors, both directions
  std::vector<double> loop_busy_s, loop_idle_s;
};

// What the visapult workload reports beyond per-frame timings.
struct FrameReport {
  double load_s = 0, render_s = 0, send_s = 0;
  double frames = 0, renders = 0;
};

// One timed op: when it started, how long it took, whether it and its
// output check succeeded, and whether it ran traced.
struct OpRecord {
  double start = 0.0;
  double latency = 0.0;
  bool ok = false;
  bool traced = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Start the deployment, ingest, open and warm up.  Called several times;
  // each call discards the previous deployment.
  virtual visapult::core::Status setup() = 0;
  // Closed loop for `seconds`; appends one record per op (for visapult, per
  // frame delivered at the viewer).
  virtual void run(double seconds, std::vector<OpRecord>* ops) = 0;
  // Checks that need the whole run (the write read-back); returns the
  // number of failed checks and adds the checks made to *attempted.
  virtual std::uint64_t final_check(std::uint64_t* /*attempted*/) { return 0; }
  virtual Counters counters() = 0;
  virtual FrameReport frame_report() const { return {}; }

  // Whether the client reaches the cluster through the LAN NIC rather than
  // bare loopback (see E2E.md, "Testbed").
  virtual bool on_lan() const = 0;
  // User bytes per op, in bytes.
  virtual double op_bytes() const = 0;
  // Modelled spindles across all servers (for disk utilization).
  virtual double spindles() const = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);
const std::vector<std::string>& workload_names();

// ---- speed-of-light probes --------------------------------------------------

struct Ceilings {
  double memcpy_gbps = 0;          // 1 MiB memcpy
  double tcp_gbps = 0;             // 1 MiB messages over loopback TcpStream
  double cache_hit_us = 0;         // BlockCache hit, 64 KiB block
  double rs_encode_gbps = 0;       // ReedSolomon(3,1) encode, data bytes
  double rs_reconstruct_gbps = 0;  // one lost data slice rebuilt, data bytes
  double reply_codec_gbps = 0;     // BlockReadReply encode + decode, 64 KiB
  double render_ms = 0;            // render_brick_along_axis, visapult's frame
};

Ceilings measure_ceilings();

}  // namespace e2e
