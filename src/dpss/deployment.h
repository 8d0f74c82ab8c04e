// DPSS deployments: wiring master + servers + clients over a transport.
//
// Two deployments of the same components:
//   * PipeDeployment -- everything in-process over in-memory pipes; used by
//     unit/integration tests and the quickstart example.
//   * TcpDeployment -- master and servers listening on real loopback TCP
//     ports with accept threads; used by the dpss_tool example and the
//     socket integration tests.
//
// Both provide ingest helpers that stripe a generated dataset across the
// block servers and register it with the master -- the reproduction of
// "migrate the files from HPSS to a nearby DPSS cache".  Ingesting with
// `replication_factor > 1` places each block on that many servers via the
// placement ring and writes every replica, enabling client failover.
// Ingesting with an enabled codec::EcProfile instead erasure-codes: each
// group of k blocks lands on k+m distinct servers (data slices written in
// place, parity slices encoded server-side at ingest), enabling client
// reconstruction at ~(k+m)/k of raw capacity.
//
// Failure-scenario levers (the SimGrid-style kill / slow / rejoin
// campaigns, live): kill_server() makes a server refuse service
// mid-flight, revive_server() (pipes) brings it back, add_server() (pipes)
// joins an empty server, heartbeat_all() pumps liveness+load beats into
// the master, and rebalance_dataset() recomputes placement over the
// currently live servers and executes the Rebalancer's copy/drop plan
// against the block stores.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "codec/ec_profile.h"
#include "core/thread_pool.h"
#include "dpss/client.h"
#include "dpss/master.h"
#include "dpss/server.h"
#include "dpss/thumbnail.h"
#include "ingest/fixup.h"
#include "net/reactor.h"
#include "net/reactor_server.h"
#include "net/tcp.h"
#include "netlog/span_extract.h"
#include "placement/rebalancer.h"
#include "vol/dataset.h"

namespace visapult::dpss {

// One component's trace-export pipeline: the bounded sink its NetLogger
// writes lifeline events into, and the stateful extractor that turns sink
// drains into finished span records (holding unpaired opens across drains).
struct TraceExport {
  std::string host;
  std::shared_ptr<netlog::MemorySink> sink;
  netlog::SpanExtractor extractor;
};

// Drain `e`'s sink, extract finished spans, and ship them into `master`'s
// SpanCollector through the kSpanExport encode/decode path (exactly what a
// remote exporter's batch goes through).  Returns spans accepted.
std::uint64_t export_spans_to_master(Master& master, TraceExport& e);

class PipeDeployment {
 public:
  // `server_count` block servers, all with the same disk model and memory
  // tier configuration.
  explicit PipeDeployment(int server_count, DiskModel disk = {},
                          ServerCacheConfig cache = ServerCacheConfig());
  ~PipeDeployment();

  Master& master() { return master_; }
  BlockServer& server(int i) { return *servers_[static_cast<std::size_t>(i)]; }
  int server_count() const { return static_cast<int>(servers_.size()); }
  ServerAddress server_address(int i) const;

  // Stripe `desc`'s timesteps into the store and register "<name>" with the
  // master.  The whole time series is one logical DPSS file; timestep t
  // occupies bytes [t*step_bytes, (t+1)*step_bytes).  With
  // `replication_factor > 1` each block lands on that many ring-placed
  // servers.
  core::Status ingest(const vol::DatasetDesc& desc,
                      std::uint32_t block_bytes = kDefaultBlockBytes,
                      std::uint32_t stripe_blocks = 1,
                      std::uint32_t replication_factor = 1,
                      const codec::EcProfile& ec = {});

  // Run the offline thumbnail service for an ingested dataset (section 5
  // future work); registers "<name>.thumbs".
  core::Status generate_thumbnails(const vol::DatasetDesc& desc,
                                   const render::TransferFunction& tf,
                                   const ThumbnailOptions& options = {});

  // New client with pipes to master and servers.
  DpssClient make_client();

  // ---- failure scenarios ----
  // Stop serving from server `i`: existing connections drop, new connects
  // are refused.  The block store survives (a dead machine's disks are not
  // wiped), so a later revive_server() or rebalance copy can read it.
  void kill_server(int i);
  // Rejoin: accept connections again and heartbeat the master back to up.
  void revive_server(int i);
  bool server_killed(int i) const;
  // Join an empty server to the farm; returns its index.  Call
  // rebalance_dataset() to give it blocks.
  int add_server();
  // Kill server `i` AND wipe its block store: a disk loss, not just a
  // process death.  Rebalance copies sourced here must reconstruct.
  void wipe_server(int i);
  // Heartbeat every live server's liveness + served-request load into the
  // master's health tracker at time `now` (seconds on the caller's clock).
  void heartbeat_all(double now = 0.0);
  // Recompute `name`'s placement over the live (non-killed) servers and
  // execute the copy/drop plan.  Ring-placed datasets only.
  core::Status rebalance_dataset(const std::string& name);
  // Arm the master's background re-replication with this deployment's
  // plan executor; drive it via master().tick(now).
  void enable_auto_rebalance(double down_deadline_seconds);
  // Arm the master's ingest fixup queue with this deployment's executor
  // (apply_fixup against the live block stores); drain via
  // master().tick(now).
  void enable_fixups();

  // ---- trace aggregation (PR 8) ----
  // Attach a real-clock NetLogger (bounded MemorySink) to the master and
  // every block server so traced requests leave lifeline events to export.
  // Call before driving traced load.
  void enable_trace_collection(std::size_t sink_capacity = 4096);
  // Drain every component's sink and ship the finished spans into the
  // master's SpanCollector; returns spans accepted.  Client-side sinks are
  // the caller's (see export_spans_to_master).
  std::uint64_t export_spans();

 private:
  BlockServer* server_for(const ServerAddress& addr);
  // Transport the servers use to reach each other (chain forwarding and
  // parity deltas); goes through the same liveness gate as client
  // connects, so a hop into a killed server fails like a client would.
  Connector make_peer_connector();

  Master master_;
  DiskModel disk_;
  ServerCacheConfig cache_config_;
  // Guards servers_/killed_ membership against concurrent client connects
  // and kill/revive/add (the failure-scenario tests exercise exactly that).
  mutable std::mutex state_mu_;
  std::vector<std::unique_ptr<BlockServer>> servers_;
  std::vector<char> killed_;
  std::vector<std::unique_ptr<TraceExport>> trace_exports_;
};

// How a TcpDeployment services connections.
enum class ServeMode {
  // Epoll event loops (net/reactor_server.h): a connection costs a buffer,
  // not a thread, so one deployment absorbs thousands of clients -- the
  // paper's massive fan-in.  The default.
  kReactor,
  // The historical one-thread-per-connection accept loops; kept as the
  // baseline the connections-vs-throughput sweeps compare against.
  kThreadPerConnection,
};

struct TcpDeploymentOptions {
  ServeMode serve_mode = ServeMode::kReactor;
  // 0 -> one event loop per core (capped in ReactorPool).
  int reactor_loops = 0;
  // Handler offload threads per block server (reactor mode).  Block-server
  // handlers may block (chain forwarding to peers), so they never run on
  // the event loops; per-server pools keep an A->B forward from competing
  // with B's own inbound work.  Modelled disk reads are not handler time:
  // their replies wait on loop timers.
  int worker_threads = 4;
  // Outbound connects (clients and server-to-server peer links) fail with
  // kDeadlineExceeded after this long instead of hanging on a dead or
  // overloaded address; failover then tries the next replica.
  double connect_timeout_seconds = 5.0;
  // Per-request read deadline on server connections (reactor mode): once a
  // request's first byte arrives the rest must follow within this window
  // or the connection is shed and counted.  0 disables.
  double request_read_timeout_seconds = 10.0;
  // Back-pressure cap per connection (reactor mode): un-drained reply
  // bytes beyond this close the connection.
  std::size_t write_queue_cap_bytes = 4u << 20;
};

class TcpDeployment {
 public:
  // Starts listeners (reactor-backed or accept threads per `options`).
  // `throttle` enables the disk service-time model on the live servers.
  TcpDeployment(int server_count, DiskModel disk = {}, bool throttle = false,
                ServerCacheConfig cache = ServerCacheConfig(),
                TcpDeploymentOptions options = {});
  ~TcpDeployment();

  core::Status start();
  void stop();

  Master& master() { return master_; }
  BlockServer& server(int i) { return *servers_[static_cast<std::size_t>(i)]; }
  int server_count() const { return static_cast<int>(servers_.size()); }
  std::uint16_t master_port() const;
  ServerAddress server_address(int i) const;
  ServeMode serve_mode() const { return options_.serve_mode; }

  // ---- reactor introspection (empty / zero in thread mode) ----
  // Per-loop event counts for the shared ReactorPool.
  std::vector<net::ReactorStats> reactor_stats() const;
  // Connection/request/timeout counters for server `i`'s front door.
  net::ReactorServerStats server_net_stats(int i) const;
  net::ReactorServerStats master_net_stats() const;

  core::Status ingest(const vol::DatasetDesc& desc,
                      std::uint32_t block_bytes = kDefaultBlockBytes,
                      std::uint32_t stripe_blocks = 1,
                      std::uint32_t replication_factor = 1,
                      const codec::EcProfile& ec = {});

  // New client connected over loopback TCP.
  core::Result<DpssClient> make_client();

  // ---- failure scenarios ----
  // Close server `i`'s listener and drop its connections mid-flight; the
  // port stays reserved in the catalog so replica ranking can skip it.
  void kill_server(int i);
  // kill_server plus a block-store wipe (disk loss).
  void wipe_server(int i);
  bool server_killed(int i) const;
  void heartbeat_all(double now = 0.0);
  core::Status rebalance_dataset(const std::string& name);
  void enable_auto_rebalance(double down_deadline_seconds);
  void enable_fixups();

  // ---- trace aggregation (PR 8) ----
  // Same contract as PipeDeployment: real-clock NetLoggers on master and
  // servers, then export_spans() drains them into the master's collector.
  void enable_trace_collection(std::size_t sink_capacity = 4096);
  std::uint64_t export_spans();

 private:
  BlockServer* server_for(const ServerAddress& addr);
  net::ConnectOptions connect_options() const {
    return net::ConnectOptions{options_.connect_timeout_seconds};
  }

  Master master_;
  TcpDeploymentOptions options_;
  mutable std::mutex state_mu_;  // guards killed_
  std::vector<std::unique_ptr<BlockServer>> servers_;
  // Thread-per-connection mode.
  net::TcpListener master_listener_;
  std::vector<std::unique_ptr<net::TcpListener>> server_listeners_;
  std::vector<std::thread> accept_threads_;
  // Reactor mode.  Declaration order is teardown order in reverse: the
  // pool and worker pools must outlive the servers built on them.
  std::unique_ptr<net::ReactorPool> reactors_;
  std::vector<std::unique_ptr<core::ThreadPool>> worker_pools_;
  std::unique_ptr<net::ReactorServer> master_front_;
  std::vector<std::unique_ptr<net::ReactorServer>> server_fronts_;
  // Dedicated peer doors (reactor mode): chain forwards and parity deltas
  // from other servers land here on their own pools.  With a single shared
  // pool per server, concurrent client writes can park every worker on a
  // blocking peer exchange -- A's workers wait on B's replies while B's
  // workers wait on A's, and the forwards that would unblock them sit
  // queued behind the blocked workers forever.  Splitting the doors makes
  // the wait graph acyclic: a forwarded hop always carries a strictly
  // shorter chain tail, so peer-pool workers bottom out at a hop that
  // completes locally.
  std::vector<std::unique_ptr<core::ThreadPool>> peer_pools_;
  std::vector<std::unique_ptr<net::ReactorServer>> peer_fronts_;
  std::vector<ServerAddress> addresses_;
  std::vector<char> killed_;
  bool started_ = false;
  // Collector handles registered into the master's / servers' metrics
  // registries at start() (reactor-pool and front-door stats); removed in
  // stop() before the fronts they read from are torn down.
  std::uint64_t master_collector_ = 0;
  std::vector<std::uint64_t> server_collectors_;
  std::vector<std::unique_ptr<TraceExport>> trace_exports_;
};

// Shared ingest logic: place the dataset blocks onto the given servers
// (striped when replication_factor == 1, ring-replicated otherwise, and
// (k, m) erasure-coded when `ec` is enabled -- parity encoded server-side
// after the data slices land) and register the layout with the master.
core::Status ingest_dataset(Master& master,
                            std::vector<BlockServer*> servers,
                            std::vector<ServerAddress> addresses,
                            const vol::DatasetDesc& desc,
                            std::uint32_t block_bytes,
                            std::uint32_t stripe_blocks,
                            std::uint32_t replication_factor = 1,
                            const codec::EcProfile& ec = {});

// Execute a Rebalancer plan against live block stores: replica copies
// first (put_block write-through admits them to the target's memory tier
// -- the "replica fill"), then drops.  `resolve` maps an address to its
// BlockServer, returning null for unknown/unreachable servers (their
// copies fail, their drops are skipped).  EC plans move slices instead of
// groups; a slice copy whose source is unreachable or missing is
// reconstructed from any k surviving slices of its group (the plan's
// old_slice_owners), which is how a rebalance after a disk loss restores
// full redundancy.
core::Status apply_rebalance_plan(
    const placement::RebalancePlan& plan,
    const std::function<BlockServer*(const ServerAddress&)>& resolve);

// Execute one ingest fixup against live block stores: re-sync the task's
// target with the generation it missed.  Replicated blocks copy (with
// their stamp) from a replica that has reached the generation; parity
// blocks ("<name>#parity") re-encode from the group's data slices at their
// current state, which folds in every missed delta at once.  The master
// supplies placement maps and dataset geometry; `resolve` maps addresses
// to reachable BlockServers.
core::Status apply_fixup(
    const ingest::FixupTask& task, Master& master,
    const std::function<BlockServer*(const ServerAddress&)>& resolve);

}  // namespace visapult::dpss
