// The DPSS deployment: master + block servers + clients, wired over a
// transport.
//
// One Deployment owns the components, every operational lever, and every
// way they are served: a shared pool of event loops, the master's front
// door (net/reactor_server.h), and for each block server a client door
// (block reads on the loops, writes and introspection on its own worker
// pool) and a peer door on an elastic pool.  A transport
// differs only in how a door opens and how a stream reaches it.  Two
// transports:
//   * PipeDeployment -- everything in-process: doors take connections over
//     socketpairs (ReactorServer::connect_local) and are reached by name;
//     used by unit/integration tests, the quickstart example and
//     archive_browser.
//   * TcpDeployment -- doors listen on real loopback TCP ports; used by
//     the dpss_tool example, the benchmarks and the socket integration
//     tests.
//
// ingest() stripes a generated dataset across the block servers and
// registers it with the master -- the reproduction of "migrate the files
// from HPSS to a nearby DPSS cache".  Ingesting with
// `replication_factor > 1` places each block on that many servers via the
// placement ring and writes every replica, enabling client failover.
// Ingesting with an enabled codec::EcProfile instead erasure-codes: each
// group of k blocks lands on k+m distinct servers (data slices written in
// place, parity slices encoded server-side at ingest), enabling client
// reconstruction at ~(k+m)/k of raw capacity.
//
// Failure-scenario levers (the SimGrid-style kill / slow / rejoin
// campaigns, live): kill_server() makes a server refuse service
// mid-flight, revive_server() brings it back at the same address,
// add_server() joins an empty server, heartbeat_all() pumps liveness+load
// beats into the master, and rebalance_dataset() recomputes placement over
// the currently live servers and executes the Rebalancer's copy/drop plan
// against the block stores.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "codec/ec_profile.h"
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

// How a deployment serves its doors, on either transport.
struct TcpDeploymentOptions {
  // 0 -> one event loop per core (capped in ReactorPool).
  int reactor_loops = 0;
  // Handler offload threads per block server.  Write handlers may block
  // (chain forwarding to peers), so they never run on the event loops;
  // per-server pools keep an A->B forward from competing with B's own
  // inbound work.  Block reads never block (a modelled disk read's reply
  // waits on a loop timer), so they run on the loops, not here.
  int worker_threads = 4;
};

class Deployment {
 public:
  virtual ~Deployment();

  Master& master() { return master_; }
  BlockServer& server(int i) {
    return *members_[static_cast<std::size_t>(i)].server;
  }
  int server_count() const;
  // Address clients dial for server `i` (the one the catalog lists);
  // empty until its doors have opened.
  ServerAddress server_address(int i) const;
  // Address clients dial for the master; empty until its door has opened.
  ServerAddress master_address() const;

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

  // ---- failure scenarios ----
  // Stop serving from server `i`: its doors close, existing connections
  // drop, new connects are refused, and the server drops its pooled peer
  // links.  The block store survives (a dead machine's disks are not
  // wiped), so a later revive_server() or rebalance copy can read it.
  void kill_server(int i);
  // Rejoin: reopen the doors at the same address and heartbeat the master
  // back to up.
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

  // ---- trace aggregation ----
  // Attach a real-clock NetLogger (bounded MemorySink) to the master and
  // every block server, including servers added later, so traced requests
  // leave lifeline events to export.  Call before driving traced load.
  void enable_trace_collection(std::size_t sink_capacity = 4096);
  // Drain every component's sink and ship the finished spans into the
  // master's SpanCollector; returns spans accepted.  Client-side sinks are
  // the caller's (see export_spans_to_master).
  std::uint64_t export_spans();

  // ---- reactor introspection (empty / zero before the doors open) ----
  // Per-loop event counts for the shared ReactorPool.
  std::vector<net::ReactorStats> reactor_stats() const;
  // Connection/request/timeout counters for server `i`'s client door and
  // its peer door (chain forwards and parity deltas from other servers),
  // and for the master's door.  A killed server's doors keep their counts
  // until it is revived.
  net::ReactorServerStats server_net_stats(int i) const;
  net::ReactorServerStats server_peer_net_stats(int i) const;
  net::ReactorServerStats master_net_stats() const;

  // Open the event loops and the master's door, then the doors of every
  // server that is neither serving nor killed.  Idempotent; ingest() calls
  // it, since the catalog lists client addresses.
  core::Status start();
  // Close every door, waiting out their handlers, stop the event loops and
  // shut the servers down (pooled peer links dropped, prefetch fills
  // drained).  Idempotent.  A transport calls it before it is destroyed,
  // since a running handler may still call connect().
  void stop();

 protected:
  // `server_count` block servers, all with the same disk model and memory
  // tier configuration; `throttle` enables the disk service-time model.
  // Nothing is served until the doors open (start()).
  Deployment(int server_count, DiskModel disk, bool throttle,
             ServerCacheConfig cache, TcpDeploymentOptions options);

  // ---- transport hooks ----
  // Open `door` to connections and return the address it is reached at.
  // `name` labels the door (host "master", "server-3" or "server-3-peer";
  // port the server's index), and `at` is where it listened last (empty
  // the first time): a revive reopens the same address, so catalog
  // entries and placement maps naming the server stay valid.
  virtual core::Result<ServerAddress> open_door(net::ReactorServer& door,
                                                const ServerAddress& name,
                                                const ServerAddress& at) = 0;
  // Open a stream to a door's address.
  virtual core::Result<net::StreamPtr> connect(const ServerAddress& addr) = 0;

  // A socketpair connection to the door at `addr` (ReactorServer::
  // connect_local): kNotFound for an unknown address, kUnavailable once
  // the door has closed.
  core::Result<net::StreamPtr> connect_local(const ServerAddress& addr);

 private:
  enum class State { kClosed, kServing, kKilled };
  // Where a server is reached: clients dial `client`, the address the
  // catalog lists; other servers dial `peer` for chain forwards and parity
  // deltas.
  struct Addresses {
    ServerAddress client;
    ServerAddress peer;
  };
  struct ServerDoors;
  struct Member {
    explicit Member(std::unique_ptr<BlockServer> s) : server(std::move(s)) {}
    std::unique_ptr<BlockServer> server;
    Addresses addr;
    State state = State::kClosed;
    // Null until the doors first open; kept after a kill so their counters
    // stay readable, and replaced on revive.
    std::shared_ptr<ServerDoors> doors;
  };

  std::unique_ptr<BlockServer> new_server(int i);
  // The shared event loops and the master's door; no-op once up.
  core::Status open_master_door();
  // Open server `i`'s doors where they listened last and mark it serving.
  core::Status open_member(int i);
  // Unregister a server's stats collector and close both its doors.
  void retire(int i, ServerDoors& doors);
  // Server `i`'s doors; null for an index out of range or doors never
  // opened.
  std::shared_ptr<ServerDoors> doors_of(int i) const;
  // Any recorded server by client address, serving or not (rebalance and
  // fixup executors read a dead server's surviving store); null if none.
  BlockServer* server_for(const ServerAddress& addr);
  // Every server and its client address, in index order.
  void snapshot(std::vector<BlockServer*>* servers,
                std::vector<ServerAddress>* addresses) const;
  // kClosed for an index out of range.
  State state(int i) const;
  // A NetLogger feeding a new trace export for `host` (caller holds
  // trace_mu_).
  std::shared_ptr<netlog::NetLogger> trace_logger(const std::string& host);

  Master master_;
  DiskModel disk_;
  bool throttle_;
  ServerCacheConfig cache_config_;
  TcpDeploymentOptions options_;
  // Declared before every door: the loops outlive the doors built on them.
  std::unique_ptr<net::ReactorPool> reactors_;
  std::unique_ptr<net::ReactorServer> master_front_;
  ServerAddress master_addr_;
  // Collector registered into the master's metrics registry (reactor-pool
  // and master door stats); removed before the door it reads dies.
  std::uint64_t master_collector_ = 0;
  // Guards members_ against concurrent client connects and
  // kill/revive/add.  Never held while calling into the master or a
  // transport hook.
  mutable std::mutex state_mu_;
  std::vector<Member> members_;
  // Guards the trace exports and the sink capacity (0: collection off).
  // Taken before state_mu_ when both are needed.
  std::mutex trace_mu_;
  std::size_t trace_sink_capacity_ = 0;
  std::vector<std::unique_ptr<TraceExport>> trace_exports_;
};

class PipeDeployment : public Deployment {
 public:
  explicit PipeDeployment(int server_count, DiskModel disk = {},
                          ServerCacheConfig cache = ServerCacheConfig());
  ~PipeDeployment() override;

  // New client whose master and server connections are socketpairs into
  // the doors.
  DpssClient make_client();

 private:
  // A pipe door has no listener: it is reached by its name.
  core::Result<ServerAddress> open_door(net::ReactorServer& door,
                                        const ServerAddress& name,
                                        const ServerAddress& at) override;
  core::Result<net::StreamPtr> connect(const ServerAddress& addr) override;
};

class TcpDeployment : public Deployment {
 public:
  // `throttle` enables the disk service-time model on the live servers.
  // Nothing listens until start() (or the first ingest()/make_client()).
  TcpDeployment(int server_count, DiskModel disk = {}, bool throttle = false,
                ServerCacheConfig cache = ServerCacheConfig(),
                TcpDeploymentOptions options = {});
  ~TcpDeployment() override;

  std::uint16_t master_port() const { return master_address().port; }

  // New client connected over loopback TCP.
  core::Result<DpssClient> make_client();

 private:
  // Listen on 127.0.0.1, at the port the door had before if any.
  core::Result<ServerAddress> open_door(net::ReactorServer& door,
                                        const ServerAddress& name,
                                        const ServerAddress& at) override;
  core::Result<net::StreamPtr> connect(const ServerAddress& addr) override;
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
