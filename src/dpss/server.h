// DPSS block server.
//
// "Typical DPSS implementations consist of several low-cost workstations as
// DPSS block servers, each with several disk controllers, and several disks
// on each controller" (section 3.5).  A BlockServer stores logical blocks
// for any number of datasets and services read/write requests through
// dispatch(), which is thread-safe: the deployment's reactor doors
// (net/reactor_server.h), over TCP or over socketpairs, run block reads on
// the event loops that read them -- a read never blocks, so several
// pipelined on one connection overlap on the modelled spindles, and the
// shared loops serve other connections' reads at the same time -- and
// writes and introspection on the door's worker pool.  Never blocking is
// not free: a read that asks for compression compresses its block on the
// loop, which also serves the master's and every peer door.
//
// The DiskModel captures the physical substrate we don't have: each server
// owns `disks` independent spindles; a block read costs a seek plus
// transfer.  The model is used two ways: (1) the virtual-time simulator
// asks it for service times when replaying paper-scale campaigns; (2)
// optionally, a live server makes each block read from its disks take the
// modelled time ("throttle mode") so real-transport deployments show
// DPSS-like scaling.  In throttle mode the server keeps a schedule of its
// spindles -- the time each one next falls free, on the server clock --
// and nothing sleeps: a miss or a prefetch fill takes the earliest-free
// spindle and its block is ready at max(now, free) + seek + transfer.
// dispatch() returns the reply with the delay until that ready time, which
// the reactor door waits out on a loop timer.  The wait for a busy spindle
// is reported as the request's queue time.
//
// In front of the modelled disks sits the memory tier that makes the DPSS a
// *cache* (the paper's own term for it): a cache::BlockCache services warm
// block reads without any disk charge, misses admit-on-fill, writes are
// write-through, and a stripe-aware prefetcher streams predicted blocks
// from the modelled disks into memory ahead of the client.
//
// Each stored block is one immutable, refcounted buffer (cache::BlockData)
// that the store, the memory tier, a reply being encoded and an EC
// overwrite's parity-delta base all share: write-through, miss admission
// and prefetch fills admit the store's own buffer, an ingest write moves
// its decoded payload in, and an overwrite or a parity delta swaps in a
// new buffer rather than changing the old one.  The tier still charges
// each entry's bytes against its capacity, so what it models is which
// blocks are memory-resident -- the hits, misses and evictions the disk
// model sees -- not a second copy: evicting a block frees nothing the
// store still holds.  A read reply is encoded straight from the shared
// buffer, its one copy of the block on the server; a warm read keeps its
// tier entry pinned resident until then.
//
// The ingest pipeline (PR 5) makes the server a *mutation* participant,
// not just a store: every stored block carries a generation stamp (an
// overwrite re-keys the memory tier, so a stale entry can never satisfy a
// lookup for the new stamp), an IngestWriteRequest is applied locally and
// pipelined server-to-server down the remaining replica chain via the
// peer connector, and a ParityDeltaRequest folds a shipped GF delta into a
// stored parity block with the bulk codec::gf256::delta_apply kernel.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cache/block_cache.h"
#include "cache/prefetch.h"
#include "core/clock.h"
#include "core/rng.h"
#include "core/status.h"
#include "dpss/protocol.h"
#include "net/stream.h"
#include "netlog/logger.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace visapult::dpss {

struct DiskModel {
  int disks = 4;                       // spindles on this server
  double seek_seconds = 0.008;         // avg seek+rotation per request
  double disk_bytes_per_sec = 12e6;    // per-spindle media rate (ca. 2000)

  // Service time of one block read on one spindle: seek plus transfer.
  double block_service_seconds(std::size_t block_bytes) const;

  // Aggregate streaming bandwidth of the server (all spindles busy,
  // seek amortised over a block).
  double streaming_bytes_per_sec(std::size_t block_bytes) const;
};

// Memory-tier configuration for a block server.
struct ServerCacheConfig {
  bool enabled = true;
  std::size_t capacity_bytes = 64ull << 20;
  // Stripe-aware read-ahead from the modelled disks into the memory tier.
  // Fills run inline on the thread serving the demand read that predicted
  // them (the event loop, behind a reactor door): they take spindles on
  // the schedule but never wait for them.
  bool prefetch = true;
  cache::PrefetchConfig prefetch_config;
};

class BlockServer {
 public:
  explicit BlockServer(std::string name, DiskModel disk = {},
                       bool throttle = false,
                       ServerCacheConfig cache_config = ServerCacheConfig());
  ~BlockServer();

  const std::string& name() const { return name_; }
  const DiskModel& disk_model() const { return disk_; }

  // ---- local block store (also used directly by the ingest path) ----
  // Writes are write-through: the block lands on the modelled disks and is
  // admitted to the memory tier.  put_block preserves the block's current
  // generation (initial ingest, migration and rebalance fills);
  // put_block_at stamps the write with an explicit generation and rejects
  // it as stale (kFailedPrecondition) when the stored block already
  // carries a newer one -- the property that lets a late fixup never roll
  // a replica back.
  core::Status put_block(const std::string& dataset, std::uint64_t block,
                         std::vector<std::uint8_t> data);
  core::Status put_block_at(const std::string& dataset, std::uint64_t block,
                            std::vector<std::uint8_t> data,
                            std::uint64_t generation);
  core::Result<std::vector<std::uint8_t>> get_block(const std::string& dataset,
                                                    std::uint64_t block) const;
  // Block bytes together with their generation stamp (fixup sources and
  // generation-preserving rebalance copies).
  struct StampedBlock {
    std::vector<std::uint8_t> data;
    std::uint64_t generation = 0;
  };
  core::Result<StampedBlock> stamped_block(const std::string& dataset,
                                           std::uint64_t block) const;
  // The stored buffer itself, not a copy: the one the memory tier holds
  // while the block is resident.  It keeps its bytes across later writes.
  core::Result<cache::BlockData> shared_block(const std::string& dataset,
                                              std::uint64_t block) const;
  // Generation of a stored block; 0 when absent or never overwritten.
  std::uint64_t block_generation(const std::string& dataset,
                                 std::uint64_t block) const;
  // Highest generation stored for `dataset` (tool/stats probe).
  std::uint64_t max_generation(const std::string& dataset) const;
  // Datasets with at least one stored block, in name order (the gossip
  // heartbeat enumerates these to build generation floors).
  std::vector<std::string> dataset_names() const;
  // Remove a block this server no longer owns (a Rebalancer drop plan);
  // evicts the memory-tier entry too.  Returns false when absent.
  bool drop_block(const std::string& dataset, std::uint64_t block);
  // Forget every stored block and empty the memory tier: a disk loss (the
  // failure mode EC reconstruction exists for).  The server object itself
  // survives, so a later rebalance can write to it again.
  void wipe();
  bool has_block(const std::string& dataset, std::uint64_t block) const;
  std::size_t block_count(const std::string& dataset) const;
  std::size_t total_bytes() const;

  // ---- ingest pipeline ----
  // Transport used to reach peer servers when forwarding chain writes and
  // parity deltas; wired by the deployment before traffic starts.
  void set_peer_connector(Connector connector);
  // Chain hops this server forwarded downstream (requests it relayed).
  std::uint64_t chain_forwards() const { return chain_forwards_.value(); }
  // Parity-delta kernels applied to stored parity blocks.
  std::uint64_t parity_deltas_applied() const {
    return parity_deltas_.value();
  }

  // ---- service ----
  // Drop the pooled peer links (a revived server re-establishes them
  // lazily) and drain in-flight prefetch fills.  The deployment calls it
  // once the server's doors have closed.
  void shutdown();

  // One request in, one reply out: what the reactor doors run for each
  // request.  Never sleeps: the reply carries the delay until the modelled
  // disk read it waits for completes (0 unless throttled).  `conn_id`
  // identifies the client connection (allocate_conn_id()) for the
  // per-connection stride detector.  Thread-safe.
  net::Reply dispatch(net::Message&& msg, std::uint64_t conn_id);
  // Connection ids for callers driving requests by hand.
  std::uint64_t allocate_conn_id() { return next_conn_id_.fetch_add(1) + 1; }

  // Per-request read timeouts the reactor front door observed on this
  // server's connections (stalled clients it shed).
  void note_read_timeout() { read_timeouts_.inc(); }
  std::uint64_t read_timeouts() const { return read_timeouts_.value(); }

  // Number of requests served (for load-balance verification).
  std::uint64_t requests_served() const { return requests_.value(); }
  // Block reads that found the same block still being read in from the
  // disk model and used that read instead of charging the model again: a
  // demand read replying at the ready time of a prefetch fill (or of
  // another demand miss), or a prefetch fill skipping a block a demand
  // miss is loading.
  std::uint64_t read_joins() const { return read_joins_.value(); }

  // This server's metrics plane: the request counters above plus the
  // read/write latency histograms, the text of an IntrospectKind::kStats
  // request.
  // The deployment registers transport collectors (reactor loop stats,
  // front-door gauges) here too.
  obs::MetricsRegistry& metrics_registry() { return registry_; }

  // Attach a NetLogger for per-request and cache events (optional).  A
  // traced request (non-zero trace id in the frame header) emits
  // DPSS_SERV_IN/OUT lifeline events through it.
  void set_logger(std::shared_ptr<netlog::NetLogger> logger);

  // ---- memory tier ----
  bool cache_enabled() const { return cache_ != nullptr; }
  // Counters plus occupancy; prefetch issues included.  Zero-value
  // snapshot when the cache is disabled.
  cache::MetricsSnapshot cache_metrics() const;
  // Empty the memory tier and forget learned access patterns (a cold
  // restart; the block store itself is unaffected).
  void drop_cache();
  // DiskModel service time charged so far, in seconds: seek plus transfer
  // once per disk read (every miss and prefetch fill), never the wait for
  // a busy spindle, and never for warm hits.  This is how tests and
  // benches observe "warm reads bypass the disk" without wall-clock
  // timing.
  double modeled_disk_seconds() const;
  // Clock the spindle schedule runs on; tests inject a virtual clock.  Set
  // before traffic starts.
  void set_clock(core::Clock* clock) { clock_ = clock; }

 private:
  struct Stored {
    cache::BlockData data;  // never null once stored
    std::uint64_t generation = 0;
  };
  // One pooled connection per peer; its mutex serialises the pipelined
  // request/reply pairs of concurrent handlers forwarding to the same
  // peer.  Per-link utilization accounting (exchanges + payload
  // bytes both ways) rides under the same mutex and surfaces as labeled
  // dpss_util_peer_* samples at exposition time.
  struct PeerLink {
    std::mutex mu;
    net::StreamPtr stream;
    std::uint64_t exchanges = 0;
    std::uint64_t bytes = 0;
    std::uint64_t failures = 0;
  };

  // When a block read's bytes are in memory, on the server clock.
  struct DiskRead {
    double ready = 0.0;
    double queue = 0.0;   // of the wait, seconds spent for a busy spindle
    bool joined = false;  // rides on a read of the block already under way
  };

  // A stored block's buffer and stamp, shared (kNotFound when absent).
  core::Result<Stored> find_stored(const std::string& dataset,
                                   std::uint64_t block) const;
  // Cache-tier read: warm hits skip the DiskModel entirely; misses read
  // the block in from the modelled disks, admit-on-fill, and notify the
  // prefetcher.  `conn_id` identifies the client connection so concurrent
  // PEs' interleaved strides are detected independently.  On a hit `pin`
  // receives the pin that keeps the block resident while the caller
  // builds its reply; it stays empty on a miss.  `generation` receives the
  // served bytes' stamp, `wait` when they are ready.  Returns the shared
  // buffer, not a copy.
  core::Result<cache::BlockData> read_block_serviced(
      const std::string& dataset, std::uint64_t block, std::uint64_t conn_id,
      cache::BlockCache::Pin* pin, std::uint64_t* generation, DiskRead* wait);
  // Prefetch path: stream one predicted block from the modelled disks into
  // the memory tier.
  void prefetch_fill(const std::string& dataset, std::uint64_t block);
  // The spindle schedule.  start_disk_read charges the model for one read
  // of `bytes` and, in throttle mode, books it on the earliest-free
  // spindle -- unless a read of the block is still under way, which it
  // joins instead.  pending_disk_read returns the ready time of a read of
  // the block still under way at `now` (joining it), or 0 when none is.
  DiskRead start_disk_read(const std::string& dataset, std::uint64_t block,
                           std::size_t bytes, double now);
  double pending_disk_read(const std::string& dataset, std::uint64_t block,
                           double now);
  // Store + re-key the memory tier under mu_.  generation == 0 allocates
  // current + 1 when `bump` (ingest writes), else preserves the current
  // stamp (legacy put_block).  Returns the generation the block now
  // carries, or kFailedPrecondition for a stale explicit stamp.  `data`
  // becomes the stored buffer and the tier's entry as it is.  When
  // `replaced` is set it receives the buffer being overwritten (null if
  // none), captured under the same lock (the parity-delta base).
  core::Result<std::uint64_t> apply_write(
      const std::string& dataset, std::uint64_t block, cache::BlockData data,
      std::uint64_t generation, bool bump,
      cache::BlockData* replaced = nullptr);
  // Ingest handlers, called from dispatch().  `trace` is the incoming
  // request's context: forwarded chain hops and parity deltas travel under
  // the same trace with fresh span ids.
  net::Message handle_ingest_write(IngestWriteRequest&& req,
                                   const obs::TraceContext& trace);
  net::Message handle_parity_delta(ParityDeltaRequest&& req);
  // Reach (or establish) the pooled link to `addr` in lane `lane`.
  std::shared_ptr<PeerLink> peer_link(const ServerAddress& addr,
                                      std::size_t lane);
  // One request/reply exchange on a peer link; a wire failure drops the
  // pooled stream so the next attempt reconnects.
  //
  // `lane` must be the number of nested peer exchanges the RECEIVING
  // handler will itself perform (a chain forward carrying a tail of N more
  // hops is lane N; a parity delta or terminal hop is lane 0).  Links are
  // pooled per (peer, lane) and serialized by the link mutex while the
  // reply is awaited, so an exchange in lane N only ever waits on lane
  // N-1 completions -- the wait graph is ordered by lane and cannot cycle.
  // Folding every lane into one pooled connection deadlocks under
  // concurrent chain writes: a terminal hop queues behind a mid-chain
  // exchange holding the shared link, which is itself waiting on another
  // terminal hop queued behind another shared link, around the ring.
  core::Result<net::Message> peer_exchange(const ServerAddress& addr,
                                           const net::Message& request,
                                           std::size_t lane);

  std::string name_;
  DiskModel disk_;
  bool throttle_;
  mutable std::mutex mu_;
  // dataset -> block -> stamped bytes
  std::map<std::string, std::map<std::uint64_t, Stored>> store_;
  // The metrics plane.  Instruments are cached references (stable for the
  // registry's lifetime) so the hot path never does a by-name lookup;
  // registry_ must precede them for initialization order.
  obs::MetricsRegistry registry_;
  obs::Counter& requests_;
  obs::Counter& read_timeouts_;
  obs::Counter& chain_forwards_;
  obs::Counter& parity_deltas_;
  obs::Counter& read_joins_;
  // Block payload bytes copied on this server, by site: decoding a
  // request's block out of its frame, encoding one into an outgoing frame
  // (a read reply, a chain forward, a parity delta), and carrying bytes
  // over into a new store buffer (the part of a parity block past its
  // delta).  Admission to the memory tier copies nothing: see the tier's
  // copied_bytes.
  obs::Counter& copy_decode_;
  obs::Counter& copy_encode_;
  obs::Counter& copy_store_;
  obs::Gauge& in_flight_;
  obs::Histogram& read_seconds_;
  obs::Histogram& write_seconds_;
  std::atomic<std::uint64_t> next_conn_id_{0};
  Connector peer_connector_;
  std::mutex peer_mu_;
  std::map<std::string, std::shared_ptr<PeerLink>> peers_;
  std::shared_ptr<netlog::NetLogger> logger_;
  core::Clock* clock_ = &core::global_real_clock();
  std::atomic<std::uint64_t> modeled_disk_micros_{0};
  // Guards the spindle schedule: when each spindle next falls free, and
  // the ready time of every disk read still under way, by (dataset,
  // block).  Reads leave the map once their ready time has passed.
  std::mutex disk_mu_;
  std::vector<double> spindle_free_at_;
  std::map<std::pair<std::string, std::uint64_t>, double> disk_reads_;
  ServerCacheConfig cache_config_;
  // Teardown order matters: the prefetcher drains its in-flight fills
  // (which touch cache_ and store_) before the cache goes away, so it is
  // declared last.
  std::unique_ptr<cache::BlockCache> cache_;
  std::unique_ptr<cache::Prefetcher> prefetcher_;
};

}  // namespace visapult::dpss
