// DPSS client library.
//
// "The application interface to the DPSS cache supports a variety of I/O
// semantics, including Unix-like I/O semantics, through an easy-to-use
// client API library (e.g., dpssOpen(), dpssRead(), dpssWrite(),
// dpssLSeek(), dpssClose()).  The DPSS client library is multi-threaded,
// where the number of client threads is equal to the number of DPSS
// servers." (section 3.5)
//
// DpssClient talks to the master to resolve a dataset, then DpssFile checks
// one connection *per block server* out of the client's pool (dialling only
// when none is idle) and returns them at close, so browsing dataset after
// dataset connects to each server once.  Block requests fan out across the
// servers concurrently, each pooled connection's long-lived I/O worker
// running its server's batch while the caller runs one -- the client-side
// parallelism Visapult's back-end PEs leverage for their parallel loads.
// Each such leg sends its whole batch of read requests with one send call
// (a write sends each block frame on its own), and copies each raw block
// reply from the received frame straight into the caller's buffer as it
// arrives: a plain read copies each block once on the client.  A reply
// that names a block other than the one requested fails its leg.  Replies
// whose bytes outlive the exchange -- compressed ones, EC slices and
// rebuilds, and read-ahead fills -- are decoded into buffers of their own
// first (dpss_client_copy_decode_bytes_total).
//
// Replica-aware datasets (OpenReply.ring_vnodes > 0) add failover: the
// client rebuilds the placement ring locally, ranks each block's replicas
// least-loaded-live-first from the master's snapshot, and when a server
// dies mid-read it marks the connection dead, reports the failure to the
// master, and retries the affected blocks against the next replica -- a
// scan over a replicated dataset survives a server kill with zero read
// errors.
//
// Erasure-coded datasets (OpenReply.ec enabled) degrade differently: every
// block has exactly one systematic owner (its data slice), so a dead
// server turns the read into a client-side *reconstruction* -- fetch any k
// surviving slices of the block's group (sibling data blocks plus parity
// from the "#parity" companion dataset) and decode.  The failure is
// reported to the master exactly as replica failover reports it.
//
// Writes go through the server-driven ingest pipeline (PR 5): each block
// is sent ONCE, to its primary, which chain-replicates it down the
// remaining replicas (or, erasure-coded, ships GF parity deltas to the
// parity owners) under the file's ack policy.  The reply's generation
// stamp keys the read-ahead tier and arms stale-read detection: a replica
// that answers with a generation older than one this file saw acknowledged
// is skipped and the block retried elsewhere.  Replicas the policy (or a
// mid-chain death) left behind are reported to the master's fixup queue.
//
// Sharded metadata (PR 9): enable_sharded_meta() routes each open to the
// master shard owning the dataset's hash, failing over across the shard's
// replicas (and, last resort, any other shard -- every shard forwards to
// the owner) when a master endpoint dies.  Opens carry the client's cached
// catalog epoch; a not_modified reply reuses the cached placement map
// without rebuilding the ring -- the delta-open fast path.  Dead master
// endpoints are reported to a surviving member so the cluster health
// tracker learns from client evidence.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "cache/block_cache.h"
#include "cache/prefetch.h"
#include "codec/reed_solomon.h"
#include "codec/stripe_layout.h"
#include "core/status.h"
#include "core/thread_pool.h"
#include "dpss/protocol.h"
#include "ingest/ack_policy.h"
#include "ingest/generation.h"
#include "meta/catalog.h"
#include "meta/shard_map.h"
#include "net/stream.h"
#include "netlog/logger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "placement/placement_map.h"

namespace visapult::dpss {

// Invoked (off the failing read path, same thread) when a block fetch
// against a server fails and the client fails over; wired to a
// kFailureReport on the master connection by DpssClient.
using FailureReporter = std::function<void(const FailureReport&)>;

// Invoked when a write left a replica / parity owner behind (relaxed ack
// policy or mid-chain death); wired to a kFixupReport on the master
// connection, feeding the master's background fixup queue.
using FixupReporter = std::function<void(const FixupReport&)>;

class DpssFile;
class ServerPool;   // idle block-server connections (client.cpp)
struct ServerConn;  // one pooled connection and its I/O worker

// An exchange's two callbacks, run on the thread that serves server `s`:
// the source encodes its i-th request, the sink consumes that request's
// reply (an error from the sink fails the server's batch).
using RequestSource = std::function<net::Message(std::size_t s, std::size_t i)>;
using ReplySink =
    std::function<core::Status(std::size_t s, std::size_t i, net::Message&)>;

class DpssClient {
 public:
  // `master` is an established connection to the DPSS master.
  DpssClient(net::StreamPtr master, Connector connector);

  // dpssOpen(): resolve the dataset and check one connection per server out
  // of this client's pool, dialling only servers with none idle.  For a
  // replicated dataset a failed dial is tolerated (the server is marked
  // down locally and reported); with a single copy every dial must succeed.
  // A pooled connection whose server restarted while it sat idle is
  // redialled on its first use.
  core::Result<std::unique_ptr<DpssFile>> open(const std::string& dataset,
                                               const std::string& auth_token = "");

  // Live introspection (kIntrospectRequest): the master's, or one block
  // server's, text for `kind` (see IntrospectKind).  Block servers answer
  // kStats and kProfile; only the master answers kTraceReport.
  core::Result<std::string> introspect(IntrospectKind kind);
  core::Result<std::string> introspect(const ServerAddress& addr,
                                       IntrospectKind kind);

  // Trace dataset opens: mint a trace per open(), stamp it on the wire
  // OpenRequest (so the master's MASTER_IN/OUT join the lifeline), and
  // emit DPSS_OPEN_START/END events through `logger`.
  void enable_open_tracing(std::shared_ptr<netlog::NetLogger> logger);

  // Ship finished span records to the master's SpanCollector
  // (kSpanExportRequest).  `host` names this producer for clock-skew
  // correction; `sent_at` is the producer's clock at call time.  Returns
  // the number of spans the collector accepted.
  core::Result<std::uint64_t> export_spans(
      const std::string& host, double sent_at,
      const std::vector<obs::SpanRecord>& spans);

  // ---- sharded metadata plane (PR 9) ----
  // Route opens across `shard_map`'s master shards by dataset hash.
  // `members[shard]` lists that shard's replica endpoints, leader first by
  // convention; opens try them in order and fall back to other shards'
  // members (any shard forwards to the owner).  `master_connector` dials
  // master endpoints (defaults to the block-server connector when null).
  void enable_sharded_meta(meta::ShardMap shard_map,
                           std::vector<std::vector<ServerAddress>> members,
                           Connector master_connector = nullptr);
  bool sharded_meta() const { return meta_->sharded; }

  // Catalog epoch the client's per-dataset cache holds (0 = never opened).
  std::uint64_t cached_epoch(const std::string& dataset) const;
  // Opens answered from the cache via a not_modified reply vs opens that
  // carried (and rebuilt) the full placement snapshot.
  std::uint64_t delta_opens() const;
  std::uint64_t snapshot_opens() const;
  // Master endpoints this client failed over past, and how many of those
  // deaths it reported to a surviving member (satellite S2).
  std::uint64_t master_failovers() const;
  std::uint64_t master_failure_reports() const;

  // Pull epoch-numbered placement deltas since the client's cached state
  // and fold them into the local catalog mirror: per dataset, or a whole
  // shard at once.  A gap past the master's log window falls back to a
  // full snapshot transparently.  Returns the epoch the mirror reached.
  core::Result<std::uint64_t> sync_placement(const std::string& dataset);
  core::Result<std::uint64_t> sync_shard(std::uint32_t shard);

  // The client-side replay of the shards' catalogs (what sync_placement /
  // sync_shard fold deltas into); fingerprint-comparable against a
  // master's catalog -- the delta-stream equivalence property.
  const meta::Catalog& placement_mirror() const { return meta_->mirror; }

 private:
  // The master connection outlives any DpssFile that reports failures
  // through it; requests on it are serialized by `mu`.
  struct MasterLink {
    net::StreamPtr stream;
    std::mutex mu;
    // One request/reply; kUnavailable once the stream was dropped.
    core::Result<net::Message> roundtrip(const net::Message& msg);
  };
  // Cached open state for one dataset: the last full reply's placement
  // body plus the shared map, spliced back in when the master answers
  // not_modified.
  struct CachedOpen {
    std::uint64_t epoch = 0;
    OpenReply reply;
    std::shared_ptr<const placement::PlacementMap> map;
  };
  // Connected (or reconnected) link to one master endpoint; null when the
  // endpoint refuses the dial.
  std::shared_ptr<MasterLink> link_for(const ServerAddress& addr);
  // Round-trip `msg` against shard `shard` with member failover; on
  // success *served_by names the link that answered.  Dead endpoints met
  // along the way are reported to the answering member.
  core::Result<net::Message> shard_roundtrip(
      std::uint32_t shard, const net::Message& msg,
      const std::string& dataset, std::shared_ptr<MasterLink>* served_by);
  void report_master_failure(const std::shared_ptr<MasterLink>& via,
                             const ServerAddress& dead,
                             const std::string& dataset);
  // Shared delta-pull: request `dataset` ("" = whole shard) since `since`
  // against `shard`, apply the entries to the mirror, return the epoch.
  core::Result<std::uint64_t> pull_deltas(std::uint32_t shard,
                                          const std::string& dataset,
                                          std::uint64_t since);

  std::shared_ptr<MasterLink> master_;
  Connector connector_;
  std::shared_ptr<ServerPool> pool_;
  std::shared_ptr<netlog::NetLogger> open_logger_;

  // Sharded metadata state, heap-held so the client stays movable (the
  // mirror and mutex are not).  `mu` guards everything but the mirror,
  // which locks internally.
  struct MetaState {
    mutable std::mutex mu;
    bool sharded = false;
    meta::ShardMap shard_map;
    std::vector<std::vector<ServerAddress>> shard_members;
    Connector master_connector;
    std::map<std::string, std::shared_ptr<MasterLink>> links;  // by addr key
    std::map<std::string, CachedOpen> open_cache;
    std::map<std::uint32_t, std::uint64_t> shard_epochs;
    meta::Catalog mirror;
    std::uint64_t delta_opens = 0;
    std::uint64_t snapshot_opens = 0;
    std::uint64_t master_failovers = 0;
    std::uint64_t master_failure_reports = 0;
  };
  std::shared_ptr<MetaState> meta_;
};

enum class Whence { kSet, kCur, kEnd };

// Client-side read-ahead configuration (DpssFile::enable_readahead).
struct ReadaheadOptions {
  // Budget of the file's read-ahead tier (four segmented-LRU shards).
  std::size_t cache_bytes = 16ull << 20;
  cache::PrefetchConfig prefetch;
  // Pool threads issuing read-ahead; 0 fetches inline on the demand path
  // (deterministic -- what unit tests use).
  int threads = 1;
};

class DpssFile {
 public:
  // `conns[s]` is checked out of `pool` for `addresses[s]` (null: the
  // server could not be reached at open).
  DpssFile(std::string dataset, DatasetLayout layout,
           std::shared_ptr<ServerPool> pool,
           std::vector<std::unique_ptr<ServerConn>> conns,
           std::vector<ServerAddress> addresses,
           std::shared_ptr<const placement::PlacementMap> placement = nullptr,
           std::vector<placement::HealthState> server_health = {},
           std::vector<std::uint64_t> server_load = {},
           FailureReporter reporter = nullptr,
           FixupReporter fixup_reporter = nullptr);
  ~DpssFile();

  const DatasetLayout& layout() const { return layout_; }
  std::uint64_t size() const { return layout_.total_bytes; }
  int server_count() const { return static_cast<int>(conns_.size()); }

  // dpssLSeek(): returns the new offset, or < 0 on bad seek.
  std::int64_t lseek(std::int64_t offset, Whence whence = Whence::kSet);
  std::uint64_t tell() const { return offset_; }

  // dpssRead(): read up to `len` bytes at the current offset, advancing it.
  // Short reads happen only at end of dataset.  Blocks are fetched from all
  // owning servers in parallel (each server's batch concurrently).
  core::Result<std::size_t> read(std::uint8_t* buf, std::size_t len);

  // Positional read; does not move the file offset.
  core::Result<std::size_t> pread(std::uint8_t* buf, std::size_t len,
                                  std::uint64_t offset);

  // Scatter read: fetch several (offset, length) extents in one parallel
  // round -- the access pattern of a non-contiguous slab (vol::ByteRange
  // lists).  Extents must lie within the dataset, and their destinations
  // must not overlap: each server's I/O worker copies its blocks into
  // them concurrently with the others.
  struct Extent {
    std::uint64_t offset = 0;
    std::size_t length = 0;
    std::uint8_t* dest = nullptr;
  };
  core::Status read_extents(const std::vector<Extent>& extents);

  // dpssWrite(): striped write-through at the current offset (ingest path).
  // Writes must be block-aligned and whole-block except the final block.
  // Each block travels ONCE, to its primary, which replicates it
  // server-side (chain for replicas, parity deltas for EC) under the
  // file's ack policy.
  core::Status write(const std::uint8_t* buf, std::size_t len);

  // Durable-copy policy for writes (default: every replica / parity owner
  // acked).  Relaxed policies acknowledge sooner; skipped targets catch up
  // through the master's fixup queue.  The freshness contract follows the
  // policy: under kAll every synchronous copy carries the acknowledged
  // generation, while under kQuorum/kPrimary a degraded read that falls
  // back to a skipped target (e.g. EC reconstruction through a parity
  // owner whose delta is still queued) can observe the pre-overwrite
  // bytes until Master::tick drains the fixups.
  void set_ack_policy(ingest::AckPolicy policy) { ack_policy_ = policy; }
  ingest::AckPolicy ack_policy() const { return ack_policy_; }

  // dpssClose(): hand the server connections back to the client's pool;
  // those of servers this file marked dead were closed when they failed.
  void close();

  // Total blocks fetched per server (load-balance introspection).
  std::vector<std::uint64_t> per_server_blocks() const;

  // Servers this file has locally marked dead (connect or mid-read
  // failure); indices into the open reply's server list.
  std::vector<int> dead_servers() const;
  // Block fetches that needed a second (or later) replica.
  std::uint64_t failover_reads() const { return failover_reads_.value(); }
  // Blocks recovered by erasure decoding (their data-slice owner was dead
  // and k surviving slices of the group were fetched instead).
  std::uint64_t reconstructed_reads() const {
    return reconstructed_reads_.value();
  }
  // The dataset's erasure-coding profile (disabled for replicated and
  // classic layouts).
  const codec::EcProfile& ec_profile() const { return ec_.profile(); }
  // Blocks whose write was acknowledged by fewer replicas than assigned
  // (the data is durable but under-replicated until a fixup or rebalance;
  // the lagging targets were reported to the master).
  std::uint64_t degraded_writes() const { return degraded_writes_.value(); }
  // Block fetches retried because a replica answered with a generation
  // older than one this file saw acknowledged (a lagging follower).
  std::uint64_t stale_read_retries() const { return stale_retries_.value(); }
  // Latest generation this file has seen acknowledged for `block` (0 when
  // the block was never overwritten as far as this file knows).
  std::uint64_t known_generation(std::uint64_t block) const {
    return known_gens_.latest(dataset_, block);
  }
  // Gossiped dataset-wide max-generation floor the open carried (PR 9):
  // *some* block of the dataset has reached this generation.  A floor is
  // dataset-granular, so it informs staleness heuristics and tooling --
  // per-block stale detection still rides known_generation().
  void set_generation_floor(std::uint64_t gen) { generation_floor_ = gen; }
  std::uint64_t dataset_generation_floor() const { return generation_floor_; }
  // The master's open-frequency hint for this dataset (kHot after repeated
  // opens): a caller deciding whether to enable_readahead() can consult it.
  void set_cache_hint(meta::CacheHint hint) { cache_hint_ = hint; }
  meta::CacheHint cache_hint() const { return cache_hint_; }

  // Request wire-level compression on subsequent block reads (section 5
  // future work).  kLossyQuant trades accuracy for bandwidth; the error
  // bound is (block max - min) / (2^bits - 1) per value.
  void set_compression(const CompressionConfig& config) { compression_ = config; }
  const CompressionConfig& compression() const { return compression_; }

  // Bytes that actually crossed the wire vs raw bytes delivered, for
  // effective-bandwidth reporting.
  std::uint64_t wire_bytes_received() const { return wire_bytes_.value(); }
  std::uint64_t raw_bytes_received() const { return raw_bytes_.value(); }

  // The file's metrics plane: every counter above plus
  // dpss_client_read_seconds / dpss_client_write_seconds latency
  // histograms, rendered the same way server registries are.
  obs::MetricsRegistry& metrics_registry() { return registry_; }

  // ---- request tracing ----
  // Arm NetLogger lifeline emission (the paper's NLV per-request
  // lifelines): each sampled read/write mints a trace id, logs
  // DPSS_READ/WRITE_START + END here, and stamps the id into the wire
  // header of every block request it issues, so the servers' SERV_IN/OUT
  // and CHAIN_FWD events join the same lifeline.  `sample_rate` in [0,1]
  // (0 disables tracing entirely -- the hot path sees one branch);
  // requests slower than `slow_threshold_seconds` additionally emit a
  // DPSS_SLOW_REQUEST event even when unsampled (0 = off).
  void enable_tracing(std::shared_ptr<netlog::NetLogger> logger,
                      double sample_rate = 1.0,
                      double slow_threshold_seconds = 0.0);

  // ---- client-side read-ahead ----
  // Attach a block cache plus a run-detecting prefetcher to this file:
  // sequential (or strided) dpssRead patterns trigger asynchronous fetches
  // of the next blocks over the same striped server connections, so WAN
  // transfer overlaps with whatever the caller does between reads (the
  // back end's render phase).  Cached entries are keyed by generation, so
  // a write through this file re-keys the block and the stale entry can
  // never serve again.  Call before issuing reads; not synchronized
  // against in-flight operations.
  void enable_readahead(const ReadaheadOptions& options = ReadaheadOptions());
  bool readahead_enabled() const { return ra_cache_ != nullptr; }
  // Cache counters incl. prefetch issues; zero-value when disabled.
  cache::MetricsSnapshot readahead_metrics() const;
  // Wait until no read-ahead fetch is in flight (tests).
  void drain_readahead();

 private:
  struct BlockRef {
    std::uint64_t block;
    std::uint64_t offset_in_block;
    std::size_t length;
    std::uint8_t* dest;
  };
  // One fetched block: payload plus the generation the server stamped it
  // with (0 for reconstructed blocks, which have no single server stamp).
  // A delivered block was copied from its reply frame straight into the
  // caller's buffers and keeps no bytes here.
  struct Fetched {
    std::vector<std::uint8_t> data;
    std::uint64_t generation = 0;
    bool delivered = false;
  };
  // The caller's buffers that want each block, for replies copied straight
  // out of their frames.
  using Deliveries = std::map<std::uint64_t, std::vector<const BlockRef*>>;
  core::Status fetch_blocks(std::vector<BlockRef> refs);
  // The one block-server fan-out: server s is sent one request per entry
  // of blocks[s] (the block it names), stamped with the active trace and
  // pipelined, all servers concurrently.  A server whose batch fails is
  // marked dead (reported against its first block), keeping the replies
  // that came before.  Returns the first failure.  Caller holds wire_mu_.
  core::Status exchange(const std::vector<std::vector<std::uint64_t>>& blocks,
                        const RequestSource& source, const ReplySink& on_reply);
  // Decode a block reply, decompressing it when the server did, and count
  // its wire and raw bytes.
  core::Result<BlockReadReply> take_block(const net::Message& msg);
  // Copy a raw reply's block from its frame into every buffer `to` names
  // for it, on the thread that received it.  False, with nothing copied,
  // when the reply must take the owned path instead: compressed, for a
  // block `to` does not name, from a lagging replica, or shorter than a
  // buffer wants.  Thread-safe for distinct blocks.
  bool deliver_block(const BlockReadView& reply, const Deliveries& to);
  // Fetch whole blocks from their owning servers in one exchange per
  // round; on a server failure the affected blocks retry against the
  // next live replica (or, erasure-coded, fall through to reconstruction).
  // A replica answering with a generation older than an acknowledged write
  // is skipped for that block and the fetch retried on the next replica.
  // With `deliver`, the blocks it names go straight into the caller's
  // buffers (deliver_block) and come back marked delivered.  Caller must
  // hold wire_mu_ (the per-server streams carry pipelined request/reply
  // pairs that must not interleave).
  core::Status fetch_wire_blocks(const std::vector<std::uint64_t>& blocks,
                                 std::map<std::uint64_t, Fetched>* received,
                                 const Deliveries* deliver = nullptr);
  // Degraded EC read: rebuild `blocks` (whose data-slice owners are dead)
  // from any k surviving slices per group.  Caller holds wire_mu_.
  core::Status reconstruct_blocks(const std::vector<std::uint64_t>& blocks,
                                  std::map<std::uint64_t, Fetched>* received);
  // One (dataset, block) request against one server, used by the slice
  // fetch path.  Caller holds wire_mu_.
  struct SliceFetch {
    std::uint32_t slice = 0;
    std::size_t server = 0;
    std::string dataset;
    std::uint64_t block = 0;
  };
  // Returns false when any server failed mid-fetch (the dead servers are
  // marked and reported; the caller re-plans against updated liveness).
  bool fetch_slices(const std::vector<SliceFetch>& fetches,
                    std::map<std::uint32_t, std::vector<std::uint8_t>>* out);
  void prefetch_fill(std::uint64_t block);

  // ---- write paths (all hold wire_mu_) ----
  // Server-driven pipeline: one IngestWriteRequest per block to its
  // primary, pipelined per primary connection in one exchange per round.
  core::Status write_chain(std::uint64_t first_block,
                           const std::uint8_t* src, std::size_t len);
  // Bookkeeping for one acknowledged ingest write: learn the generation,
  // re-key the read-ahead tier, count degradation, report missed targets
  // (matched against `deltas` so a missed parity owner's debt names the
  // parity block, not the data block).
  void account_write_ack(
      std::uint64_t block, const IngestWriteReply& reply,
      std::uint32_t targets,
      const std::vector<IngestWriteRequest::DeltaTarget>* deltas = nullptr);

  // Replica candidates for `block` in preference order (health class,
  // then load, then ring order), memoised per placement group.  Requires
  // placement_; classic layouts derive their single striped owner inline.
  // Includes dead servers; callers filter by server_alive_.
  const std::vector<std::uint32_t>& candidates_for_block(std::uint64_t block);
  // First live candidate not in `exclude`, or -1.  Caller holds wire_mu_.
  int pick_server(std::uint64_t block,
                  const std::set<std::size_t>* exclude = nullptr);
  // Mark a server dead and report the failure (caller holds wire_mu_).
  void mark_server_failed(std::size_t s, std::uint64_t block,
                          const core::Status& status);

  std::string dataset_;
  DatasetLayout layout_;
  std::shared_ptr<ServerPool> pool_;
  // One checked-out connection per server; null once the server is marked
  // dead (its stream is closed, never pooled) or the file is closed.
  std::vector<std::unique_ptr<ServerConn>> conns_;
  std::vector<ServerAddress> addresses_;
  std::shared_ptr<const placement::PlacementMap> placement_;
  std::vector<placement::HealthState> server_health_;
  std::vector<std::uint64_t> server_load_;
  FailureReporter reporter_;
  FixupReporter fixup_reporter_;
  std::uint64_t generation_floor_ = 0;
  meta::CacheHint cache_hint_ = meta::CacheHint::kNone;
  ingest::AckPolicy ack_policy_ = ingest::AckPolicy::kAll;
  // Latest acknowledged/observed generation per block (its own lock).
  ingest::GenerationMap known_gens_;
  // Per-server liveness as seen by this file (guarded by wire_mu_ on the
  // read path; write() also takes wire_mu_).
  std::vector<char> server_alive_;
  // Ranked replica candidates per placement group, memoised.
  std::map<std::uint64_t, std::vector<std::uint32_t>> group_candidates_;
  std::vector<std::uint64_t> per_server_blocks_;
  std::uint64_t offset_ = 0;
  CompressionConfig compression_;
  // EC view of the placement map and its decoder, built at construction
  // for erasure-coded datasets (invalid/null for replicated and classic
  // layouts -- the coding-matrix setup is O(k^3) but runs once per open).
  codec::StripeLayout ec_;
  std::unique_ptr<codec::ReedSolomon> rs_;
  // Metrics plane: registry_ precedes the instrument references it backs.
  obs::MetricsRegistry registry_;
  obs::Counter& wire_bytes_;
  obs::Counter& raw_bytes_;
  obs::Counter& failover_reads_;
  obs::Counter& reconstructed_reads_;
  obs::Counter& degraded_writes_;
  obs::Counter& stale_retries_;
  // Block bytes this file copied, by site: into write frames (encode), out
  // of reply frames into owned buffers (decode: compressed, EC and
  // read-ahead replies), and between the caller's buffer and the library
  // (user), which a plain read does straight from the reply frame.
  obs::Counter& copy_encode_;
  obs::Counter& copy_decode_;
  obs::Counter& copy_user_;
  obs::Histogram& read_seconds_;
  obs::Histogram& write_seconds_;
  // Tracing plane (enable_tracing): the logger lifeline events go to, the
  // sampling gate, and the trace the current wire round carries (guarded
  // by wire_mu_ like the streams it is stamped onto).
  std::shared_ptr<netlog::NetLogger> logger_;
  obs::TraceSampler sampler_;
  double slow_threshold_ = 0.0;
  obs::TraceContext active_trace_;
  // Serialises wire activity between the demand path and read-ahead tasks.
  mutable std::mutex wire_mu_;
  // Teardown order: the prefetcher drains before the pool and cache die.
  std::unique_ptr<cache::BlockCache> ra_cache_;
  std::unique_ptr<core::ThreadPool> ra_pool_;
  std::unique_ptr<cache::Prefetcher> prefetcher_;
};

}  // namespace visapult::dpss
