// DPSS wire protocol.
//
// The Distributed Parallel Storage System [1] is "a data block server ...
// providing parallelism at the disk, server, and network level".  Its
// architecture (paper Fig. 7): a *master* performs logical-to-physical
// block lookup, access control and load balancing; *block servers* hold the
// data blocks on their parallel disks; the *client library* talks to the
// master once per open, then streams block requests directly to the servers
// over one pooled connection per server.
//
// All messages are framed with net::Message.  Each message below is one
// struct, and protocol.cpp gives each struct one field list in wire order:
// encode() and decode<T>() are both generated from it, so client, master
// and server cannot drift apart.  decode<T>() checks the frame type, every
// length and element count against the bytes left before allocating, every
// enum against its range and every narrowed integer (ports) against its
// field, and answers anything else with kDataLoss.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "codec/ec_profile.h"
#include "core/status.h"
#include "dpss/compression.h"
#include "ingest/ack_policy.h"
#include "meta/gossip.h"
#include "meta/log.h"
#include "meta/types.h"
#include "net/message.h"
#include "obs/span.h"
#include "placement/health.h"
#include "placement/server_address.h"

namespace visapult::dpss {

// Logical block size.  64 KB matches the DPSS's period configuration.
// (The constant and DatasetLayout moved to meta/types.h with the sharded
// metadata plane; the aliases keep every existing caller compiling.)
inline constexpr std::uint32_t kDefaultBlockBytes = meta::kDefaultBlockBytes;

// Numbers are pinned: a retired message keeps its number reserved.
enum MessageType : std::uint32_t {
  kOpenRequest = 0x4450531,
  kOpenReply = 0x4450532,
  kBlockReadRequest = 0x4450533,
  kBlockReadReply = 0x4450534,
  kBlockWriteRequest = 0x4450535,
  kBlockWriteReply = 0x4450536,
  // 0x4450537 and 0x4450538: retired close request/reply.
  kErrorReply = 0x4450539,
  // Placement subsystem (PR 3): server -> master liveness/load beats and
  // client -> master I/O failure reports.
  kHeartbeat = 0x445053a,
  kHeartbeatReply = 0x445053b,
  kFailureReport = 0x445053c,
  kFailureReportReply = 0x445053d,
  // Ingest pipeline (PR 5): server-driven mutations.  An ingest write goes
  // to the block's *primary*, which pipelines it down the replica chain
  // (server-to-server) and ships GF parity deltas to EC parity owners; the
  // fixup report tells the master which targets missed the generation.
  kIngestWriteRequest = 0x445053e,
  kIngestWriteReply = 0x445053f,
  kParityDeltaRequest = 0x4450540,
  kParityDeltaReply = 0x4450541,
  kFixupReport = 0x4450542,
  kFixupReportReply = 0x4450543,
  // Observability: any component (master or block server) answers an
  // introspection request with text (see IntrospectKind).
  kIntrospectRequest = 0x4450544,
  kIntrospectReply = 0x4450545,
  // Trace aggregation (PR 8): components batch-ship finished span records
  // from their NetLogger sinks to the master's SpanCollector.
  kSpanExportRequest = 0x4450546,
  kSpanExportReply = 0x4450547,
  // 0x4450548 and 0x4450549: retired trace-report request/reply.
  // Sharded metadata plane (PR 9): epoch-numbered placement deltas
  // (client catch-up after a cached open), leader -> follower log
  // replication, and per-member shard status for tooling.
  kPlacementDeltaRequest = 0x445054a,
  kPlacementDeltaReply = 0x445054b,
  kMetaAppendRequest = 0x445054c,
  kMetaAppendReply = 0x445054d,
  kMetaStatusRequest = 0x445054e,
  kMetaStatusReply = 0x445054f,
  // 0x4450550 and 0x4450551: retired profile request/reply.
};

// ---- master <-> client ------------------------------------------------------

struct OpenRequest {
  std::string dataset;
  std::string auth_token;
  // Epoch of the client's cached catalog entry for this dataset (0 = no
  // cache).  A master whose entry still carries this epoch answers with a
  // tiny not_modified reply instead of the full placement snapshot.
  std::uint64_t known_epoch = 0;
};

using DatasetLayout = meta::DatasetLayout;

// One type with the placement subsystem's server identity, so the master's
// health/ring bookkeeping and the wire protocol never translate addresses.
using ServerAddress = placement::ServerAddress;

struct OpenReply {
  std::uint64_t handle = 0;
  DatasetLayout layout;
  std::vector<ServerAddress> servers;

  // ---- replica-aware placement (PR 3) ----
  // With ring_vnodes == 0 the dataset uses the classic striped layout
  // (layout.server_for_block, exactly one copy).  With ring_vnodes > 0 the
  // client rebuilds the consistent-hash ring over `servers` and derives
  // each block's ReplicaSet locally; health/load are the master's
  // open-time snapshot (indexed like `servers`) used to rank replicas
  // least-loaded-live-first.
  std::uint32_t replication_factor = 1;
  std::uint32_t ring_vnodes = 0;
  std::vector<placement::HealthState> server_health;
  std::vector<std::uint64_t> server_load;

  // ---- erasure coding (PR 4) ----
  // An enabled profile means the dataset is stored as (k, m) Reed-Solomon
  // slice groups instead of whole-block replicas: the client rebuilds the
  // same ring, maps each block to its data-slice owner for the fast path,
  // and reconstructs lost blocks from any k surviving slices of the
  // block's group.  Requires ring_vnodes > 0.
  codec::EcProfile ec;

  // ---- sharded metadata plane (PR 9) ----
  // Epoch of the catalog entry this reply describes.  Clients cache the
  // reply per dataset keyed by this and send it back as
  // OpenRequest::known_epoch on the next open.
  std::uint64_t catalog_epoch = 0;
  // True when the client's known_epoch still matches: the placement
  // fields above are left empty and the client reuses its cached entry.
  bool not_modified = false;
  // Gossiped per-dataset max-generation floor (0 = nothing gossiped yet)
  // and cache-priority hint, piggybacked so generation knowledge spreads
  // without extra round-trips.
  std::uint64_t max_generation = 0;
  meta::CacheHint cache_hint = meta::CacheHint::kNone;
};

// Liveness + load beat, sent to the master on behalf of a block server.
struct HeartbeatRequest {
  ServerAddress server;
  std::uint64_t requests_served = 0;
  // Per-dataset max generations the server has stored: the upward half of
  // the generation gossip, merged into the master's floors.
  std::vector<meta::GenerationFloor> floors;
};

// The master's merged floor snapshot rides back down, so generation
// knowledge gossips both ways on the beat that already flows.
struct HeartbeatReply {
  std::vector<meta::GenerationFloor> floors;
};

// A client-side I/O error against one block server, reported to the master
// so its health tracking demotes the server for subsequent opens.
struct FailureReport {
  ServerAddress server;
  std::string dataset;
  std::uint64_t block = 0;
  std::string reason;
};

// ---- server <-> client -------------------------------------------------------

struct BlockReadRequest {
  std::string dataset;
  std::uint64_t block = 0;
  // Wire-level compression requested by the client (section 5 future
  // work); kNone preserves the classic protocol.
  CompressionConfig compression;
};

struct BlockReadReply {
  std::uint64_t block = 0;
  // Raw block bytes when `compressed` is false; a compress_block() frame
  // otherwise.
  bool compressed = false;
  std::vector<std::uint8_t> data;
  // Ingest generation of the served bytes (0 for never-overwritten
  // blocks).  Clients use it to key their read-ahead tier and to detect a
  // replica serving data older than an acknowledged write.
  std::uint64_t generation = 0;
};

struct BlockWriteRequest {
  std::string dataset;
  std::uint64_t block = 0;
  std::vector<std::uint8_t> data;
  // 0 preserves the block's current generation (ingest/migration fills);
  // non-zero stamps the write, which the server rejects as stale when the
  // block already carries a newer generation.
  std::uint64_t generation = 0;
};

struct BlockWriteReply {
  std::uint64_t block = 0;
};

// ---- ingest pipeline (server-driven mutations) -------------------------------

// A chain-replicated (or parity-delta) write, sent by the client to the
// block's primary and forwarded by each chain member to the next.
struct IngestWriteRequest {
  std::string dataset;
  std::uint64_t block = 0;
  // 0 on the client->primary hop: the primary allocates current + 1 and
  // every forwarded hop carries the allocated stamp, so all replicas agree.
  std::uint64_t generation = 0;
  ingest::AckPolicy ack_policy = ingest::AckPolicy::kAll;
  std::vector<std::uint8_t> data;
  // Remaining replica chain after the receiving server (addresses, in ring
  // order).  The receiver applies locally, then forwards to chain[0] with
  // the tail.
  std::vector<ServerAddress> chain;
  // EC overwrites: parity owners to ship the GF delta to.  The receiving
  // server computes delta = new ^ old and sends each target a
  // ParityDeltaRequest; servers themselves stay EC-agnostic.
  struct DeltaTarget {
    ServerAddress server;
    std::string dataset;   // "<name>#parity"
    std::uint64_t block = 0;
    std::uint8_t coefficient = 0;
  };
  std::vector<DeltaTarget> deltas;
};

struct IngestWriteReply {
  std::uint64_t block = 0;
  std::uint64_t generation = 0;  // the stamp the write landed under
  std::uint32_t acks = 0;        // servers that durably applied it
  // Chain members / parity owners that did NOT apply (policy-truncated or
  // failed mid-pipeline); the client reports each to the master's fixup
  // queue.
  std::vector<ServerAddress> missed;
};

// Delta shipped from a data-slice primary to one parity owner:
// stored[block] ^= coefficient * delta, applied with the bulk GF kernel.
struct ParityDeltaRequest {
  std::string dataset;  // "<name>#parity"
  std::uint64_t block = 0;
  std::uint8_t coefficient = 0;
  std::vector<std::uint8_t> delta;
};

struct ParityDeltaReply {
  std::uint64_t block = 0;
  std::uint64_t generation = 0;  // parity block's generation after apply
};

// Client -> master: `target` missed `generation` of (dataset, block); the
// master's fixup queue re-syncs it in the background (Master::tick).
struct FixupReport {
  std::string dataset;
  std::uint64_t block = 0;
  std::uint64_t generation = 0;
  ServerAddress target;
};

// ---- sharded metadata plane -------------------------------------------------

// Client -> any shard member: placement history since `since_epoch`.
// An empty dataset asks for the whole shard catalog (tooling); otherwise
// only entries touching `dataset` are returned.
struct PlacementDeltaRequest {
  std::string dataset;
  std::uint64_t since_epoch = 0;
};

struct PlacementDeltaReply {
  // True when the log window no longer reaches back to since_epoch: the
  // entries are a full catalog snapshot (kRegister per dataset) and the
  // client must rebuild instead of replaying.
  bool snapshot = false;
  // The shard's log epoch after applying `entries`.
  std::uint64_t epoch = 0;
  std::vector<meta::LogEntry> entries;
};

// Leader -> follower: replicate one log entry.  A follower that is not at
// entry.epoch - 1 rejects and reports its epoch so the leader can resend
// the gap from its window.
struct MetaAppendRequest {
  meta::LogEntry entry;
};

struct MetaAppendReply {
  bool accepted = false;
  std::uint64_t follower_epoch = 0;
};

// Per-member shard status for dpss_tool and tests, asked for with an empty
// request.
struct MetaStatusRequest {};

struct MetaStatus {
  std::uint32_t shard_id = 0;
  std::uint32_t shard_count = 1;
  bool is_leader = true;
  std::uint64_t epoch = 0;
  ServerAddress address;
  std::uint64_t datasets = 0;
  std::uint64_t delta_opens = 0;
  std::uint64_t snapshot_opens = 0;
  std::uint64_t forwarded_opens = 0;
  std::uint64_t leader_elections = 0;
};

// ---- observability -----------------------------------------------------------

// Span export: one batch of finished spans from `host`, stamped with the
// producer's clock at send time so the collector can bound the host's
// clock offset against its own arrival stamp.
struct SpanExportBatch {
  std::string host;
  double sent_at = 0.0;
  std::vector<obs::SpanRecord> spans;
};

// How many spans the collector accepted.
struct SpanExportReply {
  std::uint64_t accepted = 0;
};

// What an introspection request asks the answering process for.
enum class IntrospectKind : std::uint8_t {
  // The component's metrics registry as Prometheus-style exposition text.
  kStats = 0,
  // Master only: the collector's slowest-trace critical-path breakdown
  // plus the alert engine's status text.
  kTraceReport = 1,
  // The process's flamegraph-collapsed stage profile ("a;b;c count"
  // lines); empty when its obs::Profiler is not sampling.
  kProfile = 2,
};

struct IntrospectRequest {
  IntrospectKind kind = IntrospectKind::kStats;
};

struct IntrospectReply {
  std::string text;
};

// ---- encode / decode ---------------------------------------------------------

// Defined in protocol.cpp for every message struct above.  decode<T>() of
// a reply turns a kErrorReply frame into its Status; decode<T>() of a
// request rejects it like any other wrong type.
template <typename T>
net::Message encode(const T& message);
template <typename T>
core::Result<T> decode(const net::Message& m);

net::Message encode_error_reply(const core::Status& status);
// OK for any frame but kErrorReply; kDataLoss for a malformed one (an
// error frame must carry a non-OK code).
core::Status decode_error_reply(const net::Message& m);

// bench_e2e/probes.cpp times the reply codec under these two names.
inline net::Message encode_block_read_reply(const BlockReadReply& r) {
  return encode(r);
}
inline core::Result<BlockReadReply> decode_block_read_reply(
    const net::Message& m) {
  return decode<BlockReadReply>(m);
}

// Opens a transport to a server address.  Pipe deployments and TCP
// deployments provide different connectors; the client library and the
// block servers' chain-forwarding hops are both agnostic.
using Connector =
    std::function<core::Result<net::StreamPtr>(const ServerAddress&)>;

}  // namespace visapult::dpss
