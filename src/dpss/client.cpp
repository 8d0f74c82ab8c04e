#include "dpss/client.h"

#include <algorithm>
#include <cstring>
#include <future>
#include <map>
#include <set>

#include "core/clock.h"
#include "ingest/chain.h"
#include "ingest/parity_delta.h"
#include "netlog/event.h"
#include "obs/profiler.h"

namespace visapult::dpss {

// One pooled block-server connection: the stream, plus the I/O worker that
// runs this connection's batch of an exchange while the caller runs
// another.  The worker starts on first need and lives with the connection,
// across every file that checks it out.
struct ServerConn {
  net::StreamPtr stream;
  // Dialled for its current holder, or has answered it since checkout.
  bool proven = true;
  std::unique_ptr<core::ThreadPool> io;

  ~ServerConn() { stream->close(); }
};

// Idle block-server connections by address, shared by a client and every
// file it opened (files may outlive their client).  No cap: a connection
// is either checked out by exactly one holder or idle here.
class ServerPool {
 public:
  explicit ServerPool(Connector dial) : dial_(std::move(dial)) {}

  // An idle connection to `addr`, else a fresh dial.
  core::Result<std::unique_ptr<ServerConn>> checkout(
      const ServerAddress& addr) {
    {
      std::lock_guard lk(mu_);
      auto& idle = idle_[addr];
      if (!idle.empty()) {
        auto conn = std::move(idle.back());
        idle.pop_back();
        return conn;
      }
    }
    auto stream = dial_(addr);
    if (!stream.is_ok()) return stream.status();
    auto conn = std::make_unique<ServerConn>();
    conn->stream = std::move(stream).take();
    return conn;
  }

  // Park a connection whose stream is in step (every reply read).
  void checkin(const ServerAddress& addr, std::unique_ptr<ServerConn> conn) {
    conn->proven = false;
    std::lock_guard lk(mu_);
    idle_[addr].push_back(std::move(conn));
  }

  // One server's share of an exchange.
  struct Leg {
    std::size_t server = 0;
    ServerConn* conn = nullptr;
    const ServerAddress* addr = nullptr;
    std::size_t requests = 0;
    core::Status status;
  };

  // Runs every leg concurrently -- each on its connection's I/O worker, the
  // first on the calling thread.
  void exchange(std::vector<Leg>& legs, const RequestSource& request,
                const ReplySink& on_reply) {
    std::vector<std::future<void>> done;
    for (std::size_t i = 1; i < legs.size(); ++i) {
      ServerConn& conn = *legs[i].conn;
      if (!conn.io) conn.io = std::make_unique<core::ThreadPool>(1);
      done.push_back(conn.io->submit([&, &leg = legs[i]] {
        leg.status = run(leg, request, on_reply);
      }));
    }
    if (!legs.empty()) legs[0].status = run(legs[0], request, on_reply);
    for (auto& d : done) d.get();
  }

  // One request/reply on a connection checked out for the call: its only
  // user, so no file's pipelined batches interleave with it.
  core::Result<net::Message> roundtrip(const ServerAddress& addr,
                                       const net::Message& request) {
    auto conn = checkout(addr);
    if (!conn.is_ok()) return conn.status();
    Leg leg{0, conn.value().get(), &addr, 1, {}};
    net::Message reply;
    const core::Status st = run(
        leg, [&request](std::size_t, std::size_t) { return request; },
        [&reply](std::size_t, std::size_t, net::Message& m) {
          reply = std::move(m);
          return core::Status::ok();
        });
    if (!st.is_ok()) return st;
    checkin(addr, std::move(conn).take());
    return reply;
  }

 private:
  // A pooled stream that fails before its first reply may have outlived
  // its server's restart while it sat idle: it is redialled once and the
  // batch re-sent.  Re-sending is safe even for writes -- that server end
  // had closed, so nothing sent on the old stream was served.  Only a
  // proven stream's failure counts.  noexcept: legs on other threads still
  // use `legs`, so an exception must not unwind past exchange().
  core::Status run(Leg& leg, const RequestSource& request,
                   const ReplySink& on_reply) noexcept {
    const core::Status st = pipeline(leg, request, on_reply);
    if (st.is_ok() || leg.conn->proven) return st;
    leg.conn->stream->close();
    auto fresh = dial_(*leg.addr);
    if (!fresh.is_ok()) return fresh.status();
    leg.conn->stream = std::move(fresh).take();
    leg.conn->proven = true;
    return pipeline(leg, request, on_reply);
  }

  // Send every request, then read every reply.
  static core::Status pipeline(Leg& leg, const RequestSource& request,
                               const ReplySink& on_reply) noexcept {
    net::ByteStream& stream = *leg.conn->stream;
    for (std::size_t i = 0; i < leg.requests; ++i) {
      const core::Status st = net::send_message(stream, request(leg.server, i));
      if (!st.is_ok()) return st;
    }
    for (std::size_t i = 0; i < leg.requests; ++i) {
      auto reply = net::recv_message(stream);
      if (!reply.is_ok()) return reply.status();
      leg.conn->proven = true;
      const core::Status st = on_reply(leg.server, i, reply.value());
      if (!st.is_ok()) return st;
    }
    return core::Status::ok();
  }

  const Connector dial_;
  std::mutex mu_;
  std::map<ServerAddress, std::vector<std::unique_ptr<ServerConn>>> idle_;
};

DpssClient::DpssClient(net::StreamPtr master, Connector connector)
    : master_(std::make_shared<MasterLink>()),
      connector_(std::move(connector)),
      pool_(std::make_shared<ServerPool>(connector_)),
      meta_(std::make_shared<MetaState>()) {
  master_->stream = std::move(master);
}

core::Result<std::unique_ptr<DpssFile>> DpssClient::open(
    const std::string& dataset, const std::string& auth_token) {
  OBS_STAGE("client.open");
  OpenRequest req;
  req.dataset = dataset;
  req.auth_token = auth_token;
  {
    // Delta open: carry the epoch we already hold so an unchanged catalog
    // entry comes back as a tiny not_modified reply.
    std::lock_guard lk(meta_->mu);
    auto it = meta_->open_cache.find(dataset);
    if (it != meta_->open_cache.end()) req.known_epoch = it->second.epoch;
  }
  // Traced opens carry the trace on the wire OpenRequest so the master's
  // MASTER_IN/OUT events join this lifeline as a child hop.
  obs::TraceContext trace;
  if (open_logger_) {
    trace.trace_id = obs::new_trace_id();
    trace.span_id = obs::new_span_id();
    open_logger_->log(netlog::tags::kDpssOpenStart, -1, -1,
                      {{"TRACE", obs::trace_hex(trace.trace_id)},
                       {"SPAN", obs::trace_hex(trace.span_id)},
                       {"DATASET", dataset}});
  }
  net::Message open_msg = encode(req);
  open_msg.trace_id = trace.trace_id;
  open_msg.span_id = trace.sampled() ? obs::new_span_id() : 0;
  // The link the open went through also carries this file's failure and
  // fixup reports (sharded: the member that answered).
  std::shared_ptr<MasterLink> served = master_;
  auto reply_msg =
      meta_->sharded ? shard_roundtrip(meta_->shard_map.shard_for(dataset),
                                       open_msg, dataset, &served)
                     : master_->roundtrip(open_msg);
  if (!reply_msg.is_ok()) return reply_msg.status();
  auto decoded = decode<OpenReply>(reply_msg.value());
  if (!decoded.is_ok()) return decoded.status();
  OpenReply open_reply = std::move(decoded).take();
  if (trace.sampled()) {
    open_logger_->log(netlog::tags::kDpssOpenEnd, -1, -1,
                      {{"TRACE", obs::trace_hex(trace.trace_id)},
                       {"SPAN", obs::trace_hex(trace.span_id)},
                       {"DATASET", dataset}});
  }

  std::shared_ptr<const placement::PlacementMap> map;
  if (open_reply.not_modified) {
    // Epoch matched: the wire reply carried only epoch + gossip fields.
    // Splice the cached placement body back in -- no ring rebuild.
    std::lock_guard lk(meta_->mu);
    auto it = meta_->open_cache.find(dataset);
    if (it == meta_->open_cache.end()) {
      return core::internal_error(
          "not_modified open without a cached entry for " + dataset);
    }
    const std::uint64_t epoch = open_reply.catalog_epoch;
    const std::uint64_t floor = open_reply.max_generation;
    const meta::CacheHint hint = open_reply.cache_hint;
    open_reply = it->second.reply;
    open_reply.catalog_epoch = epoch;
    open_reply.max_generation = floor;
    open_reply.cache_hint = hint;
    map = it->second.map;
    ++meta_->delta_opens;
  } else {
    // Replicated and erasure-coded datasets: rebuild the master's ring
    // locally so block -> replica/slice lookup needs no further master
    // round trips.
    if (open_reply.ring_vnodes > 0) {
      placement::HashRing ring(open_reply.servers,
                               static_cast<int>(open_reply.ring_vnodes));
      map = std::make_shared<const placement::PlacementMap>(
          dataset, std::move(ring), open_reply.layout.block_count(),
          open_reply.layout.stripe_blocks, open_reply.replication_factor,
          open_reply.ec);
    }
    std::lock_guard lk(meta_->mu);
    CachedOpen cached;
    cached.epoch = open_reply.catalog_epoch;
    cached.reply = open_reply;
    cached.map = map;
    meta_->open_cache[dataset] = std::move(cached);
    ++meta_->snapshot_opens;
  }

  // Failure and fixup reports ride the master connection (best effort);
  // the shared link keeps it alive for files that outlive this client.
  FailureReporter reporter = [link = served](const FailureReport& report) {
    (void)link->roundtrip(encode(report));
  };
  FixupReporter fixup_reporter = [link = served](const FixupReport& report) {
    (void)link->roundtrip(encode(report));
  };

  // A dead server is survivable whenever the dataset has redundancy --
  // replica copies or parity slices.
  const bool replicated =
      map && (open_reply.replication_factor > 1 || open_reply.ec.enabled());
  std::vector<std::unique_ptr<ServerConn>> conns;
  conns.reserve(open_reply.servers.size());
  int live = 0;
  for (const auto& addr : open_reply.servers) {
    auto conn = pool_->checkout(addr);
    if (!conn.is_ok()) {
      if (!replicated) return conn.status();
      // A dead server is survivable with replicas: mark it, tell the
      // master, and open degraded.
      reporter(FailureReport{addr, dataset, 0,
                             "connect failed: " + conn.status().to_string()});
      conns.push_back(nullptr);
      continue;
    }
    conns.push_back(std::move(conn).take());
    ++live;
  }
  if (live == 0) {
    return core::unavailable("no block server reachable for " + dataset);
  }
  auto file = std::make_unique<DpssFile>(
      dataset, open_reply.layout, pool_, std::move(conns),
      std::move(open_reply.servers), std::move(map),
      std::move(open_reply.server_health), std::move(open_reply.server_load),
      std::move(reporter), std::move(fixup_reporter));
  file->set_generation_floor(open_reply.max_generation);
  file->set_cache_hint(open_reply.cache_hint);
  return file;
}

void DpssClient::enable_sharded_meta(
    meta::ShardMap shard_map, std::vector<std::vector<ServerAddress>> members,
    Connector master_connector) {
  std::lock_guard lk(meta_->mu);
  meta_->shard_map = std::move(shard_map);
  meta_->shard_members = std::move(members);
  meta_->master_connector =
      master_connector ? std::move(master_connector) : connector_;
  meta_->sharded = true;
}

std::uint64_t DpssClient::cached_epoch(const std::string& dataset) const {
  std::lock_guard lk(meta_->mu);
  auto it = meta_->open_cache.find(dataset);
  return it == meta_->open_cache.end() ? 0 : it->second.epoch;
}

std::uint64_t DpssClient::delta_opens() const {
  std::lock_guard lk(meta_->mu);
  return meta_->delta_opens;
}

std::uint64_t DpssClient::snapshot_opens() const {
  std::lock_guard lk(meta_->mu);
  return meta_->snapshot_opens;
}

std::uint64_t DpssClient::master_failovers() const {
  std::lock_guard lk(meta_->mu);
  return meta_->master_failovers;
}

std::uint64_t DpssClient::master_failure_reports() const {
  std::lock_guard lk(meta_->mu);
  return meta_->master_failure_reports;
}

std::shared_ptr<DpssClient::MasterLink> DpssClient::link_for(
    const ServerAddress& addr) {
  std::shared_ptr<MasterLink> link;
  Connector dial;
  {
    std::lock_guard lk(meta_->mu);
    auto& slot = meta_->links[addr.key()];
    if (!slot) slot = std::make_shared<MasterLink>();
    link = slot;
    dial = meta_->master_connector ? meta_->master_connector : connector_;
  }
  std::lock_guard lk(link->mu);
  if (!link->stream) {
    auto stream = dial(addr);
    if (!stream.is_ok()) return nullptr;
    link->stream = std::move(stream).take();
  }
  return link;
}

core::Result<net::Message> DpssClient::shard_roundtrip(
    std::uint32_t shard, const net::Message& msg, const std::string& dataset,
    std::shared_ptr<MasterLink>* served_by) {
  // Owner shard's members first (leader-first order), then every other
  // shard's members as a last resort -- a non-owner shard forwards the
  // open to the owner's leader.
  std::vector<ServerAddress> order;
  {
    std::lock_guard lk(meta_->mu);
    if (shard < meta_->shard_members.size()) {
      order = meta_->shard_members[shard];
    }
    for (std::size_t s = 0; s < meta_->shard_members.size(); ++s) {
      if (s == shard) continue;
      for (const auto& a : meta_->shard_members[s]) order.push_back(a);
    }
  }
  if (order.empty()) {
    return core::unavailable("no master shard members configured");
  }
  std::vector<ServerAddress> dead;
  core::Status last = core::unavailable("no master shard member reachable");
  for (const auto& addr : order) {
    auto link = link_for(addr);
    if (!link) {
      dead.push_back(addr);
      std::lock_guard lk(meta_->mu);
      ++meta_->master_failovers;
      continue;
    }
    core::Result<net::Message> got = link->roundtrip(msg);
    if (!got.is_ok()) {
      // Transport death mid-request: drop the stream so the next attempt
      // re-dials, and move on to the next member.
      {
        std::lock_guard lk(link->mu);
        link->stream = nullptr;
      }
      {
        std::lock_guard lk(meta_->mu);
        ++meta_->master_failovers;
      }
      dead.push_back(addr);
      last = got.status();
      continue;
    }
    // Tell the member that answered which endpoints died on the way here:
    // master endpoints are first-class ServerAddress identities, so the
    // shard's health tracker can act on client evidence (satellite S2).
    for (const auto& d : dead) report_master_failure(link, d, dataset);
    if (served_by) *served_by = link;
    return got;
  }
  return last;
}

void DpssClient::report_master_failure(const std::shared_ptr<MasterLink>& via,
                                       const ServerAddress& dead,
                                       const std::string& dataset) {
  FailureReport report{dead, dataset, 0, "master unreachable from client"};
  if (!via->roundtrip(encode(report)).is_ok()) return;
  std::lock_guard lk(meta_->mu);
  ++meta_->master_failure_reports;
}

core::Result<std::uint64_t> DpssClient::pull_deltas(std::uint32_t shard,
                                                    const std::string& dataset,
                                                    std::uint64_t since) {
  PlacementDeltaRequest req;
  req.dataset = dataset;
  req.since_epoch = since;
  const net::Message msg = encode(req);
  auto got = meta_->sharded ? shard_roundtrip(shard, msg, dataset, nullptr)
                            : master_->roundtrip(msg);
  if (!got.is_ok()) return got.status();
  auto reply = decode<PlacementDeltaReply>(got.value());
  if (!reply.is_ok()) return reply.status();
  // Entries are self-contained full-state records, so replaying a delta
  // run and installing a snapshot go through the same apply loop and
  // converge on identical state.
  for (const auto& entry : reply.value().entries) {
    if (auto st = meta_->mirror.apply(entry); !st.is_ok()) return st;
  }
  return reply.value().epoch;
}

core::Result<std::uint64_t> DpssClient::sync_placement(
    const std::string& dataset) {
  std::uint64_t since = 0;
  if (auto entry = meta_->mirror.lookup(dataset)) since = entry->epoch;
  auto epoch =
      pull_deltas(meta_->shard_map.shard_for(dataset), dataset, since);
  if (!epoch.is_ok()) return epoch;
  // Refresh the open cache from the mirror so the next open's known_epoch
  // matches the synced state and a not_modified reply splices current
  // placement, not the pre-sync body.
  if (auto entry = meta_->mirror.lookup(dataset)) {
    std::lock_guard lk(meta_->mu);
    auto it = meta_->open_cache.find(dataset);
    if (it != meta_->open_cache.end() && it->second.epoch != entry->epoch) {
      CachedOpen& cached = it->second;
      cached.epoch = entry->epoch;
      cached.map = entry->map;
      OpenReply& rep = cached.reply;
      rep.catalog_epoch = entry->epoch;
      rep.layout = entry->layout;
      rep.servers = entry->servers;
      rep.replication_factor = std::min<std::uint32_t>(
          entry->placement.replication_factor,
          entry->servers.empty()
              ? 1u
              : static_cast<std::uint32_t>(entry->servers.size()));
      rep.ring_vnodes =
          entry->placement.uses_ring()
              ? (entry->placement.ring_vnodes > 0
                     ? entry->placement.ring_vnodes
                     : static_cast<std::uint32_t>(placement::kDefaultVnodes))
              : 0;
      rep.ec = entry->placement.ec;
      // Health/load are open-time hints; the sync has no fresher snapshot
      // than "everyone up, unloaded".
      rep.server_health.assign(entry->servers.size(),
                               placement::HealthState::kUp);
      rep.server_load.assign(entry->servers.size(), 0);
    }
  }
  return epoch;
}

core::Result<std::uint64_t> DpssClient::sync_shard(std::uint32_t shard) {
  std::uint64_t since = 0;
  {
    std::lock_guard lk(meta_->mu);
    auto it = meta_->shard_epochs.find(shard);
    if (it != meta_->shard_epochs.end()) since = it->second;
  }
  auto epoch = pull_deltas(shard, "", since);
  if (!epoch.is_ok()) return epoch;
  std::lock_guard lk(meta_->mu);
  meta_->shard_epochs[shard] = epoch.value();
  return epoch;
}

core::Result<net::Message> DpssClient::MasterLink::roundtrip(
    const net::Message& msg) {
  std::lock_guard lk(mu);
  if (!stream) return core::unavailable("master connection closed");
  if (auto st = net::send_message(*stream, msg); !st.is_ok()) return st;
  return net::recv_message(*stream);
}

namespace {

core::Result<std::string> introspect_text(core::Result<net::Message> msg) {
  if (!msg.is_ok()) return msg.status();
  auto reply = decode<IntrospectReply>(msg.value());
  if (!reply.is_ok()) return reply.status();
  return std::move(reply.value().text);
}

}  // namespace

core::Result<std::string> DpssClient::introspect(IntrospectKind kind) {
  return introspect_text(master_->roundtrip(encode(IntrospectRequest{kind})));
}

core::Result<std::string> DpssClient::introspect(const ServerAddress& addr,
                                                 IntrospectKind kind) {
  return introspect_text(
      pool_->roundtrip(addr, encode(IntrospectRequest{kind})));
}

void DpssClient::enable_open_tracing(
    std::shared_ptr<netlog::NetLogger> logger) {
  open_logger_ = std::move(logger);
}

core::Result<std::uint64_t> DpssClient::export_spans(
    const std::string& host, double sent_at,
    const std::vector<obs::SpanRecord>& spans) {
  SpanExportBatch batch;
  batch.host = host;
  batch.sent_at = sent_at;
  batch.spans = spans;
  auto msg = master_->roundtrip(encode(batch));
  if (!msg.is_ok()) return msg.status();
  auto reply = decode<SpanExportReply>(msg.value());
  if (!reply.is_ok()) return reply.status();
  return reply.value().accepted;
}

DpssFile::DpssFile(std::string dataset, DatasetLayout layout,
                   std::shared_ptr<ServerPool> pool,
                   std::vector<std::unique_ptr<ServerConn>> conns,
                   std::vector<ServerAddress> addresses,
                   std::shared_ptr<const placement::PlacementMap> placement,
                   std::vector<placement::HealthState> server_health,
                   std::vector<std::uint64_t> server_load,
                   FailureReporter reporter, FixupReporter fixup_reporter)
    : dataset_(std::move(dataset)),
      layout_(layout),
      pool_(std::move(pool)),
      conns_(std::move(conns)),
      addresses_(std::move(addresses)),
      placement_(std::move(placement)),
      server_health_(std::move(server_health)),
      server_load_(std::move(server_load)),
      reporter_(std::move(reporter)),
      fixup_reporter_(std::move(fixup_reporter)),
      per_server_blocks_(conns_.size(), 0),
      wire_bytes_(registry_.counter("dpss_client_wire_bytes_total")),
      raw_bytes_(registry_.counter("dpss_client_raw_bytes_total")),
      failover_reads_(registry_.counter("dpss_client_failover_reads_total")),
      reconstructed_reads_(
          registry_.counter("dpss_client_reconstructed_reads_total")),
      degraded_writes_(registry_.counter("dpss_client_degraded_writes_total")),
      stale_retries_(
          registry_.counter("dpss_client_stale_read_retries_total")),
      read_seconds_(registry_.histogram("dpss_client_read_seconds")),
      write_seconds_(registry_.histogram("dpss_client_write_seconds")) {
  server_alive_.reserve(conns_.size());
  for (const auto& c : conns_) server_alive_.push_back(c ? 1 : 0);
  if (placement_ && placement_->erasure_coded()) {
    ec_ = codec::StripeLayout(placement_);
    rs_ = std::make_unique<codec::ReedSolomon>(ec_.profile());
  }
}

DpssFile::~DpssFile() { close(); }

std::int64_t DpssFile::lseek(std::int64_t offset, Whence whence) {
  std::int64_t base = 0;
  switch (whence) {
    case Whence::kSet: base = 0; break;
    case Whence::kCur: base = static_cast<std::int64_t>(offset_); break;
    case Whence::kEnd: base = static_cast<std::int64_t>(layout_.total_bytes); break;
  }
  const std::int64_t target = base + offset;
  if (target < 0 || target > static_cast<std::int64_t>(layout_.total_bytes)) {
    return -1;
  }
  offset_ = static_cast<std::uint64_t>(target);
  return target;
}

core::Result<std::size_t> DpssFile::read(std::uint8_t* buf, std::size_t len) {
  auto r = pread(buf, len, offset_);
  if (r.is_ok()) offset_ += r.value();
  return r;
}

core::Result<std::size_t> DpssFile::pread(std::uint8_t* buf, std::size_t len,
                                          std::uint64_t offset) {
  OBS_STAGE("client.read");
  if (offset >= layout_.total_bytes) return std::size_t{0};
  const std::size_t effective = static_cast<std::size_t>(
      std::min<std::uint64_t>(len, layout_.total_bytes - offset));
  if (auto st = read_extents({Extent{offset, effective, buf}}); !st.is_ok()) {
    return st;
  }
  return effective;
}

core::Status DpssFile::read_extents(const std::vector<Extent>& extents) {
  std::vector<BlockRef> refs;
  for (const Extent& e : extents) {
    if (e.offset + e.length > layout_.total_bytes) {
      return core::out_of_range("extent exceeds dataset size");
    }
    std::uint64_t at = e.offset;
    std::size_t remaining = e.length;
    std::uint8_t* dest = e.dest;
    while (remaining > 0) {
      const std::uint64_t block = at / layout_.block_bytes;
      const std::uint64_t in_block = at % layout_.block_bytes;
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(remaining, layout_.block_bytes - in_block));
      refs.push_back(BlockRef{block, in_block, n, dest});
      at += n;
      dest += n;
      remaining -= n;
    }
  }
  return fetch_blocks(std::move(refs));
}

const std::vector<std::uint32_t>& DpssFile::candidates_for_block(
    std::uint64_t block) {
  // Placement only: one memoised ranking per placement group (bounded by
  // the dataset's group count).  The classic stripe path never lands
  // here -- its owner is a single divide, not worth a map node per block.
  const std::uint64_t group = placement_->group_of(block);
  auto it = group_candidates_.find(group);
  if (it != group_candidates_.end()) return it->second;
  auto ranked = placement::rank_replicas(placement_->replicas_for_group(group),
                                         server_health_, server_load_);
  return group_candidates_.emplace(group, std::move(ranked)).first->second;
}

int DpssFile::pick_server(std::uint64_t block,
                          const std::set<std::size_t>* exclude) {
  auto usable = [&](std::uint32_t s) {
    return s < conns_.size() && conns_[s] &&
           (!exclude || exclude->count(s) == 0);
  };
  if (!placement_) {
    const std::uint32_t s = layout_.server_for_block(block);
    return usable(s) ? static_cast<int>(s) : -1;
  }
  if (ec_.valid()) {
    // Systematic fast path: the block IS its data slice, stored verbatim
    // on exactly one server.  A dead owner means reconstruction, not
    // failover -- signalled by -1.
    const int s = ec_.server_for_slice(ec_.group_of_block(block),
                                       ec_.slice_of_block(block));
    return (s >= 0 && usable(static_cast<std::uint32_t>(s))) ? s : -1;
  }
  for (std::uint32_t s : candidates_for_block(block)) {
    if (usable(s)) return static_cast<int>(s);
  }
  return -1;
}

void DpssFile::mark_server_failed(std::size_t s, std::uint64_t block,
                                  const core::Status& status) {
  if (s >= server_alive_.size() || !server_alive_[s]) return;
  server_alive_[s] = 0;
  conns_[s].reset();  // a stream that saw an error never returns to the pool
  if (reporter_ && s < addresses_.size()) {
    reporter_(FailureReport{addresses_[s], dataset_, block,
                            status.to_string()});
  }
}

core::Status DpssFile::exchange(
    const std::vector<std::vector<std::uint64_t>>& blocks,
    const RequestSource& source, const ReplySink& on_reply) {
  std::vector<ServerPool::Leg> legs;
  for (std::size_t s = 0; s < blocks.size(); ++s) {
    if (blocks[s].empty()) continue;
    if (!conns_[s]) return core::unavailable(dataset_ + " is closed");
    legs.push_back(ServerPool::Leg{s, conns_[s].get(), &addresses_[s],
                                   blocks[s].size(), {}});
  }
  const obs::TraceContext trace = active_trace_;
  pool_->exchange(legs, [&](std::size_t s, std::size_t i) {
    net::Message m = source(s, i);
    if (trace.sampled()) {  // each request is its own hop on the trace
      m.trace_id = trace.trace_id;
      m.span_id = obs::new_span_id();
    }
    return m;
  }, on_reply);
  core::Status first_failure;
  for (const ServerPool::Leg& leg : legs) {
    if (leg.status.is_ok()) continue;
    mark_server_failed(leg.server, blocks[leg.server].front(), leg.status);
    if (first_failure.is_ok()) first_failure = leg.status;
  }
  return first_failure;
}

core::Result<BlockReadReply> DpssFile::take_block(const net::Message& msg) {
  auto reply = decode<BlockReadReply>(msg);
  if (!reply.is_ok()) return reply;
  BlockReadReply& r = reply.value();
  wire_bytes_.add(r.data.size());
  if (r.compressed) {
    auto raw = decompress_block(r.data);
    if (!raw.is_ok()) return raw.status();
    r.data = std::move(raw).take();
    r.compressed = false;
  }
  raw_bytes_.add(r.data.size());
  return reply;
}

core::Status DpssFile::fetch_wire_blocks(
    const std::vector<std::uint64_t>& blocks,
    std::map<std::uint64_t, Fetched>* received) {
  if (blocks.empty()) return core::Status::ok();

  std::vector<std::uint64_t> pending = blocks;
  std::sort(pending.begin(), pending.end());
  pending.erase(std::unique(pending.begin(), pending.end()), pending.end());

  // EC blocks whose single systematic owner is dead: collected here and
  // rebuilt from surviving slices once the normal fetch rounds settle.
  std::vector<std::uint64_t> orphans;
  std::set<std::uint64_t> orphan_set;
  // Live-but-lagging replicas, per block: a server whose reply carried a
  // generation older than one this file saw acknowledged is skipped for
  // that block (the block retries on the next replica), without declaring
  // the whole server dead.
  std::map<std::uint64_t, std::set<std::size_t>> stale_excluded;

  while (!pending.empty()) {
    // Assign every pending block to its best live replica.
    std::vector<std::vector<std::uint64_t>> by_server(conns_.size());
    bool any_assigned = false;
    for (std::uint64_t b : pending) {
      const auto ex = stale_excluded.find(b);
      const int s =
          pick_server(b, ex == stale_excluded.end() ? nullptr : &ex->second);
      if (s < 0) {
        if (ec_.valid()) {
          if (orphan_set.insert(b).second) orphans.push_back(b);
          continue;
        }
        if (ex != stale_excluded.end() && !ex->second.empty()) {
          return core::unavailable(
              "every live replica of block " + std::to_string(b) + " of " +
              dataset_ + " is behind acknowledged generation " +
              std::to_string(known_gens_.latest(dataset_, b)));
        }
        return core::unavailable("no live replica for block " +
                                 std::to_string(b) + " of " + dataset_);
      }
      by_server[static_cast<std::size_t>(s)].push_back(b);
      any_assigned = true;
    }
    if (!any_assigned) break;

    // A server that fails keeps the replies it already delivered (salvaged
    // below) and leaves its remaining blocks for the next failover round.
    std::vector<std::map<std::uint64_t, Fetched>> per_server(conns_.size());
    const bool any_failed = !exchange(
        by_server,
        [&](std::size_t s, std::size_t i) {
          return encode(
              BlockReadRequest{dataset_, by_server[s][i], compression_});
        },
        [&](std::size_t s, std::size_t, net::Message& msg) -> core::Status {
          auto reply = take_block(msg);
          if (!reply.is_ok()) return reply.status();
          per_server[s][reply.value().block] =
              Fetched{std::move(reply.value().data), reply.value().generation};
          return core::Status::ok();
        }).is_ok();

    bool any_stale = false;
    for (std::size_t s = 0; s < conns_.size(); ++s) {
      per_server_blocks_[s] += per_server[s].size();
      for (auto& [b, fetched] : per_server[s]) {
        // Stale-read detection: an acknowledged write established a floor
        // for this block's generation; a reply below it is a lagging
        // follower, not valid data.
        if (fetched.generation < known_gens_.latest(dataset_, b)) {
          stale_excluded[b].insert(s);
          stale_retries_.inc();
          any_stale = true;
          continue;
        }
        known_gens_.observe(dataset_, b, fetched.generation);
        (*received)[b] = std::move(fetched);
      }
    }

    std::vector<std::uint64_t> still;
    for (std::uint64_t b : pending) {
      if (received->find(b) == received->end() && orphan_set.count(b) == 0) {
        still.push_back(b);
      }
    }
    if (!any_failed && !any_stale) {
      if (!still.empty()) {
        return core::data_loss("server returned wrong block set");
      }
      break;
    }
    if (!still.empty() && any_failed && !ec_.valid()) {
      failover_reads_.add(still.size());
    }
    pending = std::move(still);
    // Each failed round kills at least one server and each stale round
    // excludes at least one (block, replica) pair, so the loop terminates:
    // the blocks land on a live fresh replica, or pick_server runs dry
    // (EC: the block joins `orphans`; replicas: an error above).
  }
  if (!orphans.empty()) {
    return reconstruct_blocks(orphans, received);
  }
  return core::Status::ok();
}

bool DpssFile::fetch_slices(
    const std::vector<SliceFetch>& fetches,
    std::map<std::uint32_t, std::vector<std::uint8_t>>* out) {
  // Replies are matched positionally: the service loop answers a
  // connection's requests strictly in order.
  std::vector<std::vector<const SliceFetch*>> by_server(conns_.size());
  std::vector<std::vector<std::uint64_t>> blocks(conns_.size());
  for (const SliceFetch& f : fetches) {
    by_server[f.server].push_back(&f);
    blocks[f.server].push_back(f.block);
  }
  std::vector<std::map<std::uint32_t, std::vector<std::uint8_t>>> per_server(
      conns_.size());
  const bool clean = exchange(
      blocks,
      [&](std::size_t s, std::size_t i) {
        const SliceFetch& f = *by_server[s][i];
        return encode(BlockReadRequest{f.dataset, f.block, compression_});
      },
      [&](std::size_t s, std::size_t i, net::Message& msg) -> core::Status {
        auto reply = take_block(msg);
        if (!reply.is_ok()) return reply.status();
        const SliceFetch& f = *by_server[s][i];
        if (reply.value().block != f.block) {
          return core::data_loss("slice reply out of order");
        }
        per_server[s][f.slice] = std::move(reply.value().data);
        return core::Status::ok();
      }).is_ok();
  for (std::size_t s = 0; s < conns_.size(); ++s) {
    per_server_blocks_[s] += per_server[s].size();
    for (auto& [slice, data] : per_server[s]) (*out)[slice] = std::move(data);
  }
  return clean;
}

core::Status DpssFile::reconstruct_blocks(
    const std::vector<std::uint64_t>& blocks,
    std::map<std::uint64_t, Fetched>* received) {
  if (!ec_.valid() || !rs_) {
    return core::unavailable("no live replica and no parity for " + dataset_);
  }
  const std::uint32_t k = rs_->k();
  const std::uint32_t total = ec_.profile().total_slices();
  const std::size_t n = layout_.block_bytes;
  const std::string parity_name = codec::StripeLayout::parity_dataset(dataset_);

  std::map<std::uint64_t, std::vector<std::uint64_t>> by_group;
  for (std::uint64_t b : blocks) {
    by_group[ec_.group_of_block(b)].push_back(b);
  }

  for (auto& [group, wanted] : by_group) {
    for (;;) {  // a server dying mid-fetch re-plans against fresh liveness
      const auto& owners = ec_.group_servers(group);
      std::vector<std::vector<std::uint8_t>> shards(total);
      std::vector<char> present(total, 0);
      std::uint32_t have = 0;
      std::vector<SliceFetch> fetches;
      for (std::uint32_t s = 0; s < total && have + fetches.size() < k; ++s) {
        if (s < k && ec_.block_of_slice(group, s) >= layout_.block_count()) {
          // Zero-padded tail of the final group: known content.
          shards[s].assign(n, 0);
          present[s] = 1;
          ++have;
          continue;
        }
        if (s < k) {
          // A sibling data block this very call already fetched (a
          // degraded scan reads whole stripes) is a free shard -- do not
          // pull it over the wire a second time.
          const auto it = received->find(ec_.block_of_slice(group, s));
          if (it != received->end()) {
            shards[s] = it->second.data;
            shards[s].resize(n, 0);
            present[s] = 1;
            ++have;
            continue;
          }
        }
        if (s >= owners.size()) break;
        const std::uint32_t srv = owners[s];
        if (srv >= conns_.size() || !conns_[srv]) {
          continue;
        }
        SliceFetch f;
        f.slice = s;
        f.server = srv;
        if (s < k) {
          f.dataset = dataset_;
          f.block = ec_.block_of_slice(group, s);
        } else {
          f.dataset = parity_name;
          f.block = ec_.parity_block(group, s - k);
        }
        fetches.push_back(std::move(f));
      }
      if (have + fetches.size() < k) {
        return core::unavailable(
            "only " + std::to_string(have + fetches.size()) + " of " +
            std::to_string(k) + " slices of group " + std::to_string(group) +
            " survive in " + dataset_);
      }
      std::map<std::uint32_t, std::vector<std::uint8_t>> fetched;
      const bool clean = fetch_slices(fetches, &fetched);
      for (auto& [slice, data] : fetched) {
        shards[slice] = std::move(data);
        shards[slice].resize(n, 0);  // re-pad the short final data block
        present[slice] = 1;
        ++have;
      }
      if (!clean && have < k) continue;  // retry with the survivors
      // Only the data slices are wanted here; skip re-deriving parity.
      if (auto st = rs_->reconstruct(shards, present, n,
                                     /*rebuild_parity=*/false);
          !st.is_ok()) {
        return st;
      }
      for (std::uint64_t b : wanted) {
        auto data = shards[ec_.slice_of_block(b)];
        data.resize(static_cast<std::size_t>(layout_.block_length(b)));
        // Reconstructed bytes carry no single server stamp: they reflect
        // the surviving slices' current state, which under a relaxed ack
        // policy may predate an acknowledged overwrite until the fixup
        // queue drains the missed parity deltas.  Stamp 0 so the
        // read-ahead tier can never pin them under a newer generation's
        // key (they stay correct for never-overwritten blocks, the
        // common case).
        (*received)[b] = Fetched{std::move(data), 0};
      }
      // Sibling data slices pulled over the wire for the decode are real
      // blocks the caller may want next (single-block read-ahead fills,
      // partial scans): hand them back too instead of discarding them.
      for (const auto& [slice, ignored] : fetched) {
        if (slice >= k) continue;
        const std::uint64_t b = ec_.block_of_slice(group, slice);
        if (b >= layout_.block_count() || received->count(b)) continue;
        auto data = shards[slice];
        data.resize(static_cast<std::size_t>(layout_.block_length(b)));
        (*received)[b] = Fetched{std::move(data), 0};
      }
      reconstructed_reads_.add(wanted.size());
      break;
    }
  }
  return core::Status::ok();
}

core::Status DpssFile::fetch_blocks(std::vector<BlockRef> refs) {
  if (refs.empty()) return core::Status::ok();
  const double t0 = core::global_real_clock().now();

  // Distinct blocks in first-reference order (the order the prefetcher
  // should observe).
  std::vector<std::uint64_t> distinct;
  std::set<std::uint64_t> seen;
  for (const BlockRef& r : refs) {
    if (seen.insert(r.block).second) distinct.push_back(r.block);
  }

  // Lifeline start: sampled reads mint the trace the wire headers carry.
  obs::TraceContext trace;
  if (logger_ && sampler_.sample()) {
    trace.trace_id = obs::new_trace_id();
    trace.span_id = obs::new_span_id();
    logger_->log(netlog::tags::kDpssReadStart, -1, -1,
                 {{"TRACE", obs::trace_hex(trace.trace_id)},
                  {"SPAN", obs::trace_hex(trace.span_id)},
                  {"DATASET", dataset_},
                  {"BLOCKS", std::to_string(distinct.size())}});
  }

  // Serve what the read-ahead cache already holds; fetch the rest.  Keys
  // carry the latest acknowledged generation, so a block this file
  // overwrote can only be served by a post-overwrite fill.
  std::map<std::uint64_t, cache::BlockData> have;
  std::vector<std::uint64_t> missing;
  if (ra_cache_) {
    for (std::uint64_t b : distinct) {
      if (auto data = ra_cache_->lookup(cache::BlockKey{
              dataset_, b, known_gens_.latest(dataset_, b)})) {
        have[b] = std::move(data);
      } else {
        missing.push_back(b);
      }
    }
  } else {
    missing = distinct;
  }

  if (!missing.empty()) {
    std::map<std::uint64_t, Fetched> received;
    {
      std::lock_guard lk(wire_mu_);
      active_trace_ = trace;
      auto st = fetch_wire_blocks(missing, &received);
      active_trace_ = obs::TraceContext{};
      if (!st.is_ok()) return st;
    }
    for (auto& [b, fetched] : received) {
      auto data = std::make_shared<const std::vector<std::uint8_t>>(
          std::move(fetched.data));
      if (ra_cache_) {
        // Keyed by the stamp the bytes actually carry (a reconstructed
        // block's 0 can never shadow a newer acknowledged generation).
        ra_cache_->insert(cache::BlockKey{dataset_, b, fetched.generation},
                          data);
      }
      have[b] = std::move(data);
    }
  }

  for (const BlockRef& r : refs) {
    auto it = have.find(r.block);
    if (it == have.end()) {
      return core::data_loss("server returned wrong block set");
    }
    if (r.offset_in_block + r.length > it->second->size()) {
      return core::data_loss("block shorter than expected");
    }
    std::memcpy(r.dest, it->second->data() + r.offset_in_block, r.length);
  }

  if (prefetcher_) {
    for (std::uint64_t b : distinct) {
      prefetcher_->on_access(dataset_, b, layout_.block_count());
    }
  }

  const double elapsed = std::max(0.0, core::global_real_clock().now() - t0);
  read_seconds_.observe(elapsed);
  if (trace.sampled()) {
    std::size_t read_bytes = 0;
    for (const BlockRef& r : refs) read_bytes += r.length;
    logger_->log(netlog::tags::kDpssReadEnd, -1, -1,
                 {{"TRACE", obs::trace_hex(trace.trace_id)},
                  {"SPAN", obs::trace_hex(trace.span_id)},
                  {"SECONDS", std::to_string(elapsed)},
                  {"BYTES", std::to_string(read_bytes)}});
  }
  if (logger_ && slow_threshold_ > 0.0 && elapsed > slow_threshold_) {
    logger_->log(netlog::tags::kDpssSlowRequest, -1, -1,
                 {{"OP", "READ"},
                  {"TRACE", obs::trace_hex(trace.trace_id)},
                  {"SECONDS", std::to_string(elapsed)}});
  }
  return core::Status::ok();
}

void DpssFile::prefetch_fill(std::uint64_t block) {
  std::map<std::uint64_t, Fetched> received;
  {
    std::lock_guard lk(wire_mu_);
    if (ra_cache_->contains(cache::BlockKey{
            dataset_, block, known_gens_.latest(dataset_, block)})) {
      return;
    }
    // Best-effort: a failed speculative fetch is simply not cached.
    if (!fetch_wire_blocks({block}, &received).is_ok()) return;
  }
  if (received.find(block) == received.end()) return;
  // Cache everything the fetch produced: a degraded EC fetch reconstructs
  // via k sibling slices, and those siblings ride along in `received` --
  // caching them amortises the k-slice wire cost across the whole group.
  for (auto& [b, fetched] : received) {
    ra_cache_->insert(cache::BlockKey{dataset_, b, fetched.generation},
                      std::move(fetched.data),
                      /*prefetched=*/true);
  }
}

void DpssFile::enable_readahead(const ReadaheadOptions& options) {
  if (ra_cache_) return;
  cache::BlockCacheConfig cc;
  cc.capacity_bytes = options.cache_bytes;
  cc.shards = options.cache_shards;
  cc.policy = options.policy;
  ra_cache_ = std::make_unique<cache::BlockCache>(cc);
  if (options.threads > 0) {
    ra_pool_ = std::make_unique<core::ThreadPool>(options.threads);
  }
  prefetcher_ = std::make_unique<cache::Prefetcher>(
      options.prefetch,
      [this](const std::string&, std::uint64_t block) { prefetch_fill(block); },
      ra_pool_.get(), &ra_cache_->counters());
  prefetcher_->set_filter([this](const std::string&, std::uint64_t block) {
    return ra_cache_->contains(cache::BlockKey{
        dataset_, block, known_gens_.latest(dataset_, block)});
  });
  // Surface the read-ahead tier's counters through this file's registry
  // (ra_cache_ lives until destruction, so the collector never dangles).
  registry_.add_collector([this](std::vector<obs::Sample>& out) {
    ra_cache_->counters().collect("dpss_client_cache", out);
  });
}

cache::MetricsSnapshot DpssFile::readahead_metrics() const {
  if (!ra_cache_) return cache::MetricsSnapshot();
  return ra_cache_->metrics();
}

void DpssFile::drain_readahead() {
  if (prefetcher_) prefetcher_->drain();
}

void DpssFile::account_write_ack(
    std::uint64_t block, const IngestWriteReply& reply, std::uint32_t targets,
    const std::vector<IngestWriteRequest::DeltaTarget>* deltas) {
  const std::uint64_t previous = known_gens_.latest(dataset_, block);
  if (known_gens_.observe(dataset_, block, reply.generation) && ra_cache_) {
    // Re-key the read-ahead tier: the entry under the old stamp can never
    // satisfy a lookup for the new one, so erasing it is pure reclamation.
    ra_cache_->erase(cache::BlockKey{dataset_, block, previous});
  }
  if (reply.acks < targets) degraded_writes_.inc();
  if (!fixup_reporter_) return;
  for (const auto& addr : reply.missed) {
    // An EC write's missed targets are parity owners: their fixup debt is
    // the parity block, not this data block.
    const IngestWriteRequest::DeltaTarget* delta = nullptr;
    if (deltas) {
      for (const auto& d : *deltas) {
        if (d.server == addr) {
          delta = &d;
          break;
        }
      }
    }
    if (delta) {
      fixup_reporter_(FixupReport{delta->dataset, delta->block, 0, addr});
    } else {
      fixup_reporter_(FixupReport{dataset_, block, reply.generation, addr});
    }
  }
}

core::Status DpssFile::write_chain(std::uint64_t first_block,
                                   const std::uint8_t* src, std::size_t len) {
  // Build one ingest request per block.  EC blocks target their data-slice
  // owner and carry parity-delta targets; replicated blocks target the
  // deterministic primary and carry the (policy-truncated) chain; classic
  // stripes are a chain of one.
  struct PendingWrite {
    std::uint64_t block = 0;
    const std::uint8_t* data = nullptr;
    std::size_t len = 0;
  };
  std::vector<PendingWrite> pending;
  {
    std::uint64_t at = first_block * layout_.block_bytes;
    std::size_t remaining = len;
    const std::uint8_t* p = src;
    while (remaining > 0) {
      const std::size_t n =
          std::min<std::size_t>(remaining, layout_.block_bytes);
      pending.push_back(PendingWrite{at / layout_.block_bytes, p, n});
      at += n;
      p += n;
      remaining -= n;
    }
  }

  // Failover loop: a primary dying mid-write re-plans the survivors
  // against updated liveness (the next live replica in ring order becomes
  // primary; EC writes have no fallback primary -- the data-slice owner is
  // where the old bytes live).
  while (!pending.empty()) {
    struct Planned {
      PendingWrite w;
      IngestWriteRequest req;
      std::uint32_t targets = 0;  // primary + live followers/parity owners
      std::vector<std::uint32_t> policy_skipped;       // replication
      std::vector<ingest::DeltaTarget> skipped_deltas; // EC
    };
    std::vector<std::vector<Planned>> by_primary(conns_.size());
    std::vector<std::vector<std::uint64_t>> blocks(conns_.size());
    for (const PendingWrite& w : pending) {
      Planned plan;
      plan.w = w;
      plan.req.dataset = dataset_;
      plan.req.block = w.block;
      plan.req.ack_policy = ack_policy_;
      plan.req.data.assign(w.data, w.data + w.len);
      int primary = -1;
      if (ec_.valid()) {
        primary = pick_server(w.block);
        if (primary < 0) {
          return core::unavailable(
              "EC write needs the data-slice owner of block " +
              std::to_string(w.block) + " of " + dataset_ + " alive");
        }
        std::vector<ingest::DeltaTarget> unreachable;
        auto deltas = ingest::plan_parity_deltas(ec_, *rs_, dataset_, w.block,
                                                 server_alive_, &unreachable);
        plan.targets = 1 + static_cast<std::uint32_t>(deltas.size());
        // The ack policy truncates the synchronous delta fan-out exactly
        // like a replica chain: keep required - 1 targets, skip the rest.
        const std::uint32_t required =
            ingest::required_acks(ack_policy_, plan.targets);
        while (deltas.size() > required - 1) {
          plan.skipped_deltas.push_back(std::move(deltas.back()));
          deltas.pop_back();
        }
        for (auto& u : unreachable) {
          plan.skipped_deltas.push_back(std::move(u));
        }
        for (const auto& d : deltas) {
          IngestWriteRequest::DeltaTarget t;
          t.server = addresses_[d.server];
          t.dataset = d.dataset;
          t.block = d.block;
          t.coefficient = d.coefficient;
          plan.req.deltas.push_back(std::move(t));
        }
      } else if (placement_) {
        auto chain = ingest::plan_chain(
            placement_->replicas_for_block(w.block), server_health_,
            server_alive_);
        if (!chain.viable()) {
          return core::unavailable("no live replica to write block " +
                                   std::to_string(w.block));
        }
        primary = chain.primary;
        plan.targets = chain.targets();
        auto kept =
            ingest::truncate_chain(chain, ack_policy_, &plan.policy_skipped);
        for (std::uint32_t s : kept) plan.req.chain.push_back(addresses_[s]);
      } else {
        primary = pick_server(w.block);
        if (primary < 0) {
          return core::unavailable("no live server to write block " +
                                   std::to_string(w.block));
        }
        plan.targets = 1;
      }
      blocks[static_cast<std::size_t>(primary)].push_back(w.block);
      by_primary[static_cast<std::size_t>(primary)].push_back(std::move(plan));
    }

    // Every reply (ack or typed error) is kept positionally.
    std::vector<std::vector<core::Result<IngestWriteReply>>> replies(
        conns_.size());
    const core::Status failure = exchange(
        blocks,
        [&](std::size_t s, std::size_t i) {
          return encode(by_primary[s][i].req);
        },
        [&](std::size_t s, std::size_t, net::Message& msg) {
          replies[s].push_back(decode<IngestWriteReply>(msg));
          return core::Status::ok();
        });

    std::vector<PendingWrite> still;
    core::Status typed_error;  // first per-block error reply, if any
    for (std::size_t s = 0; s < by_primary.size(); ++s) {
      for (std::size_t i = 0; i < by_primary[s].size(); ++i) {
        const Planned& plan = by_primary[s][i];
        if (i < replies[s].size() && replies[s][i].is_ok()) {
          const IngestWriteReply& reply = replies[s][i].value();
          account_write_ack(plan.w.block, reply, plan.targets,
                            plan.req.deltas.empty() ? nullptr
                                                    : &plan.req.deltas);
          // Targets the policy (or planning) skipped are fixup debt the
          // primary never saw.
          if (fixup_reporter_) {
            for (std::uint32_t skipped : plan.policy_skipped) {
              fixup_reporter_(FixupReport{dataset_, plan.w.block,
                                          reply.generation,
                                          addresses_[skipped]});
            }
            for (const auto& d : plan.skipped_deltas) {
              fixup_reporter_(FixupReport{d.dataset, d.block, 0,
                                          addresses_[d.server]});
            }
          }
          if (reply.acks < plan.targets ||
              !plan.policy_skipped.empty() || !plan.skipped_deltas.empty()) {
            // account_write_ack counted acks < targets; policy skips make
            // the write degraded even when every synchronous target acked.
            if (reply.acks >= plan.targets) degraded_writes_.inc();
          }
        } else if (i < replies[s].size()) {
          // The primary answered with a typed error (e.g. a stale
          // generation race): this block's write failed outright.  Keep
          // accounting the OTHER blocks' acks first -- their generations
          // and fixup debts are real regardless -- and fail afterwards.
          if (typed_error.is_ok()) typed_error = replies[s][i].status();
        } else {
          // Primary died mid-pipeline: surviving replicas take over on the
          // next round.
          still.push_back(plan.w);
        }
      }
    }
    if (!typed_error.is_ok()) return typed_error;
    if (still.size() == pending.size()) {
      // No progress: every primary failed and nothing was written.
      if (!failure.is_ok()) return failure;
      return core::unavailable("ingest write acknowledged by no server");
    }
    pending = std::move(still);
  }
  return core::Status::ok();
}

core::Status DpssFile::write(const std::uint8_t* buf, std::size_t len) {
  OBS_STAGE("client.write");
  if (offset_ % layout_.block_bytes != 0) {
    return core::invalid_argument("dpssWrite must start block-aligned");
  }
  std::lock_guard lk(wire_mu_);
  const double t0 = core::global_real_clock().now();
  obs::TraceContext trace;
  if (logger_ && sampler_.sample()) {
    trace.trace_id = obs::new_trace_id();
    trace.span_id = obs::new_span_id();
    logger_->log(netlog::tags::kDpssWriteStart, -1, -1,
                 {{"TRACE", obs::trace_hex(trace.trace_id)},
                  {"SPAN", obs::trace_hex(trace.span_id)},
                  {"DATASET", dataset_},
                  {"BYTES", std::to_string(len)}});
  }
  active_trace_ = trace;
  const std::uint64_t first_block = offset_ / layout_.block_bytes;
  auto st = write_chain(first_block, buf, len);
  active_trace_ = obs::TraceContext{};
  if (!st.is_ok()) return st;
  offset_ += len;

  const double elapsed = std::max(0.0, core::global_real_clock().now() - t0);
  write_seconds_.observe(elapsed);
  if (trace.sampled()) {
    logger_->log(netlog::tags::kDpssWriteEnd, -1, -1,
                 {{"TRACE", obs::trace_hex(trace.trace_id)},
                  {"SPAN", obs::trace_hex(trace.span_id)},
                  {"SECONDS", std::to_string(elapsed)},
                  {"BYTES", std::to_string(len)}});
  }
  if (logger_ && slow_threshold_ > 0.0 && elapsed > slow_threshold_) {
    logger_->log(netlog::tags::kDpssSlowRequest, -1, -1,
                 {{"OP", "WRITE"},
                  {"TRACE", obs::trace_hex(trace.trace_id)},
                  {"SECONDS", std::to_string(elapsed)}});
  }
  return core::Status::ok();
}

void DpssFile::enable_tracing(std::shared_ptr<netlog::NetLogger> logger,
                              double sample_rate,
                              double slow_threshold_seconds) {
  std::lock_guard lk(wire_mu_);
  logger_ = std::move(logger);
  sampler_.set_rate(logger_ ? sample_rate : 0.0);
  slow_threshold_ = slow_threshold_seconds;
}

void DpssFile::close() {
  // Drain read-ahead before handing back the connections it fetches over.
  prefetcher_.reset();
  ra_pool_.reset();
  std::lock_guard lk(wire_mu_);
  for (std::size_t s = 0; s < conns_.size(); ++s) {
    if (conns_[s]) pool_->checkin(addresses_[s], std::move(conns_[s]));
  }
}

std::vector<std::uint64_t> DpssFile::per_server_blocks() const {
  return per_server_blocks_;
}

std::vector<int> DpssFile::dead_servers() const {
  std::lock_guard lk(wire_mu_);
  std::vector<int> dead;
  for (std::size_t s = 0; s < server_alive_.size(); ++s) {
    if (!server_alive_[s]) dead.push_back(static_cast<int>(s));
  }
  return dead;
}

}  // namespace visapult::dpss
