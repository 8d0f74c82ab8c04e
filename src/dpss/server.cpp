#include "dpss/server.h"

#include <algorithm>
#include <cstdio>

#include "codec/gf256.h"
#include "ingest/parity_delta.h"
#include "netlog/event.h"
#include "obs/profiler.h"

namespace visapult::dpss {

double DiskModel::block_service_seconds(std::size_t block_bytes) const {
  return seek_seconds + static_cast<double>(block_bytes) / disk_bytes_per_sec;
}

double DiskModel::streaming_bytes_per_sec(std::size_t block_bytes) const {
  const double per_disk =
      static_cast<double>(block_bytes) /
      (seek_seconds + static_cast<double>(block_bytes) / disk_bytes_per_sec);
  return per_disk * disks;
}

BlockServer::BlockServer(std::string name, DiskModel disk, bool throttle,
                         ServerCacheConfig cache_config)
    : name_(std::move(name)), disk_(disk), throttle_(throttle),
      requests_(registry_.counter("dpss_server_requests_total")),
      read_timeouts_(registry_.counter("dpss_server_read_timeouts_total")),
      chain_forwards_(registry_.counter("dpss_server_chain_forwards_total")),
      parity_deltas_(registry_.counter("dpss_server_parity_deltas_total")),
      read_joins_(registry_.counter("dpss_server_read_joins_total")),
      in_flight_(registry_.gauge("dpss_server_in_flight")),
      read_seconds_(registry_.histogram("dpss_server_read_seconds")),
      write_seconds_(registry_.histogram("dpss_server_write_seconds")),
      spindle_free_at_(static_cast<std::size_t>(std::max(1, disk.disks)), 0.0),
      cache_config_(cache_config) {
  // The memory tier's counters surface in the same exposition.
  registry_.add_collector([this](std::vector<obs::Sample>& out) {
    const auto s = cache_metrics();
    out.push_back({"dpss_cache_hits_total", "", static_cast<double>(s.hits)});
    out.push_back(
        {"dpss_cache_misses_total", "", static_cast<double>(s.misses)});
    out.push_back({"dpss_cache_evictions_total", "",
                   static_cast<double>(s.evictions)});
    out.push_back({"dpss_cache_prefetch_issued_total", "",
                   static_cast<double>(s.prefetch_issued)});
    out.push_back({"dpss_cache_prefetch_hits_total", "",
                   static_cast<double>(s.prefetch_hits)});
    out.push_back(
        {"dpss_cache_bytes", "", static_cast<double>(s.bytes)});
    out.push_back({"dpss_cache_entries", "", static_cast<double>(s.entries)});
    // USE view of the memory tier: occupancy (utilization) and the
    // fraction of accesses that displaced something (pressure).
    out.push_back({"dpss_util_cache_occupancy_fraction", "",
                   s.capacity_bytes == 0
                       ? 0.0
                       : static_cast<double>(s.bytes) /
                             static_cast<double>(s.capacity_bytes)});
    const double accesses = static_cast<double>(s.hits + s.misses);
    out.push_back({"dpss_util_cache_pressure", "",
                   accesses == 0.0
                       ? 0.0
                       : static_cast<double>(s.evictions + s.admit_rejects) /
                             accesses});
  });
  // Peer-link utilization: one labeled sample pair per pooled chain/parity
  // link, read under the link locks at exposition time only.
  registry_.add_collector([this](std::vector<obs::Sample>& out) {
    std::lock_guard lk(peer_mu_);
    for (const auto& [key, link] : peers_) {
      std::lock_guard plk(link->mu);
      const std::string label = obs::label_pair("peer", key);
      out.push_back({"dpss_util_peer_exchanges_total", label,
                     static_cast<double>(link->exchanges)});
      out.push_back({"dpss_util_peer_bytes_total", label,
                     static_cast<double>(link->bytes)});
      out.push_back({"dpss_util_peer_failures_total", label,
                     static_cast<double>(link->failures)});
    }
  });
  if (cache_config_.enabled) {
    cache::BlockCacheConfig cc;
    cc.capacity_bytes = cache_config_.capacity_bytes;
    cc.shards = cache_config_.shards;
    cc.policy = cache_config_.policy;
    cc.tinylfu_admission = cache_config_.tinylfu_admission;
    cache_ = std::make_unique<cache::BlockCache>(cc);
    if (cache_config_.prefetch) {
      prefetcher_ = std::make_unique<cache::Prefetcher>(
          cache_config_.prefetch_config,
          [this](const std::string& dataset, std::uint64_t block) {
            prefetch_fill(dataset, block);
          },
          /*pool=*/nullptr, &cache_->counters());
      // Only predict blocks this server actually stores (its stripe of the
      // dataset) and that are not already resident at their current
      // generation.
      prefetcher_->set_filter(
          [this](const std::string& dataset, std::uint64_t block) {
            return cache_->contains(cache::BlockKey{
                       dataset, block, block_generation(dataset, block)}) ||
                   !has_block(dataset, block);
          });
    }
  }
}

BlockServer::~BlockServer() { shutdown(); }

void BlockServer::set_logger(std::shared_ptr<netlog::NetLogger> logger) {
  logger_ = logger;
  if (cache_) cache_->set_logger(std::move(logger));
}

void BlockServer::set_peer_connector(Connector connector) {
  peer_connector_ = std::move(connector);
}

core::Result<std::uint64_t> BlockServer::apply_write(
    const std::string& dataset, std::uint64_t block,
    std::vector<std::uint8_t> data, std::uint64_t generation, bool bump,
    std::vector<std::uint8_t>* replaced) {
  std::lock_guard lk(mu_);
  std::uint64_t current = 0;
  auto ds = store_.find(dataset);
  std::map<std::uint64_t, Stored>::iterator it;
  if (ds != store_.end() && (it = ds->second.find(block)) != ds->second.end()) {
    current = it->second.generation;
  }
  std::uint64_t next = current;
  if (generation == 0) {
    if (bump) next = current + 1;
  } else {
    if (generation < current) {
      return core::failed_precondition(
          "stale generation " + std::to_string(generation) + " for block " +
          std::to_string(block) + " of " + dataset + " (at " +
          std::to_string(current) + ") on server " + name_);
    }
    next = generation;
  }
  Stored& slot = store_[dataset][block];
  // The bytes being replaced, handed out under the SAME lock as the
  // replacement: a parity delta computed from them is exactly the delta
  // of this generation transition even when writers race on the block.
  if (replaced) *replaced = std::move(slot.data);
  slot.data = std::move(data);
  slot.generation = next;
  if (cache_) {
    // Write-through admission under the new stamp; the old generation's
    // key is erased so a stale entry can never satisfy a fresh lookup.
    if (next != current) {
      cache_->erase(cache::BlockKey{dataset, block, current});
    }
    cache_->insert(cache::BlockKey{dataset, block, next}, slot.data);
  }
  return next;
}

core::Status BlockServer::put_block(const std::string& dataset,
                                    std::uint64_t block,
                                    std::vector<std::uint8_t> data) {
  return apply_write(dataset, block, std::move(data), 0, /*bump=*/false)
      .status();
}

core::Status BlockServer::put_block_at(const std::string& dataset,
                                       std::uint64_t block,
                                       std::vector<std::uint8_t> data,
                                       std::uint64_t generation) {
  return apply_write(dataset, block, std::move(data), generation,
                     /*bump=*/false)
      .status();
}

core::Result<std::vector<std::uint8_t>> BlockServer::get_block(
    const std::string& dataset, std::uint64_t block) const {
  auto stamped = stamped_block(dataset, block);
  if (!stamped.is_ok()) return stamped.status();
  return std::move(stamped).take().data;
}

core::Result<BlockServer::StampedBlock> BlockServer::stamped_block(
    const std::string& dataset, std::uint64_t block) const {
  std::lock_guard lk(mu_);
  auto ds = store_.find(dataset);
  if (ds == store_.end()) {
    return core::not_found("dataset not on server " + name_ + ": " + dataset);
  }
  auto b = ds->second.find(block);
  if (b == ds->second.end()) {
    return core::not_found("block " + std::to_string(block) +
                           " not on server " + name_);
  }
  return StampedBlock{b->second.data, b->second.generation};
}

std::uint64_t BlockServer::block_generation(const std::string& dataset,
                                            std::uint64_t block) const {
  std::lock_guard lk(mu_);
  auto ds = store_.find(dataset);
  if (ds == store_.end()) return 0;
  auto b = ds->second.find(block);
  return b == ds->second.end() ? 0 : b->second.generation;
}

std::uint64_t BlockServer::max_generation(const std::string& dataset) const {
  std::lock_guard lk(mu_);
  auto ds = store_.find(dataset);
  if (ds == store_.end()) return 0;
  std::uint64_t best = 0;
  for (const auto& [id, stored] : ds->second) {
    best = std::max(best, stored.generation);
  }
  return best;
}

std::vector<std::string> BlockServer::dataset_names() const {
  std::lock_guard lk(mu_);
  std::vector<std::string> names;
  names.reserve(store_.size());
  for (const auto& [name, blocks] : store_) names.push_back(name);
  return names;
}

bool BlockServer::drop_block(const std::string& dataset, std::uint64_t block) {
  std::lock_guard lk(mu_);
  auto ds = store_.find(dataset);
  if (ds == store_.end()) return false;
  auto it = ds->second.find(block);
  if (it == ds->second.end()) return false;
  if (cache_) {
    cache_->erase(cache::BlockKey{dataset, block, it->second.generation});
  }
  ds->second.erase(it);
  if (ds->second.empty()) store_.erase(ds);
  return true;
}

void BlockServer::wipe() {
  drop_cache();
  std::lock_guard lk(mu_);
  store_.clear();
}

bool BlockServer::has_block(const std::string& dataset,
                            std::uint64_t block) const {
  std::lock_guard lk(mu_);
  auto ds = store_.find(dataset);
  return ds != store_.end() && ds->second.count(block) > 0;
}

std::size_t BlockServer::block_count(const std::string& dataset) const {
  std::lock_guard lk(mu_);
  auto ds = store_.find(dataset);
  return ds == store_.end() ? 0 : ds->second.size();
}

std::size_t BlockServer::total_bytes() const {
  std::lock_guard lk(mu_);
  std::size_t total = 0;
  for (const auto& [name, blocks] : store_) {
    for (const auto& [id, stored] : blocks) total += stored.data.size();
  }
  return total;
}

cache::MetricsSnapshot BlockServer::cache_metrics() const {
  if (!cache_) return cache::MetricsSnapshot();
  return cache_->metrics();
}

void BlockServer::drop_cache() {
  if (prefetcher_) {
    prefetcher_->drain();
    prefetcher_->reset_patterns();
  }
  if (cache_) cache_->clear();
}

double BlockServer::modeled_disk_seconds() const {
  return static_cast<double>(modeled_disk_micros_.load()) * 1e-6;
}

BlockServer::DiskRead BlockServer::start_disk_read(const std::string& dataset,
                                                   std::uint64_t block,
                                                   std::size_t bytes,
                                                   double now) {
  OBS_STAGE("serv.disk");
  const double service = disk_.block_service_seconds(bytes);
  std::lock_guard lk(disk_mu_);
  for (auto it = disk_reads_.begin(); it != disk_reads_.end();) {
    it = it->second <= now ? disk_reads_.erase(it) : std::next(it);
  }
  const auto key = std::make_pair(dataset, block);
  if (auto it = disk_reads_.find(key); it != disk_reads_.end()) {
    read_joins_.inc();
    return DiskRead{it->second, 0.0, /*joined=*/true};
  }
  modeled_disk_micros_.fetch_add(static_cast<std::uint64_t>(service * 1e6));
  if (!throttle_) return DiskRead{now};
  double& free_at =
      *std::min_element(spindle_free_at_.begin(), spindle_free_at_.end());
  const double start = std::max(now, free_at);
  free_at = start + service;
  disk_reads_.emplace(key, free_at);
  return DiskRead{free_at, start - now};
}

double BlockServer::pending_disk_read(const std::string& dataset,
                                      std::uint64_t block, double now) {
  std::lock_guard lk(disk_mu_);
  const auto it = disk_reads_.find(std::make_pair(dataset, block));
  if (it == disk_reads_.end() || it->second <= now) return 0.0;
  read_joins_.inc();
  return it->second;
}

core::Result<std::vector<std::uint8_t>> BlockServer::read_block_serviced(
    const std::string& dataset, std::uint64_t block, std::uint64_t conn_id,
    bool* cache_hit, std::uint64_t* generation, DiskRead* wait) {
  const double now = clock_->now();
  *wait = DiskRead{now};
  if (cache_) {
    const cache::BlockKey key{dataset, block,
                              block_generation(dataset, block)};
    // The pin keeps the block resident (not just alive) for the duration
    // of the reply construction.
    cache::BlockCache::Pin pin = cache_->lookup_pinned(key);
    if (pin) {
      *cache_hit = true;
      *generation = key.generation;
      // A block still on its way in (a prefetch fill, or another
      // connection's miss) is served when that read completes.
      wait->ready = std::max(now, pending_disk_read(dataset, block, now));
      if (prefetcher_) {
        prefetcher_->on_access(dataset, block, UINT64_MAX, conn_id);
      }
      return *pin;  // copy out under the pin
    }
  }
  *cache_hit = false;
  auto stamped = stamped_block(dataset, block);
  if (!stamped.is_ok()) return stamped.status();
  *generation = stamped.value().generation;
  *wait = start_disk_read(dataset, block, stamped.value().data.size(), now);
  if (cache_ && !wait->joined) {
    cache_->insert(
        cache::BlockKey{dataset, block, stamped.value().generation},
        stamped.value().data);
  }
  if (prefetcher_) {
    prefetcher_->on_access(dataset, block, UINT64_MAX, conn_id);
  }
  return std::move(stamped).take().data;
}

void BlockServer::prefetch_fill(const std::string& dataset,
                                std::uint64_t block) {
  OBS_STAGE("serv.prefetch");
  if (!cache_) return;
  auto stamped = stamped_block(dataset, block);
  if (!stamped.is_ok()) return;
  const cache::BlockKey key{dataset, block, stamped.value().generation};
  if (cache_->contains(key)) return;
  // A prefetch is a real disk read -- it takes a spindle like a demand
  // miss -- but nobody waits for it unless a demand read of the block
  // arrives before it is ready.
  if (start_disk_read(dataset, block, stamped.value().data.size(),
                      clock_->now())
          .joined) {
    return;  // a demand miss is already reading it in
  }
  if (logger_) {
    logger_->log(netlog::tags::kCachePrefetch,
                 static_cast<std::int64_t>(block), -1,
                 {{"DATASET", dataset},
                  {"BYTES", std::to_string(stamped.value().data.size())}});
  }
  cache_->insert(key, std::move(stamped).take().data, /*prefetched=*/true);
}

std::shared_ptr<BlockServer::PeerLink> BlockServer::peer_link(
    const ServerAddress& addr, std::size_t lane) {
  std::lock_guard lk(peer_mu_);
  auto& slot = peers_[addr.key() + "#" + std::to_string(lane)];
  if (!slot) slot = std::make_shared<PeerLink>();
  return slot;
}

core::Result<net::Message> BlockServer::peer_exchange(
    const ServerAddress& addr, const net::Message& request,
    std::size_t lane) {
  if (!peer_connector_) {
    return core::failed_precondition("server " + name_ +
                                     " has no peer connector");
  }
  auto link = peer_link(addr, lane);
  std::lock_guard lk(link->mu);
  if (!link->stream) {
    auto stream = peer_connector_(addr);
    if (!stream.is_ok()) {
      ++link->failures;
      return stream.status();
    }
    link->stream = std::move(stream).take();
  }
  if (auto st = net::send_message(*link->stream, request); !st.is_ok()) {
    link->stream->close();
    link->stream = nullptr;
    ++link->failures;
    return st;
  }
  auto reply = net::recv_message(*link->stream);
  if (!reply.is_ok()) {
    link->stream->close();
    link->stream = nullptr;
    ++link->failures;
    return reply.status();
  }
  ++link->exchanges;
  link->bytes += request.payload.size() + reply.value().payload.size();
  return reply;
}

net::Message BlockServer::handle_ingest_write(IngestWriteRequest&& req,
                                              const obs::TraceContext& trace) {
  // Local apply: the client->primary hop carries generation 0, which
  // allocates current + 1 here; forwarded hops carry the allocated stamp.
  // For EC overwrites the replaced bytes come back from the same critical
  // section, so the parity delta below is exactly this generation
  // transition's delta even when writers race on the block (deltas XOR,
  // so parity converges regardless of the order they land in).
  std::vector<std::uint8_t> replaced;
  auto gen = apply_write(req.dataset, req.block, req.data, req.generation,
                         /*bump=*/true,
                         req.deltas.empty() ? nullptr : &replaced);
  if (!gen.is_ok()) return encode_error_reply(gen.status());
  std::vector<std::uint8_t> delta;
  if (!req.deltas.empty()) {
    delta = ingest::make_delta(replaced, req.data);
  }

  IngestWriteReply reply;
  reply.block = req.block;
  reply.generation = gen.value();
  reply.acks = 1;

  // Pipeline down the remaining replica chain.  A broken hop takes the
  // whole tail with it (the pipeline cannot skip a link); the tail is
  // reported back as missed so the client can hand it to the fixup queue.
  if (!req.chain.empty()) {
    OBS_STAGE("serv.chain_fwd");
    IngestWriteRequest fwd;
    fwd.dataset = req.dataset;
    fwd.block = req.block;
    fwd.generation = gen.value();
    fwd.ack_policy = req.ack_policy;
    fwd.data = std::move(req.data);
    fwd.chain.assign(req.chain.begin() + 1, req.chain.end());
    net::Message fwd_msg = encode(fwd);
    if (trace.sampled()) {
      // The forward is a new hop of the same request: same trace, fresh
      // span, with a lifeline event marking the relay.
      fwd_msg.trace_id = trace.trace_id;
      fwd_msg.span_id = obs::new_span_id();
      if (logger_) {
        logger_->log(netlog::tags::kDpssChainForward,
                     static_cast<std::int64_t>(req.block), -1,
                     {{"TRACE", obs::trace_hex(trace.trace_id)},
                      {"SPAN", obs::trace_hex(fwd_msg.span_id)},
                      {"PARENT", obs::trace_hex(trace.span_id)},
                      {"NEXT", req.chain.front().key()}});
      }
    }
    // Lane = the tail the next hop still has to forward; see peer_exchange.
    auto exchanged = peer_exchange(req.chain.front(), fwd_msg,
                                   fwd.chain.size());
    bool forwarded = false;
    if (exchanged.is_ok()) {
      auto sub = decode<IngestWriteReply>(exchanged.value());
      if (sub.is_ok()) {
        forwarded = true;
        chain_forwards_.inc();
        reply.acks += sub.value().acks;
        for (auto& a : sub.value().missed) {
          reply.missed.push_back(std::move(a));
        }
      }
    }
    if (!forwarded) {
      for (const auto& a : req.chain) reply.missed.push_back(a);
    }
  }

  // Ship the GF delta to each parity owner (EC overwrites).  Targets are
  // independent: one failed owner does not block the others.
  for (const auto& d : req.deltas) {
    OBS_STAGE("serv.parity_send");
    ParityDeltaRequest pd;
    pd.dataset = d.dataset;
    pd.block = d.block;
    pd.coefficient = d.coefficient;
    pd.delta = delta;
    net::Message pd_msg = encode(pd);
    if (trace.sampled()) {
      pd_msg.trace_id = trace.trace_id;
      pd_msg.span_id = obs::new_span_id();
      if (logger_) {
        logger_->log(netlog::tags::kDpssParityDelta,
                     static_cast<std::int64_t>(d.block), -1,
                     {{"TRACE", obs::trace_hex(trace.trace_id)},
                      {"SPAN", obs::trace_hex(pd_msg.span_id)},
                      {"PARENT", obs::trace_hex(trace.span_id)},
                      {"TARGET", d.server.key()}});
      }
    }
    auto exchanged = peer_exchange(d.server, pd_msg, /*lane=*/0);
    bool applied = false;
    if (exchanged.is_ok()) {
      applied = decode<ParityDeltaReply>(exchanged.value()).is_ok();
    }
    if (applied) {
      reply.acks += 1;
    } else {
      reply.missed.push_back(d.server);
    }
  }
  return encode(reply);
}

net::Message BlockServer::handle_parity_delta(ParityDeltaRequest&& req) {
  OBS_STAGE("serv.parity_delta");
  std::uint64_t next_gen;
  {
    // The whole read-modify-write holds mu_: two deltas racing for one
    // parity block (overwrites of sibling data slices) must serialise or
    // one update is lost.
    std::lock_guard lk(mu_);
    Stored& slot = store_[req.dataset][req.block];
    if (slot.data.size() < req.delta.size()) {
      slot.data.resize(req.delta.size(), 0);
    }
    // Out-of-place kernel: the old generation's bytes stay intact until
    // the swap, so a concurrent reader copying them out under mu_-free
    // cache pins never observes a half-applied delta.
    std::vector<std::uint8_t> next(slot.data.size());
    codec::gf256::delta_apply(next.data(), slot.data.data(), req.delta.data(),
                              req.delta.size(), req.coefficient);
    std::copy(slot.data.begin() +
                  static_cast<std::ptrdiff_t>(req.delta.size()),
              slot.data.end(),
              next.begin() + static_cast<std::ptrdiff_t>(req.delta.size()));
    const std::uint64_t old_gen = slot.generation;
    next_gen = old_gen + 1;
    slot.data = std::move(next);
    slot.generation = next_gen;
    if (cache_) {
      cache_->erase(cache::BlockKey{req.dataset, req.block, old_gen});
      cache_->insert(cache::BlockKey{req.dataset, req.block, next_gen},
                     slot.data);
    }
  }
  parity_deltas_.inc();
  ParityDeltaReply reply;
  reply.block = req.block;
  reply.generation = next_gen;
  return encode(reply);
}

void BlockServer::serve(net::StreamPtr stream) {
  std::lock_guard lk(mu_);
  if (stopping_.load()) return;
  streams_.push_back(stream);
  threads_.emplace_back([this, stream] { service_loop(stream); });
}

void BlockServer::shutdown() {
  stopping_.store(true);
  std::vector<std::thread> threads;
  {
    std::lock_guard lk(mu_);
    for (auto& s : streams_) s->close();
    streams_.clear();
    threads.swap(threads_);
  }
  {
    // Drop pooled peer links: a revived server re-establishes them lazily.
    std::lock_guard lk(peer_mu_);
    for (auto& [key, link] : peers_) {
      std::lock_guard plk(link->mu);
      if (link->stream) link->stream->close();
      link->stream = nullptr;
    }
    peers_.clear();
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
  if (prefetcher_) prefetcher_->drain();
  stopping_.store(false);
}

void BlockServer::service_loop(net::StreamPtr stream) {
  const std::uint64_t conn_id = allocate_conn_id();
  for (;;) {
    auto msg = net::recv_message(*stream);
    if (!msg.is_ok()) return;  // peer closed
    net::Message reply = handle_request(std::move(msg).take(), conn_id);
    if (auto st = net::send_message(*stream, reply); !st.is_ok()) return;
  }
}

net::Message BlockServer::handle_request(net::Message&& msg,
                                         std::uint64_t conn_id) {
  net::Reply reply = dispatch(std::move(msg), conn_id);
  if (reply.delay_seconds > 0) clock_->sleep_for(reply.delay_seconds);
  return std::move(reply.message);
}

net::Reply BlockServer::dispatch(net::Message&& msg, std::uint64_t conn_id) {
  in_flight_.add(1);
  requests_.inc();

  const obs::TraceContext trace{msg.trace_id, msg.span_id};
  const double t0 = clock_->now();
  if (trace.sampled() && logger_) {
    logger_->log(netlog::tags::kDpssServIn, -1, -1,
                 {{"TRACE", obs::trace_hex(trace.trace_id)},
                  {"SPAN", obs::trace_hex(trace.span_id)},
                  {"TYPE", std::to_string(msg.type)}});
  }
  obs::Histogram* latency = nullptr;
  // When the reply may leave (a block read waits for its disk read), and
  // the attribution fields for the SERV_OUT lifeline event: how much of
  // this span was modeled disk-queue wait, and how many payload bytes
  // moved.
  double ready = t0;
  double queue_seconds = 0.0;
  std::uint64_t served_bytes = 0;

  net::Message reply;
  switch (msg.type) {
      case kBlockReadRequest: {
        OBS_STAGE("serv.read");
        latency = &read_seconds_;
        auto req = decode<BlockReadRequest>(msg);
        if (!req.is_ok()) {
          reply = encode_error_reply(req.status());
          break;
        }
        bool cache_hit = false;
        std::uint64_t generation = 0;
        DiskRead wait;
        auto data = read_block_serviced(req.value().dataset, req.value().block,
                                        conn_id, &cache_hit, &generation,
                                        &wait);
        if (!data.is_ok()) {
          reply = encode_error_reply(data.status());
          break;
        }
        served_bytes = data.value().size();
        ready = wait.ready;
        queue_seconds = wait.queue;
        if (logger_) {
          logger_->log("DPSS_BLOCK_READ", -1, -1,
                       {{"BYTES", std::to_string(data.value().size())},
                        {"BLOCK", std::to_string(req.value().block)},
                        {"CACHE", cache_hit ? "HIT" : "MISS"}});
        }
        BlockReadReply r;
        r.block = req.value().block;
        r.generation = generation;
        if (req.value().compression.codec != Codec::kNone) {
          // Wire-level compression on the block service (section 5).
          auto wire = compress_block(data.value(), req.value().compression);
          if (!wire.is_ok()) {
            reply = encode_error_reply(wire.status());
            break;
          }
          r.compressed = true;
          r.data = std::move(wire).take();
        } else {
          r.data = std::move(data).take();
        }
        reply = encode(r);
        break;
      }
      case kBlockWriteRequest: {
        OBS_STAGE("serv.write");
        latency = &write_seconds_;
        auto req = decode<BlockWriteRequest>(msg);
        if (!req.is_ok()) {
          reply = encode_error_reply(req.status());
          break;
        }
        const std::uint64_t block = req.value().block;
        core::Status st =
            req.value().generation == 0
                ? put_block(req.value().dataset, block,
                            std::move(req.value().data))
                : put_block_at(req.value().dataset, block,
                               std::move(req.value().data),
                               req.value().generation);
        reply = st.is_ok() ? encode(BlockWriteReply{block})
                           : encode_error_reply(st);
        break;
      }
      case kIngestWriteRequest: {
        OBS_STAGE("serv.ingest");
        latency = &write_seconds_;
        auto req = decode<IngestWriteRequest>(msg);
        if (!req.is_ok()) {
          reply = encode_error_reply(req.status());
          break;
        }
        served_bytes = req.value().data.size();
        reply = handle_ingest_write(std::move(req).take(), trace);
        break;
      }
      case kParityDeltaRequest: {
        latency = &write_seconds_;
        auto req = decode<ParityDeltaRequest>(msg);
        if (!req.is_ok()) {
          reply = encode_error_reply(req.status());
          break;
        }
        reply = handle_parity_delta(std::move(req).take());
        break;
      }
      case kIntrospectRequest: {
        auto req = decode<IntrospectRequest>(msg);
        if (!req.is_ok()) {
          reply = encode_error_reply(req.status());
        } else if (req.value().kind == IntrospectKind::kTraceReport) {
          reply = encode_error_reply(core::invalid_argument(
              "trace reports are served by the master"));
        } else {
          reply = encode(IntrospectReply{
              req.value().kind == IntrospectKind::kStats
                  ? registry_.render_text()
                  : obs::Profiler::global().render_collapsed()});
        }
        break;
      }
      default:
        reply = encode_error_reply(
            core::invalid_argument("unknown request type at block server"));
        break;
    }
  const double done = clock_->now();
  const double delay = std::max(0.0, ready - done);
  if (latency) latency->observe(std::max(0.0, done - t0) + delay);
  if (trace.sampled()) {
    // Replies travel under the request's trace so the client can match
    // them; the blocking pipe transport has no reactor to echo for us.
    reply.trace_id = trace.trace_id;
    reply.span_id = trace.span_id;
    if (logger_) {
      char queue[32];
      std::snprintf(queue, sizeof queue, "%.9g", queue_seconds);
      // Stamped when the reply leaves, so the span covers the deferral.
      logger_->log_at(logger_->now() + delay, netlog::tags::kDpssServOut, -1,
                      -1,
                      {{"TRACE", obs::trace_hex(trace.trace_id)},
                       {"SPAN", obs::trace_hex(trace.span_id)},
                       {"QUEUE", queue},
                       {"BYTES", std::to_string(served_bytes)}});
    }
  }
  in_flight_.add(-1);
  return net::Reply(std::move(reply), delay);
}

}  // namespace visapult::dpss
