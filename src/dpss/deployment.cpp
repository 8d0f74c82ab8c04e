#include "dpss/deployment.h"

#include <cstring>

#include "codec/reed_solomon.h"
#include "codec/stripe_layout.h"
#include "core/clock.h"
#include "net/stream.h"
#include "obs/metrics.h"
#include "placement/placement_map.h"

namespace visapult::dpss {

std::uint64_t export_spans_to_master(Master& master, TraceExport& e) {
  std::vector<obs::SpanRecord> spans;
  e.extractor.feed(e.sink->drain(), spans);
  if (spans.empty()) return 0;
  SpanExportBatch batch;
  batch.host = e.host;
  batch.sent_at = core::global_real_clock().now();
  batch.spans = std::move(spans);
  // Through the kSpanExport codec, not a direct collector call: the
  // in-process deployments exercise the exact bytes a remote exporter
  // would put on the wire.
  auto accepted =
      decode<SpanExportReply>(master.handle_request(encode(batch)));
  return accepted.is_ok() ? accepted.value().accepted : 0;
}

namespace {

// Flatten one front door's transport counters into exposition samples
// under `prefix` (dpss_master_net / dpss_server_net).  `role` labels the
// dpss_util_* connection families so master and server samples stay
// distinguishable in a merged scrape.
void collect_front_stats(const std::string& prefix,
                         const net::ReactorServerStats& s,
                         std::vector<obs::Sample>& out,
                         const char* role = "server") {
  auto emit = [&](const char* suffix, double v) {
    out.push_back(obs::Sample{prefix + suffix, "", v});
  };
  emit("_connections_accepted_total", static_cast<double>(s.accepted));
  emit("_connections_closed_total", static_cast<double>(s.closed));
  emit("_requests_total", static_cast<double>(s.requests));
  emit("_overlapped_requests_total",
       static_cast<double>(s.overlapped_requests));
  emit("_read_timeouts_total", static_cast<double>(s.read_timeouts));
  emit("_overflow_closes_total", static_cast<double>(s.overflow_closes));
  emit("_accept_failures_total", static_cast<double>(s.accept_failures));
  emit("_active_connections", static_cast<double>(s.active_conns));
  emit("_queued_write_bytes", static_cast<double>(s.queued_write_bytes));
  emit("_queued_write_hwm_bytes",
       static_cast<double>(s.queued_write_hwm_bytes));
  emit("_conn_write_queue_hwm_bytes",
       static_cast<double>(s.conn_write_queue_hwm_bytes));
  emit("_send_calls_total", static_cast<double>(s.send_calls));
  emit("_recv_calls_total", static_cast<double>(s.recv_calls));
  emit("_copy_bytes_total", static_cast<double>(s.copy_bytes));
  // USE view of the front door: bytes moved (utilization) and reply
  // backlog (saturation).
  const std::string label = obs::label_pair("front", role);
  out.push_back({"dpss_util_conn_bytes_read_total", label,
                 static_cast<double>(s.bytes_read)});
  out.push_back({"dpss_util_conn_bytes_written_total", label,
                 static_cast<double>(s.bytes_written)});
  out.push_back({"dpss_util_conn_backlog_bytes", label,
                 static_cast<double>(s.queued_write_bytes)});
}

// One worker pool's USE samples: depth/peak (saturation), task counters
// (utilization).  The wait/run histograms are registered instruments fed
// by the pool's TaskObserver, so they expand to quantiles on their own.
void collect_pool_stats(const core::ThreadPoolStats& s,
                        std::vector<obs::Sample>& out,
                        const std::string& prefix = "dpss_util_pool") {
  out.push_back({prefix + "_queue_depth", "",
                 static_cast<double>(s.queue_depth)});
  out.push_back({prefix + "_queue_peak", "",
                 static_cast<double>(s.queue_peak)});
  out.push_back({prefix + "_threads", "",
                 static_cast<double>(s.threads)});
  out.push_back({prefix + "_tasks_submitted_total", "",
                 static_cast<double>(s.submitted)});
  out.push_back({prefix + "_tasks_completed_total", "",
                 static_cast<double>(s.completed)});
  out.push_back({prefix + "_saturation", "", s.saturation()});
}

}  // namespace

// ---- shared ingest -----------------------------------------------------------

core::Status ingest_dataset(Master& master, std::vector<BlockServer*> servers,
                            std::vector<ServerAddress> addresses,
                            const vol::DatasetDesc& desc,
                            std::uint32_t block_bytes,
                            std::uint32_t stripe_blocks,
                            std::uint32_t replication_factor,
                            const codec::EcProfile& ec) {
  if (servers.empty()) return core::invalid_argument("no servers");
  if (replication_factor == 0) replication_factor = 1;
  if (replication_factor > servers.size()) {
    return core::invalid_argument("replication factor exceeds server count");
  }
  if (ec.enabled()) {
    if (replication_factor > 1) {
      return core::invalid_argument(
          "erasure coding and replication are mutually exclusive");
    }
    if (ec.total_slices() > servers.size()) {
      return core::invalid_argument("EC profile needs k+m distinct servers");
    }
    if (ec.total_slices() > 255) {
      // GF(2^8) has 256 evaluation points; reject before the parity pass
      // (ReedSolomon would clamp its own profile and the encode loop
      // below would run off the end of the parity vector).
      return core::invalid_argument("EC profile exceeds GF(2^8) limits");
    }
    // EC geometry: one placement group is one stripe of k data blocks.
    stripe_blocks = ec.data_slices;
  }
  DatasetLayout layout;
  layout.total_bytes = desc.total_bytes();
  layout.block_bytes = block_bytes;
  layout.stripe_blocks = stripe_blocks;
  layout.server_count = static_cast<std::uint32_t>(servers.size());

  PlacementOptions options;
  options.replication_factor = replication_factor;
  options.ec = ec;
  std::unique_ptr<placement::PlacementMap> map;
  if (options.uses_ring()) {
    placement::HashRing ring(addresses, placement::kDefaultVnodes);
    map = std::make_unique<placement::PlacementMap>(
        desc.name, std::move(ring), layout.block_count(), stripe_blocks,
        replication_factor, ec);
    if (ec.enabled()) {
      // The k+m <= servers count check above cannot catch duplicate
      // addresses; a group with fewer than k+m distinct owners must fail
      // the ingest loudly, not misplace slices.
      for (std::uint64_t g = 0; g < map->group_count(); ++g) {
        if (map->replicas_for_group(g).servers.size() < ec.total_slices()) {
          return core::invalid_argument(
              "ring yielded fewer than k+m distinct servers for group " +
              std::to_string(g));
        }
      }
    }
  }
  auto owners = [&](std::uint64_t block) -> std::vector<std::uint32_t> {
    if (map && ec.enabled()) {
      // Systematic data slice: exactly one owner; parity is encoded after
      // the data pass below.
      const int s = map->slice_server(
          map->group_of(block), static_cast<std::uint32_t>(block % ec.data_slices));
      return {static_cast<std::uint32_t>(s < 0 ? 0 : s)};
    }
    if (map) return map->replicas_for_block(block).servers;
    return {layout.server_for_block(block)};
  };

  const std::size_t step_bytes = desc.bytes_per_step();
  for (int t = 0; t < desc.timesteps; ++t) {
    const vol::Volume v = desc.generate(t);
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(v.data().data());
    const std::uint64_t base = static_cast<std::uint64_t>(t) * step_bytes;
    std::uint64_t at = 0;
    while (at < step_bytes) {
      const std::uint64_t abs = base + at;
      const std::uint64_t block = abs / block_bytes;
      // Timestep boundaries are block-aligned only if step_bytes is a
      // multiple of block_bytes; handle the general case by splitting at
      // block boundaries and merging partial blocks across steps.
      const std::uint64_t in_block = abs % block_bytes;
      const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(
          step_bytes - at, block_bytes - in_block));
      for (std::uint32_t owner : owners(block)) {
        BlockServer* srv = servers[owner];
        if (in_block == 0 && n == block_bytes) {
          srv->put_block(desc.name, block,
                         std::vector<std::uint8_t>(bytes + at, bytes + at + n));
        } else {
          // Read-modify-write the partial block.
          std::vector<std::uint8_t> blk;
          auto existing = srv->get_block(desc.name, block);
          if (existing.is_ok()) {
            blk = std::move(existing).take();
          }
          const std::uint64_t want = layout.block_length(block);
          if (blk.size() < want) blk.resize(static_cast<std::size_t>(want), 0);
          std::memcpy(blk.data() + in_block, bytes + at, n);
          srv->put_block(desc.name, block, std::move(blk));
        }
      }
      at += n;
    }
  }

  if (ec.enabled()) {
    // Parity pass: for each group, read back its k data slices (zero-pad
    // the dataset tail and the short final block -- the decoder applies
    // the same padding), encode, and write the m parity slices to their
    // owners under the companion parity dataset.
    const codec::ReedSolomon rs(ec);
    const std::string parity_name =
        codec::StripeLayout::parity_dataset(desc.name);
    const std::uint32_t k = ec.data_slices, m = ec.parity_slices;
    std::vector<std::vector<std::uint8_t>> data(k);
    std::vector<const std::uint8_t*> ptrs(k);
    for (std::uint64_t g = 0; g < map->group_count(); ++g) {
      for (std::uint32_t i = 0; i < k; ++i) {
        const std::uint64_t block = g * k + i;
        if (block >= layout.block_count()) {
          data[i].assign(block_bytes, 0);
        } else {
          const int owner = map->slice_server(g, i);
          auto blk = servers[static_cast<std::size_t>(owner)]->get_block(
              desc.name, block);
          if (!blk.is_ok()) return blk.status();
          data[i] = std::move(blk).take();
          data[i].resize(block_bytes, 0);
        }
        ptrs[i] = data[i].data();
      }
      std::vector<std::vector<std::uint8_t>> parity;
      rs.encode(ptrs, block_bytes, &parity);
      for (std::uint32_t j = 0; j < m; ++j) {
        const int owner = map->slice_server(g, k + j);
        servers[static_cast<std::size_t>(owner)]->put_block(
            parity_name, g * m + j, std::move(parity[j]));
      }
    }
  }
  return master.register_dataset(desc.name, layout, std::move(addresses),
                                 options);
}

namespace {

// Storage identity of slice `s` of group `g`: data slices are the dataset's
// own blocks, parity slices live in the companion "#parity" dataset.
struct SliceKey {
  std::string dataset;
  std::uint64_t block = 0;
};

SliceKey ec_slice_key(const placement::RebalancePlan& plan, std::uint64_t g,
                      std::uint32_t s) {
  const std::uint32_t k = plan.ec.data_slices;
  if (s < k) return {plan.dataset, g * k + s};
  return {codec::StripeLayout::parity_dataset(plan.dataset),
          g * plan.ec.parity_slices + (s - k)};
}

// Stored byte length of slice `s` of group `g` (parity is always a full
// block; the final data block clips to the dataset size).
std::size_t ec_slice_len(const placement::RebalancePlan& plan, std::uint64_t g,
                         std::uint32_t s) {
  if (s >= plan.ec.data_slices) return plan.block_bytes;
  const std::uint64_t start =
      (g * plan.ec.data_slices + s) * static_cast<std::uint64_t>(plan.block_bytes);
  if (start >= plan.total_bytes) return 0;
  return static_cast<std::size_t>(std::min<std::uint64_t>(
      plan.block_bytes, plan.total_bytes - start));
}

// Rebuild slice `s` of group `g` from any k surviving slices at their old
// owners -- the executor-side mirror of the client's degraded read.
core::Status ec_reconstruct_slice(
    const placement::RebalancePlan& plan, const codec::ReedSolomon& rs,
    std::uint64_t g, std::uint32_t s,
    const std::function<BlockServer*(const ServerAddress&)>& resolve,
    std::vector<std::uint8_t>* out) {
  const auto it = plan.old_slice_owners.find(g);
  if (it == plan.old_slice_owners.end()) {
    return core::unavailable("no old slice owners recorded for group " +
                             std::to_string(g));
  }
  const auto& owners = it->second;
  const std::uint32_t k = plan.ec.data_slices;
  const std::uint32_t total = plan.ec.total_slices();
  const std::size_t n = plan.block_bytes;
  std::vector<std::vector<std::uint8_t>> shards(total);
  std::vector<char> present(total, 0);
  std::uint32_t have = 0;
  for (std::uint32_t t = 0; t < total && have < k; ++t) {
    if (t < k && ec_slice_len(plan, g, t) == 0) {
      // Zero-padded tail slice: known content, no fetch needed.
      shards[t].assign(n, 0);
      present[t] = 1;
      ++have;
      continue;
    }
    if (t >= owners.size()) break;
    BlockServer* srv = resolve(owners[t]);
    if (!srv) continue;
    const SliceKey key = ec_slice_key(plan, g, t);
    auto data = srv->get_block(key.dataset, key.block);
    if (!data.is_ok()) continue;
    shards[t] = std::move(data).take();
    shards[t].resize(n, 0);
    present[t] = 1;
    ++have;
  }
  // Parity re-derivation is only needed when the wanted slice IS parity.
  if (auto st = rs.reconstruct(shards, present, n,
                               /*rebuild_parity=*/s >= k);
      !st.is_ok()) {
    return st;
  }
  *out = std::move(shards[s]);
  out->resize(ec_slice_len(plan, g, s));
  return core::Status::ok();
}

core::Status apply_ec_plan(
    const placement::RebalancePlan& plan,
    const std::function<BlockServer*(const ServerAddress&)>& resolve) {
  if (plan.block_bytes == 0) {
    return core::invalid_argument("EC plan lacks block geometry");
  }
  // One decoder for the whole plan: the coding-matrix setup is O(k^3).
  const codec::ReedSolomon rs(plan.ec);
  for (const auto& copy : plan.slice_copies) {
    BlockServer* target = resolve(copy.target);
    if (!target) {
      return core::unavailable("rebalance target unreachable: " +
                               copy.target.key());
    }
    const SliceKey key = ec_slice_key(plan, copy.group, copy.slice);
    std::vector<std::uint8_t> bytes;
    std::uint64_t generation = 0;
    bool have = false;
    if (BlockServer* source = resolve(copy.source)) {
      auto data = source->stamped_block(key.dataset, key.block);
      if (data.is_ok()) {
        generation = data.value().generation;
        bytes = std::move(data).take().data;
        have = true;
      }
    }
    if (!have) {
      // Disk loss at the source: degrade the copy into a reconstruction.
      // The rebuilt bytes reflect the surviving slices' current state, so
      // they carry no single stamp (generation 0 keeps the target's).
      if (auto st = ec_reconstruct_slice(plan, rs, copy.group, copy.slice,
                                         resolve, &bytes);
          !st.is_ok()) {
        return st;
      }
    }
    auto st = have ? target->put_block_at(key.dataset, key.block,
                                          std::move(bytes), generation)
                   : target->put_block(key.dataset, key.block,
                                       std::move(bytes));
    if (!st.is_ok() && st.code() != core::StatusCode::kFailedPrecondition) {
      return st;
    }
  }
  for (const auto& drop : plan.slice_drops) {
    BlockServer* server = resolve(drop.server);
    if (!server) continue;  // a dead server's store needs no cleanup
    const SliceKey key = ec_slice_key(plan, drop.group, drop.slice);
    server->drop_block(key.dataset, key.block);
  }
  return core::Status::ok();
}

}  // namespace

core::Status apply_rebalance_plan(
    const placement::RebalancePlan& plan,
    const std::function<BlockServer*(const ServerAddress&)>& resolve) {
  // Runs as the master's rebalance executor, i.e. before the new map is
  // published.  Copies first regardless, so a partially-executed plan
  // never leaves a published replica without its blocks.
  if (plan.is_ec()) return apply_ec_plan(plan, resolve);
  for (const auto& copy : plan.copies) {
    BlockServer* source = resolve(copy.source);
    BlockServer* target = resolve(copy.target);
    if (!target) {
      return core::unavailable("rebalance target unreachable: " +
                               copy.target.key());
    }
    if (!source) {
      return core::unavailable("rebalance source unreachable: " +
                               copy.source.key());
    }
    for (std::uint64_t b = plan.group_first_block(copy.group);
         b < plan.group_last_block(copy.group); ++b) {
      auto stamped = source->stamped_block(plan.dataset, b);
      if (!stamped.is_ok()) return stamped.status();
      // put_block_at is write-through (the replica fill is admitted to the
      // target's memory tier, so a failover read hits warm) and carries
      // the source's generation, so an overwritten block stays
      // overwritten on its new replica.  A target already past this stamp
      // keeps its newer copy.
      const std::uint64_t gen = stamped.value().generation;
      auto st = target->put_block_at(plan.dataset, b,
                                     std::move(stamped).take().data, gen);
      if (!st.is_ok() &&
          st.code() != core::StatusCode::kFailedPrecondition) {
        return st;
      }
    }
  }
  for (const auto& drop : plan.drops) {
    BlockServer* server = resolve(drop.server);
    if (!server) continue;  // a dead server's store needs no cleanup
    for (std::uint64_t b = plan.group_first_block(drop.group);
         b < plan.group_last_block(drop.group); ++b) {
      server->drop_block(plan.dataset, b);
    }
  }
  return core::Status::ok();
}

core::Status apply_fixup(
    const ingest::FixupTask& task, Master& master,
    const std::function<BlockServer*(const ServerAddress&)>& resolve) {
  BlockServer* target = resolve(task.target);
  if (!target) {
    return core::unavailable("fixup target unreachable: " + task.target.key());
  }
  static const std::string kParitySuffix = "#parity";
  const bool is_parity =
      task.dataset.size() > kParitySuffix.size() &&
      task.dataset.compare(task.dataset.size() - kParitySuffix.size(),
                           kParitySuffix.size(), kParitySuffix) == 0;
  if (is_parity) {
    // Re-encode the parity block from the group's data slices at their
    // current state: every delta the target missed -- however many -- is
    // folded in by one encode pass.
    const std::string base =
        task.dataset.substr(0, task.dataset.size() - kParitySuffix.size());
    auto map = master.placement_map(base);
    if (!map || !map->erasure_coded()) {
      return core::failed_precondition(
          "parity fixup for non-EC dataset " + base);
    }
    auto open = master.lookup(base);
    if (!open.is_ok()) return open.status();
    const codec::EcProfile& ec = map->ec_profile();
    const std::uint32_t k = ec.data_slices;
    const std::uint64_t group = task.block / ec.parity_slices;
    const std::uint32_t parity_index =
        static_cast<std::uint32_t>(task.block % ec.parity_slices);
    const std::uint32_t block_bytes = open.value().layout.block_bytes;
    std::vector<std::vector<std::uint8_t>> data(k);
    std::vector<const std::uint8_t*> ptrs(k);
    for (std::uint32_t i = 0; i < k; ++i) {
      const std::uint64_t b = group * k + i;
      if (b >= map->block_count()) {
        data[i].assign(block_bytes, 0);
      } else {
        const int owner = map->slice_server(group, i);
        if (owner < 0) {
          return core::unavailable("no owner for data slice " +
                                   std::to_string(i));
        }
        BlockServer* src = resolve(
            map->ring().servers()[static_cast<std::size_t>(owner)]);
        if (!src) {
          return core::unavailable("data-slice owner unreachable for group " +
                                   std::to_string(group));
        }
        auto blk = src->get_block(base, b);
        if (!blk.is_ok()) return blk.status();
        data[i] = std::move(blk).take();
        data[i].resize(block_bytes, 0);
      }
      ptrs[i] = data[i].data();
    }
    const codec::ReedSolomon rs(ec);
    std::vector<std::vector<std::uint8_t>> parity;
    rs.encode(ptrs, block_bytes, &parity);
    // Parity generations allocate locally; stamp past whatever the target
    // carries so the re-encode supersedes the missed deltas.
    const std::uint64_t gen =
        std::max(task.generation,
                 target->block_generation(task.dataset, task.block) + 1);
    return target->put_block_at(task.dataset, task.block,
                                std::move(parity[parity_index]), gen);
  }
  // Replicated (or classic striped) block: copy, stamp included, from a
  // replica that has reached the missed generation.
  auto map = master.placement_map(task.dataset);
  if (!map) {
    return core::failed_precondition("fixup for unplaced dataset " +
                                     task.dataset);
  }
  const auto& replicas = map->replicas_for_block(task.block);
  for (std::uint32_t s : replicas.servers) {
    if (s >= map->ring().servers().size()) continue;
    const ServerAddress& addr = map->ring().servers()[s];
    if (addr == task.target) continue;
    BlockServer* src = resolve(addr);
    if (!src) continue;
    auto stamped = src->stamped_block(task.dataset, task.block);
    if (!stamped.is_ok()) continue;
    if (stamped.value().generation < task.generation) continue;  // lagging too
    const std::uint64_t gen = stamped.value().generation;
    auto st = target->put_block_at(task.dataset, task.block,
                                   std::move(stamped).take().data, gen);
    // A target already past this stamp needs no fixup.
    if (!st.is_ok() && st.code() == core::StatusCode::kFailedPrecondition) {
      return core::Status::ok();
    }
    return st;
  }
  return core::unavailable("no replica holds generation " +
                           std::to_string(task.generation) + " of block " +
                           std::to_string(task.block) + " of " + task.dataset);
}

// ---- deployment --------------------------------------------------------------

namespace {

// Every door shares these.  Outbound connects (clients and server-to-server
// peer links) fail with kDeadlineExceeded after kConnectTimeoutSeconds
// instead of hanging on a dead or overloaded address; failover then tries
// the next replica.  Once a request's first byte arrives the rest must
// follow within kRequestReadTimeoutSeconds, or the connection is shed and
// counted.  Un-drained reply bytes beyond kWriteQueueCapBytes close a
// connection (back-pressure).
constexpr double kConnectTimeoutSeconds = 5.0;
constexpr double kRequestReadTimeoutSeconds = 10.0;
constexpr std::size_t kWriteQueueCapBytes = 4u << 20;

net::ReactorServerOptions front_options() {
  net::ReactorServerOptions o;
  o.request_read_timeout_seconds = kRequestReadTimeoutSeconds;
  o.write_queue_cap_bytes = kWriteQueueCapBytes;
  return o;
}

}  // namespace

// One block server's doors, plus the collector exporting their stats
// through the server's registry.  The client door runs block reads (and
// the prefetch fills they trigger) on the event loops and writes and
// introspection on its worker pool; the peer door runs everything on an
// elastic pool.  Declaration order is teardown order in reverse: the pools
// outlive the doors that dispatch onto them.
struct Deployment::ServerDoors {
  std::unique_ptr<core::ThreadPool> workers;
  std::unique_ptr<core::ThreadPool> peer_workers;
  std::unique_ptr<net::ReactorServer> front;
  // Dedicated peer door: chain forwards and parity deltas from other
  // servers land here on their own pool.  With a single shared pool per
  // server, concurrent client writes can park every worker on a blocking
  // peer exchange -- A's workers wait on B's replies while B's workers wait
  // on A's, and the forwards that would unblock them sit queued behind the
  // blocked workers forever.  Splitting the doors makes the wait graph
  // acyclic: a forwarded hop always carries a strictly shorter chain tail,
  // so peer-pool workers bottom out at a hop that completes locally.
  std::unique_ptr<net::ReactorServer> peer_front;
  std::uint64_t collector = 0;
};

Deployment::Deployment(int server_count, DiskModel disk, bool throttle,
                       ServerCacheConfig cache, TcpDeploymentOptions options)
    : disk_(disk),
      throttle_(throttle),
      cache_config_(cache),
      options_(options) {
  for (int i = 0; i < server_count; ++i) {
    members_.emplace_back(new_server(i));
  }
  // Generation source for the master's rebalance planner: the min stamp
  // `addr` holds across a placement group's blocks, or -1 when it does not
  // hold the whole group (it cannot source the copy).  Invoked under the
  // master's request mutex; the catalog and block stores lock
  // independently, matching the executor's lock order.
  master_.set_generation_view([this](const std::string& dataset,
                                     const ServerAddress& addr,
                                     std::uint64_t group) -> std::int64_t {
    BlockServer* server = server_for(addr);
    if (!server) return -1;
    auto entry = master_.catalog().lookup(dataset);
    if (!entry) return -1;
    const std::uint64_t first = group * entry->layout.stripe_blocks;
    const std::uint64_t last = std::min<std::uint64_t>(
        first + entry->layout.stripe_blocks, entry->layout.block_count());
    if (first >= last) return -1;
    std::int64_t min_gen = -1;
    for (std::uint64_t b = first; b < last; ++b) {
      if (!server->has_block(dataset, b)) return -1;
      const auto gen =
          static_cast<std::int64_t>(server->block_generation(dataset, b));
      if (min_gen < 0 || gen < min_gen) min_gen = gen;
    }
    return min_gen;
  });
}

std::unique_ptr<BlockServer> Deployment::new_server(int i) {
  auto server = std::make_unique<BlockServer>(
      "dpss-server-" + std::to_string(i), disk_, throttle_, cache_config_);
  // Chain forwards and parity deltas go through the transport like client
  // traffic -- including its connect deadline and liveness gate, so a hop
  // into a dead peer fails over instead of hanging the chain -- but dial
  // the target's peer door.  The chain carries client addresses, so the
  // rewrite happens here, against the doors recorded right now.
  server->set_peer_connector(
      [this](const ServerAddress& addr) -> core::Result<net::StreamPtr> {
        ServerAddress target = addr;
        {
          std::lock_guard lk(state_mu_);
          for (const Member& m : members_) {
            if (m.addr.client == addr) target = m.addr.peer;
          }
        }
        return connect(target);
      });
  return server;
}

int Deployment::server_count() const {
  std::lock_guard lk(state_mu_);
  return static_cast<int>(members_.size());
}

ServerAddress Deployment::server_address(int i) const {
  std::lock_guard lk(state_mu_);
  if (i < 0 || static_cast<std::size_t>(i) >= members_.size()) return {};
  return members_[static_cast<std::size_t>(i)].addr.client;
}

ServerAddress Deployment::master_address() const {
  return master_front_ ? master_addr_ : ServerAddress{};
}

Deployment::~Deployment() = default;

core::Status Deployment::open_master_door() {
  if (master_front_) return core::Status::ok();
  // One shared pool of event loops serves the master and every block
  // server; connections are dealt round-robin across the loops.
  reactors_ = std::make_unique<net::ReactorPool>(options_.reactor_loops);

  // Master handlers are pure catalog/health bookkeeping -- they never
  // block, so they run inline on the loops (workers = nullptr).
  Master* master = &master_;
  auto front = std::make_unique<net::ReactorServer>(
      *reactors_,
      [master](net::Message&& msg, std::uint64_t) {
        return master->handle_request(std::move(msg));
      },
      front_options());
  front->set_read_timeout_observer([master] { master->note_read_timeout(); });
  auto addr = open_door(*front, ServerAddress{"master", 0}, master_addr_);
  if (!addr.is_ok()) return addr.status();
  master_addr_ = addr.value();
  master_front_ = std::move(front);

  // The master's exposition additionally carries the shared reactor
  // pool's per-loop counters (labelled loop="N") and its own door.
  master_collector_ = master_.metrics_registry().add_collector(
      [this](std::vector<obs::Sample>& out) {
        const auto loops = reactor_stats();
        for (std::size_t i = 0; i < loops.size(); ++i) {
          const std::string label = "loop=\"" + std::to_string(i) + "\"";
          auto emit = [&](const char* name, double v) {
            out.push_back(obs::Sample{name, label, v});
          };
          emit("net_reactor_wakeups_total",
               static_cast<double>(loops[i].wakeups));
          emit("net_reactor_fd_dispatches_total",
               static_cast<double>(loops[i].fd_dispatches));
          emit("net_reactor_timers_fired_total",
               static_cast<double>(loops[i].timers_fired));
          emit("net_reactor_tasks_run_total",
               static_cast<double>(loops[i].tasks_run));
          emit("net_reactor_fds", static_cast<double>(loops[i].fds));
          emit("net_reactor_timers_pending",
               static_cast<double>(loops[i].timers_pending));
          emit("net_reactor_tasks_queued",
               static_cast<double>(loops[i].tasks_queued));
          // USE view of the loop: busy fraction (utilization) and
          // dispatch wait quantiles (saturation of the task queue).
          emit("dpss_util_loop_busy_fraction", loops[i].busy_fraction());
          emit("dpss_util_loop_busy_seconds", loops[i].busy_seconds);
          emit("dpss_util_loop_idle_seconds", loops[i].idle_seconds);
          const auto dw = reactors_->at(static_cast<int>(i)).dispatch_wait();
          emit("dpss_util_loop_dispatch_wait_seconds_count",
               static_cast<double>(dw.count));
          emit("dpss_util_loop_dispatch_wait_seconds_p50", dw.p50());
          emit("dpss_util_loop_dispatch_wait_seconds_p95", dw.p95());
          emit("dpss_util_loop_dispatch_wait_seconds_p99", dw.p99());
        }
        double busy_max = 0.0;
        for (const auto& l : loops)
          busy_max = std::max(busy_max, l.busy_fraction());
        out.push_back({"dpss_util_loop_busy_fraction_max", "", busy_max});
        // Every TcpStream in this process: the client and peer side of the
        // socket-call count the reactor keeps for its doors.
        const net::TcpCallCounts tcp = net::tcp_call_counts();
        out.push_back({"net_tcp_send_calls_total", "",
                       static_cast<double>(tcp.send_calls)});
        out.push_back({"net_tcp_recv_calls_total", "",
                       static_cast<double>(tcp.recv_calls)});
        out.push_back({"net_tcp_frames_sent_total", "",
                       static_cast<double>(tcp.frames_sent)});
        collect_front_stats("dpss_master_net", master_net_stats(), out,
                            "master");
      });
  return core::Status::ok();
}

core::Status Deployment::open_member(int i) {
  if (auto st = open_master_door(); !st.is_ok()) return st;
  Addresses at;
  std::shared_ptr<ServerDoors> old;
  BlockServer* srv = nullptr;
  {
    std::lock_guard lk(state_mu_);
    const Member& m = members_[static_cast<std::size_t>(i)];
    at = m.addr;
    old = m.doors;
    srv = m.server.get();
  }
  // A revive replaces the closed doors of the killed incarnation.
  if (old) retire(i, *old);
  auto handler = [srv](net::Message&& msg, std::uint64_t conn_id) {
    return srv->dispatch(std::move(msg), conn_id);
  };
  auto d = std::make_shared<ServerDoors>();
  // Write handlers may forward down a replica chain, so each server
  // offloads them to its own worker pool; per-server pools keep a
  // forwarded hop from starving the downstream server's inbound capacity.
  // Block reads never block -- a modelled disk read returns at once and its
  // reply waits out the read on a loop timer -- so they, and the prefetch
  // fills they trigger, run on the loop that read them.
  d->workers =
      std::make_unique<core::ThreadPool>(std::max(1, options_.worker_threads));
  core::ThreadPool* pool = d->workers.get();
  // Feed the pool's per-task wait/run timings into registered histograms
  // so the exposition carries p50/p95/p99 saturation quantiles for each
  // server's worker pool.
  obs::Histogram& wait_hist =
      srv->metrics_registry().histogram("dpss_util_pool_task_wait_seconds");
  obs::Histogram& run_hist =
      srv->metrics_registry().histogram("dpss_util_pool_task_run_seconds");
  pool->set_task_observer([&wait_hist, &run_hist](double wait_s, double run_s) {
    wait_hist.observe(wait_s);
    run_hist.observe(run_s);
  });
  // Block reads are independent of each other, so consecutive reads
  // pipelined on one client connection overlap on the modelled spindles:
  // the window is one deferred reply per spindle.  Writes and
  // introspection stay barriers on the pool.  The peer door keeps strict
  // serial dispatch, every handler on its pool.
  net::ReactorServerOptions front_opts = front_options();
  front_opts.overlappable = [](std::uint32_t type) {
    return type == kBlockReadRequest;
  };
  front_opts.runs_on_loop = front_opts.overlappable;
  front_opts.window =
      static_cast<std::size_t>(std::max(1, srv->disk_model().disks));
  d->front = std::make_unique<net::ReactorServer>(*reactors_, handler,
                                                  front_opts, pool);
  d->front->set_read_timeout_observer([srv] { srv->note_read_timeout(); });
  // The peer door's pool is ELASTIC: client writes saturating the main
  // pool must never starve an incoming chain forward, and a forward
  // blocked on the next hop must never starve that hop's own forward (see
  // ServerDoors::peer_front).  Elasticity is what makes the argument hold
  // at every chain depth: a peer task always gets a worker, so blocking
  // chains bottom out at the terminal hop instead of deadlocking on pool
  // capacity.
  d->peer_workers = std::make_unique<core::ThreadPool>(
      std::max(1, options_.worker_threads), /*elastic=*/true);
  core::ThreadPool* peer_pool = d->peer_workers.get();
  d->peer_front = std::make_unique<net::ReactorServer>(
      *reactors_, handler, front_options(), peer_pool);
  const std::string name = "server-" + std::to_string(i);
  const auto index = static_cast<std::uint16_t>(i);
  auto client = open_door(*d->front, ServerAddress{name, index}, at.client);
  if (!client.is_ok()) return client.status();
  auto peer =
      open_door(*d->peer_front, ServerAddress{name + "-peer", index}, at.peer);
  if (!peer.is_ok()) return peer.status();
  // Surface both doors' transport counters and the worker pools' USE
  // gauges through this server's own kStats registry (removed in retire()
  // before the doors and pools die).
  net::ReactorServer* front = d->front.get();
  net::ReactorServer* peer_front = d->peer_front.get();
  d->collector = srv->metrics_registry().add_collector(
      [front, peer_front, pool, peer_pool](std::vector<obs::Sample>& out) {
        collect_front_stats("dpss_server_net", front->stats(), out);
        collect_front_stats("dpss_server_peer_net", peer_front->stats(), out,
                            "peer");
        collect_pool_stats(pool->stats(), out);
        collect_pool_stats(peer_pool->stats(), out, "dpss_util_peer_pool");
      });
  std::lock_guard lk(state_mu_);
  Member& m = members_[static_cast<std::size_t>(i)];
  m.addr = Addresses{client.value(), peer.value()};
  m.doors = std::move(d);
  m.state = State::kServing;
  return core::Status::ok();
}

void Deployment::retire(int i, ServerDoors& doors) {
  server(i).metrics_registry().remove_collector(doors.collector);
  doors.front->close();
  doors.peer_front->close();
}

Deployment::State Deployment::state(int i) const {
  std::lock_guard lk(state_mu_);
  return i >= 0 && static_cast<std::size_t>(i) < members_.size()
             ? members_[static_cast<std::size_t>(i)].state
             : State::kClosed;
}

core::Status Deployment::start() {
  if (auto st = open_master_door(); !st.is_ok()) return st;
  for (int i = 0; i < server_count(); ++i) {
    if (state(i) != State::kClosed) continue;
    if (auto st = open_member(i); !st.is_ok()) return st;
  }
  return core::Status::ok();
}

core::Result<net::StreamPtr> Deployment::connect_local(
    const ServerAddress& addr) {
  if (master_front_ && addr == master_addr_) {
    return master_front_->connect_local();
  }
  std::lock_guard lk(state_mu_);
  for (const Member& m : members_) {
    if (!m.doors) continue;
    if (m.addr.client == addr) return m.doors->front->connect_local();
    if (m.addr.peer == addr) return m.doors->peer_front->connect_local();
  }
  return core::not_found("no door at " + addr.key());
}

void Deployment::stop() {
  if (!master_front_) return;
  // Unregister the stats collectors before the doors they read die.
  master_.metrics_registry().remove_collector(master_collector_);
  master_collector_ = 0;
  master_front_->close();
  std::vector<std::shared_ptr<ServerDoors>> doors;
  {
    std::lock_guard lk(state_mu_);
    for (Member& m : members_) doors.push_back(std::move(m.doors));
  }
  for (std::size_t i = 0; i < doors.size(); ++i) {
    if (doors[i]) retire(static_cast<int>(i), *doors[i]);
  }
  doors.clear();
  master_front_.reset();
  reactors_.reset();
  for (int i = 0; i < server_count(); ++i) server(i).shutdown();
}

std::vector<net::ReactorStats> Deployment::reactor_stats() const {
  return reactors_ ? reactors_->stats() : std::vector<net::ReactorStats>{};
}

std::shared_ptr<Deployment::ServerDoors> Deployment::doors_of(int i) const {
  std::lock_guard lk(state_mu_);
  return i >= 0 && static_cast<std::size_t>(i) < members_.size()
             ? members_[static_cast<std::size_t>(i)].doors
             : nullptr;
}

net::ReactorServerStats Deployment::server_net_stats(int i) const {
  const auto doors = doors_of(i);
  return doors ? doors->front->stats() : net::ReactorServerStats{};
}

net::ReactorServerStats Deployment::server_peer_net_stats(int i) const {
  const auto doors = doors_of(i);
  return doors ? doors->peer_front->stats() : net::ReactorServerStats{};
}

net::ReactorServerStats Deployment::master_net_stats() const {
  return master_front_ ? master_front_->stats() : net::ReactorServerStats{};
}

BlockServer* Deployment::server_for(const ServerAddress& addr) {
  std::lock_guard lk(state_mu_);
  for (const Member& m : members_) {
    if (m.addr.client == addr) return m.server.get();
  }
  return nullptr;
}

void Deployment::snapshot(std::vector<BlockServer*>* servers,
                          std::vector<ServerAddress>* addresses) const {
  std::lock_guard lk(state_mu_);
  for (const Member& m : members_) {
    servers->push_back(m.server.get());
    addresses->push_back(m.addr.client);
  }
}

core::Status Deployment::ingest(const vol::DatasetDesc& desc,
                                std::uint32_t block_bytes,
                                std::uint32_t stripe_blocks,
                                std::uint32_t replication_factor,
                                const codec::EcProfile& ec) {
  if (auto st = start(); !st.is_ok()) return st;
  std::vector<BlockServer*> servers;
  std::vector<ServerAddress> addresses;
  snapshot(&servers, &addresses);
  return ingest_dataset(master_, std::move(servers), std::move(addresses),
                        desc, block_bytes, stripe_blocks, replication_factor,
                        ec);
}

core::Status Deployment::generate_thumbnails(
    const vol::DatasetDesc& desc, const render::TransferFunction& tf,
    const ThumbnailOptions& options) {
  if (auto st = start(); !st.is_ok()) return st;
  std::vector<BlockServer*> servers;
  std::vector<ServerAddress> addresses;
  snapshot(&servers, &addresses);
  return dpss::generate_thumbnails(master_, std::move(servers),
                                   std::move(addresses), desc, tf, options);
}

void Deployment::kill_server(int i) {
  BlockServer* srv = nullptr;
  std::shared_ptr<ServerDoors> doors;
  {
    std::lock_guard lk(state_mu_);
    if (i < 0 || static_cast<std::size_t>(i) >= members_.size() ||
        members_[static_cast<std::size_t>(i)].state != State::kServing) {
      return;
    }
    Member& m = members_[static_cast<std::size_t>(i)];
    m.state = State::kKilled;
    srv = m.server.get();
    doors = m.doors;
  }
  // Outside the lock: close() waits until no handler of the doors is
  // running, and a running handler may dial a peer through state_mu_.
  // Then the server drops its pooled peer links.
  if (doors) {
    doors->front->close();
    doors->peer_front->close();
  }
  srv->shutdown();
}

void Deployment::revive_server(int i) {
  // A server whose doors cannot reopen stays killed.
  if (state(i) != State::kKilled || !open_member(i).is_ok()) return;
  // Announce the rejoin so health-ranked opens use the server again.
  master_.heartbeat(server_address(i), server(i).requests_served());
}

bool Deployment::server_killed(int i) const {
  return state(i) == State::kKilled;
}

int Deployment::add_server() {
  int i;
  {
    // Under trace_mu_ so an export is attached before anyone can drain.
    std::lock_guard tl(trace_mu_);
    {
      std::lock_guard lk(state_mu_);
      i = static_cast<int>(members_.size());
      members_.emplace_back(new_server(i));
    }
    if (trace_sink_capacity_ > 0) {
      server(i).set_logger(trace_logger(server(i).name()));
    }
  }
  // Fresh doors; a server that cannot open them stays closed until the
  // next start().
  if (open_member(i).is_ok()) master_.heartbeat(server_address(i), 0);
  return i;
}

void Deployment::wipe_server(int i) {
  kill_server(i);
  if (i < 0 || i >= server_count()) return;
  server(i).wipe();
  // A wiped disk is known-gone; no need to wait for failure reports.
  master_.health().mark_down(server_address(i));
}

void Deployment::heartbeat_all(double now) {
  std::vector<std::pair<ServerAddress, std::uint64_t>> beats;
  std::vector<meta::GenerationFloor> floors;
  {
    std::lock_guard lk(state_mu_);
    for (const Member& m : members_) {
      if (m.state != State::kServing) continue;
      beats.emplace_back(m.addr.client, m.server->requests_served());
      // Gossip: each live server's per-dataset max generation rides its
      // heartbeat; the master ratchets them into floors for OpenReplys.
      for (const auto& name : m.server->dataset_names()) {
        floors.push_back({name, m.server->max_generation(name)});
      }
    }
  }
  for (const auto& [addr, served] : beats) {
    master_.heartbeat(addr, served, now);
  }
  master_.gossip().merge(floors);
}

core::Status Deployment::rebalance_dataset(const std::string& name) {
  std::vector<ServerAddress> live;
  {
    std::lock_guard lk(state_mu_);
    for (const Member& m : members_) {
      if (m.state == State::kServing) live.push_back(m.addr.client);
    }
  }
  // Hand the master the live membership and execute the plan against the
  // block stores while the old map is still the one being served.
  auto plan = master_.rebalance_dataset(
      name, std::move(live), [this](const placement::RebalancePlan& p) {
        return apply_rebalance_plan(
            p, [this](const ServerAddress& a) { return server_for(a); });
      });
  return plan.is_ok() ? core::Status::ok() : plan.status();
}

void Deployment::enable_auto_rebalance(double down_deadline_seconds) {
  master_.enable_auto_rebalance(
      AutoRebalanceConfig{down_deadline_seconds},
      [this](const placement::RebalancePlan& plan) {
        return apply_rebalance_plan(
            plan, [this](const ServerAddress& a) { return server_for(a); });
      });
}

void Deployment::enable_fixups() {
  master_.set_fixup_executor([this](const ingest::FixupTask& task) {
    return apply_fixup(task, master_,
                       [this](const ServerAddress& a) { return server_for(a); });
  });
}

std::shared_ptr<netlog::NetLogger> Deployment::trace_logger(
    const std::string& host) {
  auto e = std::make_unique<TraceExport>();
  e->host = host;
  e->sink = std::make_shared<netlog::MemorySink>(trace_sink_capacity_);
  auto logger = std::make_shared<netlog::NetLogger>(
      core::global_real_clock(), host, "dpss", e->sink);
  trace_exports_.push_back(std::move(e));
  return logger;
}

void Deployment::enable_trace_collection(std::size_t sink_capacity) {
  std::lock_guard tl(trace_mu_);
  trace_sink_capacity_ = sink_capacity;
  trace_exports_.clear();
  master_.set_logger(trace_logger("master"));
  for (int i = 0; i < server_count(); ++i) {
    server(i).set_logger(trace_logger(server(i).name()));
  }
}

std::uint64_t Deployment::export_spans() {
  std::lock_guard tl(trace_mu_);
  std::uint64_t accepted = 0;
  for (auto& e : trace_exports_) {
    accepted += export_spans_to_master(master_, *e);
  }
  return accepted;
}

// ---- pipe transport ----------------------------------------------------------

PipeDeployment::PipeDeployment(int server_count, DiskModel disk,
                               ServerCacheConfig cache)
    : Deployment(server_count, disk, /*throttle=*/false, cache,
                 TcpDeploymentOptions{}) {
  start();  // cannot fail: a pipe door opens no socket
}

PipeDeployment::~PipeDeployment() { stop(); }

core::Result<ServerAddress> PipeDeployment::open_door(net::ReactorServer&,
                                                      const ServerAddress& name,
                                                      const ServerAddress&) {
  return ServerAddress{"pipe-" + name.host, name.port};
}

core::Result<net::StreamPtr> PipeDeployment::connect(
    const ServerAddress& addr) {
  return connect_local(addr);
}

DpssClient PipeDeployment::make_client() {
  auto master = connect_local(master_address());
  // With no socket to be had (stopped, or out of descriptors) the client
  // gets a pipe whose far end is gone, so its every request fails.
  return DpssClient(
      master.is_ok() ? std::move(master).take() : net::make_pipe().first,
      [this](const ServerAddress& addr) { return connect_local(addr); });
}

// ---- TCP transport -----------------------------------------------------------

TcpDeployment::TcpDeployment(int server_count, DiskModel disk, bool throttle,
                             ServerCacheConfig cache,
                             TcpDeploymentOptions options)
    : Deployment(server_count, disk, throttle, cache, options) {}

TcpDeployment::~TcpDeployment() { stop(); }

core::Result<ServerAddress> TcpDeployment::open_door(net::ReactorServer& door,
                                                     const ServerAddress&,
                                                     const ServerAddress& at) {
  if (auto st = door.listen(at.port); !st.is_ok()) return st;
  return ServerAddress{"127.0.0.1", door.port()};
}

core::Result<net::StreamPtr> TcpDeployment::connect(
    const ServerAddress& addr) {
  return net::TcpStream::connect(addr.host, addr.port,
                                 net::ConnectOptions{kConnectTimeoutSeconds});
}

core::Result<DpssClient> TcpDeployment::make_client() {
  if (auto st = start(); !st.is_ok()) return st;
  const net::ConnectOptions copts{kConnectTimeoutSeconds};
  auto master_stream =
      net::TcpStream::connect("127.0.0.1", master_port(), copts);
  if (!master_stream.is_ok()) return master_stream.status();
  // The connector captures only the options: a client may outlive the
  // deployment.
  Connector connector =
      [copts](const ServerAddress& addr) -> core::Result<net::StreamPtr> {
    return net::TcpStream::connect(addr.host, addr.port, copts);
  };
  return DpssClient(std::move(master_stream).take(), std::move(connector));
}

}  // namespace visapult::dpss
