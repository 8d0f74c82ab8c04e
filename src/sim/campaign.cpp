#include "sim/campaign.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "cache/block_cache.h"
#include "core/units.h"
#include "dpss/client.h"
#include "dpss/meta_cluster.h"
#include "net/reactor_server.h"
#include "obs/alert.h"
#include "vol/decompose.h"

namespace visapult::sim {

namespace tags = netlog::tags;

PlatformConfig cplant_platform(int pes) {
  PlatformConfig p;
  p.kind = Platform::kCluster;
  p.pes = pes;
  p.cost = render::paper_cplant_cost_model();
  // Alpha/Linux nodes with gigabit NICs but 2000-era TCP stacks: ~130 Mbps
  // of ingest per node -- four nodes together saturate the OC-12's goodput
  // (the paper's 433 Mbps / 70% utilization working point).
  p.host_nic_bytes_per_sec = core::bytes_per_sec_from_mbps(130.0);
  p.per_node_nic = true;
  p.overlap_load_inflation = 1.25;   // reader + renderer share one CPU
  p.overlap_render_inflation = 1.08;
  p.load_jitter_cv = 0.10;           // the staggering visible in Fig. 15
  return p;
}

PlatformConfig e4500_platform(int pes) {
  PlatformConfig p;
  p.kind = Platform::kSmp;
  p.pes = pes;
  p.cost = render::paper_e4500_cost_model();
  // One shared gige NIC on a 336 MHz UltraSPARC host: ~90 Mbps effective.
  p.host_nic_bytes_per_sec = core::bytes_per_sec_from_mbps(90.0);
  p.per_node_nic = false;
  p.overlap_load_inflation = 1.05;
  p.overlap_render_inflation = 1.0;
  p.load_jitter_cv = 0.03;
  return p;
}

PlatformConfig onyx2_platform(int pes) {
  PlatformConfig p;
  p.kind = Platform::kSmp;
  p.pes = pes;
  p.cost = render::paper_onyx2_cost_model();
  // Onyx2 gige: the WAN, not the host, is the constraint on ESnet.
  p.host_nic_bytes_per_sec = core::bytes_per_sec_from_mbps(500.0);
  p.per_node_nic = false;
  p.overlap_load_inflation = 1.06;  // "slightly higher than serial"
  p.overlap_render_inflation = 1.0;
  p.load_jitter_cv = 0.04;
  return p;
}

double default_heavy_payload_bytes(const vol::DatasetDesc& dataset) {
  // Each PE ships one full transverse texture: O(n^2) of the O(n^3) input
  // (footnote 5).  Viewing along Z: nx * ny pixels at 16 bytes (float
  // RGBA), plus ~40 KB of AMR wireframe.
  return static_cast<double>(dataset.dims.nx) * dataset.dims.ny * 16.0 +
         40.0 * 1024.0;
}

namespace {

constexpr double kLightPayloadBytes = 256.0;

struct PeState {
  std::vector<std::unique_ptr<netsim::Connection>> load_conns;
  // Memory-tier loads: same fan-out, but sourced at the DPSS site node, so
  // they never traverse the disk-farm link.
  std::vector<std::unique_ptr<netsim::Connection>> warm_conns;
  std::unique_ptr<netsim::Connection> send_conn;
  std::vector<char> load_started, load_done, render_done, arrived, loaded_warm;
  std::vector<double> load_start, load_end;
  int load_parts_pending = 0;
  int rendering_frame = -1;
};

class CampaignRun {
 public:
  CampaignRun(netsim::Testbed tb, const CampaignConfig& cfg)
      : tb_(std::move(tb)),
        cfg_(cfg),
        rng_(cfg.seed),
        sink_(std::make_shared<netlog::MemorySink>()),
        clock_(0.0),
        be_log_(clock_, "backend-host", "backend", sink_),
        v_log_(clock_, "viewer-host", "viewer", sink_),
        dpss_log_(clock_, "dpss-host", "dpss", sink_) {
    cfg_.passes = std::max(1, cfg_.passes);
    if (cfg_.dpss_cache_bytes > 0) {
      cache::BlockCacheConfig cc;
      cc.capacity_bytes = static_cast<std::size_t>(cfg_.dpss_cache_bytes);
      cc.shards = 1;  // exact global eviction order for the model
      cc.policy = cfg_.dpss_cache_policy;
      dpss_cache_ = std::make_unique<cache::BlockCache>(cc);
    }
  }

  CampaignResult run();

 private:
  netsim::Network& net() { return tb_.net; }

  void start_load(int pe, int t);
  void finish_load(int pe, int t);
  void maybe_render(int pe, int t);
  void finish_render(int pe, int t);
  void start_send(int pe, int t);
  void arrive_barrier(int pe, int t);
  void pass_barrier(int t);

  double slab_bytes() const {
    return static_cast<double>(cfg_.dataset.bytes_per_step()) /
           cfg_.platform.pes;
  }
  // Frames replayed in total: the timestep sequence once per pass.
  int frames() const { return cfg_.timesteps * cfg_.passes; }
  int pass_of(int t) const { return t / cfg_.timesteps; }
  // Memory-tier key for PE `pe`'s slab of frame `t`'s timestep, stamped
  // with the dataset's current ingest generation: an overwrite re-keys
  // every slab, so entries from before it can never satisfy a lookup.
  cache::BlockKey slab_key(int t, int pe, std::uint64_t generation) const {
    return cache::BlockKey{
        cfg_.dataset.name,
        static_cast<std::uint64_t>(t % cfg_.timesteps) *
                static_cast<std::uint64_t>(cfg_.platform.pes) +
            static_cast<std::uint64_t>(pe),
        generation};
  }
  bool barrier_passed(int t) const {
    return t < 0 || (t < frames() && barrier_done_[static_cast<std::size_t>(t)]);
  }

  // ---- degraded-placement scenarios ----
  using FaultKind = CampaignConfig::FaultScenario::Kind;
  bool fault_active(int pass) const;
  // Servers the fault takes, clamped so at least one survives.
  int fault_count() const {
    return std::min(std::max(1, cfg_.fault.count),
                    std::max(1, cfg_.dpss_servers - 1));
  }
  // Dead servers a load survives: rf - 1 replicas, or m parity slices.
  int kill_tolerance() const {
    return cfg_.ec.enabled()
               ? static_cast<int>(cfg_.ec.parity_slices)
               : cfg_.replication_factor - 1;
  }
  // Disk-farm capacity consumed by the fault while active (the dead or
  // slowed server's share), modelled as background traffic on the link.
  double fault_background() const;
  // Reconcile the disk link's background with `pass` (pass boundaries are
  // where servers die, crawl, or rejoin).
  void apply_fault(int pass);
  // True when the pass loses data outright: a killed server with no
  // replica to fail over to.
  bool lossy_in_pass(int pass) const;
  // Mid-run overwrite: bump the dataset generation at its pass boundary,
  // charge the analytic write time, and model the fixup debt a
  // simultaneous fault creates.
  void apply_overwrite(int pass);
  // Sharded-metadata scenario (MetaScenario): per pass, an open storm
  // through a REAL MetaCluster, with an optional leader kill.
  void run_meta_scenario();

  netsim::Testbed tb_;
  CampaignConfig cfg_;
  core::Rng rng_;
  std::shared_ptr<netlog::MemorySink> sink_;
  core::VirtualClock clock_;  // mirrors net().now() for the loggers
  netlog::NetLogger be_log_;
  netlog::NetLogger v_log_;
  netlog::NetLogger dpss_log_;
  std::unique_ptr<cache::BlockCache> dpss_cache_;
  std::vector<std::uint64_t> pass_hits_, pass_misses_;
  std::vector<double> pass_first_, pass_last_;
  std::vector<double> pass_bytes_, pass_load_lo_, pass_load_hi_;
  // Bytes that actually streamed off the disks (cold loads; warm loads
  // ride the memory tier) and the healthy farm's aggregate rate, for the
  // per-pass USE utilization figure.
  std::vector<double> pass_disk_bytes_;
  double disk_farm_bps_ = 0.0;
  std::vector<std::uint64_t> pass_read_errors_;
  std::vector<std::uint64_t> pass_stale_reads_;
  // Per-pass PE-frame load-duration distributions (obs::Histogram holds
  // atomics, so the slots are pointer-stable rather than value elements).
  std::vector<std::unique_ptr<obs::Histogram>> pass_load_hist_;
  bool fault_applied_ = false;
  // Overwrite state: the dataset's current ingest generation and the
  // counters the acceptance scenarios assert on.
  std::uint64_t dataset_gen_ = 0;
  bool overwrite_applied_ = false;
  std::uint64_t stale_invalidations_ = 0;
  std::uint64_t fixup_resyncs_ = 0;

  netsim::NodeId disk_node_ = -1;
  netsim::LinkId disk_link_ = -1;
  std::vector<netsim::NodeId> pe_nodes_;
  std::vector<PeState> pes_;
  std::vector<char> barrier_done_;
  std::vector<int> barrier_count_;
  // Per-frame aggregate load window.
  std::vector<double> frame_load_min_, frame_load_max_;
  CampaignResult result_;
};

CampaignResult CampaignRun::run() {
  const int P = cfg_.platform.pes;
  const int N = frames();

  // ---- augment the testbed with the disk farm and host NICs ------------
  // DPSS disk-farm capacity, from the disk model: requests stream from
  // `dpss_servers` servers in parallel.
  disk_node_ = net().add_node("dpss-disk-farm");
  netsim::LinkConfig disk_link;
  disk_link.name = "dpss-disks";
  disk_link.bandwidth_bytes_per_sec =
      cfg_.disk.streaming_bytes_per_sec(64 * 1024) * cfg_.dpss_servers;
  disk_link.latency_sec = cfg_.disk.seek_seconds;
  disk_link_ = net().add_link(disk_node_, tb_.site.dpss, disk_link);
  disk_farm_bps_ = disk_link.bandwidth_bytes_per_sec;

  // Host-side NIC/TCP-stack ceilings.
  pe_nodes_.resize(static_cast<std::size_t>(P));
  if (cfg_.platform.per_node_nic) {
    for (int i = 0; i < P; ++i) {
      pe_nodes_[static_cast<std::size_t>(i)] =
          net().add_node("pe-node-" + std::to_string(i));
      netsim::LinkConfig nic;
      nic.name = "pe-nic-" + std::to_string(i);
      nic.bandwidth_bytes_per_sec = cfg_.platform.host_nic_bytes_per_sec;
      nic.latency_sec = 20e-6;
      net().add_link(pe_nodes_[static_cast<std::size_t>(i)], tb_.site.backend, nic);
    }
  } else {
    const netsim::NodeId host = net().add_node("smp-host");
    netsim::LinkConfig nic;
    nic.name = "smp-shared-nic";
    nic.bandwidth_bytes_per_sec = cfg_.platform.host_nic_bytes_per_sec;
    nic.latency_sec = 20e-6;
    net().add_link(host, tb_.site.backend, nic);
    for (int i = 0; i < P; ++i) pe_nodes_[static_cast<std::size_t>(i)] = host;
  }

  // ---- per-PE state ------------------------------------------------------
  pes_.resize(static_cast<std::size_t>(P));
  for (int i = 0; i < P; ++i) {
    PeState& pe = pes_[static_cast<std::size_t>(i)];
    for (int c = 0; c < cfg_.connections_per_pe; ++c) {
      pe.load_conns.push_back(std::make_unique<netsim::Connection>(
          net(), disk_node_, pe_nodes_[static_cast<std::size_t>(i)],
          tb_.default_tcp));
      if (dpss_cache_) {
        pe.warm_conns.push_back(std::make_unique<netsim::Connection>(
            net(), tb_.site.dpss, pe_nodes_[static_cast<std::size_t>(i)],
            tb_.default_tcp));
      }
    }
    pe.send_conn = std::make_unique<netsim::Connection>(
        net(), pe_nodes_[static_cast<std::size_t>(i)], tb_.site.viewer,
        tb_.default_tcp);
    pe.load_started.assign(static_cast<std::size_t>(N), 0);
    pe.load_done.assign(static_cast<std::size_t>(N), 0);
    pe.render_done.assign(static_cast<std::size_t>(N), 0);
    pe.arrived.assign(static_cast<std::size_t>(N), 0);
    pe.loaded_warm.assign(static_cast<std::size_t>(N), 0);
    pe.load_start.assign(static_cast<std::size_t>(N), 0.0);
    pe.load_end.assign(static_cast<std::size_t>(N), 0.0);
  }
  barrier_done_.assign(static_cast<std::size_t>(N), 0);
  barrier_count_.assign(static_cast<std::size_t>(N), 0);
  frame_load_min_.assign(static_cast<std::size_t>(N),
                         std::numeric_limits<double>::infinity());
  frame_load_max_.assign(static_cast<std::size_t>(N), 0.0);
  pass_hits_.assign(static_cast<std::size_t>(cfg_.passes), 0);
  pass_misses_.assign(static_cast<std::size_t>(cfg_.passes), 0);
  pass_first_.assign(static_cast<std::size_t>(cfg_.passes),
                     std::numeric_limits<double>::infinity());
  pass_last_.assign(static_cast<std::size_t>(cfg_.passes), 0.0);
  pass_bytes_.assign(static_cast<std::size_t>(cfg_.passes), 0.0);
  pass_disk_bytes_.assign(static_cast<std::size_t>(cfg_.passes), 0.0);
  pass_load_lo_.assign(static_cast<std::size_t>(cfg_.passes),
                       std::numeric_limits<double>::infinity());
  pass_load_hi_.assign(static_cast<std::size_t>(cfg_.passes), 0.0);
  pass_read_errors_.assign(static_cast<std::size_t>(cfg_.passes), 0);
  pass_stale_reads_.assign(static_cast<std::size_t>(cfg_.passes), 0);
  pass_load_hist_.clear();
  for (int p = 0; p < cfg_.passes; ++p) {
    pass_load_hist_.push_back(std::make_unique<obs::Histogram>());
  }

  // Kick off frame 0 loads on every PE.
  apply_fault(0);
  for (int i = 0; i < P; ++i) start_load(i, 0);
  net().run();
  assert(!net().stalled());

  // ---- collect -----------------------------------------------------------
  result_.events = sink_->events();
  result_.total_seconds = netlog::total_span(result_.events);
  double bytes_loaded = 0.0, load_span_lo = 1e300, load_span_hi = 0.0;
  for (int t = 0; t < N; ++t) {
    const double span = frame_load_max_[static_cast<std::size_t>(t)] -
                        frame_load_min_[static_cast<std::size_t>(t)];
    const double frame_bytes = slab_bytes() * P;
    if (span > 0) {
      result_.frame_load_throughput_bps.add(frame_bytes / span);
    }
    bytes_loaded += frame_bytes;
    load_span_lo = std::min(load_span_lo, frame_load_min_[static_cast<std::size_t>(t)]);
    load_span_hi = std::max(load_span_hi, frame_load_max_[static_cast<std::size_t>(t)]);
  }
  if (load_span_hi > load_span_lo) {
    result_.aggregate_load_bps = bytes_loaded / (load_span_hi - load_span_lo);
  }
  result_.utilization =
      result_.frame_load_throughput_bps.mean() / tb_.bottleneck_capacity();
  for (int p = 0; p < cfg_.passes; ++p) {
    const double lo = pass_first_[static_cast<std::size_t>(p)];
    const double hi = pass_last_[static_cast<std::size_t>(p)];
    result_.pass_seconds.push_back(hi > lo ? hi - lo : 0.0);
    const std::uint64_t total = pass_hits_[static_cast<std::size_t>(p)] +
                                pass_misses_[static_cast<std::size_t>(p)];
    result_.pass_hit_ratio.push_back(
        total == 0 ? 0.0
                   : static_cast<double>(
                         pass_hits_[static_cast<std::size_t>(p)]) /
                         static_cast<double>(total));
    const double load_lo = pass_load_lo_[static_cast<std::size_t>(p)];
    const double load_hi = pass_load_hi_[static_cast<std::size_t>(p)];
    result_.pass_load_bps.push_back(
        load_hi > load_lo
            ? pass_bytes_[static_cast<std::size_t>(p)] / (load_hi - load_lo)
            : 0.0);
    result_.pass_read_errors.push_back(
        pass_read_errors_[static_cast<std::size_t>(p)]);
    result_.pass_stale_reads.push_back(
        pass_stale_reads_[static_cast<std::size_t>(p)]);
    result_.pass_load_hist.push_back(
        pass_load_hist_[static_cast<std::size_t>(p)]->snapshot());
    // Utilization of the live farm: only cold bytes touch the disks, and
    // an active fault removes the dead/slowed servers' share of the rate.
    const double live_bps =
        disk_farm_bps_ - (fault_active(p) ? fault_background() : 0.0);
    result_.pass_disk_utilization.push_back(
        (load_hi > load_lo && live_bps > 0.0)
            ? pass_disk_bytes_[static_cast<std::size_t>(p)] /
                  ((load_hi - load_lo) * live_bps)
            : 0.0);
  }
  // Replay the read-error counter through the alert engine: one healthy
  // baseline scrape, then one scrape per pass on the cumulative count.  The
  // burn-rate rule fires only on a pass whose delta is positive, so a
  // kill/rejoin pass that loses data fires it and the next clean pass
  // resolves it, while a healthy run stays silent end to end.
  obs::AlertEngine alerts;
  (void)alerts.add_rule(
      "read_timeout_burn: rate(campaign_read_timeouts_total) > 0");
  std::vector<obs::Sample> scrape{
      obs::Sample{"campaign_read_timeouts_total", "", 0.0}};
  alerts.scrape(scrape, 0.0);
  std::uint64_t cumulative_errors = 0;
  for (int p = 0; p < cfg_.passes; ++p) {
    cumulative_errors += pass_read_errors_[static_cast<std::size_t>(p)];
    scrape[0].value = static_cast<double>(cumulative_errors);
    alerts.scrape(scrape, static_cast<double>(p + 1));
    result_.pass_alerts_firing.push_back(
        static_cast<std::uint32_t>(alerts.firing_count()));
  }
  result_.alerts_fired = alerts.fired_total();
  result_.alerts_resolved = alerts.resolved_total();

  result_.stale_invalidations = stale_invalidations_;
  result_.fixup_resyncs = fixup_resyncs_;
  result_.overwrite_generation = dataset_gen_;
  if (dpss_cache_) result_.cache_metrics = dpss_cache_->metrics();
  result_.redundancy_capacity_ratio =
      cfg_.ec.enabled() ? cfg_.ec.capacity_ratio()
                        : static_cast<double>(std::max(1, cfg_.replication_factor));

  if (cfg_.meta.shards > 0) run_meta_scenario();
  return result_;
}

// The rest of the campaign is analytic (netsim flows + cost models), but
// the metadata plane rides it as a REAL component: every open below
// travels the actual client -> shard-member wire path of src/meta, so the
// kill-a-leader acceptance property -- zero client-visible open failures
// through a master shard leader death -- is exercised end to end rather
// than modelled.
void CampaignRun::run_meta_scenario() {
  const auto shards = static_cast<std::uint32_t>(std::max(1, cfg_.meta.shards));
  const auto replicas =
      static_cast<std::uint32_t>(std::max(1, cfg_.meta.replicas));
  const int opens = std::max(1, cfg_.meta.opens_per_pass);
  const std::string& name = cfg_.dataset.name;

  dpss::MetaCluster cluster(shards, replicas);
  // One real block server backs the registered dataset so opens connect
  // end to end (open() dials every server in the reply).  Declared after
  // the cluster and before the client: the client tears down first.
  dpss::BlockServer store("campaign-meta-store");
  const dpss::ServerAddress store_addr{"campaign-meta-store", 0};
  dpss::DatasetLayout layout;
  layout.block_bytes = 4096;
  layout.total_bytes = 4 * layout.block_bytes;
  layout.stripe_blocks = 1;
  layout.server_count = 1;
  for (std::uint64_t b = 0; b < layout.block_count(); ++b) {
    (void)store.put_block(name, b,
                          std::vector<std::uint8_t>(layout.block_bytes, 0));
  }
  const core::Status registered =
      cluster.register_dataset(name, layout, {store_addr});
  assert(registered.is_ok());
  (void)registered;

  // The store serves through its own door; its handler only reads blocks,
  // so it runs inline on the door's loop.
  net::ReactorPool store_loop(1);
  net::ReactorServer store_door(
      store_loop, [&store](net::Message&& msg, std::uint64_t conn_id) {
        return store.dispatch(std::move(msg), conn_id);
      });
  dpss::Connector data_connector =
      [&store_door](const dpss::ServerAddress&) {
        return store_door.connect_local();
      };
  const std::uint32_t owner = cluster.shard_map().shard_for(name);
  auto master_stream = cluster.connector()(cluster.address(owner, 0));
  assert(master_stream.is_ok());
  dpss::DpssClient client(std::move(master_stream).take(),
                          std::move(data_connector));
  client.enable_sharded_meta(cluster.shard_map(), cluster.member_addresses(),
                             cluster.connector());

  for (int p = 0; p < cfg_.passes; ++p) {
    if (p == cfg_.meta.kill_leader_at_pass) {
      const int leader = cluster.leader_replica(owner);
      if (leader >= 0) {
        cluster.kill(owner, static_cast<std::uint32_t>(leader));
      }
    }
    std::uint64_t errors = 0;
    for (int i = 0; i < opens; ++i) {
      auto file = client.open(name);
      if (!file.is_ok()) ++errors;
    }
    result_.pass_open_errors.push_back(errors);
    // The election pass: client failure reports against the dead leader
    // have landed on the survivors by now, so a killed shard promotes its
    // highest-epoch live member here.
    cluster.tick();
  }

  result_.meta_delta_opens = client.delta_opens();
  result_.meta_snapshot_opens = client.snapshot_opens();
  result_.meta_leader_elections = cluster.leader_elections();
  result_.meta_master_failovers = client.master_failovers();
}

void CampaignRun::start_load(int pe, int t) {
  if (t >= frames()) return;
  PeState& st = pes_[static_cast<std::size_t>(pe)];
  if (st.load_started[static_cast<std::size_t>(t)]) return;
  st.load_started[static_cast<std::size_t>(t)] = 1;
  st.load_start[static_cast<std::size_t>(t)] = net().now();
  clock_.advance_to(net().now());
  be_log_.log_at(net().now(), tags::kBeFrameStart, t, pe);
  be_log_.log_at(net().now(), tags::kBeLoadStart, t, pe);

  const int pass = pass_of(t);
  apply_fault(pass);
  apply_overwrite(pass);
  pass_first_[static_cast<std::size_t>(pass)] = std::min(
      pass_first_[static_cast<std::size_t>(pass)], net().now());

  // Memory-tier lookup, deliberately generation-BLIND: probe every
  // generation's key, newest first, and serve whatever is resident --
  // the shape a broken cache would have.  A hit on an old generation is
  // a served stale read, counted in pass_stale_reads.  The overwrite
  // machinery keeps that count at zero the same way the real tiers do:
  // apply_overwrite eagerly erased every pre-overwrite key, so only the
  // current generation can be resident.  Remove that invalidation and
  // these scenarios fail -- the zero-stale assertion is falsifiable.
  bool warm = false;
  if (dpss_cache_) {
    // The current generation's lookup carries the hit/miss metrics,
    // exactly as before the overwrite scenarios existed.
    warm = dpss_cache_->lookup(slab_key(t, pe, dataset_gen_)) != nullptr;
    if (!warm) {
      // Fall back generation-blind over the older keys (metrics-free
      // residency probes): anything found is a SERVED stale read.
      for (std::uint64_t g = dataset_gen_; g-- > 0;) {
        if (dpss_cache_->contains(slab_key(t, pe, g))) {
          warm = true;
          ++pass_stale_reads_[static_cast<std::size_t>(pass)];
          break;
        }
      }
    }
    if (warm) {
      ++pass_hits_[static_cast<std::size_t>(pass)];
      dpss_log_.log_at(net().now(), tags::kCacheHit, t, pe);
    } else {
      ++pass_misses_[static_cast<std::size_t>(pass)];
      dpss_log_.log_at(net().now(), tags::kCacheMiss, t, pe);
    }
  }
  st.loaded_warm[static_cast<std::size_t>(t)] = warm ? 1 : 0;

  auto& conns = warm ? st.warm_conns : st.load_conns;
  const int parts = static_cast<int>(conns.size());
  st.load_parts_pending = parts;
  double load_bytes = slab_bytes();
  if (!warm && lossy_in_pass(pass)) {
    // The kill exceeded the redundancy tolerance: the dead servers' share
    // of the slab has nothing to fail over to -- it simply never arrives.
    load_bytes *= 1.0 - static_cast<double>(fault_count()) /
                            std::max(1, cfg_.dpss_servers);
    ++pass_read_errors_[static_cast<std::size_t>(pass)];
  }
  pass_bytes_[static_cast<std::size_t>(pass)] += load_bytes;
  if (!warm) pass_disk_bytes_[static_cast<std::size_t>(pass)] += load_bytes;
  const double per_part = load_bytes / parts;
  for (auto& conn : conns) {
    (void)conn->transfer(per_part, [this, pe, t] {
      PeState& s = pes_[static_cast<std::size_t>(pe)];
      if (--s.load_parts_pending == 0) finish_load(pe, t);
    });
  }
}

void CampaignRun::finish_load(int pe, int t) {
  PeState& st = pes_[static_cast<std::size_t>(pe)];
  const double net_duration =
      net().now() - st.load_start[static_cast<std::size_t>(t)];

  // CPU contention (Appendix B discussion): when the reader thread and the
  // render process share a CPU and a render is in flight, the load pays a
  // host-side penalty (memory copies, NIC interrupts).  The SMP pays a
  // small one; the cluster a substantial one.
  double extra = 0.0;
  const bool render_active = st.rendering_frame >= 0;
  if (cfg_.overlapped && render_active) {
    extra = net_duration * (cfg_.platform.overlap_load_inflation - 1.0);
  }
  // Load-time variability is an *overlapped* phenomenon in the paper
  // (Fig. 15's staggered loads vs Fig. 14's uniform ones): serial loads
  // jitter only at the measurement-noise level.
  const double cv = cfg_.overlapped ? cfg_.platform.load_jitter_cv : 0.015;
  extra += net_duration * std::abs(rng_.normal(0.0, cv));

  // Degraded EC read: the dead servers' share of the slab arrives as
  // parity and is decoded client-side -- one k-way GF multiply-accumulate
  // pass per rebuilt byte.  Total wire bytes stay at one slab (systematic
  // code, full-stripe read), so only the decode charge is added here.
  const int pass = pass_of(t);
  if (cfg_.ec.enabled() && !lossy_in_pass(pass) && fault_active(pass) &&
      !st.loaded_warm[static_cast<std::size_t>(t)] &&
      (cfg_.fault.kind == FaultKind::kKillServer ||
       cfg_.fault.kind == FaultKind::kRejoin)) {
    const double rebuilt = slab_bytes() * fault_count() /
                           std::max(1, cfg_.dpss_servers);
    extra += rebuilt * cfg_.ec.data_slices /
             std::max(1.0, cfg_.ec_decode_bytes_per_sec);
  }

  net().schedule_after(extra, [this, pe, t] {
    PeState& s = pes_[static_cast<std::size_t>(pe)];
    s.load_done[static_cast<std::size_t>(t)] = 1;
    s.load_end[static_cast<std::size_t>(t)] = net().now();
    if (dpss_cache_ && !s.loaded_warm[static_cast<std::size_t>(t)]) {
      // Fill-on-miss: the slab just streamed off the disks is now resident
      // in server memory (an empty placeholder charged at slab size -- the
      // simulator models occupancy, not payloads).
      dpss_cache_->insert_charged(
          slab_key(t, pe, dataset_gen_),
          std::make_shared<const std::vector<std::uint8_t>>(),
          static_cast<std::size_t>(slab_bytes()));
    }
    frame_load_min_[static_cast<std::size_t>(t)] = std::min(
        frame_load_min_[static_cast<std::size_t>(t)],
        s.load_start[static_cast<std::size_t>(t)]);
    frame_load_max_[static_cast<std::size_t>(t)] = std::max(
        frame_load_max_[static_cast<std::size_t>(t)],
        s.load_end[static_cast<std::size_t>(t)]);
    const std::size_t pass = static_cast<std::size_t>(pass_of(t));
    pass_load_lo_[pass] = std::min(pass_load_lo_[pass],
                                   s.load_start[static_cast<std::size_t>(t)]);
    pass_load_hi_[pass] = std::max(pass_load_hi_[pass],
                                   s.load_end[static_cast<std::size_t>(t)]);
    pass_load_hist_[pass]->observe(
        s.load_end[static_cast<std::size_t>(t)] -
        s.load_start[static_cast<std::size_t>(t)]);
    clock_.advance_to(net().now());
    be_log_.log_at(net().now(), tags::kBeLoadEnd, t, pe,
                   {{"BYTES", std::to_string(static_cast<long long>(slab_bytes()))}});
    maybe_render(pe, t);
  });
}

void CampaignRun::maybe_render(int pe, int t) {
  if (t >= frames()) return;
  PeState& st = pes_[static_cast<std::size_t>(pe)];
  if (!st.load_done[static_cast<std::size_t>(t)]) return;
  if (!barrier_passed(t - 1)) return;
  if (st.rendering_frame == t || st.render_done[static_cast<std::size_t>(t)]) return;
  // A PE renders one frame at a time.
  if (st.rendering_frame >= 0) return;
  st.rendering_frame = t;

  clock_.advance_to(net().now());
  be_log_.log_at(net().now(), tags::kBeRenderStart, t, pe);

  // Overlapped: the moment render(t) starts, the reader thread is asked
  // for frame t+1 (Appendix B's "data from time step one is requested, and
  // the render process begins to render data from time step zero").
  if (cfg_.overlapped) start_load(pe, t + 1);

  double r = cfg_.platform.cost.render_seconds(cfg_.dataset.dims,
                                               cfg_.platform.pes);
  if (cfg_.overlapped) r *= cfg_.platform.overlap_render_inflation;
  r *= 1.0 + std::abs(rng_.normal(0.0, 0.02));
  net().schedule_after(r, [this, pe, t] { finish_render(pe, t); });
}

void CampaignRun::finish_render(int pe, int t) {
  PeState& st = pes_[static_cast<std::size_t>(pe)];
  st.render_done[static_cast<std::size_t>(t)] = 1;
  st.rendering_frame = -1;
  clock_.advance_to(net().now());
  be_log_.log_at(net().now(), tags::kBeRenderEnd, t, pe);
  start_send(pe, t);
}

void CampaignRun::start_send(int pe, int t) {
  PeState& st = pes_[static_cast<std::size_t>(pe)];
  const double heavy = cfg_.heavy_payload_bytes > 0
                           ? cfg_.heavy_payload_bytes
                           : default_heavy_payload_bytes(cfg_.dataset);
  clock_.advance_to(net().now());
  be_log_.log_at(net().now(), tags::kBeLightSend, t, pe);
  (void)st.send_conn->transfer(kLightPayloadBytes, [this, pe, t] {
    clock_.advance_to(net().now());
    be_log_.log_at(net().now(), tags::kBeLightEnd, t, pe);
    v_log_.log_at(net().now(), tags::kVFrameStart, t, pe);
    v_log_.log_at(net().now(), tags::kVLightEnd, t, pe);
  });
  be_log_.log_at(net().now(), tags::kBeHeavySend, t, pe);
  v_log_.log_at(net().now(), tags::kVHeavyStart, t, pe);
  (void)st.send_conn->transfer(heavy, [this, pe, t, heavy] {
    clock_.advance_to(net().now());
    be_log_.log_at(net().now(), tags::kBeHeavyEnd, t, pe,
                   {{"BYTES", std::to_string(static_cast<long long>(heavy))}});
    v_log_.log_at(net().now(), tags::kVHeavyEnd, t, pe,
                  {{"BYTES", std::to_string(static_cast<long long>(heavy))}});
    v_log_.log_at(net().now(), tags::kVFrameEnd, t, pe);
    arrive_barrier(pe, t);
  });
}

void CampaignRun::arrive_barrier(int pe, int t) {
  PeState& st = pes_[static_cast<std::size_t>(pe)];
  if (st.arrived[static_cast<std::size_t>(t)]) return;
  st.arrived[static_cast<std::size_t>(t)] = 1;
  clock_.advance_to(net().now());
  be_log_.log_at(net().now(), tags::kBeFrameEnd, t, pe);
  pass_last_[static_cast<std::size_t>(pass_of(t))] = std::max(
      pass_last_[static_cast<std::size_t>(pass_of(t))], net().now());
  if (++barrier_count_[static_cast<std::size_t>(t)] == cfg_.platform.pes) {
    pass_barrier(t);
  }
}

bool CampaignRun::fault_active(int pass) const {
  switch (cfg_.fault.kind) {
    case FaultKind::kNone:
      return false;
    case FaultKind::kKillServer:
    case FaultKind::kSlowServer:
      return pass >= cfg_.fault.at_pass;
    case FaultKind::kRejoin:
      return pass == cfg_.fault.at_pass;
  }
  return false;
}

double CampaignRun::fault_background() const {
  const double per_server = cfg_.disk.streaming_bytes_per_sec(64 * 1024);
  const double taken = per_server * fault_count();
  if (cfg_.fault.kind == FaultKind::kSlowServer) {
    // The crawling servers still serve at 1/slow_factor of their rate.
    return taken * (1.0 - 1.0 / std::max(1.0, cfg_.fault.slow_factor));
  }
  return taken;  // kill / rejoin: the whole servers' capacity is gone
}

void CampaignRun::apply_fault(int pass) {
  if (cfg_.fault.kind == FaultKind::kNone || cfg_.dpss_servers < 2) return;
  const bool active = fault_active(pass);
  if (active == fault_applied_) return;
  fault_applied_ = active;
  net().set_background(disk_link_, active ? fault_background() : 0.0);
}

bool CampaignRun::lossy_in_pass(int pass) const {
  if (cfg_.dpss_servers < 2) return false;
  if (fault_count() <= kill_tolerance()) return false;
  return (cfg_.fault.kind == FaultKind::kKillServer ||
          cfg_.fault.kind == FaultKind::kRejoin) &&
         fault_active(pass);
}

void CampaignRun::apply_overwrite(int pass) {
  if (cfg_.overwrite.at_pass < 0 || overwrite_applied_ ||
      pass < cfg_.overwrite.at_pass) {
    return;
  }
  overwrite_applied_ = true;
  ++dataset_gen_;

  // Invalidate every pre-overwrite slab eagerly -- the model's analogue
  // of the real tiers' re-key-and-erase.  Each resident entry reclaimed
  // here was a would-be stale read; the generation-blind lookup in
  // start_load counts any we miss as a served stale read.
  if (dpss_cache_) {
    for (int step = 0; step < cfg_.timesteps; ++step) {
      for (int pe = 0; pe < cfg_.platform.pes; ++pe) {
        for (std::uint64_t g = 0; g < dataset_gen_; ++g) {
          if (dpss_cache_->erase(slab_key(step, pe, g))) {
            ++stale_invalidations_;
          }
        }
      }
    }
  }

  // Analytic overwrite wall-clock.  Server-driven (chain / parity-delta):
  // each byte crosses the client uplink once and the redundant copies (rf-1
  // replicas, or m block-sized parity deltas per k data blocks) move
  // farm-internally at the disk farm's aggregate rate.  Client fanout
  // pushes every copy through the uplink.
  const double bytes = static_cast<double>(cfg_.dataset.total_bytes());
  const double uplink =
      cfg_.platform.host_nic_bytes_per_sec *
      (cfg_.platform.per_node_nic ? cfg_.platform.pes : 1);
  const double farm =
      cfg_.disk.streaming_bytes_per_sec(64 * 1024) *
      std::max(1, cfg_.dpss_servers);
  double redundant_copies = 0.0;
  if (cfg_.ec.enabled()) {
    redundant_copies = static_cast<double>(cfg_.ec.parity_slices);
  } else {
    redundant_copies = std::max(0, cfg_.replication_factor - 1);
  }
  if (cfg_.overwrite.server_driven) {
    result_.overwrite_seconds =
        bytes / uplink + bytes * redundant_copies / farm;
  } else {
    result_.overwrite_seconds = bytes * (1.0 + redundant_copies) / uplink;
  }

  // A kill/rejoin fault striking the overwrite pass catches primaries
  // mid-chain: the affected servers' share of the slab copies misses the
  // new generation and owes a fixup re-sync (the write itself survives on
  // the other replicas as long as redundancy tolerates the kill).
  const bool fault_hits_overwrite =
      (cfg_.fault.kind == FaultKind::kKillServer ||
       cfg_.fault.kind == FaultKind::kRejoin) &&
      cfg_.dpss_servers >= 2 && fault_active(cfg_.overwrite.at_pass);
  if (fault_hits_overwrite) {
    const std::uint64_t slabs =
        static_cast<std::uint64_t>(cfg_.timesteps) *
        static_cast<std::uint64_t>(cfg_.platform.pes);
    fixup_resyncs_ +=
        slabs * static_cast<std::uint64_t>(fault_count()) /
        static_cast<std::uint64_t>(std::max(1, cfg_.dpss_servers));
  }
}

void CampaignRun::pass_barrier(int t) {
  barrier_done_[static_cast<std::size_t>(t)] = 1;
  const int next = t + 1;
  if (next >= frames()) return;
  for (int pe = 0; pe < cfg_.platform.pes; ++pe) {
    if (cfg_.overlapped) {
      // Loads were prefetched; renders may now proceed.
      maybe_render(pe, next);
    } else {
      start_load(pe, next);
    }
  }
}

}  // namespace

CampaignResult run_campaign(netsim::Testbed testbed,
                            const CampaignConfig& config) {
  CampaignRun run(std::move(testbed), config);
  CampaignResult result = run.run();
  // Recompute R statistics from the event log (cleaner than plumbing the
  // value through the callbacks).
  result.render_seconds = netlog::duration_stats(netlog::extract_intervals(
      result.events, tags::kBeRenderStart, tags::kBeRenderEnd));
  result.load_seconds = netlog::duration_stats(netlog::extract_intervals(
      result.events, tags::kBeLoadStart, tags::kBeLoadEnd));
  return result;
}

double measure_iperf(netsim::Testbed testbed, double transfer_bytes) {
  netsim::Network& net = testbed.net;
  auto flow = net.start_flow(testbed.site.dpss, testbed.site.backend,
                             transfer_bytes, testbed.default_tcp);
  if (!flow.is_ok()) return 0.0;
  net.run();
  return net.flow_stats(flow.value()).throughput_bytes_per_sec();
}

}  // namespace visapult::sim
