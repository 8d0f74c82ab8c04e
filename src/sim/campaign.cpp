#include "sim/campaign.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "core/clock.h"
#include "core/rng.h"
#include "core/units.h"
#include "dpss/server.h"
#include "netlog/logger.h"

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
// The fixed DPSS farm feeding every campaign (campaign.h): four servers
// with default spindles, and one load connection per server from each PE.
constexpr int kDpssServers = 4;
constexpr int kConnectionsPerPe = kDpssServers;
constexpr std::uint64_t kSeed = 1;

struct PeState {
  std::vector<std::unique_ptr<netsim::Connection>> load_conns;
  std::unique_ptr<netsim::Connection> send_conn;
  std::vector<char> load_started, load_done, render_done, arrived;
  std::vector<double> load_start;
  int load_parts_pending = 0;
  int rendering_frame = -1;
};

class CampaignRun {
 public:
  CampaignRun(netsim::Testbed tb, const CampaignConfig& cfg)
      : tb_(std::move(tb)),
        cfg_(cfg),
        rng_(kSeed),
        sink_(std::make_shared<netlog::MemorySink>()),
        clock_(0.0),
        be_log_(clock_, "backend-host", "backend", sink_),
        v_log_(clock_, "viewer-host", "viewer", sink_) {}

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
    return static_cast<double>(dataset_.bytes_per_step()) / cfg_.platform.pes;
  }
  bool barrier_passed(int t) const {
    return t < 0 ||
           (t < cfg_.timesteps && barrier_done_[static_cast<std::size_t>(t)]);
  }

  netsim::Testbed tb_;
  const CampaignConfig cfg_;
  const vol::DatasetDesc dataset_ = vol::paper_combustion_dataset();
  core::Rng rng_;
  std::shared_ptr<netlog::MemorySink> sink_;
  core::VirtualClock clock_;  // mirrors net().now() for the loggers
  netlog::NetLogger be_log_;
  netlog::NetLogger v_log_;

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
  const int N = cfg_.timesteps;

  // ---- augment the testbed with the disk farm and host NICs ------------
  // DPSS disk-farm capacity, from the disk model: requests stream from
  // every server in parallel.
  const dpss::DiskModel disk;
  const netsim::NodeId disk_node = net().add_node("dpss-disk-farm");
  netsim::LinkConfig disk_link;
  disk_link.name = "dpss-disks";
  disk_link.bandwidth_bytes_per_sec =
      disk.streaming_bytes_per_sec(64 * 1024) * kDpssServers;
  disk_link.latency_sec = disk.seek_seconds;
  net().add_link(disk_node, tb_.site.dpss, disk_link);

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
    for (int c = 0; c < kConnectionsPerPe; ++c) {
      pe.load_conns.push_back(std::make_unique<netsim::Connection>(
          net(), disk_node, pe_nodes_[static_cast<std::size_t>(i)],
          tb_.default_tcp));
    }
    pe.send_conn = std::make_unique<netsim::Connection>(
        net(), pe_nodes_[static_cast<std::size_t>(i)], tb_.site.viewer,
        tb_.default_tcp);
    pe.load_started.assign(static_cast<std::size_t>(N), 0);
    pe.load_done.assign(static_cast<std::size_t>(N), 0);
    pe.render_done.assign(static_cast<std::size_t>(N), 0);
    pe.arrived.assign(static_cast<std::size_t>(N), 0);
    pe.load_start.assign(static_cast<std::size_t>(N), 0.0);
  }
  barrier_done_.assign(static_cast<std::size_t>(N), 0);
  barrier_count_.assign(static_cast<std::size_t>(N), 0);
  frame_load_min_.assign(static_cast<std::size_t>(N),
                         std::numeric_limits<double>::infinity());
  frame_load_max_.assign(static_cast<std::size_t>(N), 0.0);

  // Kick off frame 0 loads on every PE.
  for (int i = 0; i < P; ++i) start_load(i, 0);
  net().run();
  assert(!net().stalled());

  // ---- collect -----------------------------------------------------------
  result_.events = sink_->events();
  result_.total_seconds = netlog::total_span(result_.events);
  for (int t = 0; t < N; ++t) {
    const double span = frame_load_max_[static_cast<std::size_t>(t)] -
                        frame_load_min_[static_cast<std::size_t>(t)];
    if (span > 0) {
      result_.frame_load_throughput_bps.add(slab_bytes() * P / span);
    }
  }
  result_.utilization =
      result_.frame_load_throughput_bps.mean() / tb_.bottleneck_capacity();
  return result_;
}

void CampaignRun::start_load(int pe, int t) {
  if (t >= cfg_.timesteps) return;
  PeState& st = pes_[static_cast<std::size_t>(pe)];
  if (st.load_started[static_cast<std::size_t>(t)]) return;
  st.load_started[static_cast<std::size_t>(t)] = 1;
  st.load_start[static_cast<std::size_t>(t)] = net().now();
  clock_.advance_to(net().now());
  be_log_.log_at(net().now(), tags::kBeFrameStart, t, pe);
  be_log_.log_at(net().now(), tags::kBeLoadStart, t, pe);

  st.load_parts_pending = static_cast<int>(st.load_conns.size());
  const double per_part = slab_bytes() / st.load_parts_pending;
  for (auto& conn : st.load_conns) {
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

  net().schedule_after(extra, [this, pe, t] {
    PeState& s = pes_[static_cast<std::size_t>(pe)];
    s.load_done[static_cast<std::size_t>(t)] = 1;
    frame_load_min_[static_cast<std::size_t>(t)] = std::min(
        frame_load_min_[static_cast<std::size_t>(t)],
        s.load_start[static_cast<std::size_t>(t)]);
    frame_load_max_[static_cast<std::size_t>(t)] = std::max(
        frame_load_max_[static_cast<std::size_t>(t)], net().now());
    clock_.advance_to(net().now());
    be_log_.log_at(net().now(), tags::kBeLoadEnd, t, pe,
                   {{"BYTES", std::to_string(static_cast<long long>(slab_bytes()))}});
    maybe_render(pe, t);
  });
}

void CampaignRun::maybe_render(int pe, int t) {
  if (t >= cfg_.timesteps) return;
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

  double r = cfg_.platform.cost.render_seconds(dataset_.dims,
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
  const double heavy = default_heavy_payload_bytes(dataset_);
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
  if (++barrier_count_[static_cast<std::size_t>(t)] == cfg_.platform.pes) {
    pass_barrier(t);
  }
}

void CampaignRun::pass_barrier(int t) {
  barrier_done_[static_cast<std::size_t>(t)] = 1;
  const int next = t + 1;
  if (next >= cfg_.timesteps) return;
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
