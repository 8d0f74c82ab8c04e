// Virtual-time campaign harness.
//
// Replays Visapult field-test campaigns (sections 4.1-4.4) at the paper's
// full data scale -- 160 MB/timestep over OC-12s -- in milliseconds of wall
// time, by driving PE state machines over the netsim discrete-event WAN.
// Loads are real TCP-model flows from the DPSS site (rate-capped by a
// disk-farm link derived from dpss::DiskModel); render times come from a
// render::CostModel (calibrated against this machine or pinned to the
// paper's hardware); sends are flows to the viewer site.  Every phase is
// logged with the NetLogger tags of Tables 1/2 on the virtual clock, so the
// same NLV analysis that profiles the real pipeline profiles the simulated
// campaigns -- and regenerates Figures 10 and 12-17.
//
// The harness models only what those figures need: the paper's combustion
// dataset on a healthy four-server DPSS.  The storage tier's own features
// (memory tier, prefetch, replication, erasure coding, overwrites, sharded
// metadata) run for real in src/dpss and are measured there.
//
// Serial and overlapped modes follow the paper's control flow exactly:
// serial alternates L and R per PE; overlapped starts load(t+1) when
// render(t) starts, with a two-deep buffer, so To = N*max(L,R)+min(L,R).
#pragma once

#include <algorithm>
#include <vector>

#include "core/stats.h"
#include "netlog/nlv.h"
#include "netsim/topology.h"
#include "render/parallel.h"
#include "vol/dataset.h"

namespace visapult::sim {

enum class Platform {
  kSmp,      // render process + reader thread each map onto their own CPU
  kCluster,  // both share one CPU per node (CPlant): contention when overlapped
};

struct PlatformConfig {
  Platform kind = Platform::kSmp;
  int pes = 8;
  render::CostModel cost = render::paper_e4500_cost_model();
  // Host ingest ceiling (TCP stack + NIC of the back-end host(s)); an SMP
  // has ONE shared NIC, a cluster has one per node.
  double host_nic_bytes_per_sec = 12.5e6;  // ~100 Mbps effective
  bool per_node_nic = false;               // cluster: true
  // Overlapped-mode CPU contention: load time inflation when the reader
  // thread and render process share a CPU (section 4.4.1's observation,
  // attributed partly to NIC interrupt load).
  double overlap_load_inflation = 1.0;     // cluster: ~1.25
  double overlap_render_inflation = 1.0;   // cluster: ~1.08
  // Run-to-run variability of overlapped loads ("variability in load times
  // from time step to time step").
  double load_jitter_cv = 0.02;            // coefficient of variation
};

PlatformConfig cplant_platform(int pes = 8);
PlatformConfig e4500_platform(int pes = 8);
PlatformConfig onyx2_platform(int pes = 8);

// The dataset (vol::paper_combustion_dataset()), the DPSS farm (four
// servers with default dpss::DiskModel spindles, one load connection per
// server from each PE), the heavy payload (default_heavy_payload_bytes) and
// the jitter seed are fixed: every figure the harness reproduces uses them.
struct CampaignConfig {
  int timesteps = 10;  // frames to replay
  bool overlapped = false;
  PlatformConfig platform;
};

struct CampaignResult {
  double total_seconds = 0.0;          // first BE_FRAME_START to last V event
  core::RunningStat load_seconds;      // per PE-frame L
  core::RunningStat render_seconds;    // per PE-frame R
  core::RunningStat frame_load_throughput_bps;  // aggregate per frame
  double utilization = 0.0;            // vs theoretical bottleneck capacity
  std::vector<netlog::Event> events;   // virtual-clock NLV log
};

// Run the campaign over `testbed` (moved in; its Network carries the run).
CampaignResult run_campaign(netsim::Testbed testbed, const CampaignConfig& config);

// Single-stream reference measurement on the DPSS->backend path, the
// paper's "as measured with commonly available network tools, such as
// iperf".  Returns steady-state bytes/sec for a `transfer_bytes` transfer.
double measure_iperf(netsim::Testbed testbed, double transfer_bytes = 64.0 * 1024 * 1024);

// Heavy payload size the back end ships per PE per frame for this dataset
// (texture is O(n^2): full transverse extent at 16 B/pixel, divided across
// PEs it is NOT -- each PE sends a full transverse image).
double default_heavy_payload_bytes(const vol::DatasetDesc& dataset);

// The closed-form model of section 4.3.
inline double serial_time_model(int n, double l, double r) {
  return n * (l + r);
}
inline double overlapped_time_model(int n, double l, double r) {
  return n * std::max(l, r) + std::min(l, r);
}

}  // namespace visapult::sim
