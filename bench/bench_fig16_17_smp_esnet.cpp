// Figures 16 & 17: serial vs overlapped back end on the ANL Onyx2 SMP
// reading the LBL DPSS over ESnet (section 4.4.2).
//
// Paper numbers to reproduce (shape):
//   * ~10 s to move 160 MB per frame  =>  ~128 Mbps consumed
//   * iperf on the same path measures ~100 Mbps (single stream,
//     window-limited); Visapult's parallel loads do better
//   * load dominates render (low network capacity)
//   * frame 0 loads slower, "after the first time step's worth of data was
//     loaded and the TCP window fully opened" throughput is steady
#include <cstdio>

#include "bench_json.h"
#include "core/stats.h"
#include "core/units.h"
#include "netlog/nlv.h"
#include "sim/campaign.h"

using namespace visapult;

int main() {
  std::printf("=== Figures 16/17: ANL Onyx2 over ESnet, serial vs overlapped ===\n\n");

  sim::CampaignConfig cfg;
  cfg.timesteps = 8;
  cfg.platform = sim::onyx2_platform(8);

  cfg.overlapped = false;
  auto serial = sim::run_campaign(netsim::make_esnet(), cfg);
  cfg.overlapped = true;
  auto overlapped = sim::run_campaign(netsim::make_esnet(), cfg);

  const double iperf = sim::measure_iperf(netsim::make_esnet());

  // Steady-state load throughput: skip frame 0 (window opening).
  auto loads = netlog::extract_intervals(serial.events,
                                         netlog::tags::kBeLoadStart,
                                         netlog::tags::kBeLoadEnd);
  double frame0 = 0.0;
  core::RunningStat steady;
  for (const auto& l : loads) {
    if (l.frame == 0) {
      frame0 = std::max(frame0, l.duration());
    } else {
      steady.add(l.duration());
    }
  }
  const double steady_agg_bps = serial.frame_load_throughput_bps.mean();

  core::TableWriter table({"metric", "paper", "measured"});
  table.add_row({"iperf single stream (Mbps)", "~100",
                 core::fmt_double(core::mbps_from_bytes_per_sec(iperf), 1)});
  table.add_row({"visapult aggregate load (Mbps)", "~128",
                 core::fmt_double(core::mbps_from_bytes_per_sec(steady_agg_bps), 1)});
  table.add_row({"load time, 160 MB frame (s)", "~10",
                 core::fmt_double(steady.mean(), 2)});
  table.add_row({"frame-0 load (window opening) (s)", "> steady",
                 core::fmt_double(frame0, 2)});
  table.add_row({"render (s), 8 procs", "~4 (minor)",
                 core::fmt_double(serial.render_seconds.mean(), 2)});
  table.add_row({"load dominates render", "yes",
                 serial.load_seconds.mean() > serial.render_seconds.mean()
                     ? "yes" : "no"});
  table.add_row({"total (s), serial", "-",
                 core::fmt_double(serial.total_seconds, 1)});
  table.add_row({"total (s), overlapped", "< serial",
                 core::fmt_double(overlapped.total_seconds, 1)});
  std::printf("%s\n", table.to_string().c_str());

  std::printf("Fig. 16 (serial) NLV profile:\n%s\n",
              netlog::ascii_gantt(serial.events).c_str());
  std::printf("Fig. 17 (overlapped) NLV profile:\n%s\n",
              netlog::ascii_gantt(overlapped.events).c_str());

  return bench::Summary("fig16_17_smp_esnet")
      .metric("iperf_mbps", core::mbps_from_bytes_per_sec(iperf))
      .metric("agg_load_mbps", core::mbps_from_bytes_per_sec(steady_agg_bps))
      .metric("steady_load_s", steady.mean())
      .metric("frame0_load_s", frame0)
      .metric("render_mean_s", serial.render_seconds.mean())
      .metric("serial_total_s", serial.total_seconds)
      .metric("overlapped_total_s", overlapped.total_seconds)
      .write();
}
