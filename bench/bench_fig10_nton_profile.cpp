// Figure 10: NetLogger profile of the (serial) Visapult back end on the
// 12 April 2000 Combustion Corridor campaign -- DPSS at LBL, 4-PE back end
// on CPlant at SNL-CA over NTON, viewer at SNL-CA.
//
// Paper numbers to reproduce (shape):
//   * 160 MB loaded in ~3 s  =>  ~433 Mbps aggregate
//   * ~70% utilization of the theoretical OC-12 (622 Mbps) limit
//   * software rendering ~8-9 s on four CPlant processors
#include <cstdio>

#include "bench_json.h"
#include "core/stats.h"
#include "core/units.h"
#include "netlog/nlv.h"
#include "sim/campaign.h"

using namespace visapult;

int main() {
  std::printf("=== Figure 10: LBL DPSS -> CPlant over NTON, serial back end ===\n\n");

  sim::CampaignConfig cfg;
  cfg.timesteps = 8;
  cfg.overlapped = false;
  cfg.platform = sim::cplant_platform(4);

  auto result = sim::run_campaign(netsim::make_nton(), cfg);

  const double load_mean = result.load_seconds.mean();
  const double render_mean = result.render_seconds.mean();
  const double agg_bps = result.frame_load_throughput_bps.mean();

  core::TableWriter table({"metric", "paper", "measured"});
  table.add_row({"load time, 160 MB frame (s)", "~3",
                 core::fmt_double(load_mean, 2)});
  table.add_row({"aggregate load throughput (Mbps)", "~433",
                 core::fmt_double(core::mbps_from_bytes_per_sec(agg_bps), 1)});
  table.add_row({"OC-12 utilization (%)", "~70",
                 core::fmt_double(100.0 * result.utilization, 1)});
  table.add_row({"render time, 4 PEs (s)", "8-9",
                 core::fmt_double(render_mean, 2)});
  std::printf("%s\n", table.to_string().c_str());

  std::printf("NLV profile (o = even frames, x = odd frames):\n%s\n",
              netlog::ascii_gantt(result.events).c_str());

  return bench::Summary("fig10_nton_profile")
      .metric("load_mean_s", load_mean)
      .metric("agg_load_mbps", core::mbps_from_bytes_per_sec(agg_bps))
      .metric("oc12_utilization_pct", 100.0 * result.utilization)
      .metric("render_mean_s", render_mean)
      .write();
}
