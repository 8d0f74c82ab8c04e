// Figures 14 & 15: serial vs overlapped back end on eight CPlant nodes
// reading the LBL DPSS over NTON (section 4.4.1).
//
// Paper observations to reproduce (shape):
//   * 8-node load time ~= 4-node load time (the OC-12, not the node count,
//     is the constraint once the WAN saturates)
//   * render time halves from 4 -> 8 nodes (linear speedup)
//   * overlapped loads are longer and more variable than serial loads
//     (reader thread and render process share one CPU per node)
#include <cstdio>

#include "bench_json.h"
#include "core/stats.h"
#include "core/units.h"
#include "netlog/nlv.h"
#include "sim/campaign.h"

using namespace visapult;

int main() {
  std::printf("=== Figures 14/15: CPlant over NTON, serial vs overlapped ===\n\n");

  auto run = [](int pes, bool overlapped) {
    sim::CampaignConfig cfg;
    cfg.timesteps = 8;
    cfg.overlapped = overlapped;
    cfg.platform = sim::cplant_platform(pes);
    return sim::run_campaign(netsim::make_nton(), cfg);
  };

  auto serial4 = run(4, false);
  auto serial8 = run(8, false);
  auto overlapped8 = run(8, true);

  core::TableWriter table({"metric", "paper", "measured"});
  table.add_row({"load (s), 4 nodes serial", "~3",
                 core::fmt_double(serial4.load_seconds.mean(), 2)});
  table.add_row({"load (s), 8 nodes serial", "~= 4-node",
                 core::fmt_double(serial8.load_seconds.mean(), 2)});
  table.add_row({"render (s), 4 nodes", "8-9",
                 core::fmt_double(serial4.render_seconds.mean(), 2)});
  table.add_row({"render (s), 8 nodes", "~half of 4-node",
                 core::fmt_double(serial8.render_seconds.mean(), 2)});
  table.add_row({"load (s), 8 nodes overlapped", "> serial",
                 core::fmt_double(overlapped8.load_seconds.mean(), 2)});
  table.add_row({"load stddev, serial (s)", "small",
                 core::fmt_double(serial8.load_seconds.stddev(), 3)});
  table.add_row({"load stddev, overlapped (s)", "larger (staggered)",
                 core::fmt_double(overlapped8.load_seconds.stddev(), 3)});
  table.add_row({"total (s), 8 nodes serial", "-",
                 core::fmt_double(serial8.total_seconds, 1)});
  table.add_row({"total (s), 8 nodes overlapped", "< serial",
                 core::fmt_double(overlapped8.total_seconds, 1)});
  std::printf("%s\n", table.to_string().c_str());

  std::printf("Fig. 14 (serial, 8 nodes) NLV profile:\n%s\n",
              netlog::ascii_gantt(serial8.events).c_str());
  std::printf("Fig. 15 (overlapped, 8 nodes) NLV profile:\n%s\n",
              netlog::ascii_gantt(overlapped8.events).c_str());

  return bench::Summary("fig14_15_cplant_nton")
      .metric("load_4node_serial_s", serial4.load_seconds.mean())
      .metric("load_8node_serial_s", serial8.load_seconds.mean())
      .metric("render_4node_s", serial4.render_seconds.mean())
      .metric("render_8node_s", serial8.render_seconds.mean())
      .metric("load_8node_overlapped_s", overlapped8.load_seconds.mean())
      .metric("load_stddev_serial_s", serial8.load_seconds.stddev())
      .metric("load_stddev_overlapped_s", overlapped8.load_seconds.stddev())
      .metric("total_8node_serial_s", serial8.total_seconds)
      .metric("total_8node_overlapped_s", overlapped8.total_seconds)
      .write();
}
