// The Combustion Corridor "first light" campaign (section 4.2), replayed at
// the paper's full scale on the virtual-time WAN simulator:
//
//   raw data (640x256x256 float32, 160 MB/step) on a DPSS at LBL,
//   Visapult back end on CPlant at SNL-CA, connected by NTON (OC-12),
//   viewer on a desktop at SNL-CA.
//
// Runs both the serial and the overlapped back end, prints the NLV
// profiles and a paper-vs-measured summary, and writes the event logs as
// CSV for external plotting.
//
// Usage: combustion_corridor [timesteps] [pes] [output-dir]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/units.h"
#include "netlog/nlv.h"
#include "sim/campaign.h"

using namespace visapult;

int main(int argc, char** argv) {
  const int timesteps = argc > 1 ? std::atoi(argv[1]) : 10;
  const int pes = argc > 2 ? std::atoi(argv[2]) : 4;
  const std::string out_dir = argc > 3 ? argv[3] : ".";

  std::printf("Combustion Corridor campaign: %d timesteps, %d CPlant PEs, "
              "LBL DPSS -> NTON -> SNL-CA\n\n",
              timesteps, pes);

  sim::CampaignConfig cfg;
  cfg.timesteps = timesteps;
  cfg.platform = sim::cplant_platform(pes);

  cfg.overlapped = false;
  auto serial = sim::run_campaign(netsim::make_nton(), cfg);
  cfg.overlapped = true;
  auto overlapped = sim::run_campaign(netsim::make_nton(), cfg);

  std::printf("serial:     total %s | L %.2f s | R %.2f s | load %s (%.0f%% of OC-12)\n",
              core::format_seconds(serial.total_seconds).c_str(),
              serial.load_seconds.mean(), serial.render_seconds.mean(),
              core::format_rate(serial.frame_load_throughput_bps.mean()).c_str(),
              100.0 * serial.utilization);
  std::printf("overlapped: total %s | L %.2f s | R %.2f s | speedup %.2fx "
              "(model cap %.2fx)\n\n",
              core::format_seconds(overlapped.total_seconds).c_str(),
              overlapped.load_seconds.mean(), overlapped.render_seconds.mean(),
              serial.total_seconds / overlapped.total_seconds,
              sim::serial_time_model(timesteps, serial.load_seconds.mean(),
                                     serial.render_seconds.mean()) /
                  sim::overlapped_time_model(timesteps, serial.load_seconds.mean(),
                                             serial.render_seconds.mean()));

  std::printf("Serial NLV profile:\n%s\n",
              netlog::ascii_gantt(serial.events).c_str());
  std::printf("Overlapped NLV profile:\n%s\n",
              netlog::ascii_gantt(overlapped.events).c_str());

  for (const auto& [name, result] :
       {std::pair<std::string, const sim::CampaignResult*>{"serial", &serial},
        {"overlapped", &overlapped}}) {
    const std::string path = out_dir + "/corridor_" + name + "_events.csv";
    std::ofstream f(path);
    f << netlog::events_csv(result->events);
    std::printf("wrote %s (%zu events)\n", path.c_str(), result->events.size());
  }
  return 0;
}
