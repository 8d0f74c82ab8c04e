// Section 4.3: the overlapped-pipeline timing model.
//
//   Ts = N (L + R)            serial
//   To = N max(L,R) + min(L,R)  overlapped
//
// With L ~= R the speedup approaches 2N/(N+1) ~ 2x.  As |L - R| grows the
// benefit shrinks toward 1x.  This bench sweeps the L/R ratio and the
// timestep count, comparing the measured virtual-time campaigns against the
// closed forms -- the ablation DESIGN.md calls out for the overlap design
// choice.
#include <cstdio>

#include "bench_json.h"
#include "core/stats.h"
#include "netsim/topology.h"
#include "sim/campaign.h"

using namespace visapult;

int main() {
  std::printf("=== Section 4.3: overlapped I/O + rendering model ===\n\n");

  bench::Summary summary("overlap_model");

  // Closed-form sweep over the L/R ratio at N = 10.
  {
    core::TableWriter table({"L/R ratio", "Ts (s)", "To (s)", "speedup",
                             "2N/(N+1) cap"});
    const int n = 10;
    const double r = 10.0;
    for (double ratio : {0.25, 0.5, 0.8, 1.0, 1.25, 2.0, 4.0}) {
      const double l = r * ratio;
      const double ts = sim::serial_time_model(n, l, r);
      const double to = sim::overlapped_time_model(n, l, r);
      table.add_row({core::fmt_double(ratio, 2), core::fmt_double(ts, 1),
                     core::fmt_double(to, 1), core::fmt_double(ts / to, 3),
                     core::fmt_double(2.0 * n / (n + 1), 3)});
      if (ratio == 1.0) {
        summary.metric("closed_form_speedup_ratio1", ts / to)
            .metric("closed_form_cap", 2.0 * n / (n + 1));
      }
    }
    std::printf("Closed forms (N = 10, R = 10 s):\n%s\n", table.to_string().c_str());
  }

  // Measured: replay the E4500/LAN campaign at several timestep counts and
  // compare against the model evaluated at the measured L and R.
  {
    core::TableWriter table({"N steps", "measured Ts", "model Ts",
                             "measured To", "model To", "speedup"});
    for (int n : {2, 5, 10, 20}) {
      sim::CampaignConfig cfg;
      cfg.timesteps = n;
      cfg.platform = sim::e4500_platform(8);

      cfg.overlapped = false;
      auto serial = sim::run_campaign(netsim::make_lan_gige(), cfg);
      cfg.overlapped = true;
      auto overlapped = sim::run_campaign(netsim::make_lan_gige(), cfg);

      const double l = serial.load_seconds.mean();
      const double r = serial.render_seconds.mean();
      table.add_row({std::to_string(n),
                     core::fmt_double(serial.total_seconds, 1),
                     core::fmt_double(sim::serial_time_model(n, l, r), 1),
                     core::fmt_double(overlapped.total_seconds, 1),
                     core::fmt_double(sim::overlapped_time_model(n, l, r), 1),
                     core::fmt_double(serial.total_seconds /
                                          overlapped.total_seconds, 2)});
      if (n == 10) {
        summary
            .metric("measured_speedup_n10",
                    serial.total_seconds / overlapped.total_seconds)
            .metric("measured_serial_n10_s", serial.total_seconds)
            .metric("measured_overlapped_n10_s", overlapped.total_seconds);
      }
    }
    std::printf("Measured campaigns vs model (E4500 / gigabit LAN):\n%s\n",
                table.to_string().c_str());
  }
  return summary.write();
}
