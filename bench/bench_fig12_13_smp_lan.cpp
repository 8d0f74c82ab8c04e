// Figures 12 & 13: serial vs overlapped loading+rendering on the
// eight-processor Sun E4500 ("diesel") connected to the LBL DPSS over
// gigabit-ethernet LAN, ten timesteps.
//
// Paper numbers to reproduce (shape):
//   * serial total   ~265 s
//   * overlapped     ~169 s
//   * L ~ 15 s, R ~ 12 s per frame
//   * speedup consistent with Ts = N(L+R), To = N*max(L,R)+min(L,R)
#include <cstdio>

#include "bench_json.h"
#include "core/stats.h"
#include "core/units.h"
#include "netlog/nlv.h"
#include "sim/campaign.h"

using namespace visapult;

int main() {
  std::printf("=== Figures 12/13: serial vs overlapped on the E4500 SMP (LAN) ===\n\n");

  sim::CampaignConfig cfg;
  cfg.timesteps = 10;
  cfg.platform = sim::e4500_platform(8);

  cfg.overlapped = false;
  auto serial = sim::run_campaign(netsim::make_lan_gige(), cfg);
  cfg.overlapped = true;
  auto overlapped = sim::run_campaign(netsim::make_lan_gige(), cfg);

  const double l = serial.load_seconds.mean();
  const double r = serial.render_seconds.mean();

  core::TableWriter table({"metric", "paper", "measured"});
  table.add_row({"L, per-frame load (s)", "~15", core::fmt_double(l, 1)});
  table.add_row({"R, per-frame render (s)", "~12", core::fmt_double(r, 1)});
  table.add_row({"serial total, 10 steps (s)", "~265",
                 core::fmt_double(serial.total_seconds, 1)});
  table.add_row({"overlapped total, 10 steps (s)", "~169",
                 core::fmt_double(overlapped.total_seconds, 1)});
  table.add_row({"speedup", core::fmt_double(265.0 / 169.0, 2),
                 core::fmt_double(serial.total_seconds / overlapped.total_seconds, 2)});
  table.add_row({"model Ts = N(L+R) (s)",
                 "270", core::fmt_double(sim::serial_time_model(10, l, r), 1)});
  table.add_row({"model To = N*max+min (s)",
                 "162", core::fmt_double(sim::overlapped_time_model(10, l, r), 1)});
  std::printf("%s\n", table.to_string().c_str());

  // Where the time goes, per phase (the question the NLV figures answer).
  for (const auto& [label, result] :
       {std::pair<const char*, const sim::CampaignResult*>{"serial", &serial},
        {"overlapped", &overlapped}}) {
    core::TableWriter phases({"phase", "occurrences", "mean (s)",
                              "busy (s)", "span %"});
    for (const auto& p : netlog::phase_breakdown(result->events)) {
      phases.add_row({p.name, std::to_string(p.per_occurrence.count()),
                      core::fmt_double(p.per_occurrence.mean(), 2),
                      core::fmt_double(p.busy_seconds, 1),
                      core::fmt_double(100.0 * p.span_fraction, 1)});
    }
    std::printf("Phase breakdown (%s):\n%s\n", label, phases.to_string().c_str());
  }

  std::printf("Fig. 12 (serial) NLV profile:\n%s\n",
              netlog::ascii_gantt(serial.events).c_str());
  std::printf("Fig. 13 (overlapped) NLV profile:\n%s\n",
              netlog::ascii_gantt(overlapped.events).c_str());

  return bench::Summary("fig12_13_smp_lan")
      .metric("load_mean_s", l)
      .metric("render_mean_s", r)
      .metric("serial_total_s", serial.total_seconds)
      .metric("overlapped_total_s", overlapped.total_seconds)
      .metric("speedup", serial.total_seconds / overlapped.total_seconds)
      .metric("model_serial_s", sim::serial_time_model(10, l, r))
      .metric("model_overlapped_s", sim::overlapped_time_model(10, l, r))
      .write();
}
