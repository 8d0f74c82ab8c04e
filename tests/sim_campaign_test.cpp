// Virtual-time campaign harness: the engine behind the Figs. 10-17 benches.
#include "sim/campaign.h"

#include <gtest/gtest.h>

#include "core/units.h"

namespace visapult::sim {
namespace {

using core::mbps_from_bytes_per_sec;

CampaignConfig small_campaign(bool overlapped, int timesteps = 6) {
  CampaignConfig cfg;
  cfg.timesteps = timesteps;
  cfg.overlapped = overlapped;
  cfg.platform = e4500_platform(8);
  return cfg;
}

TEST(OverlapModel, ClosedForms) {
  // Section 4.3: Ts = N(L+R), To = N*max + min; L == R gives 2N/(N+1).
  EXPECT_DOUBLE_EQ(serial_time_model(10, 15.0, 12.0), 270.0);
  EXPECT_DOUBLE_EQ(overlapped_time_model(10, 15.0, 12.0), 162.0);
  const double speedup = serial_time_model(10, 5.0, 5.0) /
                         overlapped_time_model(10, 5.0, 5.0);
  EXPECT_NEAR(speedup, 2.0 * 10 / 11.0, 1e-12);
}

TEST(Campaign, SerialMatchesModelWithinTolerance) {
  auto cfg = small_campaign(false);
  auto result = run_campaign(netsim::make_lan_gige(), cfg);
  const double l = result.load_seconds.mean();
  const double r = result.render_seconds.mean();
  ASSERT_GT(l, 0.0);
  ASSERT_GT(r, 0.0);
  const double model = serial_time_model(cfg.timesteps, l, r);
  // The send/composite tail adds a little on top of the L+R model.
  EXPECT_NEAR(result.total_seconds, model, 0.25 * model);
}

TEST(Campaign, OverlappedBeatsSerial) {
  auto serial = run_campaign(netsim::make_lan_gige(), small_campaign(false));
  auto overlapped = run_campaign(netsim::make_lan_gige(), small_campaign(true));
  EXPECT_LT(overlapped.total_seconds, serial.total_seconds);
  // And respects the theoretical bound To >= N*max(L,R).
  const double l = overlapped.load_seconds.mean();
  const double r = overlapped.render_seconds.mean();
  EXPECT_GE(overlapped.total_seconds,
            small_campaign(true).timesteps * std::max(l, r) * 0.9);
}

TEST(Campaign, SpeedupBoundedByTwo) {
  auto serial = run_campaign(netsim::make_lan_gige(), small_campaign(false));
  auto overlapped = run_campaign(netsim::make_lan_gige(), small_campaign(true));
  const double speedup = serial.total_seconds / overlapped.total_seconds;
  EXPECT_GT(speedup, 1.1);
  EXPECT_LT(speedup, 2.0);
}

TEST(Campaign, EventLogCoversAllFrames) {
  auto cfg = small_campaign(false, 4);
  auto result = run_campaign(netsim::make_lan_gige(), cfg);
  auto loads = netlog::extract_intervals(result.events,
                                         netlog::tags::kBeLoadStart,
                                         netlog::tags::kBeLoadEnd);
  EXPECT_EQ(loads.size(),
            static_cast<std::size_t>(cfg.timesteps * cfg.platform.pes));
  auto heavies = netlog::extract_intervals(result.events,
                                           netlog::tags::kVHeavyStart,
                                           netlog::tags::kVHeavyEnd);
  EXPECT_EQ(heavies.size(), loads.size());
}

TEST(Campaign, SerialNeverOverlapsLoadAndRenderPerPe) {
  auto result = run_campaign(netsim::make_lan_gige(), small_campaign(false, 4));
  auto loads = netlog::extract_intervals(result.events,
                                         netlog::tags::kBeLoadStart,
                                         netlog::tags::kBeLoadEnd);
  auto renders = netlog::extract_intervals(result.events,
                                           netlog::tags::kBeRenderStart,
                                           netlog::tags::kBeRenderEnd);
  for (const auto& l : loads) {
    for (const auto& r : renders) {
      if (l.rank != r.rank) continue;
      const bool disjoint = l.end <= r.start + 1e-9 || r.end <= l.start + 1e-9;
      EXPECT_TRUE(disjoint) << "rank " << l.rank << " load frame " << l.frame
                            << " overlaps render frame " << r.frame;
    }
  }
}

TEST(Campaign, OverlappedActuallyOverlaps) {
  auto result = run_campaign(netsim::make_lan_gige(), small_campaign(true, 4));
  auto loads = netlog::extract_intervals(result.events,
                                         netlog::tags::kBeLoadStart,
                                         netlog::tags::kBeLoadEnd);
  auto renders = netlog::extract_intervals(result.events,
                                           netlog::tags::kBeRenderStart,
                                           netlog::tags::kBeRenderEnd);
  int overlapping = 0;
  for (const auto& l : loads) {
    for (const auto& r : renders) {
      if (l.rank != r.rank || l.frame != r.frame + 1) continue;
      if (l.start < r.end - 1e-9 && r.start < l.end + 1e-9) ++overlapping;
    }
  }
  EXPECT_GT(overlapping, 0);
}

TEST(Campaign, UtilizationNeverExceedsCapacity) {
  auto result = run_campaign(netsim::make_nton(), [] {
    CampaignConfig cfg;
    cfg.timesteps = 4;
    cfg.platform = cplant_platform(8);
    return cfg;
  }());
  EXPECT_GT(result.utilization, 0.0);
  EXPECT_LE(result.utilization, 1.0);
}

TEST(Campaign, EsnetLoadsDominateRenders) {
  // Figs. 16/17: "data loading time dominates in this case, owing to the
  // significantly lower network capacity."
  CampaignConfig cfg;
  cfg.timesteps = 4;
  cfg.platform = onyx2_platform(8);
  auto result = run_campaign(netsim::make_esnet(), cfg);
  EXPECT_GT(result.load_seconds.mean(), result.render_seconds.mean());
}

TEST(Campaign, EsnetFirstFrameSlowerThanSteadyState) {
  // Fig. 17: "After the first time step's worth of data was loaded and the
  // TCP window fully opened..."
  CampaignConfig cfg;
  cfg.timesteps = 5;
  cfg.platform = onyx2_platform(8);
  auto result = run_campaign(netsim::make_esnet(), cfg);
  auto loads = netlog::extract_intervals(result.events,
                                         netlog::tags::kBeLoadStart,
                                         netlog::tags::kBeLoadEnd);
  double first = 0.0, later = 0.0;
  int later_n = 0;
  for (const auto& l : loads) {
    if (l.frame == 0) {
      first = std::max(first, l.duration());
    } else {
      later += l.duration();
      ++later_n;
    }
  }
  ASSERT_GT(later_n, 0);
  EXPECT_GT(first, later / later_n);
}

TEST(Campaign, MoreNodesDoNotImproveSaturatedLoad) {
  // Section 4.4.1: "the time required to load 160 MB of data using eight
  // nodes is approximately equal to the time required when using four
  // nodes" -- the WAN, not the node count, is the constraint.
  CampaignConfig four;
  four.timesteps = 3;
  four.platform = cplant_platform(4);
  auto r4 = run_campaign(netsim::make_nton(), four);

  CampaignConfig eight = four;
  eight.platform = cplant_platform(8);
  auto r8 = run_campaign(netsim::make_nton(), eight);

  EXPECT_NEAR(r8.load_seconds.mean(), r4.load_seconds.mean(),
              0.35 * r4.load_seconds.mean());
  // Rendering, in contrast, halves.
  EXPECT_NEAR(r8.render_seconds.mean(), r4.render_seconds.mean() / 2.0,
              0.2 * r4.render_seconds.mean());
}

TEST(Campaign, ClusterOverlapInflatesLoads) {
  // Section 4.4.1: overlapped loads on CPlant take longer and vary more.
  CampaignConfig serial;
  serial.timesteps = 5;
  serial.platform = cplant_platform(8);
  auto rs = run_campaign(netsim::make_nton(), serial);

  CampaignConfig overlapped = serial;
  overlapped.overlapped = true;
  auto ro = run_campaign(netsim::make_nton(), overlapped);

  EXPECT_GT(ro.load_seconds.mean(), rs.load_seconds.mean());
}

TEST(Iperf, SingleStreamOnEsnetNear100Mbps) {
  const double bps = measure_iperf(netsim::make_esnet());
  EXPECT_NEAR(mbps_from_bytes_per_sec(bps), 100.0, 20.0);
}

TEST(Iperf, NtonSingleStreamMuchFaster) {
  const double esnet = measure_iperf(netsim::make_esnet());
  const double nton = measure_iperf(netsim::make_nton());
  EXPECT_GT(nton, 2.0 * esnet);
}

TEST(HeavyPayload, DefaultIsOofN2) {
  const auto ds = vol::paper_combustion_dataset();
  const double heavy = default_heavy_payload_bytes(ds);
  // 640*256 pixels * 16 B ~= 2.6 MB + grid.
  EXPECT_GT(heavy, 2e6);
  EXPECT_LT(heavy, 4e6);
  // And is tiny next to the 160 MB raw step.
  EXPECT_LT(heavy, 0.03 * static_cast<double>(ds.bytes_per_step()));
}

TEST(Campaign, DeterministicForSameSeed) {
  auto a = run_campaign(netsim::make_lan_gige(), small_campaign(true, 3));
  auto b = run_campaign(netsim::make_lan_gige(), small_campaign(true, 3));
  EXPECT_DOUBLE_EQ(a.total_seconds, b.total_seconds);
}

// The paper's campaigns run in virtual time, so their figures are exact
// functions of the model.  These values pin Figs. 12/13 and 14/15 (Debug
// and Release builds print the same digits); a change to the model shows
// here before it shows in a bench's table.
TEST(Campaign, PaperCampaignsMatchPinnedValues) {
  const auto expect_rel = [](double got, double want) {
    EXPECT_NEAR(got, want, 1e-9 * want);
  };

  CampaignConfig smp;
  smp.timesteps = 10;
  smp.platform = e4500_platform(8);
  const auto smp_serial = run_campaign(netsim::make_lan_gige(), smp);
  smp.overlapped = true;
  const auto smp_overlapped = run_campaign(netsim::make_lan_gige(), smp);
  expect_rel(smp_serial.total_seconds, 289.53911710205648);
  expect_rel(smp_overlapped.total_seconds, 180.19423053935131);
  expect_rel(smp_serial.load_seconds.mean(), 15.102934222091724);
  expect_rel(smp_serial.render_seconds.mean(), 12.194278360837576);

  CampaignConfig cplant;
  cplant.timesteps = 8;
  cplant.platform = cplant_platform(8);
  const auto cplant_serial = run_campaign(netsim::make_nton(), cplant);
  cplant.overlapped = true;
  const auto cplant_overlapped = run_campaign(netsim::make_nton(), cplant);
  expect_rel(cplant_serial.total_seconds, 71.111470451125228);
  expect_rel(cplant_overlapped.total_seconds, 53.607930413913522);
}

}  // namespace
}  // namespace visapult::sim
