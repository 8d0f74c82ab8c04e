// Metric time series and live alerting: rate rings, rule parsing, the
// fire-after-N-breaches / resolve-on-recovery state machine, and the
// master's tick-driven scrape surfacing through kStats.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dpss/deployment.h"
#include "obs/alert.h"
#include "support/test_support.h"

namespace visapult::obs {
namespace {

// ---- TimeSeries ------------------------------------------------------------

TEST(TimeSeries, RateOverWindows) {
  TimeSeries ts(/*capacity=*/4);
  EXPECT_DOUBLE_EQ(ts.rate(), 0.0);  // no points
  ts.record(0.0, 10.0);
  EXPECT_DOUBLE_EQ(ts.rate(), 0.0);  // one point
  ts.record(1.0, 14.0);
  EXPECT_DOUBLE_EQ(ts.rate(), 4.0);
  ts.record(3.0, 20.0);
  EXPECT_DOUBLE_EQ(ts.rate(1), 3.0);   // (20-14)/(3-1)
  EXPECT_DOUBLE_EQ(ts.rate(2), 10.0 / 3.0);
  EXPECT_DOUBLE_EQ(ts.latest(), 20.0);

  // Counter reset: value drops -> rate clamps to 0 instead of negative.
  ts.record(4.0, 2.0);
  EXPECT_DOUBLE_EQ(ts.rate(), 0.0);

  // Ring bounded at capacity.
  ts.record(5.0, 3.0);
  EXPECT_EQ(ts.size(), 4u);
}

// ---- AlertRule parsing -----------------------------------------------------

TEST(AlertRule, ParseRoundTrip) {
  auto r = AlertRule::parse(
      "read_timeout_burn: rate(dpss_net_read_timeouts_total) > 0.5 for 3");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().name, "read_timeout_burn");
  EXPECT_EQ(r.value().metric, "dpss_net_read_timeouts_total");
  EXPECT_TRUE(r.value().rate);
  EXPECT_TRUE(r.value().greater);
  EXPECT_DOUBLE_EQ(r.value().threshold, 0.5);
  EXPECT_EQ(r.value().for_windows, 3u);

  // to_string parses back to the same rule.
  auto again = AlertRule::parse(r.value().to_string());
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().metric, r.value().metric);
  EXPECT_EQ(again.value().for_windows, r.value().for_windows);

  auto lt = AlertRule::parse("low_cache: dpss_cache_hits_total < 100");
  ASSERT_TRUE(lt.is_ok());
  EXPECT_FALSE(lt.value().rate);
  EXPECT_FALSE(lt.value().greater);
  EXPECT_EQ(lt.value().for_windows, 1u);
}

TEST(AlertRule, ParseRejectsMalformed) {
  EXPECT_FALSE(AlertRule::parse("").is_ok());
  EXPECT_FALSE(AlertRule::parse("no colon or comparator").is_ok());
  EXPECT_FALSE(AlertRule::parse("name: metric").is_ok());         // no op
  EXPECT_FALSE(AlertRule::parse(": metric > 1").is_ok());         // no name
  EXPECT_FALSE(AlertRule::parse("name: > 1").is_ok());            // no metric
}

// ---- AlertEngine state machine ---------------------------------------------

TEST(AlertEngine, FiresAfterForWindowsAndResolves) {
  AlertEngine engine;
  ASSERT_TRUE(engine.add_rule("hot: latency > 1.0 for 2").is_ok());
  ASSERT_EQ(engine.rule_count(), 1u);

  std::vector<Sample> quiet{{"latency", "", 0.5}};
  std::vector<Sample> breach{{"latency", "", 2.0}};

  EXPECT_EQ(engine.scrape(quiet, 1.0), 0u);
  // First breach arms the window but does not fire (for 2).
  EXPECT_EQ(engine.scrape(breach, 2.0), 0u);
  EXPECT_EQ(engine.firing_count(), 0u);
  // Second consecutive breach fires.
  EXPECT_EQ(engine.scrape(breach, 3.0), 1u);
  EXPECT_EQ(engine.firing_count(), 1u);
  EXPECT_EQ(engine.fired_total(), 1u);
  EXPECT_NE(engine.render_text().find("ALERT hot firing"),
            std::string::npos);

  // One quiet scrape resolves it.
  EXPECT_EQ(engine.scrape(quiet, 4.0), 0u);
  EXPECT_EQ(engine.firing_count(), 0u);
  EXPECT_EQ(engine.resolved_total(), 1u);
  EXPECT_NE(engine.render_text().find("ALERT hot resolved"),
            std::string::npos);

  // A single breach cannot re-fire a `for 2` rule: no flapping on noise.
  EXPECT_EQ(engine.scrape(breach, 5.0), 0u);
  EXPECT_EQ(engine.scrape(quiet, 6.0), 0u);
  EXPECT_EQ(engine.fired_total(), 1u);

  std::vector<Sample> out;
  engine.collect_samples(out);
  bool saw_firing_gauge = false;
  for (const auto& s : out) {
    if (s.name == "dpss_alert_firing") {
      saw_firing_gauge = true;
      EXPECT_EQ(s.labels, "alert=\"hot\"");
      EXPECT_DOUBLE_EQ(s.value, 0.0);
    }
  }
  EXPECT_TRUE(saw_firing_gauge);
}

TEST(AlertEngine, RateRuleWatchesDeltasNotLevels) {
  AlertEngine engine;
  ASSERT_TRUE(engine.add_rule("surge: rate(opens_total) > 0.5").is_ok());

  // A large static level never breaches a rate rule...
  std::vector<Sample> s{{"opens_total", "", 1000.0}};
  engine.scrape(s, 1.0);
  engine.scrape(s, 2.0);
  EXPECT_EQ(engine.firing_count(), 0u);
  // ...a climbing counter does.
  s[0].value = 1010.0;
  EXPECT_EQ(engine.scrape(s, 3.0), 1u);
  // A missing metric records nothing and cannot flap the state.
  std::vector<Sample> other{{"unrelated", "", 0.0}};
  engine.scrape(other, 4.0);
  EXPECT_EQ(engine.firing_count(), 1u);
}

// ---- Master::tick integration ----------------------------------------------

TEST(MasterAlerts, TickScrapesAndStatsExpose) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  dpss::PipeDeployment deployment(2);
  ASSERT_TRUE(deployment.ingest(desc, 8192, 1, 2).is_ok());

  auto& master = deployment.master();
  // Unparsable rules are rejected with the offending text.
  EXPECT_FALSE(master.enable_alerts({"not a rule"}).is_ok());
  ASSERT_TRUE(master
                  .enable_alerts(
                      {"open_surge: rate(dpss_master_opens_total) > 0.5"})
                  .is_ok());

  master.tick(1.0);  // baseline scrape: one point, rate 0
  auto client = deployment.make_client();
  for (int i = 0; i < 4; ++i) {
    auto file = client.open(desc.name);
    ASSERT_TRUE(file.is_ok());
  }
  master.tick(2.0);  // 4 opens / 1 s > 0.5: fires
  EXPECT_EQ(master.alert_engine().firing_count(), 1u);

  // The firing alert rides the master's wire exposition.
  auto stats = client.introspect(dpss::IntrospectKind::kStats);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_NE(stats.value().find("dpss_alert_firing{alert=\"open_surge\"} 1"),
            std::string::npos);
  EXPECT_NE(master.trace_report().find("ALERT open_surge firing"),
            std::string::npos);

  master.tick(3.0);  // no opens this window: resolves
  EXPECT_EQ(master.alert_engine().firing_count(), 0u);
  EXPECT_EQ(master.alert_engine().resolved_total(), 1u);
  EXPECT_NE(master.trace_report().find("ALERT open_surge resolved"),
            std::string::npos);
}

}  // namespace
}  // namespace visapult::obs
