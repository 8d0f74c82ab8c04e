// Unit tests for the token-bucket shaper (src/net/shaper.cpp).  All timing
// assertions run against a virtual clock, so the token-bucket maths are
// checked exactly and the tests are immune to machine load.
#include "net/shaper.h"

#include <gtest/gtest.h>

#include <thread>

#include "net/stream.h"
#include "support/test_support.h"

namespace visapult::net {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 29 + 1);
  return v;
}

TEST(Shaper, ZeroRateMeansUnshaped) {
  test_support::RecordingVirtualClock clock;
  auto [a, b] = make_pipe();
  ShapedStream shaped(a, ShaperConfig{}, clock);
  const auto data = pattern(64 * 1024);
  ASSERT_TRUE(shaped.send_bytes(data).is_ok());
  auto got = b->recv_bytes(data.size());
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), data);
  EXPECT_DOUBLE_EQ(clock.total_slept(), 0.0);
}

TEST(Shaper, WithinBurstIsInstant) {
  test_support::RecordingVirtualClock clock;
  auto [a, b] = make_pipe();
  ShaperConfig cfg;
  cfg.rate_bytes_per_sec = 1000.0;
  cfg.burst_bytes = 4096;
  ShapedStream shaped(a, cfg, clock);
  ASSERT_TRUE(shaped.send_bytes(pattern(4096)).is_ok());
  EXPECT_TRUE(b->recv_bytes(4096).is_ok());
  EXPECT_DOUBLE_EQ(clock.total_slept(), 0.0);  // one full burst: no throttling
}

TEST(Shaper, SustainedRateMatchesTokenBucketMath) {
  test_support::RecordingVirtualClock clock;
  auto [a, b] = make_pipe(1 << 22);
  ShaperConfig cfg;
  cfg.rate_bytes_per_sec = 1e6;  // 1 MB/s
  cfg.burst_bytes = 16 * 1024;
  ShapedStream shaped(a, cfg, clock);

  const std::size_t total = 200 * 1024;
  ASSERT_TRUE(shaped.send_bytes(pattern(total)).is_ok());
  EXPECT_TRUE(b->recv_bytes(total).is_ok());

  // One initial burst rides for free; the rest must be paced at the rate.
  const double expected =
      static_cast<double>(total - cfg.burst_bytes) / cfg.rate_bytes_per_sec;
  EXPECT_NEAR(clock.total_slept(), expected, 1e-6);
}

// Virtual time whose every sleep overruns by `late` seconds: a host that
// wakes sleepers late (scheduler latency, CPU steal).
class LateClock final : public core::Clock {
 public:
  explicit LateClock(double late) : late_(late) {}
  core::TimePoint now() const override { return clock_.now(); }
  void sleep_for(double seconds) override {
    clock_.sleep_for(seconds + late_);
  }

 private:
  double late_;
  core::VirtualClock clock_;
};

// Frames of a 32-byte header and a one-burst payload through a gigabit
// link on a host that wakes every sleeper 50 us late.  The time a sender
// oversleeps stays in the bucket, so the whole run costs the paced time
// plus one late wakeup, not one per frame.
TEST(Shaper, LateWakeupsLoseNoLinkTime) {
  constexpr double kLate = 50e-6;
  constexpr int kFrames = 32;
  LateClock clock(kLate);
  auto [a, b] = make_pipe();
  ShaperConfig cfg;
  cfg.rate_bytes_per_sec = 125e6;
  ShapedStream shaped(a, cfg, clock);
  const auto header = pattern(32);
  const auto payload = pattern(cfg.burst_bytes);
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(shaped.send_bytes(header).is_ok());
    ASSERT_TRUE(shaped.send_bytes(payload).is_ok());
    ASSERT_TRUE(b->recv_bytes(header.size() + payload.size()).is_ok());
  }
  const double total = kFrames * static_cast<double>(header.size() +
                                                      payload.size());
  const double paced = (total - cfg.burst_bytes) / cfg.rate_bytes_per_sec;
  EXPECT_GE(clock.now(), paced - 1e-9);
  EXPECT_LE(clock.now(), paced + kLate + 1e-9);
}

TEST(Shaper, LatencyAppliedOncePerSendCall) {
  test_support::RecordingVirtualClock clock;
  auto [a, b] = make_pipe();
  ShaperConfig cfg;
  cfg.latency_sec = 0.040;  // 40 ms one-way, no rate shaping
  ShapedStream shaped(a, cfg, clock);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(shaped.send_bytes(pattern(10)).is_ok());
    ASSERT_TRUE(b->recv_bytes(10).is_ok());
  }
  EXPECT_NEAR(clock.total_slept(), 5 * 0.040, 1e-9);
}

TEST(Shaper, DataIntegrityPreservedUnderShaping) {
  test_support::RecordingVirtualClock clock;
  auto [a, b] = make_pipe(1 << 22);
  ShaperConfig cfg;
  cfg.rate_bytes_per_sec = 5e5;
  cfg.burst_bytes = 1024;
  cfg.latency_sec = 0.002;
  ShapedStream shaped(a, cfg, clock);
  const auto data = pattern(100 * 1024);
  ASSERT_TRUE(shaped.send_bytes(data).is_ok());
  auto got = b->recv_bytes(data.size());
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), data);
}

TEST(Shaper, RecvPassesThroughUnshaped) {
  test_support::RecordingVirtualClock clock;
  auto [a, b] = make_pipe();
  ShaperConfig cfg;
  cfg.rate_bytes_per_sec = 1.0;  // brutally slow *send* shaping
  cfg.burst_bytes = 4;
  ShapedStream shaped(a, cfg, clock);
  const auto data = pattern(256);
  ASSERT_TRUE(b->send_bytes(data).is_ok());
  auto got = shaped.recv_bytes(data.size());  // recv side: no throttling
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), data);
  EXPECT_DOUBLE_EQ(clock.total_slept(), 0.0);
}

TEST(Shaper, CloseForwardsToInnerStream) {
  test_support::RecordingVirtualClock clock;
  auto [a, b] = make_pipe();
  ShapedStream shaped(a, ShaperConfig{}, clock);
  shaped.close();
  auto got = b->recv_bytes(1);
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), core::StatusCode::kUnavailable);
}

TEST(Shaper, SendAfterPeerCloseSurfacesError) {
  test_support::RecordingVirtualClock clock;
  auto [a, b] = make_pipe();
  ShapedStream shaped(a, ShaperConfig{}, clock);
  b->close();
  EXPECT_FALSE(shaped.send_bytes(pattern(16)).is_ok());
}

}  // namespace
}  // namespace visapult::net
