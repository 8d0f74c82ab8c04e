#include "net/striped.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <tuple>

#include "core/rng.h"
#include "net/stream.h"

namespace visapult::net {
namespace {

// A connected pair of striped streams over N pipe lanes.
std::pair<std::unique_ptr<StripedStream>, std::unique_ptr<StripedStream>>
make_striped_pair(int lanes, std::size_t stripe_bytes) {
  std::vector<StreamPtr> left, right;
  for (int i = 0; i < lanes; ++i) {
    auto [a, b] = make_pipe(1 << 22);
    left.push_back(a);
    right.push_back(b);
  }
  return {std::make_unique<StripedStream>(std::move(left), stripe_bytes),
          std::make_unique<StripedStream>(std::move(right), stripe_bytes)};
}

std::vector<std::uint8_t> random_payload(std::size_t n, std::uint64_t seed) {
  core::Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64());
  return v;
}

// Property sweep: payload size x lane count x stripe size.
class StripedRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::size_t, int, std::size_t>> {};

TEST_P(StripedRoundTrip, PayloadSurvives) {
  const auto [size, lanes, stripe] = GetParam();
  auto [tx, rx] = make_striped_pair(lanes, stripe);
  const auto payload = random_payload(size, size * 31 + lanes);

  std::thread sender([&, tx = tx.get()] {
    ASSERT_TRUE(tx->send(payload).is_ok());
  });
  auto got = rx->recv();
  sender.join();
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value(), payload);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StripedRoundTrip,
    ::testing::Combine(
        ::testing::Values<std::size_t>(0, 1, 100, 4096, 65537, 1 << 20),
        ::testing::Values(1, 2, 3, 8),
        ::testing::Values<std::size_t>(64, 4096, 256 * 1024)));

TEST(Striped, MultiplePayloadsInSequence) {
  auto [tx, rx] = make_striped_pair(4, 1024);
  std::thread sender([&, tx = tx.get()] {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(tx->send(random_payload(static_cast<std::size_t>(i) * 311, i)).is_ok());
    }
  });
  for (int i = 0; i < 20; ++i) {
    auto got = rx->recv();
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got.value(), random_payload(static_cast<std::size_t>(i) * 311, i));
  }
  sender.join();
}

TEST(Striped, LaneCountReported) {
  auto [tx, rx] = make_striped_pair(5, 128);
  EXPECT_EQ(tx->lane_count(), 5);
  EXPECT_EQ(tx->stripe_bytes(), 128u);
}

TEST(Striped, ZeroStripeBytesClampedToOne) {
  std::vector<StreamPtr> lanes;
  auto [a, b] = make_pipe();
  lanes.push_back(a);
  StripedStream s(std::move(lanes), 0);
  EXPECT_EQ(s.stripe_bytes(), 1u);
  (void)b;
}

TEST(Striped, PeerCloseSurfacesAsError) {
  auto [tx, rx] = make_striped_pair(2, 256);
  tx->close();
  auto got = rx->recv();
  EXPECT_FALSE(got.is_ok());
}

TEST(Striped, TruncatedLaneDetected) {
  // Build striped sender with 2 lanes but close one lane mid-payload: the
  // receiver must report an error, not hang or return bad data.
  std::vector<StreamPtr> left, right;
  for (int i = 0; i < 2; ++i) {
    auto [a, b] = make_pipe(1 << 20);
    left.push_back(a);
    right.push_back(b);
  }
  StreamPtr lane1_tx = left[1];
  StripedStream tx(std::move(left), 512);
  StripedStream rx(std::move(right), 512);

  const auto payload = random_payload(8192, 3);
  std::thread sender([&] {
    (void)tx.send(payload);
    // Kill lane 1 afterwards; the receiver may still be draining.
    lane1_tx->close();
  });
  auto got = rx.recv();
  sender.join();
  // Either a clean receive (send won the race) or a clean error.
  if (got.is_ok()) {
    EXPECT_EQ(got.value(), payload);
  } else {
    SUCCEED();
  }
}

// Peak resident set of this process (VmHWM), in bytes; 0 if unknown.
std::size_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoul(line.substr(6)) * 1024;
  }
  return 0;
}

// One lane's raw wire bytes: a preamble, then optional stripe headers.
void send_preamble(ByteStream& lane, std::uint64_t total_len,
                   std::uint32_t stripes) {
  std::uint8_t preamble[20] = {};
  std::memcpy(preamble + 8, &total_len, 8);
  std::memcpy(preamble + 16, &stripes, 4);
  ASSERT_TRUE(lane.send_all(preamble, sizeof preamble).is_ok());
}

void send_stripe_header(ByteStream& lane, std::uint64_t offset,
                        std::uint64_t len) {
  std::uint8_t header[16];
  std::memcpy(header, &offset, 8);
  std::memcpy(header + 8, &len, 8);
  ASSERT_TRUE(lane.send_all(header, sizeof header).is_ok());
}

// A 20-byte preamble claiming 2^40 bytes, then a close: the receiver must
// answer with a status, holding nothing near the claimed size (each lane
// runs on its own thread, where a bad_alloc would abort the process).
TEST(Striped, ClaimedLengthIsNotAllocatedUpFront) {
  auto [a, b] = make_pipe();
  StripedStream rx({b});
  send_preamble(*a, 1ull << 40, 1);
  a->close();
  const std::size_t before = peak_rss_bytes();
  auto got = rx.recv();
  EXPECT_EQ(got.status().code(), core::StatusCode::kUnavailable);
  EXPECT_LT(peak_rss_bytes() - before, std::size_t{64} << 20);
}

// A stripe claiming 2^40 bytes of a 2^40-byte payload, 16 bytes of it and
// a close: the stripe body is read in bounded chunks as bytes arrive.
TEST(Striped, ClaimedStripeIsNotAllocatedUpFront) {
  auto [a, b] = make_pipe();
  StripedStream rx({b});
  send_preamble(*a, 1ull << 40, 1);
  send_stripe_header(*a, 0, 1ull << 40);
  ASSERT_TRUE(a->send_bytes(std::vector<std::uint8_t>(16, 0x5A)).is_ok());
  a->close();
  const std::size_t before = peak_rss_bytes();
  auto got = rx.recv();
  EXPECT_EQ(got.status().code(), core::StatusCode::kDataLoss);
  EXPECT_LT(peak_rss_bytes() - before, std::size_t{64} << 20);
}

// Stripes that run past the claimed length, or overlap while adding up to
// it, are rejected instead of assembled.
TEST(Striped, StripesMustTileThePayload) {
  {
    auto [a, b] = make_pipe();
    StripedStream rx({b});
    send_preamble(*a, 8, 1);
    send_stripe_header(*a, 4, 8);  // [4, 12) of an 8-byte payload
    auto got = rx.recv();
    EXPECT_EQ(got.status().code(), core::StatusCode::kDataLoss);
  }
  {
    auto [a, b] = make_pipe();
    StripedStream rx({b});
    send_preamble(*a, 8, 2);
    send_stripe_header(*a, 0, 4);
    ASSERT_TRUE(a->send_bytes({1, 2, 3, 4}).is_ok());
    send_stripe_header(*a, 0, 4);  // overlaps, leaving [4, 8) unsent
    ASSERT_TRUE(a->send_bytes({5, 6, 7, 8}).is_ok());
    auto got = rx.recv();
    EXPECT_EQ(got.status().code(), core::StatusCode::kDataLoss);
  }
}

}  // namespace
}  // namespace visapult::net
