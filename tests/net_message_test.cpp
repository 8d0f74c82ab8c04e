#include "net/message.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "net/stream.h"

namespace visapult::net {
namespace {

TEST(Message, RoundTripOverPipe) {
  auto [a, b] = make_pipe();
  Message msg;
  msg.type = 42;
  msg.payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(send_message(*a, msg).is_ok());
  auto got = recv_message(*b);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().type, 42u);
  EXPECT_EQ(got.value().payload, msg.payload);
}

TEST(Message, EmptyPayload) {
  auto [a, b] = make_pipe();
  Message msg;
  msg.type = 7;
  ASSERT_TRUE(send_message(*a, msg).is_ok());
  auto got = recv_message(*b);
  ASSERT_TRUE(got.is_ok());
  EXPECT_TRUE(got.value().payload.empty());
}

TEST(Message, TraceIdsRideTheHeader) {
  auto [a, b] = make_pipe();
  Message msg;
  msg.type = 9;
  msg.trace_id = 0x1122334455667788ull;
  msg.span_id = 0x99aabbccddeeff00ull;
  msg.payload = {0xFE};
  ASSERT_TRUE(send_message(*a, msg).is_ok());
  auto got = recv_message(*b);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().trace_id, msg.trace_id);
  EXPECT_EQ(got.value().span_id, msg.span_id);
  EXPECT_EQ(got.value().payload, msg.payload);
}

TEST(Message, UntracedMessagesCarryZeroIds) {
  auto [a, b] = make_pipe();
  Message msg;
  msg.type = 3;
  ASSERT_TRUE(send_message(*a, msg).is_ok());
  auto got = recv_message(*b);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().trace_id, 0u);
  EXPECT_EQ(got.value().span_id, 0u);
}

TEST(Message, BadMagicIsDataLoss) {
  auto [a, b] = make_pipe();
  std::vector<std::uint8_t> garbage(kFrameHeaderBytes, 0xAB);
  ASSERT_TRUE(a->send_bytes(garbage).is_ok());
  auto got = recv_message(*b);
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), core::StatusCode::kDataLoss);
}

TEST(Message, OversizedPayloadRejected) {
  auto [a, b] = make_pipe();
  Message msg;
  msg.type = 1;
  msg.payload.resize(1024);
  ASSERT_TRUE(send_message(*a, msg).is_ok());
  auto got = recv_message(*b, /*max_payload=*/512);
  EXPECT_FALSE(got.is_ok());
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

TEST(Message, ClaimedLengthIsNotAllocatedUpFront) {
  // A header claiming 1 GiB, then 16 bytes and a close: the receive must
  // fail without ever holding anything near the claimed size.
  auto [a, b] = make_pipe();
  std::uint8_t header[kFrameHeaderBytes] = {};
  const std::uint32_t magic = kMessageMagic;
  const std::uint64_t claimed = 1ull << 30;
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 8, &claimed, 8);
  ASSERT_TRUE(a->send_all(header, sizeof header).is_ok());
  ASSERT_TRUE(a->send_bytes(std::vector<std::uint8_t>(16, 0x5A)).is_ok());
  a->close();
  const std::size_t before = peak_rss_bytes();
  EXPECT_FALSE(recv_message(*b).is_ok());
  EXPECT_LT(peak_rss_bytes() - before, std::size_t{64} << 20);
}

// A frame just past the first 1 MiB receive chunk lands in a buffer of its
// own size, not in one the vector doubled to 2 MiB.
TEST(Message, FrameOverTheFirstChunkLandsInAnExactBuffer) {
  auto [a, b] = make_pipe(4u << 20);
  Message msg;
  msg.type = 9;
  msg.payload.assign((1u << 20) + 100, 0x3C);
  ASSERT_TRUE(send_message(*a, msg).is_ok());
  auto got = recv_message(*b);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().payload, msg.payload);
  EXPECT_EQ(got.value().payload.capacity(), got.value().payload.size());
}

TEST(Message, SequentialMessagesStayFramed) {
  auto [a, b] = make_pipe();
  for (std::uint32_t i = 0; i < 10; ++i) {
    Message msg;
    msg.type = i;
    msg.payload.assign(i * 13, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(send_message(*a, msg).is_ok());
  }
  for (std::uint32_t i = 0; i < 10; ++i) {
    auto got = recv_message(*b);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got.value().type, i);
    EXPECT_EQ(got.value().payload.size(), i * 13);
  }
}

TEST(WriterReader, ScalarRoundTrip) {
  Writer w;
  w.u8(250);
  w.u32(0xdeadbeef);
  w.u64(0x123456789abcdef0ull);
  w.i64(-42);
  w.f32(3.25f);
  w.f64(-2.5);
  const auto buf = w.take();

  Reader r(buf);
  EXPECT_EQ(r.u8().value(), 250);
  EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.u64().value(), 0x123456789abcdef0ull);
  EXPECT_EQ(r.i64().value(), -42);
  EXPECT_FLOAT_EQ(r.f32().value(), 3.25f);
  EXPECT_DOUBLE_EQ(r.f64().value(), -2.5);
  EXPECT_TRUE(r.exhausted());
}

TEST(WriterReader, StringAndBytes) {
  Writer w;
  w.str("visapult");
  w.str("");
  w.bytes({9, 8, 7});
  const auto buf = w.take();
  Reader r(buf);
  EXPECT_EQ(r.str().value(), "visapult");
  EXPECT_EQ(r.str().value(), "");
  EXPECT_EQ(r.bytes().value(), (std::vector<std::uint8_t>{9, 8, 7}));
}

TEST(WriterReader, TruncationDetected) {
  Writer w;
  w.u64(1);
  auto buf = w.take();
  buf.pop_back();
  Reader r(buf);
  auto got = r.u64();
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), core::StatusCode::kDataLoss);
}

TEST(WriterReader, StringLengthBeyondBufferDetected) {
  Writer w;
  w.u32(1000);  // claims a 1000-byte string with no body
  const auto buf = w.data();
  Reader r(buf);
  EXPECT_FALSE(r.str().is_ok());
}

TEST(Message, ConcurrentPipeStress) {
  auto [a, b] = make_pipe(1 << 16);
  constexpr int kCount = 200;
  std::thread sender([&, a = a] {
    for (int i = 0; i < kCount; ++i) {
      Message msg;
      msg.type = static_cast<std::uint32_t>(i);
      msg.payload.assign(static_cast<std::size_t>(i % 977) * 8, 0x5A);
      ASSERT_TRUE(send_message(*a, msg).is_ok());
    }
  });
  for (int i = 0; i < kCount; ++i) {
    auto got = recv_message(*b);
    ASSERT_TRUE(got.is_ok());
    ASSERT_EQ(got.value().type, static_cast<std::uint32_t>(i));
  }
  sender.join();
}

}  // namespace
}  // namespace visapult::net
