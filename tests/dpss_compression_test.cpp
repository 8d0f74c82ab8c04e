#include "dpss/compression.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "dpss/deployment.h"
#include "vol/generate.h"

namespace visapult::dpss {
namespace {

std::vector<std::uint8_t> float_bytes(const std::vector<float>& values) {
  std::vector<std::uint8_t> out(values.size() * 4);
  std::memcpy(out.data(), values.data(), out.size());
  return out;
}

std::vector<float> to_floats(const std::vector<std::uint8_t>& bytes) {
  std::vector<float> out(bytes.size() / 4);
  std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

TEST(Compression, NoneRoundTrips) {
  const auto raw = float_bytes({1.0f, -2.5f, 0.0f, 3.25f});
  auto wire = compress_block(raw, {Codec::kNone, 8});
  ASSERT_TRUE(wire.is_ok());
  auto back = decompress_block(wire.value(), raw.size());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), raw);
}

TEST(Compression, LosslessRoundTripsExactly) {
  const vol::Volume v = vol::generate_combustion({16, 16, 8}, 1);
  const auto raw = float_bytes(v.data());
  auto wire = compress_block(raw, {Codec::kLossless, 8});
  ASSERT_TRUE(wire.is_ok());
  auto back = decompress_block(wire.value(), raw.size());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), raw);
}

TEST(Compression, LosslessShrinksSmoothData) {
  // A constant block is the best case for byte-plane RLE.
  const auto raw = float_bytes(std::vector<float>(4096, 0.5f));
  auto wire = compress_block(raw, {Codec::kLossless, 8});
  ASSERT_TRUE(wire.is_ok());
  EXPECT_GT(compression_ratio(raw.size(), wire.value().size()), 20.0);
}

TEST(Compression, LosslessHandlesEmptyBlock) {
  auto wire = compress_block({}, {Codec::kLossless, 8});
  ASSERT_TRUE(wire.is_ok());
  auto back = decompress_block(wire.value(), 0);
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(back.value().empty());
}

TEST(Compression, LosslessRejectsNonFloatSizes) {
  EXPECT_FALSE(compress_block({1, 2, 3}, {Codec::kLossless, 8}).is_ok());
}

class LossyQuantBits : public ::testing::TestWithParam<int> {};

TEST_P(LossyQuantBits, ErrorWithinBound) {
  const int bits = GetParam();
  const vol::Volume v = vol::generate_combustion({16, 16, 8}, 2);
  const auto raw = float_bytes(v.data());
  auto wire = compress_block(raw, {Codec::kLossyQuant, bits});
  ASSERT_TRUE(wire.is_ok());
  auto back = decompress_block(wire.value(), raw.size());
  ASSERT_TRUE(back.is_ok());

  float lo, hi;
  v.min_max(lo, hi);
  const double bound = quantization_error_bound(lo, hi, bits) + 1e-6;
  const auto original = v.data();
  const auto decoded = to_floats(back.value());
  ASSERT_EQ(decoded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_LE(std::abs(decoded[i] - original[i]), bound) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, LossyQuantBits, ::testing::Values(8, 16));

TEST(Compression, LossyIsSmallerThanLossless) {
  const vol::Volume v = vol::generate_combustion({24, 16, 16}, 1);
  const auto raw = float_bytes(v.data());
  auto lossless = compress_block(raw, {Codec::kLossless, 8});
  auto lossy8 = compress_block(raw, {Codec::kLossyQuant, 8});
  auto lossy16 = compress_block(raw, {Codec::kLossyQuant, 16});
  ASSERT_TRUE(lossless.is_ok() && lossy8.is_ok() && lossy16.is_ok());
  EXPECT_LT(lossy8.value().size(), lossy16.value().size());
  EXPECT_LT(lossy16.value().size(), lossless.value().size());
  // The "degree of lossiness under application control": 8-bit delivers a
  // real bandwidth saving on float data.
  EXPECT_GT(compression_ratio(raw.size(), lossy8.value().size()), 3.0);
}

TEST(Compression, LossyRejectsBadBits) {
  const auto raw = float_bytes({1.0f});
  EXPECT_FALSE(compress_block(raw, {Codec::kLossyQuant, 12}).is_ok());
}

TEST(Compression, TruncatedWireDetected) {
  const auto raw = float_bytes(std::vector<float>(64, 0.25f));
  auto wire = compress_block(raw, {Codec::kLossless, 8});
  ASSERT_TRUE(wire.is_ok());
  auto bytes = wire.value();
  bytes.pop_back();
  EXPECT_FALSE(decompress_block(bytes, raw.size()).is_ok());
}

// A 26-byte frame -- header only, no planes -- claiming 2^40 raw bytes:
// the planes and the output would be sized from that claim, so the bound
// must reject it before anything is allocated (a bad_alloc here would
// escape the client's noexcept fetch workers).
TEST(Compression, ClaimedRawLengthOverTheBoundIsDataLoss) {
  std::vector<std::uint8_t> frame(26, 0);
  frame[0] = static_cast<std::uint8_t>(Codec::kLossless);
  frame[1] = 8;
  const std::uint64_t claimed = 1ull << 40;
  std::memcpy(frame.data() + 2, &claimed, 8);
  core::Result<std::vector<std::uint8_t>> back = core::internal_error("unset");
  EXPECT_NO_THROW(back = decompress_block(frame, 64 << 10));
  EXPECT_EQ(back.status().code(), core::StatusCode::kDataLoss);

  // The same bound passes a real block of exactly that size.
  const auto raw = float_bytes(std::vector<float>(16 << 10, 0.5f));
  auto wire = compress_block(raw, {Codec::kLossless, 8});
  ASSERT_TRUE(wire.is_ok());
  EXPECT_TRUE(decompress_block(wire.value(), 64 << 10).is_ok());
  EXPECT_EQ(decompress_block(wire.value(), (64 << 10) - 1).status().code(),
            core::StatusCode::kDataLoss);
}

TEST(Compression, ErrorBoundFormula) {
  EXPECT_DOUBLE_EQ(quantization_error_bound(0.0f, 1.0f, 8), 1.0 / 255.0);
  EXPECT_DOUBLE_EQ(quantization_error_bound(0.0f, 1.0f, 16), 1.0 / 65535.0);
  EXPECT_DOUBLE_EQ(quantization_error_bound(2.0f, 2.0f, 8), 0.0);
}

// ---- end-to-end through the DPSS ------------------------------------------

TEST(CompressionDpss, LosslessReadsMatchUncompressed) {
  const auto desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(3);
  ASSERT_TRUE(deployment.ingest(desc, 8192).is_ok());

  auto client = deployment.make_client();
  auto plain = client.open(desc.name);
  ASSERT_TRUE(plain.is_ok());
  std::vector<std::uint8_t> expected(desc.bytes_per_step());
  ASSERT_TRUE(plain.value()->read(expected.data(), expected.size()).is_ok());

  auto client2 = deployment.make_client();
  auto compressed = client2.open(desc.name);
  ASSERT_TRUE(compressed.is_ok());
  compressed.value()->set_compression({Codec::kLossless, 8});
  std::vector<std::uint8_t> got(desc.bytes_per_step());
  ASSERT_TRUE(compressed.value()->read(got.data(), got.size()).is_ok());
  EXPECT_EQ(got, expected);
  // And it actually saved wire bytes.
  EXPECT_LT(compressed.value()->wire_bytes_received(),
            compressed.value()->raw_bytes_received());
}

TEST(CompressionDpss, LossyReadsAreClose) {
  const auto desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(2);
  ASSERT_TRUE(deployment.ingest(desc, 16384).is_ok());

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  file.value()->set_compression({Codec::kLossyQuant, 16});
  std::vector<std::uint8_t> got(desc.bytes_per_step());
  ASSERT_TRUE(file.value()->read(got.data(), got.size()).is_ok());

  const vol::Volume v = desc.generate(0);
  const auto decoded = to_floats(got);
  double worst = 0.0;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    worst = std::max(worst, static_cast<double>(std::abs(decoded[i] - v.data()[i])));
  }
  float lo, hi;
  v.min_max(lo, hi);
  EXPECT_LE(worst, quantization_error_bound(lo, hi, 16) + 1e-6);
}

}  // namespace
}  // namespace visapult::dpss
