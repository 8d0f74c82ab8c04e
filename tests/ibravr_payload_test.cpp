#include "ibravr/payload.h"

#include <gtest/gtest.h>

#include <cstring>

namespace visapult::ibravr {
namespace {

TEST(Payload, HelloRoundTrip) {
  Hello h;
  h.timesteps = 265;
  h.rank = 3;
  h.world_size = 8;
  h.volume_dims = {640, 256, 256};
  auto back = decode_hello(encode_hello(h));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().timesteps, 265);
  EXPECT_EQ(back.value().rank, 3);
  EXPECT_EQ(back.value().world_size, 8);
  EXPECT_EQ(back.value().volume_dims, (vol::Dims{640, 256, 256}));
}

TEST(Payload, LightRoundTrip) {
  LightPayload p;
  p.frame = 12;
  p.rank = 2;
  p.info.volume_dims = {64, 32, 32};
  p.info.brick.z0 = 8;
  p.info.brick.dims = {64, 32, 8};
  p.info.axis = vol::Axis::kZ;
  p.info.slab_index = 1;
  p.info.slab_count = 4;
  p.tex_width = 64;
  p.tex_height = 32;
  p.mesh_nu = 8;
  p.mesh_nv = 8;
  auto back = decode_light(encode_light(p));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().frame, 12);
  EXPECT_EQ(back.value().info.brick.z0, 8);
  EXPECT_EQ(back.value().info.axis, vol::Axis::kZ);
  EXPECT_EQ(back.value().mesh_nu, 8u);
}

TEST(Payload, LightIsLight) {
  // "Visualization metadata is on the order of 256 bytes."
  LightPayload p;
  EXPECT_LT(p.wire_bytes(), 256u);
}

TEST(Payload, HeavyRoundTripWithTexture) {
  HeavyPayload p;
  p.frame = 5;
  p.rank = 1;
  p.texture = core::ImageRGBA(8, 4);
  p.texture.at(3, 2) = core::Pixel{0.5f, 0.25f, 0.125f, 1.0f};
  auto back = decode_heavy(encode_heavy(p));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().texture.width(), 8);
  EXPECT_EQ(core::ImageRGBA::mean_abs_diff(back.value().texture, p.texture), 0.0);
}

TEST(Payload, HeavyRoundTripWithOffsetsAndGrid) {
  HeavyPayload p;
  p.texture = core::ImageRGBA(2, 2);
  p.offsets = {0.5f, -1.5f, 2.0f, 0.0f};
  p.grid.push_back(vol::LineSegment{0, 1, 2, 3, 4, 5, 1});
  p.grid.push_back(vol::LineSegment{6, 7, 8, 9, 10, 11, 2});
  auto back = decode_heavy(encode_heavy(p));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().offsets, p.offsets);
  ASSERT_EQ(back.value().grid.size(), 2u);
  EXPECT_FLOAT_EQ(back.value().grid[1].bz, 11.0f);
  EXPECT_EQ(back.value().grid[1].level, 2);
}

TEST(Payload, HeavyIsHeavy) {
  // "a typical size is on the order of 0.25 to 1.0 megabytes per texture"
  // -- for the paper's 640x256 transverse extent at float RGBA we are in
  // the same regime.
  HeavyPayload p;
  p.texture = core::ImageRGBA(256, 256);
  EXPECT_GT(p.wire_bytes(), 256u * 1024);
  EXPECT_LT(p.wire_bytes(), 8u * 1024 * 1024);
}

TEST(Payload, CorruptAxisRejected) {
  LightPayload p;
  auto msg = encode_light(p);
  // The axis field sits after frame(8) + rank(4) + dims(12) + brick
  // origin(12) + brick dims(12) = 48 bytes.
  msg.payload[48] = 9;
  EXPECT_FALSE(decode_light(msg).is_ok());
}

TEST(Payload, TruncatedHeavyRejected) {
  HeavyPayload p;
  p.texture = core::ImageRGBA(4, 4);
  auto msg = encode_heavy(p);
  msg.payload.resize(msg.payload.size() - 8);
  EXPECT_FALSE(decode_heavy(msg).is_ok());
}

TEST(Payload, HeavyCountsBeyondPayloadRejected) {
  // An empty heavy payload is 44 bytes; its offset count sits at byte 28
  // and its grid count at byte 36.  A count of 2^40 in either must be
  // rejected before anything is sized by it.
  for (std::size_t at : {28u, 36u}) {
    auto msg = encode_heavy(HeavyPayload{});
    ASSERT_EQ(msg.payload.size(), 44u);
    const std::uint64_t claimed = 1ull << 40;
    std::memcpy(msg.payload.data() + at, &claimed, 8);
    auto back = decode_heavy(msg);
    ASSERT_FALSE(back.is_ok());
    EXPECT_EQ(back.status().code(), core::StatusCode::kDataLoss);
  }
}

TEST(Payload, WrongMessageTypeRejected) {
  auto end = encode_end_of_data();
  EXPECT_FALSE(decode_hello(end).is_ok());
  EXPECT_FALSE(decode_light(end).is_ok());
  EXPECT_FALSE(decode_heavy(end).is_ok());
  EXPECT_EQ(end.type, static_cast<std::uint32_t>(kEndOfData));
}

}  // namespace
}  // namespace visapult::ibravr
