#include "render/raycast.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <utility>

#include "ibravr/ibravr.h"
#include "vol/generate.h"

namespace visapult::render {
namespace {

vol::Brick full_brick(const vol::Volume& v) {
  vol::Brick b;
  b.dims = v.dims();
  return b;
}

TEST(ImageAxes, CyclicConvention) {
  vol::Axis u, v;
  image_axes_for(vol::Axis::kZ, u, v);
  EXPECT_EQ(u, vol::Axis::kX);
  EXPECT_EQ(v, vol::Axis::kY);
  image_axes_for(vol::Axis::kX, u, v);
  EXPECT_EQ(u, vol::Axis::kY);
  EXPECT_EQ(v, vol::Axis::kZ);
  image_axes_for(vol::Axis::kY, u, v);
  EXPECT_EQ(u, vol::Axis::kZ);
  EXPECT_EQ(v, vol::Axis::kX);
}

TEST(Raycast, EmptyVolumeRendersTransparent) {
  vol::Volume v({8, 8, 8}, 0.0f);
  TransferFunction tf({{0.0f, 0, 0, 0, 0.0f}, {1.0f, 1, 1, 1, 1.0f}});
  auto img = render_brick_along_axis(v, full_brick(v), vol::Axis::kZ, tf);
  ASSERT_TRUE(img.is_ok());
  for (const auto& p : img.value().pixels()) {
    EXPECT_FLOAT_EQ(p.a, 0.0f);
  }
}

TEST(Raycast, ImageSpansTransverseExtent) {
  vol::Volume v({12, 8, 6});
  TransferFunction tf = TransferFunction::linear_grey();
  auto img = render_brick_along_axis(v, full_brick(v), vol::Axis::kZ, tf);
  ASSERT_TRUE(img.is_ok());
  EXPECT_EQ(img.value().width(), 12);
  EXPECT_EQ(img.value().height(), 8);

  auto img_x = render_brick_along_axis(v, full_brick(v), vol::Axis::kX, tf);
  ASSERT_TRUE(img_x.is_ok());
  EXPECT_EQ(img_x.value().width(), 8);   // u = Y
  EXPECT_EQ(img_x.value().height(), 6);  // v = Z
}

TEST(Raycast, DenseRegionIsBrighterThanEmpty) {
  vol::Volume v({16, 16, 8}, 0.0f);
  // Fill the left half (x < 8).
  for (int z = 0; z < 8; ++z)
    for (int y = 0; y < 16; ++y)
      for (int x = 0; x < 8; ++x) v.at(x, y, z) = 1.0f;
  TransferFunction tf = TransferFunction::linear_grey();
  auto img = render_brick_along_axis(v, full_brick(v), vol::Axis::kZ, tf);
  ASSERT_TRUE(img.is_ok());
  EXPECT_GT(img.value().at(3, 8).a, 0.1f);
  EXPECT_LT(img.value().at(12, 8).a, 0.01f);
}

// The correctness core of object-order parallel rendering: compositing the
// slab renders front-to-back must equal rendering the full volume.
class SlabCompositing
    : public ::testing::TestWithParam<std::tuple<int, vol::Axis>> {};

TEST_P(SlabCompositing, SlabsCompositeToFullRender) {
  const auto [slabs, axis] = GetParam();
  const vol::Volume v = vol::generate_combustion({24, 20, 16}, 1);
  const TransferFunction tf = TransferFunction::fire();
  RenderOptions opts;
  opts.step = 0.5f;

  auto full = render_brick_along_axis(v, full_brick(v), axis, tf, opts);
  ASSERT_TRUE(full.is_ok());

  auto bricks = vol::slab_decompose(v.dims(), slabs, axis);
  ASSERT_TRUE(bricks.is_ok());
  core::ImageRGBA acc(full.value().width(), full.value().height());
  for (auto it = bricks.value().rbegin(); it != bricks.value().rend(); ++it) {
    auto slab_img = render_brick_along_axis(v, *it, axis, tf, opts);
    ASSERT_TRUE(slab_img.is_ok());
    ASSERT_TRUE(acc.composite_over(slab_img.value()).is_ok());
  }
  // Slab boundaries introduce small sampling differences; the images must
  // agree to a tight tolerance.
  EXPECT_LT(core::ImageRGBA::mean_abs_diff(acc, full.value()), 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SlabCompositing,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(vol::Axis::kX, vol::Axis::kY,
                                         vol::Axis::kZ)));

TEST(Raycast, StepRefinementConverges) {
  const vol::Volume v = vol::generate_combustion({16, 16, 16}, 0);
  const TransferFunction tf = TransferFunction::fire();
  RenderOptions coarse, fine, finer;
  coarse.step = 2.0f;
  fine.step = 0.5f;
  finer.step = 0.25f;
  auto a = render_brick_along_axis(v, full_brick(v), vol::Axis::kZ, tf, coarse);
  auto b = render_brick_along_axis(v, full_brick(v), vol::Axis::kZ, tf, fine);
  auto c = render_brick_along_axis(v, full_brick(v), vol::Axis::kZ, tf, finer);
  ASSERT_TRUE(a.is_ok() && b.is_ok() && c.is_ok());
  // Opacity correction makes successive refinements approach each other.
  const double coarse_vs_fine = core::ImageRGBA::mean_abs_diff(a.value(), b.value());
  const double fine_vs_finer = core::ImageRGBA::mean_abs_diff(b.value(), c.value());
  EXPECT_LT(fine_vs_finer, coarse_vs_fine);
}

TEST(Raycast, RotatedAtZeroAngleMatchesAxisAligned) {
  const vol::Volume v = vol::generate_combustion({16, 16, 16}, 2);
  const TransferFunction tf = TransferFunction::fire();
  RenderOptions opts;
  opts.step = 0.5f;
  auto axis = render_brick_along_axis(v, full_brick(v), vol::Axis::kZ, tf, opts);
  auto rot = render_volume_rotated(v, vol::Axis::kZ, 0.0f, tf, opts);
  ASSERT_TRUE(axis.is_ok() && rot.is_ok());
  EXPECT_LT(core::ImageRGBA::mean_abs_diff(axis.value(), rot.value()), 0.02);
}

TEST(Raycast, RotationChangesTheImage) {
  const vol::Volume v = vol::generate_combustion({16, 16, 16}, 2);
  const TransferFunction tf = TransferFunction::fire();
  auto a = render_volume_rotated(v, vol::Axis::kZ, 0.0f, tf);
  auto b = render_volume_rotated(v, vol::Axis::kZ, 0.5f, tf);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  EXPECT_GT(core::ImageRGBA::mean_abs_diff(a.value(), b.value()), 1e-4);
}

TEST(Raycast, ResolutionScaleChangesImageSize) {
  vol::Volume v({10, 10, 10});
  TransferFunction tf = TransferFunction::linear_grey();
  RenderOptions opts;
  opts.resolution_scale = 2.0f;
  auto img = render_brick_along_axis(v, full_brick(v), vol::Axis::kZ, tf, opts);
  ASSERT_TRUE(img.is_ok());
  EXPECT_EQ(img.value().width(), 20);
  EXPECT_EQ(img.value().height(), 20);
}

TEST(Raycast, InvalidOptionsRejected) {
  vol::Volume v({4, 4, 4});
  TransferFunction tf = TransferFunction::linear_grey();
  RenderOptions bad;
  bad.step = 0.0f;
  EXPECT_FALSE(render_brick_along_axis(v, full_brick(v), vol::Axis::kZ, tf, bad).is_ok());
  EXPECT_FALSE(render_volume_rotated(v, vol::Axis::kZ, 0.0f, tf, bad).is_ok());
}

TEST(Raycast, SlabOutsideVolumeRejected) {
  vol::Volume v({4, 4, 4});
  TransferFunction tf = TransferFunction::linear_grey();
  vol::Brick bad;
  bad.z0 = 3;
  bad.dims = {4, 4, 4};
  EXPECT_FALSE(render_brick_along_axis(v, bad, vol::Axis::kZ, tf).is_ok());
}

TEST(Raycast, RowRangeRenderingFillsOnlyRequestedRows) {
  const vol::Volume v = vol::generate_combustion({8, 8, 8}, 0);
  const TransferFunction tf = TransferFunction::fire();
  core::ImageRGBA img(8, 8);
  ASSERT_TRUE(render_brick_rows(v, full_brick(v), vol::Axis::kZ, tf, {}, 2, 5, img).is_ok());
  // Row 0 untouched, rows 2..4 rendered (some alpha somewhere).
  float alpha_outside = 0.0f, alpha_inside = 0.0f;
  for (int x = 0; x < 8; ++x) {
    alpha_outside += img.at(x, 0).a;
    alpha_inside += img.at(x, 3).a;
  }
  EXPECT_FLOAT_EQ(alpha_outside, 0.0f);
  EXPECT_GT(alpha_inside, 0.0f);
}

// Reference renderer: a per-ray march over the same sample positions, every
// sample a trilinear Volume::sample, a classify and a std::exp.  The slice-
// order render_brick_rows must agree with it; it exists only here.
void reference_render_rows(const vol::Volume& volume, const vol::Brick& slab,
                           vol::Axis view_axis, const TransferFunction& tf,
                           const RenderOptions& o, int row_begin, int row_end,
                           core::ImageRGBA& img) {
  vol::Axis ua, va;
  image_axes_for(view_axis, ua, va);
  const int a0 = view_axis == vol::Axis::kX   ? slab.x0
                 : view_axis == vol::Axis::kY ? slab.y0
                                              : slab.z0;
  const int alen = slab.dims.extent(view_axis);
  const float span = o.value_hi - o.value_lo;
  for (int j = row_begin; j < row_end; ++j) {
    const float cv = (static_cast<float>(j) + 0.5f) / o.resolution_scale;
    for (int i = 0; i < img.width(); ++i) {
      const float cu = (static_cast<float>(i) + 0.5f) / o.resolution_scale;
      core::Pixel acc;
      for (float t = 0.5f * o.step; t < static_cast<float>(alen); t += o.step) {
        float p[3] = {0, 0, 0};
        p[static_cast<int>(ua)] = cu;
        p[static_cast<int>(va)] = cv;
        p[static_cast<int>(view_axis)] = static_cast<float>(a0) + t;
        const float raw = volume.sample(p[0] - 0.5f, p[1] - 0.5f, p[2] - 0.5f);
        const float norm =
            span > 0.0f ? std::clamp((raw - o.value_lo) / span, 0.0f, 1.0f)
                        : 0.0f;
        const ControlPoint cp = tf.classify(norm);
        const float alpha = opacity_for_step(cp.opacity, o.step);
        if (alpha > 0.0f) {
          const float w = (1.0f - acc.a) * alpha;
          acc.r += w * cp.r;
          acc.g += w * cp.g;
          acc.b += w * cp.b;
          acc.a += w;
        }
        if (acc.a >= 0.995f) break;
      }
      img.at(i, j) = acc;
    }
  }
}

// Largest per-channel difference between two images of one size.
float max_channel_diff(const core::ImageRGBA& a, const core::ImageRGBA& b) {
  float worst = 0.0f;
  for (std::size_t k = 0; k < a.pixel_count(); ++k) {
    const core::Pixel& p = a.pixels()[k];
    const core::Pixel& q = b.pixels()[k];
    worst = std::max({worst, std::fabs(p.r - q.r), std::fabs(p.g - q.g),
                      std::fabs(p.b - q.b), std::fabs(p.a - q.a)});
  }
  return worst;
}

TransferFunction preset(const std::string& name) {
  if (name == "fire") return TransferFunction::fire();
  if (name == "density") return TransferFunction::density();
  if (name == "linear_grey") return TransferFunction::linear_grey();
  // Opaque enough that most rays reach the early-termination cutoff.
  return TransferFunction({{0.0f, 0.0f, 0.0f, 0.0f, 0.0f},
                           {0.5f, 1.0f, 0.6f, 0.2f, 1.5f},
                           {1.0f, 1.0f, 1.0f, 1.0f, 4.0f}});
}

// Golden test: the slice-order compositor agrees with the per-ray march
// for every preset (and an opaque function that exercises early
// termination), axis, scale and step, over the full volume and a slab that
// does not start at 0, the default and a narrowed value window, and the
// whole image and a row band (rows outside the band stay untouched).
class SliceOrderGolden
    : public ::testing::TestWithParam<
          std::tuple<std::string, vol::Axis, float, float>> {};

TEST_P(SliceOrderGolden, MatchesPerRayMarch) {
  const auto [tf_name, axis, scale, step] = GetParam();
  const TransferFunction tf = preset(tf_name);
  const vol::Volume v = vol::generate_combustion({20, 16, 12}, 1);
  auto slabs = vol::slab_decompose(v.dims(), 3, axis);
  ASSERT_TRUE(slabs.is_ok());
  const vol::Brick middle = slabs.value()[1];
  ASSERT_GT(middle.dims.extent(axis), 0);

  vol::Axis ua, va;
  image_axes_for(axis, ua, va);
  const int width = static_cast<int>(v.dims().extent(ua) * scale);
  const int height = static_cast<int>(v.dims().extent(va) * scale);
  const core::Pixel stale{0.25f, 0.5f, 0.75f, 0.0f};

  float worst = 0.0f;
  float brightest = 0.0f;
  for (const vol::Brick& slab : {full_brick(v), middle}) {
    for (const bool narrow : {false, true}) {
      for (const bool band : {false, true}) {
        RenderOptions opts;
        opts.step = step;
        opts.resolution_scale = scale;
        if (narrow) {
          opts.value_lo = 0.2f;
          opts.value_hi = 0.8f;
        }
        const int j0 = band ? height / 4 : 0;
        const int j1 = band ? 3 * height / 4 : height;
        core::ImageRGBA expected(width, height, stale);
        core::ImageRGBA actual(width, height, stale);
        reference_render_rows(v, slab, axis, tf, opts, j0, j1, expected);
        ASSERT_TRUE(
            render_brick_rows(v, slab, axis, tf, opts, j0, j1, actual).is_ok());
        // Rows outside the band keep the stale fill in both images.
        worst = std::max(worst, max_channel_diff(actual, expected));
        for (const core::Pixel& p : expected.pixels()) {
          brightest = std::max(brightest, p.a);
        }
      }
    }
  }
  EXPECT_LE(worst, 2e-3f);
  EXPECT_GT(brightest, 0.01f);  // the comparison saw real material
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SliceOrderGolden,
    ::testing::Combine(::testing::Values("fire", "density", "linear_grey",
                                         "opaque"),
                       ::testing::Values(vol::Axis::kX, vol::Axis::kY,
                                         vol::Axis::kZ),
                       ::testing::Values(0.5f, 1.0f, 2.0f),
                       ::testing::Values(0.3f, 1.0f, 4.0f)));

// render_brick_rows accepts any image size; pixels past the volume's
// transverse extent read clamped cells, as the per-ray march did.
TEST(Raycast, ImageLargerThanVolumeMatchesPerRayMarch) {
  // Material up to the faces, varying from cell to cell.
  vol::Volume v({12, 10, 8});
  for (int z = 0; z < 8; ++z) {
    for (int y = 0; y < 10; ++y) {
      for (int x = 0; x < 12; ++x) {
        const int k = (7 * x + 5 * y + 3 * z) % 11;
        v.at(x, y, z) = 0.3f + 0.06f * static_cast<float>(k);
      }
    }
  }
  const TransferFunction tf = TransferFunction::fire();
  for (vol::Axis axis : {vol::Axis::kX, vol::Axis::kY, vol::Axis::kZ}) {
    vol::Axis ua, va;
    image_axes_for(axis, ua, va);
    for (const auto& [extra_u, extra_v] : {std::pair{3, 0}, {0, 2}, {3, 2}}) {
      const int width = v.dims().extent(ua) + extra_u;
      const int height = v.dims().extent(va) + extra_v;
      core::ImageRGBA expected(width, height);
      core::ImageRGBA actual(width, height);
      reference_render_rows(v, full_brick(v), axis, tf, {}, 0, height,
                            expected);
      ASSERT_TRUE(render_brick_rows(v, full_brick(v), axis, tf, {}, 0, height,
                                    actual)
                      .is_ok());
      EXPECT_LE(max_channel_diff(actual, expected), 2e-3f)
          << vol::axis_name(axis) << " +" << extra_u << " columns, +"
          << extra_v << " rows";
    }
  }
}

bool channels_in_unit_range(const core::ImageRGBA& img) {
  for (const core::Pixel& p : img.pixels()) {
    for (const float c : {p.r, p.g, p.b, p.a}) {
      if (!std::isfinite(c) || c < 0.0f || c > 1.0f) return false;
    }
  }
  return true;
}

// A NaN cell (a bad float from disk or the wire) classifies like a value
// below the window instead of indexing outside the transfer-function table.
TEST(Raycast, NanCellsRenderWithoutFault) {
  vol::Volume v = vol::generate_combustion({8, 8, 8}, 0);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  v.at(0, 0, 0) = nan;
  v.at(3, 4, 5) = nan;
  v.at(7, 7, 7) = nan;
  const TransferFunction tf = TransferFunction::fire();
  RenderOptions opts;
  opts.step = 0.5f;
  for (vol::Axis axis : {vol::Axis::kX, vol::Axis::kY, vol::Axis::kZ}) {
    for (const float scale : {1.0f, 2.0f}) {
      opts.resolution_scale = scale;
      auto img = render_brick_along_axis(v, full_brick(v), axis, tf, opts);
      ASSERT_TRUE(img.is_ok());
      EXPECT_TRUE(channels_in_unit_range(img.value())) << vol::axis_name(axis);
    }
    opts.resolution_scale = 1.0f;
    auto rotated = render_volume_rotated(v, axis, 0.3f, tf, opts);
    ASSERT_TRUE(rotated.is_ok());
    EXPECT_TRUE(channels_in_unit_range(rotated.value()))
        << vol::axis_name(axis);

    ibravr::SlabInfo info;
    info.volume_dims = v.dims();
    info.brick = full_brick(v);
    info.axis = axis;
    auto offsets = ibravr::compute_offset_map(v, info, tf, opts, 4, 4);
    ASSERT_TRUE(offsets.is_ok());
    for (const float o : offsets.value()) EXPECT_TRUE(std::isfinite(o));
  }
}

}  // namespace
}  // namespace visapult::render
