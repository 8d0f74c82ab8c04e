#include "vol/generate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/rng.h"
#include "vol/dataset.h"

namespace visapult::vol {
namespace {

// ---- Reference generators ---------------------------------------------------
//
// The scalar per-voxel generators as they were before the per-timestep and
// per-cell work was hoisted out of the voxel loop.  The generators must
// reproduce these bytes exactly: data already staged into a cache, and
// every image rendered from it, depend on them.

namespace reference {

struct FlameKernel {
  float y, z;       // transverse centre (fraction of extent)
  float radius;     // fraction of min extent
  float speed;      // cells per timestep along +X
  float phase;      // transverse wander phase
  float amplitude;  // peak value
};

// Deterministic hash-based value noise in [0,1].
float value_noise(std::uint64_t seed, int x, int y, int z) {
  std::uint64_t h = seed;
  h ^= static_cast<std::uint64_t>(x) * 0x9e3779b97f4a7c15ull;
  h ^= static_cast<std::uint64_t>(y) * 0xc2b2ae3d27d4eb4full;
  h ^= static_cast<std::uint64_t>(z) * 0x165667b19e3779f9ull;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return static_cast<float>(h >> 11) * 0x1.0p-53f;
}

// Trilinear-interpolated lattice noise at period `cell`.
float smooth_noise(std::uint64_t seed, float x, float y, float z, float cell) {
  const float fx = x / cell, fy = y / cell, fz = z / cell;
  const int x0 = static_cast<int>(std::floor(fx));
  const int y0 = static_cast<int>(std::floor(fy));
  const int z0 = static_cast<int>(std::floor(fz));
  const float tx = fx - x0, ty = fy - y0, tz = fz - z0;
  auto lerp = [](float a, float b, float t) { return a + (b - a) * t; };
  auto s = [&](int dx, int dy, int dz) {
    return value_noise(seed, x0 + dx, y0 + dy, z0 + dz);
  };
  const float c00 = lerp(s(0, 0, 0), s(1, 0, 0), tx);
  const float c10 = lerp(s(0, 1, 0), s(1, 1, 0), tx);
  const float c01 = lerp(s(0, 0, 1), s(1, 0, 1), tx);
  const float c11 = lerp(s(0, 1, 1), s(1, 1, 1), tx);
  return lerp(lerp(c00, c10, ty), lerp(c01, c11, ty), tz);
}

Volume generate_combustion(Dims dims, int t, std::uint64_t seed) {
  core::Rng rng(seed);
  // A stable kernel population derived only from the seed, so successive
  // timesteps animate the *same* flames.
  const int kernel_count = 6;
  std::vector<FlameKernel> kernels;
  kernels.reserve(kernel_count);
  for (int i = 0; i < kernel_count; ++i) {
    FlameKernel k;
    k.y = static_cast<float>(rng.uniform(0.2, 0.8));
    k.z = static_cast<float>(rng.uniform(0.2, 0.8));
    k.radius = static_cast<float>(rng.uniform(0.08, 0.2));
    k.speed = static_cast<float>(rng.uniform(0.5, 2.0));
    k.phase = static_cast<float>(rng.uniform(0.0, 2.0 * M_PI));
    k.amplitude = static_cast<float>(rng.uniform(0.6, 1.0));
    kernels.push_back(k);
  }

  Volume v(dims);
  const float min_extent =
      static_cast<float>(std::min({dims.nx, dims.ny, dims.nz}));
  for (int z = 0; z < dims.nz; ++z) {
    for (int y = 0; y < dims.ny; ++y) {
      for (int x = 0; x < dims.nx; ++x) {
        // Background fuel gradient with mild noise.
        float val = 0.05f * (1.0f - static_cast<float>(x) / dims.nx) +
                    0.03f * smooth_noise(seed ^ 0xf00d, static_cast<float>(x),
                                         static_cast<float>(y),
                                         static_cast<float>(z), 12.0f);
        for (const FlameKernel& k : kernels) {
          // Kernel centre advects along +X and wraps; wanders in Y.
          const float cx =
              std::fmod(k.speed * static_cast<float>(t) + k.phase * 10.0f,
                        static_cast<float>(dims.nx));
          const float cy =
              (k.y + 0.1f * std::sin(0.15f * t + k.phase)) * dims.ny;
          const float cz = k.z * dims.nz;
          const float r = k.radius * min_extent;
          float dx = static_cast<float>(x) - cx;
          // Periodic in X so flames re-enter smoothly.
          if (dx > dims.nx / 2.0f) dx -= dims.nx;
          if (dx < -dims.nx / 2.0f) dx += dims.nx;
          const float dy = static_cast<float>(y) - cy;
          const float dz = static_cast<float>(z) - cz;
          const float d2 = (dx * dx + dy * dy + dz * dz) / (r * r);
          if (d2 < 9.0f) {
            const float flicker =
                0.85f + 0.15f * std::sin(0.4f * t + k.phase * 3.0f);
            val += k.amplitude * flicker * std::exp(-d2);
          }
        }
        v.at(x, y, z) = std::min(val, 1.0f);
      }
    }
  }
  return v;
}

Volume generate_cosmology(Dims dims, int t, std::uint64_t seed) {
  core::Rng rng(seed);
  const int mass_count = 24;
  struct Mass {
    float x, y, z, w;
  };
  std::vector<Mass> masses;
  masses.reserve(mass_count);
  for (int i = 0; i < mass_count; ++i) {
    Mass m;
    m.x = static_cast<float>(rng.uniform(0.0, 1.0));
    m.y = static_cast<float>(rng.uniform(0.0, 1.0));
    m.z = static_cast<float>(rng.uniform(0.0, 1.0));
    // Power-law weights: a few dominant clusters, many small ones.
    m.w = static_cast<float>(std::pow(rng.uniform(0.05, 1.0), 2.5));
    masses.push_back(m);
  }
  const float angle = 0.02f * t;  // slow rotation over the time series
  const float ca = std::cos(angle), sa = std::sin(angle);

  Volume v(dims);
  for (int z = 0; z < dims.nz; ++z) {
    for (int y = 0; y < dims.ny; ++y) {
      for (int x = 0; x < dims.nx; ++x) {
        const float fx = static_cast<float>(x), fy = static_cast<float>(y),
                    fz = static_cast<float>(z);
        // Three octaves of smooth noise: the filamentary background.
        float val = 0.20f * smooth_noise(seed, fx, fy, fz, 32.0f) +
                    0.12f * smooth_noise(seed ^ 1, fx, fy, fz, 16.0f) +
                    0.06f * smooth_noise(seed ^ 2, fx, fy, fz, 8.0f);
        // Rotating point masses (clusters).
        const float ux = fx / dims.nx - 0.5f;
        const float uy = fy / dims.ny - 0.5f;
        const float rx = ca * ux - sa * uy + 0.5f;
        const float ry = sa * ux + ca * uy + 0.5f;
        const float rz = fz / dims.nz;
        for (const Mass& m : masses) {
          const float dx = rx - m.x, dy = ry - m.y, dz = rz - m.z;
          const float d2 = dx * dx + dy * dy + dz * dz;
          val += 0.25f * m.w / (1.0f + 900.0f * d2);
        }
        v.at(x, y, z) = std::min(val, 1.0f);
      }
    }
  }
  return v;
}

}  // namespace reference

// Bitwise equality, so a -0.0f or a NaN payload cannot hide behind ==.
::testing::AssertionResult SameBytes(const Volume& got, const Volume& want) {
  if (!(got.dims() == want.dims())) {
    return ::testing::AssertionFailure()
           << "dims " << got.dims().to_string() << " vs "
           << want.dims().to_string();
  }
  if (std::memcmp(got.data().data(), want.data().data(), got.byte_size()) !=
      0) {
    std::size_t i = 0;
    while (std::memcmp(&got.data()[i], &want.data()[i], sizeof(float)) == 0) {
      ++i;
    }
    return ::testing::AssertionFailure()
           << "first difference at cell " << i << ": " << got.data()[i]
           << " vs " << want.data()[i];
  }
  return ::testing::AssertionSuccess();
}

// Dims that are not multiples of any noise period, with every axis a
// different length.  The X extents are short enough that most kernel
// centres wrap around them (133 of 144 (seed, t, kernel) centres at nx = 13).
const Dims kOddDims[] = {{29, 19, 13}, {50, 31, 7}, {13, 40, 25}};
// Above the size at which the generators split planes across workers.
const Dims kLargeDims{128, 96, 80};
const std::uint64_t kSeeds[] = {1, 7, 42};

TEST(Combustion, MatchesReferenceBytesAcrossDimsStepsAndSeeds) {
  for (const Dims& dims : kOddDims) {
    for (std::uint64_t seed : kSeeds) {
      for (int t = 0; t <= 7; ++t) {
        EXPECT_TRUE(SameBytes(generate_combustion(dims, t, seed),
                              reference::generate_combustion(dims, t, seed)))
            << dims.to_string() << " t=" << t << " seed=" << seed;
      }
    }
  }
}

TEST(Combustion, LargeVolumeMatchesReferenceBytes) {
  for (std::uint64_t seed : kSeeds) {
    const int t = static_cast<int>(seed % 8);
    EXPECT_TRUE(SameBytes(generate_combustion(kLargeDims, t, seed),
                          reference::generate_combustion(kLargeDims, t, seed)))
        << "t=" << t << " seed=" << seed;
  }
}

TEST(Cosmology, MatchesReferenceBytesAcrossDimsStepsAndSeeds) {
  for (const Dims& dims : kOddDims) {
    for (std::uint64_t seed : kSeeds) {
      for (int t = 0; t <= 7; ++t) {
        EXPECT_TRUE(SameBytes(generate_cosmology(dims, t, seed),
                              reference::generate_cosmology(dims, t, seed)))
            << dims.to_string() << " t=" << t << " seed=" << seed;
      }
    }
  }
}

TEST(Cosmology, LargeVolumeMatchesReferenceBytes) {
  for (std::uint64_t seed : kSeeds) {
    const int t = static_cast<int>(seed % 8);
    EXPECT_TRUE(SameBytes(generate_cosmology(kLargeDims, t, seed),
                          reference::generate_cosmology(kLargeDims, t, seed)))
        << "t=" << t << " seed=" << seed;
  }
}

TEST(Combustion, DeterministicForSameSeedAndStep) {
  const Dims dims{16, 12, 10};
  Volume a = generate_combustion(dims, 3, 42);
  Volume b = generate_combustion(dims, 3, 42);
  EXPECT_EQ(a.data(), b.data());
}

TEST(Combustion, TimestepsDiffer) {
  const Dims dims{16, 12, 10};
  Volume a = generate_combustion(dims, 0, 42);
  Volume b = generate_combustion(dims, 1, 42);
  EXPECT_NE(a.data(), b.data());
}

TEST(Combustion, SeedsDiffer) {
  const Dims dims{16, 12, 10};
  Volume a = generate_combustion(dims, 0, 1);
  Volume b = generate_combustion(dims, 0, 2);
  EXPECT_NE(a.data(), b.data());
}

TEST(Combustion, ValuesAreNormalised) {
  Volume v = generate_combustion({24, 16, 16}, 5, 42);
  float lo, hi;
  v.min_max(lo, hi);
  EXPECT_GE(lo, 0.0f);
  EXPECT_LE(hi, 1.0f);
  EXPECT_GT(hi, 0.3f);  // flames actually present
}

TEST(Cosmology, DeterministicAndBounded) {
  const Dims dims{16, 16, 16};
  Volume a = generate_cosmology(dims, 2, 7);
  Volume b = generate_cosmology(dims, 2, 7);
  EXPECT_EQ(a.data(), b.data());
  float lo, hi;
  a.min_max(lo, hi);
  EXPECT_GE(lo, 0.0f);
  EXPECT_LE(hi, 1.0f);
}

TEST(Cosmology, HasSpatialStructure) {
  // A clumpy field must have meaningful variance.
  Volume v = generate_cosmology({24, 24, 24}, 0, 7);
  double sum = 0, sum2 = 0;
  for (float x : v.data()) {
    sum += x;
    sum2 += static_cast<double>(x) * x;
  }
  const double n = static_cast<double>(v.data().size());
  const double var = sum2 / n - (sum / n) * (sum / n);
  EXPECT_GT(var, 1e-4);
}

TEST(Amr, HierarchyHasRootBox) {
  Volume v = generate_combustion({16, 16, 16}, 0);
  auto h = generate_amr_hierarchy(v, 3, 4);
  ASSERT_FALSE(h.boxes.empty());
  EXPECT_EQ(h.boxes[0].level, 0);
  EXPECT_FLOAT_EQ(h.boxes[0].x1, 16.0f);
}

TEST(Amr, RefinedBoxesInsideDomainAndOrderedLevels) {
  Volume v = generate_combustion({20, 16, 16}, 2);
  auto h = generate_amr_hierarchy(v, 3, 6);
  for (const auto& b : h.boxes) {
    EXPECT_GE(b.level, 0);
    EXPECT_LT(b.level, 3);
    EXPECT_GE(b.x0, 0.0f);
    EXPECT_LE(b.x1, 20.0f);
    EXPECT_LE(b.x0, b.x1);
    EXPECT_LE(b.y0, b.y1);
    EXPECT_LE(b.z0, b.z1);
  }
}

TEST(Amr, RefinementTargetsHighValues) {
  // One hot octant; refined boxes should cluster there.
  Volume v({32, 32, 32});
  for (int z = 0; z < 8; ++z)
    for (int y = 0; y < 8; ++y)
      for (int x = 0; x < 8; ++x) v.at(x, y, z) = 1.0f;
  auto h = generate_amr_hierarchy(v, 2, 8);
  int refined = 0;
  for (const auto& b : h.boxes) {
    if (b.level == 0) continue;
    ++refined;
    const float cx = 0.5f * (b.x0 + b.x1);
    EXPECT_LT(cx, 16.0f);
  }
  EXPECT_GT(refined, 0);
}

TEST(Amr, WireframeHasTwelveEdgesPerBox) {
  Volume v = generate_combustion({8, 8, 8}, 0);
  auto h = generate_amr_hierarchy(v, 2, 3);
  auto segs = amr_wireframe(h);
  EXPECT_EQ(segs.size(), h.boxes.size() * 12);
}

TEST(Amr, WireframeByteSizeIsTensOfKilobytes) {
  // The paper: "geometric data is typically tens of kilobytes for the AMR
  // grid data per timestep."
  Volume v = generate_combustion({32, 16, 16}, 1);
  auto h = generate_amr_hierarchy(v, 4, 32);
  auto segs = amr_wireframe(h);
  const std::size_t bytes = wireframe_byte_size(segs);
  EXPECT_GT(bytes, 4u * 1024);
  EXPECT_LT(bytes, 200u * 1024);
}

TEST(Dataset, PaperDatasetMatchesPublishedNumbers) {
  const DatasetDesc d = paper_combustion_dataset();
  EXPECT_EQ(d.dims.nx, 640);
  EXPECT_EQ(d.timesteps, 265);
  EXPECT_EQ(d.bytes_per_step(), 160u * 1024 * 1024);
  // "our 265-timestep dataset (a total of 41.4 gigabytes)"
  EXPECT_NEAR(static_cast<double>(d.total_bytes()) / (1024.0 * 1024 * 1024),
              41.4, 0.1);
}

TEST(Dataset, GenerateDispatchesOnKind) {
  DatasetDesc d = small_cosmology_dataset(2);
  Volume v = d.generate(0);
  EXPECT_EQ(v.dims(), d.dims);
  EXPECT_EQ(v.data(), generate_cosmology(d.dims, 0, d.seed).data());

  DatasetDesc c = small_combustion_dataset(2);
  EXPECT_EQ(c.generate(1).data(), generate_combustion(c.dims, 1, c.seed).data());
}

}  // namespace
}  // namespace visapult::vol
