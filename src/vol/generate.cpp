#include "vol/generate.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <thread>

#include "core/rng.h"
#include "core/thread_pool.h"

namespace visapult::vol {

namespace {

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

// Trilinear-interpolated lattice noise at period `cell`, sampled at the
// integer coordinates of a grid one row at a time.  The lattice cell and
// the fraction into it are tabulated per axis, and each cell's 8 corners
// are hashed once per row instead of once per voxel.
class LatticeNoise {
 public:
  LatticeNoise(std::uint64_t seed, Dims dims, float cell)
      : seed_(seed),
        x_(axis(dims.nx, cell)),
        y_(axis(dims.ny, cell)),
        z_(axis(dims.nz, cell)) {}

  // out[x] = noise at (x, y, z) for every x of the row.
  void sample_row(int y, int z, float* out) const {
    auto lerp = [](float a, float b, float t) { return a + (b - a) * t; };
    const int y0 = y_[y].cell, z0 = z_[z].cell;
    const float ty = y_[y].frac, tz = z_[z].frac;
    const int nx = static_cast<int>(x_.size());
    for (int x = 0; x < nx;) {
      const int x0 = x_[x].cell;
      auto s = [&](int dx, int dy, int dz) {
        return value_noise(seed_, x0 + dx, y0 + dy, z0 + dz);
      };
      const float s000 = s(0, 0, 0), s100 = s(1, 0, 0);
      const float s010 = s(0, 1, 0), s110 = s(1, 1, 0);
      const float s001 = s(0, 0, 1), s101 = s(1, 0, 1);
      const float s011 = s(0, 1, 1), s111 = s(1, 1, 1);
      for (; x < nx && x_[x].cell == x0; ++x) {
        const float tx = x_[x].frac;
        const float c00 = lerp(s000, s100, tx);
        const float c10 = lerp(s010, s110, tx);
        const float c01 = lerp(s001, s101, tx);
        const float c11 = lerp(s011, s111, tx);
        out[x] = lerp(lerp(c00, c10, ty), lerp(c01, c11, ty), tz);
      }
    }
  }

 private:
  struct Coord {
    int cell;    // lattice index below the coordinate
    float frac;  // position inside that lattice cell, [0, 1)
  };

  static std::vector<Coord> axis(int n, float cell) {
    std::vector<Coord> out(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const float f = static_cast<float>(i) / cell;
      const int c = static_cast<int>(std::floor(f));
      out[i] = Coord{c, f - c};
    }
    return out;
  }

  std::uint64_t seed_;
  std::vector<Coord> x_, y_, z_;
};

// Volumes with at least this many cells (64^3, about 4 ms of work) fill
// their z-planes on one worker per hardware thread; for smaller ones,
// starting the workers would cost a noticeable share of the work.  Each
// plane is computed the same way on any thread, so the bytes do not depend
// on the worker count.
constexpr std::size_t kParallelCells = std::size_t{1} << 18;

void for_each_plane(Dims dims, const std::function<void(int z)>& plane) {
  const int workers = std::min(
      dims.nz, static_cast<int>(std::thread::hardware_concurrency()));
  if (dims.cell_count() < kParallelCells || workers < 2) {
    for (int z = 0; z < dims.nz; ++z) plane(z);
    return;
  }
  // Planes are dealt round-robin: flames and clusters sit in bands of z,
  // so contiguous runs of planes would differ widely in cost.
  core::ThreadPool pool(workers);
  pool.parallel_for(0, static_cast<std::size_t>(workers), [&](std::size_t w) {
    for (int z = static_cast<int>(w); z < dims.nz; z += workers) plane(z);
  });
}

}  // namespace

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

  // Each kernel at timestep t: its centre, its squared radius, its peak
  // times flicker, and its squared X distance to every column.
  struct Flame {
    float cy, cz, r2, gain;
    std::vector<float> dx2;
  };
  const float min_extent =
      static_cast<float>(std::min({dims.nx, dims.ny, dims.nz}));
  std::vector<Flame> flames;
  flames.reserve(kernels.size());
  for (const FlameKernel& k : kernels) {
    Flame f;
    // Kernel centre advects along +X and wraps; wanders in Y.
    const float cx =
        std::fmod(k.speed * static_cast<float>(t) + k.phase * 10.0f,
                  static_cast<float>(dims.nx));
    f.cy = (k.y + 0.1f * std::sin(0.15f * t + k.phase)) * dims.ny;
    f.cz = k.z * dims.nz;
    const float r = k.radius * min_extent;
    f.r2 = r * r;
    const float flicker = 0.85f + 0.15f * std::sin(0.4f * t + k.phase * 3.0f);
    f.gain = k.amplitude * flicker;
    f.dx2.resize(static_cast<std::size_t>(dims.nx));
    for (int x = 0; x < dims.nx; ++x) {
      float dx = static_cast<float>(x) - cx;
      // Periodic in X so flames re-enter smoothly.
      if (dx > dims.nx / 2.0f) dx -= dims.nx;
      if (dx < -dims.nx / 2.0f) dx += dims.nx;
      f.dx2[x] = dx * dx;
    }
    flames.push_back(std::move(f));
  }
  // Background fuel gradient along X.
  std::vector<float> fuel(static_cast<std::size_t>(dims.nx));
  for (int x = 0; x < dims.nx; ++x) {
    fuel[x] = 0.05f * (1.0f - static_cast<float>(x) / dims.nx);
  }
  const LatticeNoise noise(seed ^ 0xf00d, dims, 12.0f);

  // Each row accumulates kernel by kernel: every voxel still adds the
  // kernels in order, and each division pass spans a whole row, which the
  // compiler vectorizes.
  Volume v(dims);
  for_each_plane(dims, [&](int z) {
    std::vector<float> d2(static_cast<std::size_t>(dims.nx));
    for (int y = 0; y < dims.ny; ++y) {
      float* row = v.data().data() + v.index(0, y, z);
      // Background fuel gradient with mild noise.
      noise.sample_row(y, z, row);
      for (int x = 0; x < dims.nx; ++x) row[x] = fuel[x] + 0.03f * row[x];
      for (const Flame& f : flames) {
        const float dy = static_cast<float>(y) - f.cy;
        const float dz = static_cast<float>(z) - f.cz;
        const float dy2 = dy * dy, dz2 = dz * dz;
        // dx2 >= 0 and rounding is monotone, so every d2 of the row is at
        // least this: a row it rejects has no voxel within 3 radii.
        if ((dy2 + dz2) / f.r2 >= 9.0f) continue;
        for (int x = 0; x < dims.nx; ++x) {
          d2[x] = (f.dx2[x] + dy2 + dz2) / f.r2;
        }
        for (int x = 0; x < dims.nx; ++x) {
          if (d2[x] < 9.0f) row[x] += f.gain * std::exp(-d2[x]);
        }
      }
      for (int x = 0; x < dims.nx; ++x) row[x] = std::min(row[x], 1.0f);
    }
  });
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

  // The rotation's terms per column and per row.
  std::vector<float> cux(static_cast<std::size_t>(dims.nx));
  std::vector<float> sux(cux.size());
  for (int x = 0; x < dims.nx; ++x) {
    const float ux = static_cast<float>(x) / dims.nx - 0.5f;
    cux[x] = ca * ux;
    sux[x] = sa * ux;
  }
  std::vector<float> cuy(static_cast<std::size_t>(dims.ny));
  std::vector<float> suy(cuy.size());
  for (int y = 0; y < dims.ny; ++y) {
    const float uy = static_cast<float>(y) / dims.ny - 0.5f;
    cuy[y] = ca * uy;
    suy[y] = sa * uy;
  }
  // Three octaves of smooth noise: the filamentary background.
  const LatticeNoise coarse(seed, dims, 32.0f);
  const LatticeNoise medium(seed ^ 1, dims, 16.0f);
  const LatticeNoise fine(seed ^ 2, dims, 8.0f);

  // As in generate_combustion, rows accumulate mass by mass.
  Volume v(dims);
  for_each_plane(dims, [&](int z) {
    const std::size_t nx = static_cast<std::size_t>(dims.nx);
    std::vector<float> n2(nx), n3(nx), rx(nx), ry(nx);
    const float rz = static_cast<float>(z) / dims.nz;
    for (int y = 0; y < dims.ny; ++y) {
      float* row = v.data().data() + v.index(0, y, z);
      coarse.sample_row(y, z, row);
      medium.sample_row(y, z, n2.data());
      fine.sample_row(y, z, n3.data());
      for (int x = 0; x < dims.nx; ++x) {
        row[x] = 0.20f * row[x] + 0.12f * n2[x] + 0.06f * n3[x];
        rx[x] = cux[x] - suy[y] + 0.5f;
        ry[x] = sux[x] + cuy[y] + 0.5f;
      }
      // Rotating point masses (clusters).
      for (const Mass& m : masses) {
        const float w = 0.25f * m.w;
        const float dz = rz - m.z;
        const float dz2 = dz * dz;
        for (int x = 0; x < dims.nx; ++x) {
          const float dx = rx[x] - m.x, dy = ry[x] - m.y;
          const float d2 = dx * dx + dy * dy + dz2;
          row[x] += w / (1.0f + 900.0f * d2);
        }
      }
      for (int x = 0; x < dims.nx; ++x) row[x] = std::min(row[x], 1.0f);
    }
  });
  return v;
}

AmrHierarchy generate_amr_hierarchy(const Volume& v, int levels,
                                    int boxes_per_level, std::uint64_t seed) {
  AmrHierarchy h;
  h.levels = levels;
  const Dims d = v.dims();
  h.boxes.push_back(AmrBox{0, 0, 0, 0, static_cast<float>(d.nx),
                           static_cast<float>(d.ny), static_cast<float>(d.nz)});
  float lo, hi;
  v.min_max(lo, hi);
  if (hi <= lo) return h;

  core::Rng rng(seed);
  for (int level = 1; level < levels; ++level) {
    // Refine around cells whose value exceeds a rising threshold.
    const float threshold = lo + (hi - lo) * (0.4f + 0.2f * level);
    const float box_half =
        static_cast<float>(std::min({d.nx, d.ny, d.nz})) / (4.0f * (level + 1));
    int placed = 0;
    int attempts = 0;
    while (placed < boxes_per_level && attempts < boxes_per_level * 64) {
      ++attempts;
      const int x = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(d.nx)));
      const int y = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(d.ny)));
      const int z = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(d.nz)));
      if (v.at(x, y, z) < threshold) continue;
      AmrBox b;
      b.level = level;
      b.x0 = std::max(0.0f, x - box_half);
      b.y0 = std::max(0.0f, y - box_half);
      b.z0 = std::max(0.0f, z - box_half);
      b.x1 = std::min(static_cast<float>(d.nx), x + box_half);
      b.y1 = std::min(static_cast<float>(d.ny), y + box_half);
      b.z1 = std::min(static_cast<float>(d.nz), z + box_half);
      h.boxes.push_back(b);
      ++placed;
    }
  }
  return h;
}

std::vector<LineSegment> amr_wireframe(const AmrHierarchy& h) {
  std::vector<LineSegment> out;
  out.reserve(h.boxes.size() * 12);
  for (const AmrBox& b : h.boxes) {
    const float xs[2] = {b.x0, b.x1};
    const float ys[2] = {b.y0, b.y1};
    const float zs[2] = {b.z0, b.z1};
    auto seg = [&](float ax, float ay, float az, float bx, float by, float bz) {
      out.push_back(LineSegment{ax, ay, az, bx, by, bz, b.level});
    };
    // 4 edges along X, 4 along Y, 4 along Z.
    for (int j = 0; j < 2; ++j) {
      for (int k = 0; k < 2; ++k) {
        seg(xs[0], ys[j], zs[k], xs[1], ys[j], zs[k]);
        seg(xs[j], ys[0], zs[k], xs[j], ys[1], zs[k]);
        seg(xs[j], ys[k], zs[0], xs[j], ys[k], zs[1]);
      }
    }
  }
  return out;
}

std::size_t wireframe_byte_size(const std::vector<LineSegment>& segments) {
  // 6 float32 endpoints + int32 level per segment on the wire.
  return segments.size() * (6 * sizeof(float) + sizeof(std::int32_t));
}

}  // namespace visapult::vol
