#include "render/raycast.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

namespace visapult::render {

namespace {

struct Vec3 {
  float x = 0, y = 0, z = 0;
};

Vec3 axis_dir(vol::Axis a) {
  switch (a) {
    case vol::Axis::kX: return {1, 0, 0};
    case vol::Axis::kY: return {0, 1, 0};
    case vol::Axis::kZ: return {0, 0, 1};
  }
  return {};
}

Vec3 add(Vec3 a, Vec3 b) { return {a.x + b.x, a.y + b.y, a.z + b.z}; }
Vec3 scale(Vec3 a, float s) { return {a.x * s, a.y * s, a.z * s}; }

float normalise_value(float v, const RenderOptions& o) {
  const float span = o.value_hi - o.value_lo;
  if (span <= 0.0f) return 0.0f;
  return std::clamp((v - o.value_lo) / span, 0.0f, 1.0f);
}

// Front-to-back accumulation of one sample: straight colour c.r/g/b with
// per-sample opacity `alpha`.
template <typename Colour>
void accumulate(core::Pixel& acc, const Colour& c, float alpha) {
  const float w = (1.0f - acc.a) * alpha;
  acc.r += w * c.r;
  acc.g += w * c.g;
  acc.b += w * c.b;
  acc.a += w;
}

constexpr float kOpaqueCutoff = 0.995f;

// ---- slice-order compositing ------------------------------------------------

// A transfer-function entry with its opacity already corrected for the step,
// so no sample pays for a std::exp.
struct StepEntry {
  float r, g, b;
  float alpha;
};
using StepTable = std::array<StepEntry, TransferFunction::kTableSize>;

StepTable step_table(const TransferFunction& tf, float step) {
  StepTable table;
  for (int i = 0; i < TransferFunction::kTableSize; ++i) {
    const ControlPoint& cp = tf.entry(i);
    table[static_cast<std::size_t>(i)] = {cp.r, cp.g, cp.b,
                                          opacity_for_step(cp.opacity, step)};
  }
  return table;
}

// Distance in floats between neighbouring cells along `a`.
std::size_t axis_stride(const vol::Dims& d, vol::Axis a) {
  switch (a) {
    case vol::Axis::kX: return 1;
    case vol::Axis::kY: return static_cast<std::size_t>(d.nx);
    case vol::Axis::kZ: return static_cast<std::size_t>(d.nx) * d.ny;
  }
  return 0;
}

// The two cells a linear interpolation at continuous cell coordinate `c`
// reads, clamped to [0, extent) like Volume::at_clamped, and the weight of
// the second.
struct Tap {
  int lo = 0, hi = 0;
  float t = 0.0f;
};

Tap tap_at(float c, int extent) {
  const int c0 = static_cast<int>(std::floor(c));
  return {std::clamp(c0, 0, extent - 1), std::clamp(c0 + 1, 0, extent - 1),
          c - static_cast<float>(c0)};
}

// Taps of the pixel centres [first, first + count) along one image axis.
std::vector<Tap> pixel_taps(int first, int count, float scale, int extent) {
  std::vector<Tap> taps(static_cast<std::size_t>(count));
  for (int n = 0; n < count; ++n) {
    const float c = (static_cast<float>(first + n) + 0.5f) / scale;
    taps[static_cast<std::size_t>(n)] = tap_at(c - 0.5f, extent);
  }
  return taps;
}

// The volume's slices across the view axis, as image rows
// [row_begin, row_end) at image resolution.  At one pixel per cell a z
// slice is read in place; x and y slices are strided, so they are gathered
// first, and other scales are resampled bilinearly.  The last two slices
// are kept, so samples less than a cell apart reuse them.
class SliceRows {
 public:
  SliceRows(const vol::Volume& volume, vol::Axis view_axis, float scale,
            int width, int row_begin, int row_end)
      : data_(volume.data().data()),
        sw_(axis_stride(volume.dims(), view_axis)),
        width_(width),
        rows_(row_end - row_begin) {
    vol::Axis ua, va;
    image_axes_for(view_axis, ua, va);
    su_ = axis_stride(volume.dims(), ua);
    sv_ = axis_stride(volume.dims(), va);
    nu_ = volume.dims().extent(ua);
    const int nv = volume.dims().extent(va);
    if (scale == 1.0f && width <= nu_ && row_end <= nv) {
      // Pixel (i, j) is cell (i, j): the slice rows are the image rows.
      v_first_ = row_begin;
      v_count_ = rows_;
    } else {
      u_taps_ = pixel_taps(0, width, scale, nu_);
      v_taps_ = pixel_taps(row_begin, rows_, scale, nv);
      v_first_ = v_taps_.front().lo;
      v_count_ = v_taps_.back().hi - v_first_ + 1;
    }
  }

  // Floats between consecutive rows of what pair() returns.
  std::size_t pitch() const {
    return resampled() ? static_cast<std::size_t>(width_) : in_plane_pitch();
  }

  // Rows of slices w.lo and w.hi; valid until the next call.
  std::array<const float*, 2> pair(const Tap& w) {
    Slot* lo = find(w.lo);
    Slot* hi = find(w.hi);
    std::array<Slot*, 2> missing{};
    std::size_t n = 0;
    if (lo == nullptr) {
      lo = other_than(hi);
      lo->key = w.lo;
      missing[n++] = lo;
      if (w.hi == w.lo) hi = lo;
    }
    if (hi == nullptr) {
      hi = other_than(lo);
      hi->key = w.hi;
      missing[n++] = hi;
    }
    load(missing, n);
    return {lo->rows, hi->rows};
  }

 private:
  struct Slot {
    int key = -1;
    const float* rows = nullptr;
    std::vector<float> gathered, resampled;
  };

  Slot* find(int k) {
    for (Slot& s : slots_) {
      if (s.key == k) return &s;
    }
    return nullptr;
  }
  Slot* other_than(const Slot* s) {
    return s == &slots_[0] ? &slots_[1] : &slots_[0];
  }

  bool resampled() const { return !u_taps_.empty(); }
  // Row pitch of a slice at cell resolution: in place, or gathered.
  std::size_t in_plane_pitch() const {
    return su_ == 1 ? sv_ : static_cast<std::size_t>(nu_);
  }

  // Fill slots[0, n) with the slices their keys name.  Both slices of a
  // missing pair are gathered in one walk: neighbouring x slices share
  // cache lines.
  void load(const std::array<Slot*, 2>& slots, std::size_t n) {
    std::array<const float*, 2> cells{};
    std::array<float*, 2> gathered{};
    for (std::size_t m = 0; m < n; ++m) {
      Slot& s = *slots[m];
      cells[m] = data_ + static_cast<std::size_t>(s.key) * sw_ +
                 static_cast<std::size_t>(v_first_) * sv_;
      if (su_ != 1) {
        s.gathered.resize(static_cast<std::size_t>(nu_) *
                          static_cast<std::size_t>(v_count_));
        gathered[m] = s.gathered.data();
      }
    }
    if (su_ != 1) gather(cells, gathered, n);
    for (std::size_t m = 0; m < n; ++m) {
      Slot& s = *slots[m];
      s.rows = su_ != 1 ? gathered[m] : cells[m];
      if (resampled()) {
        resample(s.rows, s.resampled);
        s.rows = s.resampled.data();
      }
    }
  }

  // Copy rows [v_first_, v_first_ + v_count_) of n strided slices into
  // contiguous rows of nu_ cells, walking the source along whichever image
  // axis is contiguous in memory.
  void gather(const std::array<const float*, 2>& cells,
              const std::array<float*, 2>& out, std::size_t n) const {
    const std::size_t nu = static_cast<std::size_t>(nu_);
    const std::size_t nv = static_cast<std::size_t>(v_count_);
    if (sv_ < su_) {
      for (std::size_t u = 0; u < nu; ++u) {
        for (std::size_t v = 0; v < nv; ++v) {
          for (std::size_t m = 0; m < n; ++m) {
            out[m][v * nu + u] = cells[m][u * su_ + v * sv_];
          }
        }
      }
    } else {
      for (std::size_t v = 0; v < nv; ++v) {
        for (std::size_t u = 0; u < nu; ++u) {
          for (std::size_t m = 0; m < n; ++m) {
            out[m][v * nu + u] = cells[m][u * su_ + v * sv_];
          }
        }
      }
    }
  }

  // Bilinear resampling of cell rows to image rows, u before v.
  void resample(const float* cells, std::vector<float>& out) const {
    const std::size_t p = in_plane_pitch();
    out.resize(static_cast<std::size_t>(width_) *
               static_cast<std::size_t>(rows_));
    float* dst = out.data();
    for (const Tap& tv : v_taps_) {
      const float* r0 = cells + static_cast<std::size_t>(tv.lo - v_first_) * p;
      const float* r1 = cells + static_cast<std::size_t>(tv.hi - v_first_) * p;
      for (const Tap& tu : u_taps_) {
        const float c0 = r0[tu.lo] + (r0[tu.hi] - r0[tu.lo]) * tu.t;
        const float c1 = r1[tu.lo] + (r1[tu.hi] - r1[tu.lo]) * tu.t;
        *dst++ = c0 + (c1 - c0) * tv.t;
      }
    }
  }

  const float* data_;
  std::size_t sw_, su_ = 0, sv_ = 0;
  int nu_ = 0;
  int width_, rows_;
  int v_first_ = 0, v_count_ = 0;
  std::vector<Tap> u_taps_, v_taps_;
  std::array<Slot, 2> slots_;
};

// Composite one sample plane, the lerp of slice rows `a` and `b` at weight
// `t`, front to back into image rows [row_begin, row_end), skipping pixels
// that are already opaque.
void composite_plane(const float* a, const float* b, std::size_t pitch,
                     float t, const StepTable& table, const RenderOptions& o,
                     int row_begin, int row_end, core::ImageRGBA& img) {
  const float lo = o.value_lo;
  const float span = o.value_hi - lo;
  const int width = img.width();
  for (int j = row_begin; j < row_end; ++j) {
    const std::size_t off = static_cast<std::size_t>(j - row_begin) * pitch;
    const float* ra = a + off;
    const float* rb = b + off;
    core::Pixel* px = &img.at(0, j);
    for (int i = 0; i < width; ++i) {
      core::Pixel& acc = px[i];
      if (acc.a >= kOpaqueCutoff) continue;
      const float raw = ra[i] + (rb[i] - ra[i]) * t;
      const int index =
          span > 0.0f ? TransferFunction::table_index((raw - lo) / span) : 0;
      // A transparent entry adds exactly zero, so no branch on alpha.
      const StepEntry& e = table[static_cast<std::size_t>(index)];
      accumulate(acc, e, e.alpha);
    }
  }
}

}  // namespace

void image_axes_for(vol::Axis view_axis, vol::Axis& img_u, vol::Axis& img_v) {
  img_u = static_cast<vol::Axis>((static_cast<int>(view_axis) + 1) % 3);
  img_v = static_cast<vol::Axis>((static_cast<int>(view_axis) + 2) % 3);
}

core::Status render_brick_rows(const vol::Volume& volume,
                               const vol::Brick& slab, vol::Axis view_axis,
                               const TransferFunction& tf,
                               const RenderOptions& options, int row_begin,
                               int row_end, core::ImageRGBA& img) {
  const vol::Dims vd = volume.dims();
  if (slab.x0 < 0 || slab.y0 < 0 || slab.z0 < 0 ||
      slab.x0 + slab.dims.nx > vd.nx || slab.y0 + slab.dims.ny > vd.ny ||
      slab.z0 + slab.dims.nz > vd.nz) {
    return core::out_of_range("slab exceeds volume bounds");
  }
  if (options.step <= 0.0f || options.resolution_scale <= 0.0f) {
    return core::invalid_argument("step and resolution_scale must be > 0");
  }
  if (row_begin < 0 || row_end > img.height() || row_begin > row_end) {
    return core::out_of_range("bad row range");
  }

  if (row_begin == row_end || img.width() == 0) return core::Status::ok();
  for (int j = row_begin; j < row_end; ++j) {
    std::fill_n(&img.at(0, j), img.width(), core::Pixel{});
  }
  // Slab extent along the view axis.
  int a0 = 0, alen = 0;
  switch (view_axis) {
    case vol::Axis::kX: a0 = slab.x0; alen = slab.dims.nx; break;
    case vol::Axis::kY: a0 = slab.y0; alen = slab.dims.ny; break;
    case vol::Axis::kZ: a0 = slab.z0; alen = slab.dims.nz; break;
  }
  if (alen <= 0 || vd.cell_count() == 0) return core::Status::ok();

  const StepTable table = step_table(tf, options.step);
  SliceRows slices(volume, view_axis, options.resolution_scale, img.width(),
                   row_begin, row_end);
  const int nw = vd.extent(view_axis);
  // One sample plane every `step` cells from step/2, front (low
  // coordinate) first.
  for (float t = 0.5f * options.step; t < static_cast<float>(alen);
       t += options.step) {
    const Tap w = tap_at(static_cast<float>(a0) + t - 0.5f, nw);
    const auto [a, b] = slices.pair(w);
    composite_plane(a, b, slices.pitch(), w.t, table, options, row_begin,
                    row_end, img);
  }
  return core::Status::ok();
}

core::Result<core::ImageRGBA> render_brick_along_axis(
    const vol::Volume& volume, const vol::Brick& slab, vol::Axis view_axis,
    const TransferFunction& tf, const RenderOptions& options) {
  if (options.resolution_scale <= 0.0f) {
    return core::invalid_argument("resolution_scale must be > 0");
  }
  vol::Axis ua, va;
  image_axes_for(view_axis, ua, va);
  const vol::Dims vd = volume.dims();
  const int width = std::max(
      1, static_cast<int>(vd.extent(ua) * options.resolution_scale));
  const int height = std::max(
      1, static_cast<int>(vd.extent(va) * options.resolution_scale));
  core::ImageRGBA img(width, height);
  if (auto st = render_brick_rows(volume, slab, view_axis, tf, options, 0,
                                  height, img);
      !st.is_ok()) {
    return st;
  }
  return img;
}

core::Result<core::ImageRGBA> render_volume_rotated(
    const vol::Volume& volume, vol::Axis base_axis, float angle_rad,
    const TransferFunction& tf, const RenderOptions& options) {
  if (options.step <= 0.0f || options.resolution_scale <= 0.0f) {
    return core::invalid_argument("step and resolution_scale must be > 0");
  }
  const vol::Dims vd = volume.dims();
  vol::Axis ua, va;
  image_axes_for(base_axis, ua, va);
  const int width = std::max(
      1, static_cast<int>(vd.extent(ua) * options.resolution_scale));
  const int height = std::max(
      1, static_cast<int>(vd.extent(va) * options.resolution_scale));
  core::ImageRGBA img(width, height);

  // Rotate the view direction and image-horizontal axis about the image-
  // vertical axis by angle_rad.
  const Vec3 w0 = axis_dir(base_axis);
  const Vec3 u0 = axis_dir(ua);
  const Vec3 v0 = axis_dir(va);
  const float ca = std::cos(angle_rad), sa = std::sin(angle_rad);
  // Rodrigues rotation about v0 for vectors orthogonal to v0.
  auto rot = [&](Vec3 p) {
    // cross(v0, p)
    const Vec3 cr{v0.y * p.z - v0.z * p.y, v0.z * p.x - v0.x * p.z,
                  v0.x * p.y - v0.y * p.x};
    return Vec3{p.x * ca + cr.x * sa, p.y * ca + cr.y * sa, p.z * ca + cr.z * sa};
  };
  const Vec3 w = rot(w0);
  const Vec3 u = rot(u0);

  const Vec3 centre{vd.nx * 0.5f, vd.ny * 0.5f, vd.nz * 0.5f};
  const float eu = static_cast<float>(vd.extent(ua));
  const float ev = static_cast<float>(vd.extent(va));
  const float diag = std::sqrt(static_cast<float>(vd.nx) * vd.nx +
                               static_cast<float>(vd.ny) * vd.ny +
                               static_cast<float>(vd.nz) * vd.nz);

  auto inside = [&](const Vec3& p) {
    return p.x >= 0 && p.x <= static_cast<float>(vd.nx) && p.y >= 0 &&
           p.y <= static_cast<float>(vd.ny) && p.z >= 0 &&
           p.z <= static_cast<float>(vd.nz);
  };

  for (int j = 0; j < height; ++j) {
    const float cv = (static_cast<float>(j) + 0.5f) / options.resolution_scale - ev * 0.5f;
    for (int i = 0; i < width; ++i) {
      const float cu = (static_cast<float>(i) + 0.5f) / options.resolution_scale - eu * 0.5f;
      const Vec3 p0 = add(centre, add(scale(u, cu), scale(v0, cv)));
      core::Pixel acc;
      for (float t = -diag * 0.5f; t <= diag * 0.5f; t += options.step) {
        const Vec3 p = add(p0, scale(w, t));
        if (!inside(p)) continue;
        const float raw = volume.sample(p.x - 0.5f, p.y - 0.5f, p.z - 0.5f);
        const ControlPoint cp = tf.classify(normalise_value(raw, options));
        const float alpha = opacity_for_step(cp.opacity, options.step);
        if (alpha > 0.0f) accumulate(acc, cp, alpha);
        if (acc.a >= kOpaqueCutoff) break;
      }
      img.at(i, j) = acc;
    }
  }
  return img;
}

}  // namespace visapult::render
