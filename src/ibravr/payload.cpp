#include "ibravr/payload.h"

#include <cstring>

namespace visapult::ibravr {

namespace {

void write_dims(net::Writer& w, const vol::Dims& d) {
  w.u32(static_cast<std::uint32_t>(d.nx));
  w.u32(static_cast<std::uint32_t>(d.ny));
  w.u32(static_cast<std::uint32_t>(d.nz));
}

core::Result<vol::Dims> read_dims(net::Reader& r) {
  vol::Dims d;
  auto nx = r.u32();
  if (!nx.is_ok()) return nx.status();
  auto ny = r.u32();
  if (!ny.is_ok()) return ny.status();
  auto nz = r.u32();
  if (!nz.is_ok()) return nz.status();
  d.nx = static_cast<int>(nx.value());
  d.ny = static_cast<int>(ny.value());
  d.nz = static_cast<int>(nz.value());
  return d;
}

void write_slab_info(net::Writer& w, const SlabInfo& s) {
  write_dims(w, s.volume_dims);
  w.u32(static_cast<std::uint32_t>(s.brick.x0));
  w.u32(static_cast<std::uint32_t>(s.brick.y0));
  w.u32(static_cast<std::uint32_t>(s.brick.z0));
  write_dims(w, s.brick.dims);
  w.u32(static_cast<std::uint32_t>(s.axis));
  w.u32(static_cast<std::uint32_t>(s.slab_index));
  w.u32(static_cast<std::uint32_t>(s.slab_count));
}

core::Result<SlabInfo> read_slab_info(net::Reader& r) {
  SlabInfo s;
  auto vd = read_dims(r);
  if (!vd.is_ok()) return vd.status();
  s.volume_dims = vd.value();
  auto x0 = r.u32();
  if (!x0.is_ok()) return x0.status();
  auto y0 = r.u32();
  if (!y0.is_ok()) return y0.status();
  auto z0 = r.u32();
  if (!z0.is_ok()) return z0.status();
  s.brick.x0 = static_cast<int>(x0.value());
  s.brick.y0 = static_cast<int>(y0.value());
  s.brick.z0 = static_cast<int>(z0.value());
  auto bd = read_dims(r);
  if (!bd.is_ok()) return bd.status();
  s.brick.dims = bd.value();
  auto axis = r.u32();
  if (!axis.is_ok()) return axis.status();
  if (axis.value() > 2) return core::data_loss("bad axis in slab info");
  s.axis = static_cast<vol::Axis>(axis.value());
  auto idx = r.u32();
  if (!idx.is_ok()) return idx.status();
  s.slab_index = static_cast<int>(idx.value());
  auto cnt = r.u32();
  if (!cnt.is_ok()) return cnt.status();
  s.slab_count = static_cast<int>(cnt.value());
  return s;
}

}  // namespace

std::size_t LightPayload::wire_bytes() const { return encode_light(*this).payload.size() + 16; }

std::size_t HeavyPayload::wire_bytes() const {
  return texture.byte_size() + offsets.size() * sizeof(float) +
         grid.size() * (6 * sizeof(float) + 4) + 64;
}

net::Message encode_hello(const Hello& h) {
  net::Message m;
  m.type = kHello;
  net::Writer w;
  w.i64(h.timesteps);
  w.u32(static_cast<std::uint32_t>(h.rank));
  w.u32(static_cast<std::uint32_t>(h.world_size));
  write_dims(w, h.volume_dims);
  m.payload = w.take();
  return m;
}

core::Result<Hello> decode_hello(const net::Message& m) {
  if (m.type != kHello) return core::data_loss("expected hello message");
  net::Reader r(m.payload);
  Hello h;
  auto ts = r.i64();
  if (!ts.is_ok()) return ts.status();
  h.timesteps = ts.value();
  auto rank = r.u32();
  if (!rank.is_ok()) return rank.status();
  h.rank = static_cast<std::int32_t>(rank.value());
  auto ws = r.u32();
  if (!ws.is_ok()) return ws.status();
  h.world_size = static_cast<std::int32_t>(ws.value());
  auto d = read_dims(r);
  if (!d.is_ok()) return d.status();
  h.volume_dims = d.value();
  return h;
}

net::Message encode_light(const LightPayload& p) {
  net::Message m;
  m.type = kLightPayload;
  net::Writer w;
  w.i64(p.frame);
  w.u32(static_cast<std::uint32_t>(p.rank));
  write_slab_info(w, p.info);
  w.u32(p.tex_width);
  w.u32(p.tex_height);
  w.u32(p.bytes_per_pixel);
  w.u32(p.mesh_nu);
  w.u32(p.mesh_nv);
  m.payload = w.take();
  return m;
}

core::Result<LightPayload> decode_light(const net::Message& m) {
  if (m.type != kLightPayload) return core::data_loss("expected light payload");
  net::Reader r(m.payload);
  LightPayload p;
  auto frame = r.i64();
  if (!frame.is_ok()) return frame.status();
  p.frame = frame.value();
  auto rank = r.u32();
  if (!rank.is_ok()) return rank.status();
  p.rank = static_cast<std::int32_t>(rank.value());
  auto info = read_slab_info(r);
  if (!info.is_ok()) return info.status();
  p.info = info.value();
  auto tw = r.u32();
  if (!tw.is_ok()) return tw.status();
  p.tex_width = tw.value();
  auto th = r.u32();
  if (!th.is_ok()) return th.status();
  p.tex_height = th.value();
  auto bpp = r.u32();
  if (!bpp.is_ok()) return bpp.status();
  p.bytes_per_pixel = bpp.value();
  auto nu = r.u32();
  if (!nu.is_ok()) return nu.status();
  p.mesh_nu = nu.value();
  auto nv = r.u32();
  if (!nv.is_ok()) return nv.status();
  p.mesh_nv = nv.value();
  return p;
}

net::Message encode_heavy(const HeavyPayload& p) {
  net::Message m;
  m.type = kHeavyPayload;
  net::Writer w;
  w.i64(p.frame);
  w.u32(static_cast<std::uint32_t>(p.rank));
  w.u32(static_cast<std::uint32_t>(p.texture.width()));
  w.u32(static_cast<std::uint32_t>(p.texture.height()));
  w.bytes(p.texture.to_bytes());
  w.u64(p.offsets.size());
  if (!p.offsets.empty()) {
    w.raw(p.offsets.data(), p.offsets.size() * sizeof(float));
  }
  w.u64(p.grid.size());
  for (const auto& seg : p.grid) {
    w.f32(seg.ax); w.f32(seg.ay); w.f32(seg.az);
    w.f32(seg.bx); w.f32(seg.by); w.f32(seg.bz);
    w.u32(static_cast<std::uint32_t>(seg.level));
  }
  m.payload = w.take();
  return m;
}

core::Result<HeavyPayload> decode_heavy(const net::Message& m) {
  if (m.type != kHeavyPayload) return core::data_loss("expected heavy payload");
  net::Reader r(m.payload);
  HeavyPayload p;
  auto frame = r.i64();
  if (!frame.is_ok()) return frame.status();
  p.frame = frame.value();
  auto rank = r.u32();
  if (!rank.is_ok()) return rank.status();
  p.rank = static_cast<std::int32_t>(rank.value());
  auto tw = r.u32();
  if (!tw.is_ok()) return tw.status();
  auto th = r.u32();
  if (!th.is_ok()) return th.status();
  auto tex = r.bytes();
  if (!tex.is_ok()) return tex.status();
  auto img = core::ImageRGBA::from_bytes(static_cast<int>(tw.value()),
                                         static_cast<int>(th.value()),
                                         tex.value());
  if (!img.is_ok()) return img.status();
  p.texture = std::move(img).take();

  // Each count is checked against the bytes left before anything is sized
  // by it: an offset takes 4 bytes on the wire, a grid segment 28.
  auto offset_count = r.u64();
  if (!offset_count.is_ok()) return offset_count.status();
  if (offset_count.value() > r.remaining() / 4) {
    return core::data_loss("heavy payload offset count exceeds the payload");
  }
  p.offsets.resize(offset_count.value());
  for (auto& o : p.offsets) {
    auto f = r.f32();
    if (!f.is_ok()) return f.status();
    o = f.value();
  }
  auto grid_count = r.u64();
  if (!grid_count.is_ok()) return grid_count.status();
  if (grid_count.value() > r.remaining() / 28) {
    return core::data_loss("heavy payload grid count exceeds the payload");
  }
  p.grid.resize(grid_count.value());
  for (auto& seg : p.grid) {
    auto ax = r.f32(); if (!ax.is_ok()) return ax.status();
    auto ay = r.f32(); if (!ay.is_ok()) return ay.status();
    auto az = r.f32(); if (!az.is_ok()) return az.status();
    auto bx = r.f32(); if (!bx.is_ok()) return bx.status();
    auto by = r.f32(); if (!by.is_ok()) return by.status();
    auto bz = r.f32(); if (!bz.is_ok()) return bz.status();
    auto level = r.u32(); if (!level.is_ok()) return level.status();
    seg = vol::LineSegment{ax.value(), ay.value(), az.value(),
                           bx.value(), by.value(), bz.value(),
                           static_cast<int>(level.value())};
  }
  return p;
}

net::Message encode_end_of_data() {
  net::Message m;
  m.type = kEndOfData;
  return m;
}

}  // namespace visapult::ibravr
