#include "dpss/thumbnail.h"

#include <algorithm>
#include <cstring>

#include "render/raycast.h"
#include "vol/decompose.h"

namespace visapult::dpss {

namespace {

constexpr std::size_t kRecordHeaderBytes = 4 + 4 + 4 + 4 + 4;

// Decimate a volume by integer stride (point sampling: previews do not
// need a proper low-pass).
vol::Volume downsample(const vol::Volume& v, int factor) {
  const vol::Dims d = v.dims();
  vol::Dims out_dims{std::max(1, d.nx / factor), std::max(1, d.ny / factor),
                     std::max(1, d.nz / factor)};
  vol::Volume out(out_dims);
  for (int z = 0; z < out_dims.nz; ++z) {
    for (int y = 0; y < out_dims.ny; ++y) {
      for (int x = 0; x < out_dims.nx; ++x) {
        out.at(x, y, z) = v.at(std::min(d.nx - 1, x * factor),
                               std::min(d.ny - 1, y * factor),
                               std::min(d.nz - 1, z * factor));
      }
    }
  }
  return out;
}

std::vector<std::uint8_t> encode_record(const ThumbnailRecord& r) {
  std::vector<std::uint8_t> out(thumbnail_record_bytes(r.width, r.height));
  std::memcpy(out.data() + 0, &r.timestep, 4);
  std::memcpy(out.data() + 4, &r.width, 4);
  std::memcpy(out.data() + 8, &r.height, 4);
  std::memcpy(out.data() + 12, &r.value_min, 4);
  std::memcpy(out.data() + 16, &r.value_max, 4);
  const auto pixels = r.image.to_bytes();
  std::memcpy(out.data() + kRecordHeaderBytes, pixels.data(), pixels.size());
  return out;
}

core::Result<ThumbnailRecord> decode_record(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kRecordHeaderBytes) {
    return core::data_loss("thumbnail record too short");
  }
  ThumbnailRecord r;
  std::memcpy(&r.timestep, bytes.data() + 0, 4);
  std::memcpy(&r.width, bytes.data() + 4, 4);
  std::memcpy(&r.height, bytes.data() + 8, 4);
  std::memcpy(&r.value_min, bytes.data() + 12, 4);
  std::memcpy(&r.value_max, bytes.data() + 16, 4);
  if (r.width <= 0 || r.height <= 0 ||
      bytes.size() < thumbnail_record_bytes(r.width, r.height)) {
    return core::data_loss("thumbnail record header corrupt");
  }
  std::vector<std::uint8_t> pixels(
      bytes.begin() + static_cast<std::ptrdiff_t>(kRecordHeaderBytes),
      bytes.begin() + static_cast<std::ptrdiff_t>(
                          thumbnail_record_bytes(r.width, r.height)));
  auto img = core::ImageRGBA::from_bytes(r.width, r.height, pixels);
  if (!img.is_ok()) return img.status();
  r.image = std::move(img).take();
  return r;
}

}  // namespace

std::string thumbnail_dataset_name(const std::string& dataset) {
  return dataset + ".thumbs";
}

std::size_t thumbnail_record_bytes(int width, int height) {
  return kRecordHeaderBytes +
         static_cast<std::size_t>(width) * static_cast<std::size_t>(height) * 16;
}

core::Status generate_thumbnails(Master& master,
                                 std::vector<BlockServer*> servers,
                                 std::vector<ServerAddress> addresses,
                                 const vol::DatasetDesc& desc,
                                 const render::TransferFunction& tf,
                                 const ThumbnailOptions& options) {
  if (servers.empty()) return core::invalid_argument("no servers");

  // Timestep 0 fixes the thumbnail geometry, and its record is the first
  // one stored.
  vol::Volume small = downsample(desc.generate(0), options.downsample);
  vol::Axis ua, va;
  render::image_axes_for(options.axis, ua, va);
  const float scale = std::min(
      1.0f, static_cast<float>(options.size) /
                static_cast<float>(std::max(small.dims().extent(ua),
                                            small.dims().extent(va))));
  render::RenderOptions ropts;
  ropts.resolution_scale = scale;

  vol::Brick brick;
  brick.dims = small.dims();
  auto img = render::render_brick_along_axis(small, brick, options.axis, tf,
                                             ropts);
  if (!img.is_ok()) return img.status();
  const std::size_t record_bytes =
      thumbnail_record_bytes(img.value().width(), img.value().height());

  DatasetLayout layout;
  layout.total_bytes = record_bytes * static_cast<std::uint64_t>(desc.timesteps);
  layout.block_bytes = static_cast<std::uint32_t>(record_bytes);
  layout.stripe_blocks = 1;
  layout.server_count = static_cast<std::uint32_t>(servers.size());
  const std::string name = thumbnail_dataset_name(desc.name);

  for (int t = 0; t < desc.timesteps; ++t) {
    if (t > 0) {
      small = downsample(desc.generate(t), options.downsample);
      img = render::render_brick_along_axis(small, brick, options.axis, tf,
                                            ropts);
      if (!img.is_ok()) return img.status();
    }

    ThumbnailRecord record;
    record.timestep = t;
    record.width = img.value().width();
    record.height = img.value().height();
    small.min_max(record.value_min, record.value_max);
    record.image = std::move(img).take();

    const std::uint64_t block = static_cast<std::uint64_t>(t);
    servers[layout.server_for_block(block)]->put_block(name, block,
                                                       encode_record(record));
  }
  return master.register_dataset(name, layout, std::move(addresses));
}

core::Result<ThumbnailRecord> fetch_thumbnail(DpssClient& client,
                                              const std::string& dataset,
                                              int timestep,
                                              const std::string& auth_token) {
  auto file = client.open(thumbnail_dataset_name(dataset), auth_token);
  if (!file.is_ok()) return file.status();
  const std::size_t record_bytes = file.value()->layout().block_bytes;
  std::vector<std::uint8_t> buf(record_bytes);
  auto n = file.value()->pread(buf.data(), buf.size(),
                               static_cast<std::uint64_t>(timestep) * record_bytes);
  if (!n.is_ok()) return n.status();
  if (n.value() != record_bytes) {
    return core::out_of_range("timestep beyond thumbnail index");
  }
  return decode_record(buf);
}

}  // namespace visapult::dpss
