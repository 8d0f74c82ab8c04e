#include "dpss/compression.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

namespace visapult::dpss {

namespace {

// Byte-plane split: all byte 0s, then all byte 1s, ... of `width`-byte
// little-endian values.  Smooth float fields turn the high-order planes
// into long runs.
std::vector<std::uint8_t> to_planes(const std::uint8_t* data, std::size_t count,
                                    int width) {
  std::vector<std::uint8_t> out(count * static_cast<std::size_t>(width));
  std::size_t at = 0;
  for (int plane = width - 1; plane >= 0; --plane) {
    for (std::size_t i = 0; i < count; ++i) {
      out[at++] = data[i * static_cast<std::size_t>(width) +
                       static_cast<std::size_t>(plane)];
    }
  }
  return out;
}

void from_planes(const std::vector<std::uint8_t>& planes, std::size_t count,
                 int width, std::uint8_t* out) {
  std::size_t at = 0;
  for (int plane = width - 1; plane >= 0; --plane) {
    for (std::size_t i = 0; i < count; ++i) {
      out[i * static_cast<std::size_t>(width) + static_cast<std::size_t>(plane)] =
          planes[at++];
    }
  }
}

// RLE: a stream of [u8 count][u8 value] pairs (count 1..255).
std::vector<std::uint8_t> rle_encode(const std::uint8_t* in, std::size_t len) {
  std::vector<std::uint8_t> out;
  out.reserve(len / 2);
  std::size_t i = 0;
  while (i < len) {
    const std::uint8_t value = in[i];
    std::size_t run = 1;
    while (i + run < len && in[i + run] == value && run < 255) ++run;
    out.push_back(static_cast<std::uint8_t>(run));
    out.push_back(value);
    i += run;
  }
  return out;
}

core::Result<std::vector<std::uint8_t>> rle_decode(
    const std::uint8_t* in, std::size_t len, std::size_t expected) {
  std::vector<std::uint8_t> out;
  out.reserve(expected);
  for (std::size_t i = 0; i + 1 < len; i += 2) {
    const std::size_t run = in[i];
    if (run == 0) return core::data_loss("RLE run of zero");
    out.insert(out.end(), run, in[i + 1]);
  }
  if (out.size() != expected) {
    return core::data_loss("RLE decode size mismatch: got " +
                           std::to_string(out.size()) + ", expected " +
                           std::to_string(expected));
  }
  return out;
}

// Plane-wise best-of encoding: each byte plane is stored either RLE'd or
// as a raw literal, whichever is smaller -- exponent/sign planes of smooth
// fields compress hugely, mantissa-noise planes pass through at +9 bytes.
// Format per plane: [u8 mode(0=raw,1=rle)][u64 stored_len][bytes].
std::vector<std::uint8_t> encode_planes(const std::vector<std::uint8_t>& planes,
                                        std::size_t plane_len, int plane_count) {
  std::vector<std::uint8_t> out;
  for (int p = 0; p < plane_count; ++p) {
    const std::uint8_t* plane = planes.data() + static_cast<std::size_t>(p) * plane_len;
    auto rle = rle_encode(plane, plane_len);
    const bool use_rle = rle.size() < plane_len;
    out.push_back(use_rle ? 1 : 0);
    const std::uint64_t stored = use_rle ? rle.size() : plane_len;
    const std::size_t at = out.size();
    out.resize(at + 8);
    std::memcpy(out.data() + at, &stored, 8);
    if (use_rle) {
      out.insert(out.end(), rle.begin(), rle.end());
    } else {
      out.insert(out.end(), plane, plane + plane_len);
    }
  }
  return out;
}

core::Result<std::vector<std::uint8_t>> decode_planes(
    const std::uint8_t* in, std::size_t len, std::size_t plane_len,
    int plane_count) {
  std::vector<std::uint8_t> planes;
  planes.reserve(plane_len * static_cast<std::size_t>(plane_count));
  std::size_t at = 0;
  for (int p = 0; p < plane_count; ++p) {
    if (at + 9 > len) return core::data_loss("truncated plane header");
    const std::uint8_t mode = in[at];
    std::uint64_t stored;
    std::memcpy(&stored, in + at + 1, 8);
    at += 9;
    if (at + stored > len) return core::data_loss("truncated plane payload");
    if (mode == 0) {
      if (stored != plane_len) return core::data_loss("raw plane length mismatch");
      planes.insert(planes.end(), in + at, in + at + stored);
    } else if (mode == 1) {
      auto decoded = rle_decode(in + at, stored, plane_len);
      if (!decoded.is_ok()) return decoded.status();
      planes.insert(planes.end(), decoded.value().begin(), decoded.value().end());
    } else {
      return core::data_loss("unknown plane mode");
    }
    at += stored;
  }
  if (at != len) return core::data_loss("trailing bytes after planes");
  return planes;
}

struct Header {
  std::uint8_t codec;
  std::uint8_t quant_bits;
  std::uint64_t raw_len;
  float lo;
  float hi;
  std::uint64_t comp_len;
};
constexpr std::size_t kHeaderBytes = 1 + 1 + 8 + 4 + 4 + 8;

void put_header(std::vector<std::uint8_t>& out, const Header& h) {
  out.resize(kHeaderBytes);
  out[0] = h.codec;
  out[1] = h.quant_bits;
  std::memcpy(out.data() + 2, &h.raw_len, 8);
  std::memcpy(out.data() + 10, &h.lo, 4);
  std::memcpy(out.data() + 14, &h.hi, 4);
  std::memcpy(out.data() + 18, &h.comp_len, 8);
}

core::Result<Header> get_header(const std::vector<std::uint8_t>& wire) {
  if (wire.size() < kHeaderBytes) return core::data_loss("compressed block too short");
  Header h;
  h.codec = wire[0];
  h.quant_bits = wire[1];
  std::memcpy(&h.raw_len, wire.data() + 2, 8);
  std::memcpy(&h.lo, wire.data() + 10, 4);
  std::memcpy(&h.hi, wire.data() + 14, 4);
  std::memcpy(&h.comp_len, wire.data() + 18, 8);
  if (wire.size() != kHeaderBytes + h.comp_len) {
    return core::data_loss("compressed block length mismatch");
  }
  return h;
}

}  // namespace

core::Result<std::vector<std::uint8_t>> compress_block(
    const std::vector<std::uint8_t>& raw, const CompressionConfig& config) {
  Header h{};
  h.codec = static_cast<std::uint8_t>(config.codec);
  h.quant_bits = static_cast<std::uint8_t>(config.quant_bits);
  h.raw_len = raw.size();

  std::vector<std::uint8_t> out;
  switch (config.codec) {
    case Codec::kNone: {
      Header h2 = h;
      h2.comp_len = raw.size();
      put_header(out, h2);
      out.insert(out.end(), raw.begin(), raw.end());
      return out;
    }
    case Codec::kLossless: {
      if (raw.size() % 4 != 0) {
        return core::invalid_argument("lossless codec needs float32 data");
      }
      const auto planes = to_planes(raw.data(), raw.size() / 4, 4);
      auto encoded = encode_planes(planes, raw.size() / 4, 4);
      Header h2 = h;
      h2.comp_len = encoded.size();
      put_header(out, h2);
      out.insert(out.end(), encoded.begin(), encoded.end());
      return out;
    }
    case Codec::kLossyQuant: {
      if (raw.size() % 4 != 0) {
        return core::invalid_argument("lossy codec needs float32 data");
      }
      if (config.quant_bits != 8 && config.quant_bits != 16) {
        return core::invalid_argument("quant_bits must be 8 or 16");
      }
      const std::size_t count = raw.size() / 4;
      const auto* values = reinterpret_cast<const float*>(raw.data());
      float lo = std::numeric_limits<float>::infinity();
      float hi = -std::numeric_limits<float>::infinity();
      for (std::size_t i = 0; i < count; ++i) {
        lo = std::min(lo, values[i]);
        hi = std::max(hi, values[i]);
      }
      if (count == 0) lo = hi = 0.0f;
      const double span = hi > lo ? hi - lo : 1.0;
      const int width = config.quant_bits / 8;
      const double levels = (1u << config.quant_bits) - 1;

      std::vector<std::uint8_t> quantized(count * static_cast<std::size_t>(width));
      for (std::size_t i = 0; i < count; ++i) {
        const double norm = (values[i] - lo) / span;
        const std::uint32_t q =
            static_cast<std::uint32_t>(norm * levels + 0.5);
        if (width == 1) {
          quantized[i] = static_cast<std::uint8_t>(q);
        } else {
          const std::uint16_t q16 = static_cast<std::uint16_t>(q);
          std::memcpy(quantized.data() + i * 2, &q16, 2);
        }
      }
      const auto planes = to_planes(quantized.data(), count, width);
      auto encoded = encode_planes(planes, count, width);
      Header h2 = h;
      h2.lo = lo;
      h2.hi = hi;
      h2.comp_len = encoded.size();
      put_header(out, h2);
      out.insert(out.end(), encoded.begin(), encoded.end());
      return out;
    }
  }
  return core::invalid_argument("unknown codec");
}

core::Result<std::vector<std::uint8_t>> decompress_block(
    const std::vector<std::uint8_t>& wire, std::uint64_t max_raw_bytes) {
  auto header = get_header(wire);
  if (!header.is_ok()) return header.status();
  const Header h = header.value();
  // Every buffer below is sized from raw_len: check it before any is.
  if (h.raw_len > max_raw_bytes) {
    return core::data_loss("compressed block claims " +
                           std::to_string(h.raw_len) + " raw bytes, over " +
                           std::to_string(max_raw_bytes));
  }
  const std::uint8_t* payload = wire.data() + kHeaderBytes;

  switch (static_cast<Codec>(h.codec)) {
    case Codec::kNone: {
      if (h.comp_len != h.raw_len) {
        return core::data_loss("uncompressed block length mismatch");
      }
      return std::vector<std::uint8_t>(payload, payload + h.comp_len);
    }
    case Codec::kLossless: {
      auto planes = decode_planes(payload, h.comp_len, h.raw_len / 4, 4);
      if (!planes.is_ok()) return planes.status();
      std::vector<std::uint8_t> raw(h.raw_len);
      from_planes(planes.value(), h.raw_len / 4, 4, raw.data());
      return raw;
    }
    case Codec::kLossyQuant: {
      const int width = h.quant_bits / 8;
      if (width != 1 && width != 2) return core::data_loss("bad quant width");
      const std::size_t count = h.raw_len / 4;
      auto planes = decode_planes(payload, h.comp_len, count, width);
      if (!planes.is_ok()) return planes.status();
      std::vector<std::uint8_t> quantized(count * static_cast<std::size_t>(width));
      from_planes(planes.value(), count, width, quantized.data());

      std::vector<std::uint8_t> raw(h.raw_len);
      auto* values = reinterpret_cast<float*>(raw.data());
      const double span = h.hi > h.lo ? h.hi - h.lo : 1.0;
      const double levels = (1u << h.quant_bits) - 1;
      for (std::size_t i = 0; i < count; ++i) {
        std::uint32_t q;
        if (width == 1) {
          q = quantized[i];
        } else {
          std::uint16_t q16;
          std::memcpy(&q16, quantized.data() + i * 2, 2);
          q = q16;
        }
        values[i] = static_cast<float>(h.lo + span * (q / levels));
      }
      return raw;
    }
  }
  return core::data_loss("unknown codec in compressed block");
}

double compression_ratio(std::size_t raw_bytes, std::size_t wire_bytes) {
  return wire_bytes > 0
             ? static_cast<double>(raw_bytes) / static_cast<double>(wire_bytes)
             : 0.0;
}

double quantization_error_bound(float lo, float hi, int bits) {
  const double span = hi > lo ? hi - lo : 0.0;
  return span / ((1u << bits) - 1);
}

}  // namespace visapult::dpss
