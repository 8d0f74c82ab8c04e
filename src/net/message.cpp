#include "net/message.h"

#include <algorithm>
#include <cstdint>

namespace visapult::net {

// std::endian is C++20; under C++17 probe the compiler macro instead.
#if defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__)
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "wire format assumes a little-endian host (x86-64/aarch64)");
#elif defined(_MSC_VER)
// MSVC does not define __BYTE_ORDER__; every platform it targets
// (x86, x64, ARM64 Windows) is little-endian.
#else
#error "cannot verify host endianness; the wire format requires little-endian"
#endif

core::Status send_message(ByteStream& stream, const Message& msg) {
  std::uint8_t header[kFrameHeaderBytes];
  std::uint32_t magic = kMessageMagic;
  std::uint64_t len = msg.payload.size();
  std::memcpy(header + 0, &magic, 4);
  std::memcpy(header + 4, &msg.type, 4);
  std::memcpy(header + 8, &len, 8);
  std::memcpy(header + 16, &msg.trace_id, 8);
  std::memcpy(header + 24, &msg.span_id, 8);
  if (auto st = stream.send_all(header, sizeof header); !st.is_ok()) return st;
  return stream.send_all(msg.payload.data(), msg.payload.size());
}

core::Result<Message> recv_message(ByteStream& stream, std::size_t max_payload) {
  std::uint8_t header[kFrameHeaderBytes];
  if (auto st = stream.recv_all(header, sizeof header); !st.is_ok()) return st;
  std::uint32_t magic, type;
  std::uint64_t len;
  std::memcpy(&magic, header + 0, 4);
  std::memcpy(&type, header + 4, 4);
  std::memcpy(&len, header + 8, 8);
  if (magic != kMessageMagic) {
    return core::data_loss("bad message magic (stream desynchronised)");
  }
  if (len > max_payload) {
    return core::data_loss("message payload exceeds limit: " + std::to_string(len));
  }
  Message msg;
  msg.type = type;
  std::memcpy(&msg.trace_id, header + 16, 8);
  std::memcpy(&msg.span_id, header + 24, 8);
  // The buffer grows as bytes arrive instead of trusting the header: a
  // peer that claims gigabytes must send them before they are held.  The
  // first chunk (up to 1 MiB) takes a 64 KiB block or a 256 KiB texture in
  // one allocation; after it the held size doubles.
  constexpr std::uint64_t kFirstChunk = 1 << 20;
  std::uint64_t have = 0;
  while (have < len) {
    const std::uint64_t next = std::min(len, std::max(kFirstChunk, 2 * have));
    msg.payload.resize(next);
    if (auto st = stream.recv_all(msg.payload.data() + have, next - have);
        !st.is_ok()) {
      return st;
    }
    have = next;
  }
  return msg;
}

void Writer::u32(std::uint32_t v) { raw(&v, 4); }
void Writer::u64(std::uint64_t v) { raw(&v, 8); }
void Writer::f32(float v) { raw(&v, 4); }
void Writer::f64(double v) { raw(&v, 8); }

void Writer::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  raw(s.data(), s.size());
}

void Writer::bytes(const std::vector<std::uint8_t>& b) {
  u64(b.size());
  raw(b.data(), b.size());
}

void Writer::raw(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + len);
}

core::Status Reader::need(std::size_t n) {
  if (buf_.size() - pos_ < n) {
    return core::data_loss("truncated payload: wanted " + std::to_string(n) +
                           " bytes, have " + std::to_string(buf_.size() - pos_));
  }
  return core::Status::ok();
}

core::Result<std::uint8_t> Reader::u8() {
  if (auto st = need(1); !st.is_ok()) return st;
  return buf_[pos_++];
}

core::Result<std::uint32_t> Reader::u32() {
  if (auto st = need(4); !st.is_ok()) return st;
  std::uint32_t v;
  std::memcpy(&v, buf_.data() + pos_, 4);
  pos_ += 4;
  return v;
}

core::Result<std::uint64_t> Reader::u64() {
  if (auto st = need(8); !st.is_ok()) return st;
  std::uint64_t v;
  std::memcpy(&v, buf_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

core::Result<std::int64_t> Reader::i64() {
  auto r = u64();
  if (!r.is_ok()) return r.status();
  return static_cast<std::int64_t>(r.value());
}

core::Result<float> Reader::f32() {
  if (auto st = need(4); !st.is_ok()) return st;
  float v;
  std::memcpy(&v, buf_.data() + pos_, 4);
  pos_ += 4;
  return v;
}

core::Result<double> Reader::f64() {
  if (auto st = need(8); !st.is_ok()) return st;
  double v;
  std::memcpy(&v, buf_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

core::Result<std::string> Reader::str() {
  auto len = u32();
  if (!len.is_ok()) return len.status();
  if (auto st = need(len.value()); !st.is_ok()) return st;
  std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), len.value());
  pos_ += len.value();
  return s;
}

core::Result<std::vector<std::uint8_t>> Reader::bytes() {
  auto len = u64();
  if (!len.is_ok()) return len.status();
  if (auto st = need(len.value()); !st.is_ok()) return st;
  std::vector<std::uint8_t> b(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                              buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + len.value()));
  pos_ += len.value();
  return b;
}

}  // namespace visapult::net
