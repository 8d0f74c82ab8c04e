// Message framing and portable serialization.
//
// Every Visapult protocol message -- DPSS block requests, viewer light/heavy
// payloads, NetLogger events shipped to a collector -- is framed as
//
//   [magic u32][type u32][length u64][trace u64][span u64][payload ...]
//
// in little-endian byte order.  The trace/span pair is the request-tracing
// context (obs/trace.h): zero means untraced, anything else names the
// end-to-end request and this hop of it, so every component on the path can
// stamp lifeline events carrying the same trace id.  Replies echo the
// request's ids.  Writer/Reader provide checked field-level encoding so a
// truncated or corrupt payload surfaces as kDataLoss rather than undefined
// behaviour.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "net/stream.h"

namespace visapult::net {

inline constexpr std::uint32_t kMessageMagic = 0x56535031;  // "VSP1"

// Bytes on the wire before the payload.
inline constexpr std::size_t kFrameHeaderBytes = 32;

struct Message {
  std::uint32_t type = 0;
  // Request-tracing context, carried in the frame header (0 = untraced).
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::vector<std::uint8_t> payload;
};

// A request handler's answer: the reply message plus how long after the
// handler returns it may leave (a block still arriving from a modelled
// disk).  Converts implicitly from a Message, which leaves at once.
struct Reply {
  Reply(Message m, double delay = 0.0)  // NOLINT(google-explicit-constructor)
      : message(std::move(m)), delay_seconds(delay) {}

  Message message;
  double delay_seconds = 0.0;
};

// Blocking send/recv of a framed message over any ByteStream.  A send is
// one ByteStream::send_frame call.
core::Status send_message(ByteStream& stream, const Message& msg);
// Every message of a batch, in order, with one ByteStream::send_frames
// call.
core::Status send_messages(ByteStream& stream,
                           const std::vector<Message>& msgs);
core::Result<Message> recv_message(ByteStream& stream,
                                   std::size_t max_payload = 1ull << 32);

// Receive exactly `len` bytes into `*out`, growing it as bytes arrive
// instead of trusting `len`: a peer that claims gigabytes must send them
// before they are held.
core::Status recv_growing(ByteStream& stream, std::uint64_t len,
                          std::vector<std::uint8_t>* out);

// ---- field-level serialization ---------------------------------------------

// Bytes inside a buffer someone else owns, e.g. a field decoded in place
// from a received frame: valid only while that buffer lives, unchanged.
class ByteView {
 public:
  ByteView() = default;
  ByteView(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

class Writer {
 public:
  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f32(float v);
  void f64(double v);
  void str(const std::string& s);                   // u32 length + bytes
  void bytes(const std::vector<std::uint8_t>& b);   // u64 length + bytes
  void raw(const void* data, std::size_t len);

  std::vector<std::uint8_t> take() { return std::move(buf_); }
  const std::vector<std::uint8_t>& data() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  core::Result<std::uint8_t> u8();
  core::Result<std::uint32_t> u32();
  core::Result<std::uint64_t> u64();
  core::Result<std::int64_t> i64();
  core::Result<float> f32();
  core::Result<double> f64();
  core::Result<std::string> str();
  core::Result<std::vector<std::uint8_t>> bytes();
  // What bytes() reads, left in place: a view into the reader's buffer.
  core::Result<ByteView> bytes_view();

  std::size_t remaining() const { return buf_.size() - pos_; }
  bool exhausted() const { return pos_ == buf_.size(); }

 private:
  core::Status need(std::size_t n);

  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

}  // namespace visapult::net
