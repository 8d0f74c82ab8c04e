// Byte-stream transport abstraction.
//
// The Visapult components speak a "custom TCP-based protocol over striped
// sockets" (section 3.4).  Everything above this layer -- message framing,
// striping, the DPSS wire protocol, the backend/viewer payload protocol --
// is written against ByteStream so it runs identically over:
//   * real loopback TCP sockets (integration tests, the dpss_tool example),
//   * in-memory pipes (fast deterministic unit tests),
// and can be rate-shaped to emulate a WAN in real time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/status.h"

namespace visapult::net {

// One frame of a batch send: its header, then its payload.
struct Frame {
  const std::uint8_t* header = nullptr;
  std::size_t header_len = 0;
  const std::uint8_t* payload = nullptr;
  std::size_t payload_len = 0;
};

class ByteStream {
 public:
  virtual ~ByteStream() = default;

  // Blocking write of the whole buffer.  kUnavailable if the peer is gone.
  virtual core::Status send_all(const std::uint8_t* data, std::size_t len) = 0;

  // Blocking write of one frame, `header` then `payload`.  The default is
  // two send_all() calls; a transport that can gather both into one write
  // (TcpStream) overrides it.
  virtual core::Status send_frame(const std::uint8_t* header,
                                  std::size_t header_len,
                                  const std::uint8_t* payload,
                                  std::size_t payload_len) {
    if (auto st = send_all(header, header_len); !st.is_ok()) return st;
    return send_all(payload, payload_len);
  }

  // Blocking write of `count` frames, in order: a client's pipelined
  // batch of requests.  Each run of coalesced frames (payload up to
  // kCoalescePayloadBytes: requests that carry no block) is copied into
  // one buffer sent with one send_all(); a larger frame (a block) goes by
  // send_frame(), uncopied.  TcpStream overrides it only to count frames.
  static constexpr std::size_t kCoalescePayloadBytes = 4096;
  static bool coalesced(const Frame& f) {
    return f.payload_len <= kCoalescePayloadBytes;
  }
  virtual core::Status send_frames(const Frame* frames, std::size_t count);

  // Blocking read of exactly `len` bytes.  kUnavailable on orderly peer
  // close before any byte, kDataLoss on close mid-message.
  virtual core::Status recv_all(std::uint8_t* data, std::size_t len) = 0;

  // Close the stream; subsequent sends on the peer fail with kUnavailable.
  virtual void close() = 0;

  // Optional deadline for each subsequent recv_all() call: if the full
  // read has not completed within `seconds`, it fails with
  // kDeadlineExceeded instead of blocking forever on a stalled peer.
  // 0 restores the unbounded default.  Transports that cannot enforce a
  // deadline (in-memory pipes, whose tests are deterministic and never
  // stall) accept and ignore it.
  virtual core::Status set_recv_timeout(double seconds) {
    (void)seconds;
    return core::Status::ok();
  }

  core::Status send_bytes(const std::vector<std::uint8_t>& b) {
    return send_all(b.data(), b.size());
  }
  core::Result<std::vector<std::uint8_t>> recv_bytes(std::size_t len) {
    std::vector<std::uint8_t> buf(len);
    auto st = recv_all(buf.data(), len);
    if (!st.is_ok()) return st;
    return buf;
  }
};

using StreamPtr = std::shared_ptr<ByteStream>;

// In-memory full-duplex pipe: make_pipe() returns the two endpoints.
// Blocking semantics match sockets; close() wakes blocked readers.
std::pair<StreamPtr, StreamPtr> make_pipe(std::size_t capacity_bytes = 1 << 20);

}  // namespace visapult::net
