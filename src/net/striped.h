// Striped sockets: one logical stream over N parallel transport streams.
//
// Section 3.4: viewer/back-end I/O is "implemented with a custom TCP-based
// protocol over striped sockets".  A payload is split into fixed-size
// stripes distributed round-robin across the member streams and pushed by
// one sender thread per stripe lane; the receiver runs one thread per lane
// and reassembles by (payload sequence, stripe index).  On a real WAN this
// is what lets a transfer outrun a single TCP window (the paper's
// parallel-streams-beat-iperf observation); over loopback it exercises the
// exact concurrency structure of the paper's implementation.
//
// Wire format, per lane per payload: a preamble
//   [u64 payload_seq][u64 total_len][u32 lane_stripe_count]
// followed by that many stripes of [u64 offset][u64 len][bytes].  Every
// lane carries a preamble for every payload (possibly with zero stripes)
// so back-to-back payloads stay framed on every lane.
#pragma once

#include <cstdint>
#include <vector>

#include "core/status.h"
#include "net/stream.h"

namespace visapult::net {

class StripedStream {
 public:
  // All lanes must be connected to the same peer's StripedStream, in the
  // same order.  stripe_bytes is the interleave granularity.
  StripedStream(std::vector<StreamPtr> lanes, std::size_t stripe_bytes = 256 * 1024);

  int lane_count() const { return static_cast<int>(lanes_.size()); }
  std::size_t stripe_bytes() const { return stripe_bytes_; }

  // Send one payload, striped across all lanes in parallel (one thread per
  // lane).  Payloads are sequenced; sends must not be issued concurrently
  // from multiple threads.
  core::Status send(const std::vector<std::uint8_t>& payload);

  // Receive the next payload (by sequence number).  Runs one reader thread
  // per lane, holding each stripe as it arrives and assembling the payload
  // once they tile it; detects truncation, sequence gaps, stripe overlap
  // and stripes past the claimed length.
  core::Result<std::vector<std::uint8_t>> recv();

  void close();

 private:
  std::vector<StreamPtr> lanes_;
  std::size_t stripe_bytes_;
  std::uint64_t send_seq_ = 0;
  std::uint64_t recv_seq_ = 0;
};

}  // namespace visapult::net
