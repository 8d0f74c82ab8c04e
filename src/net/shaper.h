// Token-bucket rate shaping + latency injection over any ByteStream.
//
// Wraps a transport so that real-transport integration tests and the
// dpss_tool example can emulate a WAN segment in *real* time (e.g. shape
// loopback down to a scaled OC-12 and add milliseconds of delay), without
// the virtual-time simulator.  Shaping applies on send; latency applies as a
// fixed sleep before the first byte of each send call.
#pragma once

#include <mutex>

#include "core/clock.h"
#include "net/stream.h"

namespace visapult::net {

struct ShaperConfig {
  double rate_bytes_per_sec = 0.0;  // 0 = unshaped
  double latency_sec = 0.0;         // one-way injected delay
  std::size_t burst_bytes = 64 * 1024;
};

class ShapedStream final : public ByteStream {
 public:
  ShapedStream(StreamPtr inner, ShaperConfig config,
               core::Clock& clock = core::global_real_clock());

  core::Status send_all(const std::uint8_t* data, std::size_t len) override;
  core::Status recv_all(std::uint8_t* data, std::size_t len) override;
  void close() override;

 private:
  // Takes `bytes` tokens and sleeps until the bucket is out of debt.
  // Tokens refill at the rate up to burst_bytes and go negative while
  // senders sleep out what they took.
  void throttle(std::size_t bytes);

  StreamPtr inner_;
  ShaperConfig config_;
  core::Clock& clock_;
  std::mutex mu_;
  double tokens_;
  core::TimePoint last_refill_;
};

}  // namespace visapult::net
