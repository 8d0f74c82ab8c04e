#include "net/shaper.h"

#include <algorithm>

namespace visapult::net {

ShapedStream::ShapedStream(StreamPtr inner, ShaperConfig config,
                           core::Clock& clock)
    : inner_(std::move(inner)),
      config_(config),
      clock_(clock),
      tokens_(static_cast<double>(config.burst_bytes)),
      last_refill_(clock.now()) {}

void ShapedStream::throttle(std::size_t bytes) {
  if (config_.rate_bytes_per_sec <= 0.0) return;
  double debt = 0.0;
  {
    std::lock_guard lk(mu_);
    const core::TimePoint now = clock_.now();
    tokens_ = std::min(static_cast<double>(config_.burst_bytes),
                       tokens_ + (now - last_refill_) * config_.rate_bytes_per_sec);
    last_refill_ = now;
    // Take the tokens at once and sleep out the debt.  A sender woken late
    // finds the extra time in the bucket on its next send; waiting for the
    // bucket to refill instead would lose every late wakeup.
    tokens_ -= static_cast<double>(bytes);
    debt = -tokens_;
  }
  if (debt > 0) clock_.sleep_for(debt / config_.rate_bytes_per_sec);
}

core::Status ShapedStream::send_all(const std::uint8_t* data, std::size_t len) {
  if (config_.latency_sec > 0.0) clock_.sleep_for(config_.latency_sec);
  // Shape in bucket-sized chunks so a huge send spreads smoothly.
  std::size_t sent = 0;
  while (sent < len) {
    const std::size_t n = std::min(len - sent, config_.burst_bytes);
    throttle(n);
    if (auto st = inner_->send_all(data + sent, n); !st.is_ok()) return st;
    sent += n;
  }
  if (len == 0) return inner_->send_all(data, 0);
  return core::Status::ok();
}

core::Status ShapedStream::recv_all(std::uint8_t* data, std::size_t len) {
  return inner_->recv_all(data, len);
}

void ShapedStream::close() { inner_->close(); }

}  // namespace visapult::net
