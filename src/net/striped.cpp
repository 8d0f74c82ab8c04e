#include "net/striped.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <thread>

#include "net/message.h"

namespace visapult::net {

// Per-lane wire format, per payload:
//   preamble: [u64 seq][u64 total_len][u32 lane_stripes]
//   stripes : lane_stripes x ([u64 offset][u64 len][bytes])
// Every lane carries a preamble for every payload (possibly with zero
// stripes), so lane readers never have to guess whether their lane
// participates -- the property that keeps back-to-back payloads framed.

namespace {
constexpr std::size_t kPreambleBytes = 8 + 8 + 4;
constexpr std::size_t kStripeHeaderBytes = 8 + 8;
}  // namespace

StripedStream::StripedStream(std::vector<StreamPtr> lanes,
                             std::size_t stripe_bytes)
    : lanes_(std::move(lanes)),
      stripe_bytes_(stripe_bytes == 0 ? 1 : stripe_bytes) {}

core::Status StripedStream::send(const std::vector<std::uint8_t>& payload) {
  const std::uint64_t seq = send_seq_++;
  const std::uint64_t n = payload.size();
  const std::uint64_t stripe_count =
      n == 0 ? 0 : (n + stripe_bytes_ - 1) / stripe_bytes_;

  std::vector<core::Status> lane_status(lanes_.size());
  std::vector<std::thread> threads;
  threads.reserve(lanes_.size());
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    threads.emplace_back([&, lane] {
      // Stripes {lane, lane + L, lane + 2L, ...}.
      std::uint32_t mine = 0;
      for (std::uint64_t s = lane; s < stripe_count; s += lanes_.size()) ++mine;

      std::uint8_t preamble[kPreambleBytes];
      std::memcpy(preamble + 0, &seq, 8);
      std::memcpy(preamble + 8, &n, 8);
      std::memcpy(preamble + 16, &mine, 4);
      auto st = lanes_[lane]->send_all(preamble, sizeof preamble);
      if (!st.is_ok()) {
        lane_status[lane] = st;
        return;
      }
      for (std::uint64_t s = lane; s < stripe_count; s += lanes_.size()) {
        const std::uint64_t offset = s * stripe_bytes_;
        const std::uint64_t len = std::min<std::uint64_t>(stripe_bytes_, n - offset);
        std::vector<std::uint8_t> frame(kStripeHeaderBytes + len);
        std::memcpy(frame.data() + 0, &offset, 8);
        std::memcpy(frame.data() + 8, &len, 8);
        std::memcpy(frame.data() + kStripeHeaderBytes, payload.data() + offset, len);
        st = lanes_[lane]->send_all(frame.data(), frame.size());
        if (!st.is_ok()) {
          lane_status[lane] = st;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& st : lane_status) {
    if (!st.is_ok()) return st;
  }
  return core::Status::ok();
}

core::Result<std::vector<std::uint8_t>> StripedStream::recv() {
  const std::uint64_t want_seq = recv_seq_++;

  // Stripes are held as they arrive, each read in bounded chunks
  // (recv_growing), and the payload is assembled only once they add up to
  // the preamble's length: a lane claiming terabytes has to send them
  // before anything near that size is held.
  struct Stripe {
    std::uint64_t offset = 0;
    std::vector<std::uint8_t> bytes;
  };
  std::mutex mu;
  std::vector<Stripe> stripes;
  std::uint64_t total_len = 0;
  std::uint64_t received = 0;
  bool sized = false;
  core::Status failure = core::Status::ok();
  auto fail = [&](core::Status st) {
    std::lock_guard lk(mu);
    if (failure.is_ok()) failure = std::move(st);
  };

  std::vector<std::thread> threads;
  threads.reserve(lanes_.size());
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    threads.emplace_back([&, lane] {
      std::uint8_t preamble[kPreambleBytes];
      auto st = lanes_[lane]->recv_all(preamble, sizeof preamble);
      if (!st.is_ok()) return fail(st);
      std::uint64_t seq, len;
      std::uint32_t mine;
      std::memcpy(&seq, preamble + 0, 8);
      std::memcpy(&len, preamble + 8, 8);
      std::memcpy(&mine, preamble + 16, 4);
      {
        std::lock_guard lk(mu);
        if (seq != want_seq) {
          if (failure.is_ok()) {
            failure = core::data_loss(
                "stripe sequence mismatch: expected " +
                std::to_string(want_seq) + ", got " + std::to_string(seq));
          }
          return;
        }
        if (!sized) {
          total_len = len;
          sized = true;
        } else if (len != total_len) {
          if (failure.is_ok()) {
            failure = core::data_loss("lanes disagree about payload length");
          }
          return;
        }
      }
      for (std::uint32_t i = 0; i < mine; ++i) {
        std::uint8_t header[kStripeHeaderBytes];
        st = lanes_[lane]->recv_all(header, sizeof header);
        if (!st.is_ok()) return fail(st);
        Stripe stripe;
        std::uint64_t slen;
        std::memcpy(&stripe.offset, header + 0, 8);
        std::memcpy(&slen, header + 8, 8);
        if (slen > len || stripe.offset > len - slen) {
          return fail(core::data_loss("stripe exceeds payload bounds"));
        }
        st = recv_growing(*lanes_[lane], slen, &stripe.bytes);
        if (!st.is_ok()) return fail(st);
        std::lock_guard lk(mu);
        received += slen;
        if (received > total_len) {
          if (failure.is_ok()) {
            failure = core::data_loss("stripes run past the payload");
          }
          return;
        }
        stripes.push_back(std::move(stripe));
      }
    });
  }
  for (auto& t : threads) t.join();
  if (!failure.is_ok()) return failure;
  if (!sized) return core::data_loss("no preambles received");
  if (received != total_len) {
    return core::data_loss("striped payload incomplete: got " +
                           std::to_string(received) + " of " +
                           std::to_string(total_len) + " bytes");
  }
  // The stripes must tile [0, total_len) exactly: no gap, no overlap.
  std::sort(stripes.begin(), stripes.end(),
            [](const Stripe& a, const Stripe& b) { return a.offset < b.offset; });
  std::uint64_t at = 0;
  for (const Stripe& stripe : stripes) {
    if (stripe.offset != at) {
      return core::data_loss("striped payload has a gap or an overlap");
    }
    at += stripe.bytes.size();
  }
  if (stripes.size() == 1) return std::move(stripes.front().bytes);
  std::vector<std::uint8_t> payload(total_len);
  for (const Stripe& stripe : stripes) {
    if (stripe.bytes.empty()) continue;
    std::memcpy(payload.data() + stripe.offset, stripe.bytes.data(),
                stripe.bytes.size());
  }
  return payload;
}

void StripedStream::close() {
  for (auto& lane : lanes_) lane->close();
}

}  // namespace visapult::net
