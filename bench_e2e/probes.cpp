// Speed-of-light probes: what each layer reaches in isolation, in the same
// process and on the same inputs sizes as the workloads.  Each probe reports
// the median of several timed batches.
#include <algorithm>
#include <cstring>
#include <functional>
#include <thread>

#include "cache/block_cache.h"
#include "codec/reed_solomon.h"
#include "dpss/protocol.h"
#include "e2e.h"
#include "net/tcp.h"
#include "render/raycast.h"
#include "render/transfer.h"
#include "vol/generate.h"

namespace e2e {

namespace v = visapult;

namespace {

constexpr std::size_t kMiB = 1u << 20;
constexpr std::size_t kBlock = 64u << 10;

// Median seconds per call of `fn` over `batches` batches of `reps` calls.
double median_seconds(int batches, int reps, const std::function<void()>& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const double t0 = now_s();
    for (int r = 0; r < reps; ++r) fn();
    per_call.push_back((now_s() - t0) / reps);
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

std::vector<std::uint8_t> filled(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 131 + salt);
  }
  return out;
}

double tcp_gbps() {
  v::net::TcpListener listener;
  if (!listener.listen(0).is_ok()) return 0.0;
  constexpr int kMessages = 32, kBatches = 5;
  std::thread receiver([&] {
    auto conn = listener.accept();
    if (!conn.is_ok()) return;
    std::vector<std::uint8_t> buf(kMiB);
    for (int i = 0; i < kMessages * kBatches; ++i) {
      if (!conn.value()->recv_all(buf.data(), buf.size()).is_ok()) return;
    }
    std::uint8_t ack = 1;
    (void)conn.value()->send_all(&ack, 1);
  });
  double gbps = 0.0;
  auto stream = v::net::TcpStream::connect("127.0.0.1", listener.port());
  if (stream.is_ok()) {
    const auto msg = filled(kMiB, 1);
    const double per_msg = median_seconds(kBatches, kMessages, [&] {
      (void)stream.value()->send_all(msg.data(), msg.size());
    });
    std::uint8_t ack = 0;
    if (stream.value()->recv_all(&ack, 1).is_ok()) gbps = kMiB / per_msg / 1e9;
    stream.value()->close();
  }
  listener.close();
  receiver.join();
  return gbps;
}

}  // namespace

Ceilings measure_ceilings() {
  Ceilings c;

  {
    const auto src = filled(kMiB, 2);
    std::vector<std::uint8_t> dst(kMiB);
    const double s = median_seconds(7, 64, [&] {
      std::memcpy(dst.data(), src.data(), kMiB);
      asm volatile("" : : "r"(dst.data()) : "memory");
    });
    c.memcpy_gbps = kMiB / s / 1e9;
  }

  c.tcp_gbps = tcp_gbps();

  {
    v::cache::BlockCache cache;
    const v::cache::BlockKey key{"probe", 7, 0};
    cache.insert(key, filled(kBlock, 3));
    c.cache_hit_us =
        median_seconds(7, 2000, [&] { (void)cache.lookup_pinned(key); }) * 1e6;
  }

  {
    const v::codec::ReedSolomon rs(3, 1);
    std::vector<std::vector<std::uint8_t>> data = {
        filled(kBlock, 4), filled(kBlock, 5), filled(kBlock, 6)};
    std::vector<const std::uint8_t*> ptrs = {data[0].data(), data[1].data(),
                                             data[2].data()};
    std::vector<std::vector<std::uint8_t>> parity;
    const double enc =
        median_seconds(7, 64, [&] { rs.encode(ptrs, kBlock, &parity); });
    c.rs_encode_gbps = 3.0 * kBlock / enc / 1e9;

    std::vector<std::vector<std::uint8_t>> shards = {data[0], data[1], data[2],
                                                     parity.at(0)};
    const std::vector<char> present = {1, 0, 1, 1};
    const double rec = median_seconds(7, 64, [&] {
      (void)rs.reconstruct(shards, present, kBlock, /*rebuild_parity=*/false);
    });
    c.rs_reconstruct_gbps = 3.0 * kBlock / rec / 1e9;
  }

  {
    v::dpss::BlockReadReply reply;
    reply.block = 9;
    reply.data = filled(kBlock, 7);
    const double s = median_seconds(7, 256, [&] {
      auto decoded =
          v::dpss::decode_block_read_reply(v::dpss::encode_block_read_reply(reply));
      asm volatile("" : : "r"(&decoded) : "memory");
    });
    c.reply_codec_gbps = kBlock / s / 1e9;
  }

  {
    const v::vol::Dims dims{128, 128, 128};
    const v::vol::Volume volume = v::vol::generate_combustion(dims, 0, 1);
    v::vol::Brick brick;
    brick.dims = dims;
    const auto tf = v::render::TransferFunction::fire();
    v::render::RenderOptions options;
    options.step = kRenderStep;
    c.render_ms = median_seconds(3, 1, [&] {
                    (void)v::render::render_brick_along_axis(
                        volume, brick, v::vol::Axis::kZ, tf, options);
                  }) *
                  1e3;
  }
  return c;
}

}  // namespace e2e
