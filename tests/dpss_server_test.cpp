#include "dpss/server.h"

#include <gtest/gtest.h>

#include <thread>

#include "dpss/protocol.h"
#include "net/stream.h"
#include "support/test_support.h"

namespace visapult::dpss {
namespace {

// A prefetcher that reads one block ahead.
ServerCacheConfig one_ahead_prefetch() {
  ServerCacheConfig cache;
  cache.prefetch_config.depth = 1;
  return cache;
}

ServerCacheConfig no_prefetch() {
  ServerCacheConfig cache;
  cache.prefetch = false;
  return cache;
}

constexpr std::size_t kBlockBytes = 4096;

// Blocks 0..count-1 of "ds" (block b filled with b + 1) on the modelled
// disks only, memory tier empty.
void store_cold_blocks(BlockServer& server, std::uint64_t count = 4) {
  for (std::uint64_t b = 0; b < count; ++b) {
    ASSERT_TRUE(server
                    .put_block("ds", b,
                               std::vector<std::uint8_t>(
                                   kBlockBytes, static_cast<std::uint8_t>(b + 1)))
                    .is_ok());
  }
  server.drop_cache();
}

net::Message read_request(std::uint64_t block) {
  return encode_block_read_request(BlockReadRequest{"ds", block, {}});
}

std::uint8_t first_byte(const net::Message& reply) {
  auto decoded = decode_block_read_reply(reply);
  if (!decoded.is_ok() || decoded.value().data.empty()) return 0;
  return decoded.value().data[0];
}

TEST(DiskModel, StreamingScalesWithSpindles) {
  DiskModel one;
  one.disks = 1;
  DiskModel four = one;
  four.disks = 4;
  EXPECT_NEAR(four.streaming_bytes_per_sec(65536),
              4.0 * one.streaming_bytes_per_sec(65536), 1.0);
}

TEST(DiskModel, BiggerBlocksAmortiseSeek) {
  DiskModel disk;
  EXPECT_GT(disk.streaming_bytes_per_sec(1 << 20),
            disk.streaming_bytes_per_sec(4 << 10));
}

TEST(BlockServer, PutGetRoundTrip) {
  BlockServer server("s0");
  ASSERT_TRUE(server.put_block("ds", 3, {1, 2, 3}).is_ok());
  auto got = server.get_block("ds", 3);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(server.block_count("ds"), 1u);
  EXPECT_EQ(server.total_bytes(), 3u);
}

TEST(BlockServer, MissingBlockIsNotFound) {
  BlockServer server("s0");
  EXPECT_EQ(server.get_block("ds", 0).status().code(),
            core::StatusCode::kNotFound);
  server.put_block("ds", 0, {1});
  EXPECT_EQ(server.get_block("ds", 99).status().code(),
            core::StatusCode::kNotFound);
  EXPECT_EQ(server.get_block("other", 0).status().code(),
            core::StatusCode::kNotFound);
}

TEST(BlockServer, ServesReadsOverStream) {
  BlockServer server("s0");
  server.put_block("ds", 7, {4, 5, 6});
  auto [client, server_end] = net::make_pipe();
  server.serve(server_end);

  BlockReadRequest req{"ds", 7, {}};
  ASSERT_TRUE(net::send_message(*client, encode_block_read_request(req)).is_ok());
  auto msg = net::recv_message(*client);
  ASSERT_TRUE(msg.is_ok());
  auto reply = decode_block_read_reply(msg.value());
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value().block, 7u);
  EXPECT_EQ(reply.value().data, (std::vector<std::uint8_t>{4, 5, 6}));
  EXPECT_EQ(server.requests_served(), 1u);
  client->close();
  server.shutdown();
}

TEST(BlockServer, ServesWritesOverStream) {
  BlockServer server("s0");
  auto [client, server_end] = net::make_pipe();
  server.serve(server_end);

  BlockWriteRequest req;
  req.dataset = "ds";
  req.block = 0;
  req.data = {9, 8};
  ASSERT_TRUE(net::send_message(*client, encode_block_write_request(req)).is_ok());
  auto msg = net::recv_message(*client);
  ASSERT_TRUE(msg.is_ok());
  ASSERT_TRUE(decode_block_write_reply(msg.value()).is_ok());
  auto got = server.get_block("ds", 0);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), (std::vector<std::uint8_t>{9, 8}));
  client->close();
  server.shutdown();
}

TEST(BlockServer, UnknownRequestGetsErrorReply) {
  BlockServer server("s0");
  auto [client, server_end] = net::make_pipe();
  server.serve(server_end);
  net::Message bogus;
  bogus.type = 0xdead;
  ASSERT_TRUE(net::send_message(*client, bogus).is_ok());
  auto msg = net::recv_message(*client);
  ASSERT_TRUE(msg.is_ok());
  EXPECT_EQ(msg.value().type, static_cast<std::uint32_t>(kErrorReply));
  client->close();
  server.shutdown();
}

TEST(BlockServer, MissingBlockReadYieldsErrorReplyNotDisconnect) {
  BlockServer server("s0");
  auto [client, server_end] = net::make_pipe();
  server.serve(server_end);
  BlockReadRequest req{"nope", 0, {}};
  ASSERT_TRUE(net::send_message(*client, encode_block_read_request(req)).is_ok());
  auto msg = net::recv_message(*client);
  ASSERT_TRUE(msg.is_ok());
  auto reply = decode_block_read_reply(msg.value());
  EXPECT_FALSE(reply.is_ok());
  EXPECT_EQ(reply.status().code(), core::StatusCode::kNotFound);
  // The connection survives an application-level error.
  server.put_block("nope", 0, {1});
  ASSERT_TRUE(net::send_message(*client, encode_block_read_request(req)).is_ok());
  EXPECT_TRUE(net::recv_message(*client).is_ok());
  client->close();
  server.shutdown();
}

TEST(BlockServer, ConcurrentConnections) {
  BlockServer server("s0");
  for (std::uint64_t b = 0; b < 32; ++b) {
    server.put_block("ds", b, std::vector<std::uint8_t>(16, static_cast<std::uint8_t>(b)));
  }
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    auto [client, server_end] = net::make_pipe();
    server.serve(server_end);
    threads.emplace_back([client = client] {
      for (std::uint64_t b = 0; b < 32; ++b) {
        BlockReadRequest req{"ds", b, {}};
        ASSERT_TRUE(net::send_message(*client, encode_block_read_request(req)).is_ok());
        auto msg = net::recv_message(*client);
        ASSERT_TRUE(msg.is_ok());
        auto reply = decode_block_read_reply(msg.value());
        ASSERT_TRUE(reply.is_ok());
        EXPECT_EQ(reply.value().data[0], static_cast<std::uint8_t>(b));
      }
      client->close();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(server.requests_served(), 32u * kClients);
  server.shutdown();
}

// ---- the spindle schedule (virtual clock, no threads) ----

TEST(SpindleSchedule, MissesBeyondTheSpindleCountQueue) {
  core::VirtualClock clock;
  const DiskModel disk;  // 4 spindles
  BlockServer server("s0", disk, /*throttle=*/true, no_prefetch());
  server.set_clock(&clock);
  store_cold_blocks(server, 8);
  const double b = disk.block_service_seconds(kBlockBytes);

  // Eight misses at one instant: the first four take a spindle each, the
  // next four queue one service time behind them.
  for (std::uint64_t i = 0; i < 8; ++i) {
    net::Reply reply =
        server.dispatch(read_request(i), server.allocate_conn_id());
    EXPECT_EQ(first_byte(reply.message), i + 1);
    EXPECT_NEAR(reply.delay_seconds, i < 4 ? b : 2 * b, 1e-12) << "block " << i;
  }
  // Seek + transfer once per read; the queueing is not disk time.
  EXPECT_NEAR(server.modeled_disk_seconds(), 8 * b, 1e-4);
  EXPECT_EQ(clock.now(), 0.0);  // nothing slept
  // The read latency histogram includes each reply's deferral.
  EXPECT_NEAR(
      server.metrics_registry().histogram("dpss_server_read_seconds").sum(),
      4 * b + 4 * 2 * b, 1e-9);
}

TEST(SpindleSchedule, DemandReadRepliesAtThePendingFillsReadyTime) {
  core::VirtualClock clock;
  const DiskModel disk;
  BlockServer server("s0", disk, /*throttle=*/true, one_ahead_prefetch());
  server.set_clock(&clock);
  store_cold_blocks(server);
  const double b = disk.block_service_seconds(kBlockBytes);

  // Demand misses of 0, 1, 2 confirm a stride-1 run; the prefetcher fills
  // block 3 inline, on the fourth spindle, ready at b.
  const std::uint64_t conn = server.allocate_conn_id();
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(first_byte(server.dispatch(read_request(i), conn).message), i + 1);
  }
  EXPECT_EQ(server.cache_metrics().prefetch_issued, 1u);

  // A demand read of block 3 while the fill is still coming in replies at
  // the fill's ready time, without a second disk read.
  clock.advance_by(b / 4);
  net::Reply reply = server.dispatch(read_request(3), conn);
  EXPECT_EQ(first_byte(reply.message), 4);
  EXPECT_NEAR(reply.delay_seconds, b - b / 4, 1e-12);
  EXPECT_EQ(server.read_joins(), 1u);
  EXPECT_NEAR(server.modeled_disk_seconds(), 4 * b, 1e-4);
  EXPECT_EQ(server.cache_metrics().prefetch_hits, 1u);
}

TEST(SpindleSchedule, FillSkipsBlockADemandMissIsReading) {
  core::VirtualClock clock;
  const DiskModel disk;
  BlockServer server("s0", disk, /*throttle=*/true, one_ahead_prefetch());
  server.set_clock(&clock);
  store_cold_blocks(server);
  const double b = disk.block_service_seconds(kBlockBytes);

  // One connection's demand miss on block 3 is under way...
  net::Reply miss = server.dispatch(read_request(3), server.allocate_conn_id());
  EXPECT_NEAR(miss.delay_seconds, b, 1e-12);

  // ...when another connection's run 0, 1, 2 predicts block 3: the fill
  // leaves it to the demand miss, so block 3 is read from disk once.
  const std::uint64_t conn = server.allocate_conn_id();
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(first_byte(server.dispatch(read_request(i), conn).message), i + 1);
  }
  EXPECT_EQ(first_byte(miss.message), 4);
  EXPECT_NEAR(server.modeled_disk_seconds(), 4 * b, 1e-4);
}

TEST(SpindleSchedule, HitAfterTheReadCompletedLeavesAtOnce) {
  core::VirtualClock clock;
  const DiskModel disk;
  BlockServer server("s0", disk, /*throttle=*/true, no_prefetch());
  server.set_clock(&clock);
  store_cold_blocks(server);
  const double b = disk.block_service_seconds(kBlockBytes);

  const std::uint64_t conn = server.allocate_conn_id();
  EXPECT_NEAR(server.dispatch(read_request(0), conn).delay_seconds, b, 1e-12);
  clock.advance_by(b);
  net::Reply hit = server.dispatch(read_request(0), conn);
  EXPECT_EQ(first_byte(hit.message), 1);
  EXPECT_EQ(hit.delay_seconds, 0.0);
  EXPECT_EQ(server.read_joins(), 0u);
  EXPECT_EQ(server.cache_metrics().hits, 1u);
}

TEST(SpindleSchedule, UnthrottledServerNeverDefers) {
  core::VirtualClock clock;
  const DiskModel disk;
  BlockServer server("s0", disk, /*throttle=*/false, no_prefetch());
  server.set_clock(&clock);
  store_cold_blocks(server, 8);
  const double b = disk.block_service_seconds(kBlockBytes);

  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(server.dispatch(read_request(i), server.allocate_conn_id())
                  .delay_seconds,
              0.0);
  }
  // The model is still charged: modelled time is observable unthrottled.
  EXPECT_NEAR(server.modeled_disk_seconds(), 8 * b, 1e-4);
}

TEST(SpindleSchedule, BlockingCallerWaitsOutTheDelayOnTheServerClock) {
  test_support::RecordingVirtualClock clock;
  const DiskModel disk;
  BlockServer server("s0", disk, /*throttle=*/true, no_prefetch());
  server.set_clock(&clock);
  store_cold_blocks(server);
  const double b = disk.block_service_seconds(kBlockBytes);

  EXPECT_EQ(first_byte(server.handle_request(read_request(2),
                                             server.allocate_conn_id())),
            3);
  EXPECT_NEAR(clock.total_slept(), b, 1e-12);
}

TEST(BlockServer, ShutdownUnblocksServiceThreads) {
  BlockServer server("s0");
  auto [client, server_end] = net::make_pipe();
  server.serve(server_end);
  server.shutdown();  // must not hang
  SUCCEED();
}

}  // namespace
}  // namespace visapult::dpss
