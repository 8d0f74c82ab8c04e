#include "dpss/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "codec/gf256.h"
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
  return encode(BlockReadRequest{"ds", block, {}});
}

// The reactor door's handler for `server`.
net::ReactorServer::Handler serving(BlockServer& server) {
  return [&server](net::Message&& msg, std::uint64_t conn_id) {
    return server.dispatch(std::move(msg), conn_id);
  };
}

std::uint8_t first_byte(const net::Message& reply) {
  auto decoded = decode<BlockReadReply>(reply);
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
  test_support::LocalDoor door(serving(server));
  auto client = door.connect().take();

  BlockReadRequest req{"ds", 7, {}};
  ASSERT_TRUE(net::send_message(*client, encode(req)).is_ok());
  auto msg = net::recv_message(*client);
  ASSERT_TRUE(msg.is_ok());
  auto reply = decode<BlockReadReply>(msg.value());
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value().block, 7u);
  EXPECT_EQ(reply.value().data, (std::vector<std::uint8_t>{4, 5, 6}));
  EXPECT_EQ(server.requests_served(), 1u);
  client->close();
  server.shutdown();
}

TEST(BlockServer, ServesWritesOverStream) {
  BlockServer server("s0");
  test_support::LocalDoor door(serving(server));
  auto client = door.connect().take();

  BlockWriteRequest req;
  req.dataset = "ds";
  req.block = 0;
  req.data = {9, 8};
  ASSERT_TRUE(net::send_message(*client, encode(req)).is_ok());
  auto msg = net::recv_message(*client);
  ASSERT_TRUE(msg.is_ok());
  ASSERT_TRUE(decode<BlockWriteReply>(msg.value()).is_ok());
  auto got = server.get_block("ds", 0);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), (std::vector<std::uint8_t>{9, 8}));
  client->close();
  server.shutdown();
}

TEST(BlockServer, UnknownRequestGetsErrorReply) {
  BlockServer server("s0");
  test_support::LocalDoor door(serving(server));
  auto client = door.connect().take();
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
  test_support::LocalDoor door(serving(server));
  auto client = door.connect().take();
  BlockReadRequest req{"nope", 0, {}};
  ASSERT_TRUE(net::send_message(*client, encode(req)).is_ok());
  auto msg = net::recv_message(*client);
  ASSERT_TRUE(msg.is_ok());
  auto reply = decode<BlockReadReply>(msg.value());
  EXPECT_FALSE(reply.is_ok());
  EXPECT_EQ(reply.status().code(), core::StatusCode::kNotFound);
  // The connection survives an application-level error.
  server.put_block("nope", 0, {1});
  ASSERT_TRUE(net::send_message(*client, encode(req)).is_ok());
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
  test_support::LocalDoor door(serving(server));
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    auto client = door.connect().take();
    threads.emplace_back([client = client] {
      for (std::uint64_t b = 0; b < 32; ++b) {
        BlockReadRequest req{"ds", b, {}};
        ASSERT_TRUE(net::send_message(*client, encode(req)).is_ok());
        auto msg = net::recv_message(*client);
        ASSERT_TRUE(msg.is_ok());
        auto reply = decode<BlockReadReply>(msg.value());
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

// ---- one buffer per stored block ----

std::uint64_t counter(BlockServer& server, const char* name) {
  return server.metrics_registry().counter(name).value();
}

// The store and the memory tier hold one buffer for a block, and a reader
// holding it keeps its bytes across an overwrite of the same block: the
// write swaps a new buffer in rather than changing the old one.
TEST(SharedBlocks, HeldTierBufferKeepsItsBytesAcrossAnOverwrite) {
  BlockServer server("s0", DiskModel{}, /*throttle=*/false, no_prefetch());
  ASSERT_TRUE(
      server.put_block("ds", 0, std::vector<std::uint8_t>(kBlockBytes, 0x11))
          .is_ok());
  const cache::BlockData held = server.shared_block("ds", 0).value();
  // The store, the tier (write-through) and this reader.
  EXPECT_EQ(held.use_count(), 3);
  const auto conn = server.allocate_conn_id();
  EXPECT_EQ(first_byte(server.dispatch(read_request(0), conn).message), 0x11);
  EXPECT_EQ(server.cache_metrics().hits, 1u);

  IngestWriteRequest write;
  write.dataset = "ds";
  write.block = 0;
  write.data.assign(kBlockBytes, 0x22);
  auto ack = decode<IngestWriteReply>(
      server.dispatch(encode(write), conn).message);
  ASSERT_TRUE(ack.is_ok()) << ack.status().to_string();
  EXPECT_EQ(ack.value().generation, 1u);

  EXPECT_EQ(*held, std::vector<std::uint8_t>(kBlockBytes, 0x11));
  EXPECT_EQ(held.use_count(), 1);  // the store and the tier moved on
  EXPECT_EQ(first_byte(server.dispatch(read_request(0), conn).message), 0x22);
  EXPECT_EQ(server.cache_metrics().hits, 2u);
  EXPECT_EQ(server.shared_block("ds", 0).value().use_count(), 3);

  // The write's payload was copied once, out of its frame; the two reads
  // once each, into their reply frames.  Nothing was copied into the
  // store or the tier.
  EXPECT_EQ(counter(server, "dpss_server_copy_decode_bytes_total"),
            kBlockBytes);
  EXPECT_EQ(counter(server, "dpss_server_copy_encode_bytes_total"),
            2 * kBlockBytes);
  EXPECT_EQ(counter(server, "dpss_server_copy_store_bytes_total"), 0u);
  EXPECT_EQ(server.cache_metrics().copied_bytes, 0u);
}

// A parity block's delta base stays intact while deltas land on it from
// several writers at once: each delta builds the next generation out of
// place and swaps it in whole, so a concurrent reader never sees a
// half-applied delta, a held base never changes, and no update is lost.
TEST(SharedBlocks, ParityDeltaBaseSurvivesConcurrentDeltas) {
  BlockServer server("s0", DiskModel{}, /*throttle=*/false, no_prefetch());
  constexpr std::size_t kBytes = 64 << 10;
  constexpr int kWriters = 4;
  constexpr int kDeltas = 15;  // odd: each writer's delta survives
  ASSERT_TRUE(
      server.put_block("p", 0, std::vector<std::uint8_t>(kBytes, 0x5A))
          .is_ok());
  const cache::BlockData base = server.shared_block("p", 0).value();

  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::thread reader([&] {
    const auto conn = server.allocate_conn_id();
    while (!done.load()) {
      auto r = decode<BlockReadReply>(
          server.dispatch(encode(BlockReadRequest{"p", 0, {}}), conn).message);
      // Every delta is one byte value throughout, so every generation is
      // uniform; a torn one is not.
      if (!r.is_ok() || r.value().data.size() != kBytes ||
          std::count(r.value().data.begin(), r.value().data.end(),
                     r.value().data[0]) != static_cast<long>(kBytes)) {
        bad.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> writers;
  std::uint8_t expected = 0x5A;
  for (int w = 0; w < kWriters; ++w) {
    const auto coefficient = static_cast<std::uint8_t>(w + 2);
    const auto value = static_cast<std::uint8_t>(1u << w);
    expected ^= codec::gf256::mul(coefficient, value);
    writers.emplace_back([&server, &bad, coefficient, value] {
      const auto conn = server.allocate_conn_id();
      for (int i = 0; i < kDeltas; ++i) {
        ParityDeltaRequest pd;
        pd.dataset = "p";
        pd.block = 0;
        pd.coefficient = coefficient;
        pd.delta.assign(kBytes, value);
        if (!decode<ParityDeltaReply>(
                 server.dispatch(encode(pd), conn).message)
                 .is_ok()) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true);
  reader.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(*base, std::vector<std::uint8_t>(kBytes, 0x5A));
  EXPECT_EQ(server.block_generation("p", 0),
            static_cast<std::uint64_t>(kWriters * kDeltas));
  auto last = server.get_block("p", 0);
  ASSERT_TRUE(last.is_ok());
  EXPECT_EQ(last.value(), std::vector<std::uint8_t>(kBytes, expected));
  EXPECT_EQ(counter(server, "dpss_server_copy_store_bytes_total"), 0u);
  EXPECT_EQ(server.cache_metrics().copied_bytes, 0u);
}

}  // namespace
}  // namespace visapult::dpss
