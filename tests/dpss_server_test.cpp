#include "dpss/server.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>

#include "dpss/protocol.h"
#include "net/stream.h"
#include "support/test_support.h"

namespace visapult::dpss {
namespace {

// Real-time clock whose sleep_for() returns at once on the constructing
// thread but holds every other thread (prefetch workers, helper threads)
// until release(), counting the sleeps it is holding.  Lets a test freeze
// a throttled disk read mid-sleep.
class GatedClock final : public core::Clock {
 public:
  core::TimePoint now() const override {
    return core::global_real_clock().now();
  }
  void sleep_for(double) override {
    if (std::this_thread::get_id() == owner_) return;
    std::unique_lock lk(mu_);
    ++held_;
    cv_.wait(lk, [&] { return open_; });
  }
  void release() {
    {
      std::lock_guard lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  int held() const {
    std::lock_guard lk(mu_);
    return held_;
  }

 private:
  const std::thread::id owner_ = std::this_thread::get_id();
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  int held_ = 0;
};

// A prefetcher that reads one block ahead on a single worker.
ServerCacheConfig one_ahead_prefetch() {
  ServerCacheConfig cache;
  cache.prefetch_config.depth = 1;
  cache.prefetch_threads = 1;
  return cache;
}

// Blocks 0..3 of "ds" (block b filled with b + 1) on the modelled disks
// only, memory tier empty.  The prefetcher has no block 4 to predict.
void store_cold_blocks(BlockServer& server) {
  for (std::uint64_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(server
                    .put_block("ds", b,
                               std::vector<std::uint8_t>(
                                   4096, static_cast<std::uint8_t>(b + 1)))
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

TEST(DiskModel, ServiceTimeGrowsWithQueueing) {
  DiskModel disk;
  disk.disks = 4;
  const double t1 = disk.block_service_seconds(65536, 1);
  const double t4 = disk.block_service_seconds(65536, 4);
  const double t8 = disk.block_service_seconds(65536, 8);
  EXPECT_DOUBLE_EQ(t1, t4);  // within spindle count: no queueing
  EXPECT_NEAR(t8, 2.0 * t4, 1e-9);
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

TEST(BlockServer, DemandMissJoinsInProgressPrefetchFill) {
  GatedClock clock;
  const DiskModel disk;
  BlockServer server("s0", disk, /*throttle=*/true, one_ahead_prefetch());
  server.set_clock(&clock);
  store_cold_blocks(server);
  const double per_block = disk.block_service_seconds(4096, 1);

  // Demand reads of 0, 1, 2 on this thread (not held) confirm a stride-1
  // run; the prefetcher then fills block 3 on its worker, where the clock
  // holds it inside the disk sleep.
  const std::uint64_t conn = server.allocate_conn_id();
  for (std::uint64_t b = 0; b < 3; ++b) {
    ASSERT_EQ(first_byte(server.handle_request(read_request(b), conn)), b + 1);
  }
  ASSERT_TRUE(test_support::wait_until([&] { return clock.held() == 1; }));

  // A demand read of block 3 arrives while its fill is still sleeping.
  auto demand = std::async(std::launch::async, [&] {
    return server.handle_request(read_request(3), conn);
  });
  EXPECT_TRUE(test_support::wait_until([&] { return server.read_joins() == 1; }));
  clock.release();
  EXPECT_EQ(first_byte(demand.get()), 4);
  server.drop_cache();  // drains the prefetcher

  // Block 3 cost the disk one service time (the fill), not two, and the
  // demand read never slept.
  EXPECT_NEAR(server.modeled_disk_seconds() - 3 * per_block, per_block, 1e-4);
  EXPECT_EQ(clock.held(), 1);
  EXPECT_EQ(server.cache_metrics().prefetch_hits, 1u);
}

TEST(BlockServer, PrefetchFillSkipsBlockADemandMissIsReading) {
  GatedClock clock;
  const DiskModel disk;
  BlockServer server("s0", disk, /*throttle=*/true, one_ahead_prefetch());
  server.set_clock(&clock);
  store_cold_blocks(server);
  const double per_block = disk.block_service_seconds(4096, 1);

  // One connection's demand miss on block 3 is held inside its disk sleep.
  auto demand = std::async(std::launch::async, [&] {
    return server.handle_request(read_request(3), server.allocate_conn_id());
  });
  // (EXPECT, not ASSERT, from here on: returning early would leave the
  // held thread behind the closed gate.)
  EXPECT_TRUE(test_support::wait_until([&] { return clock.held() == 1; }));

  // Another connection's run 0, 1, 2 predicts block 3: the fill finds the
  // block already being read and leaves it to the demand miss.
  const std::uint64_t conn = server.allocate_conn_id();
  for (std::uint64_t b = 0; b < 3; ++b) {
    EXPECT_EQ(first_byte(server.handle_request(read_request(b), conn)), b + 1);
  }
  EXPECT_TRUE(test_support::wait_until([&] { return server.read_joins() == 1; }));
  clock.release();
  EXPECT_EQ(first_byte(demand.get()), 4);
  server.drop_cache();

  EXPECT_NEAR(server.modeled_disk_seconds(), 4 * per_block, 1e-4);
  EXPECT_EQ(clock.held(), 1);
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
