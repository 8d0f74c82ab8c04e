// DPSS over real loopback TCP sockets: the same client/master/server code
// as the pipe tests, exercised through the kernel's network stack.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "dpss/deployment.h"
#include "support/test_support.h"

namespace visapult::dpss {
namespace {

TEST(DpssTcp, EndToEndRead) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  TcpDeployment deployment(3);
  ASSERT_TRUE(deployment.start().is_ok());
  ASSERT_TRUE(deployment.ingest(desc, 8192).is_ok());

  auto client = deployment.make_client();
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  auto file = client.value().open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();

  const vol::Volume v = desc.generate(0);
  std::vector<std::uint8_t> buf(v.byte_size());
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), v.byte_size());
  EXPECT_EQ(std::memcmp(buf.data(), v.data().data(), buf.size()), 0);
  deployment.stop();
}

TEST(DpssTcp, MultipleSequentialClients) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  TcpDeployment deployment(2);
  ASSERT_TRUE(deployment.ingest(desc).is_ok());

  for (int i = 0; i < 3; ++i) {
    auto client = deployment.make_client();
    ASSERT_TRUE(client.is_ok());
    auto file = client.value().open(desc.name);
    ASSERT_TRUE(file.is_ok());
    std::vector<std::uint8_t> buf(1024);
    EXPECT_TRUE(file.value()->pread(buf.data(), buf.size(), 0).is_ok());
  }
  deployment.stop();
}

// A browsing client opens dataset after dataset: open checks the server
// connections out of the client's pool and close hands them back, so each
// server accepts one connection, not one per open.
TEST(DpssTcp, OneClientReusesServerConnectionsAcrossOpens) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  TcpDeployment deployment(3);
  ASSERT_TRUE(deployment.start().is_ok());
  ASSERT_TRUE(deployment.ingest(desc, 8192).is_ok());
  auto client = deployment.make_client();
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();

  const vol::Volume v = desc.generate(0);
  std::vector<std::uint8_t> buf(v.byte_size());
  for (int i = 0; i < 20; ++i) {
    auto file = client.value().open(desc.name);
    ASSERT_TRUE(file.is_ok()) << file.status().to_string();
    auto n = file.value()->pread(buf.data(), buf.size(), 0);
    ASSERT_TRUE(n.is_ok()) << n.status().to_string();
    ASSERT_EQ(std::memcmp(buf.data(), v.data().data(), buf.size()), 0);
    file.value()->close();
  }
  for (int i = 0; i < deployment.server_count(); ++i) {
    EXPECT_EQ(deployment.server_net_stats(i).accepted, 1u) << "server " << i;
  }
  deployment.stop();
}

// Threads sharing one client share its pool: every read is exact, and no
// server holds more connections than there were files open at once.
TEST(DpssTcp, ThreadsSharingOneClientShareItsPool) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  TcpDeployment deployment(3);
  ASSERT_TRUE(deployment.start().is_ok());
  ASSERT_TRUE(deployment.ingest(desc, 8192).is_ok());
  auto client = deployment.make_client();
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();

  const vol::Volume v = desc.generate(0);
  const auto* expect = reinterpret_cast<const std::uint8_t*>(v.data().data());
  constexpr int kThreads = 4;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<std::uint8_t> buf(v.byte_size());
      for (int i = 0; i < 25; ++i) {
        auto file = client.value().open(desc.name);
        if (!file.is_ok()) {
          bad.fetch_add(1);
          continue;
        }
        auto n = file.value()->pread(buf.data(), buf.size(), 0);
        if (!n.is_ok() || n.value() != buf.size() ||
            std::memcmp(buf.data(), expect, buf.size()) != 0) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  for (int i = 0; i < deployment.server_count(); ++i) {
    EXPECT_LE(deployment.server_net_stats(i).accepted,
              static_cast<std::uint64_t>(kThreads))
        << "server " << i;
  }
  deployment.stop();
}

TEST(DpssTcp, ServerDeathSurfacesAsTransportError) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  auto deployment = std::make_unique<TcpDeployment>(2);
  ASSERT_TRUE(deployment->ingest(desc).is_ok());
  auto client = deployment->make_client();
  ASSERT_TRUE(client.is_ok());
  auto file = client.value().open(desc.name);
  ASSERT_TRUE(file.is_ok());

  // Kill the whole deployment, then try to read: the client must get a
  // clean error, not hang or crash.
  deployment->stop();
  std::vector<std::uint8_t> buf(4096);
  auto n = file.value()->pread(buf.data(), buf.size(), 0);
  EXPECT_FALSE(n.is_ok());
}

TEST(DpssTcp, ConnectToDeadMasterPortFailsCleanly) {
  // A master that is not there must surface as a connect error, not a
  // hang; the port comes from the support picker, so nothing listens on it.
  auto stream =
      net::TcpStream::connect("127.0.0.1", test_support::pick_dead_port());
  EXPECT_FALSE(stream.is_ok());
  EXPECT_EQ(stream.status().code(), core::StatusCode::kUnavailable);
}

// Throttled disks with no memory tier: every block read waits for the disk
// model, so block reads pipelined on one connection are in the dispatch
// window together.
std::unique_ptr<TcpDeployment> cold_deployment(int servers) {
  ServerCacheConfig no_cache;
  no_cache.enabled = false;
  return std::make_unique<TcpDeployment>(servers, DiskModel{4, 0.001, 1e9},
                                         /*throttle=*/true, no_cache);
}

std::uint64_t overlapped_requests(const TcpDeployment& deployment) {
  std::uint64_t total = 0;
  for (int i = 0; i < deployment.server_count(); ++i) {
    total += deployment.server_net_stats(i).overlapped_requests;
  }
  return total;
}

TEST(DpssTcp, MultiBlockReadOverlapsOnEachServerConnection) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  auto deployment = cold_deployment(2);
  ASSERT_TRUE(deployment->start().is_ok());
  ASSERT_TRUE(deployment->ingest(desc, 8192).is_ok());
  auto client = deployment->make_client();
  ASSERT_TRUE(client.is_ok());
  auto file = client.value().open(desc.name);
  ASSERT_TRUE(file.is_ok());

  const vol::Volume v = desc.generate(0);
  // 32 blocks of 8 KiB: 16 pipelined on each server's connection.
  std::vector<std::uint8_t> buf(v.byte_size());
  auto n = file.value()->pread(buf.data(), buf.size(), 0);
  ASSERT_TRUE(n.is_ok());
  ASSERT_EQ(n.value(), buf.size());
  EXPECT_EQ(std::memcmp(buf.data(), v.data().data(), buf.size()), 0);
  EXPECT_GT(overlapped_requests(*deployment), 0u);
  deployment->stop();
}

// Real time, but every sleep_for() is counted.
class CountingClock final : public core::Clock {
 public:
  core::TimePoint now() const override {
    return core::global_real_clock().now();
  }
  void sleep_for(double seconds) override {
    sleeps_.fetch_add(1);
    core::global_real_clock().sleep_for(seconds);
  }
  int sleeps() const { return sleeps_.load(); }

 private:
  std::atomic<int> sleeps_{0};
};

TEST(DpssTcp, ThrottledReadsHoldNoWorkerAsleep) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  auto deployment = cold_deployment(2);
  CountingClock clock;
  for (int i = 0; i < deployment->server_count(); ++i) {
    deployment->server(i).set_clock(&clock);
  }
  ASSERT_TRUE(deployment->start().is_ok());
  ASSERT_TRUE(deployment->ingest(desc, 8192).is_ok());
  auto client = deployment->make_client();
  ASSERT_TRUE(client.is_ok());
  auto file = client.value().open(desc.name);
  ASSERT_TRUE(file.is_ok());

  const vol::Volume v = desc.generate(0);
  std::vector<std::uint8_t> buf(v.byte_size());
  auto n = file.value()->pread(buf.data(), buf.size(), 0);
  ASSERT_TRUE(n.is_ok());
  ASSERT_EQ(n.value(), buf.size());
  EXPECT_EQ(std::memcmp(buf.data(), v.data().data(), buf.size()), 0);

  // Every block read was a modelled disk read, and each one's wait was a
  // loop timer: no server thread slept.
  double disk_seconds = 0.0;
  for (int i = 0; i < deployment->server_count(); ++i) {
    disk_seconds += deployment->server(i).modeled_disk_seconds();
  }
  EXPECT_GT(disk_seconds, 0.0);
  EXPECT_EQ(clock.sleeps(), 0);
  deployment->stop();
}

TEST(DpssTcp, WriteOnlyBatchNeverOverlaps) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  auto deployment = cold_deployment(3);
  ASSERT_TRUE(deployment->start().is_ok());
  ASSERT_TRUE(deployment->ingest(desc, 8192, 1, /*replication_factor=*/2).is_ok());
  auto client = deployment->make_client();
  ASSERT_TRUE(client.is_ok());
  auto file = client.value().open(desc.name);
  ASSERT_TRUE(file.is_ok());
  file.value()->set_ack_policy(ingest::AckPolicy::kAll);

  // Writes are barriers: each one runs alone on its connection.
  std::vector<std::uint8_t> data(32 * 8192, 0x5a);
  ASSERT_TRUE(file.value()->write(data.data(), data.size()).is_ok());
  EXPECT_EQ(overlapped_requests(*deployment), 0u);
  deployment->stop();
}

TEST(DpssTcp, AclOverSockets) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  TcpDeployment deployment(2);
  ASSERT_TRUE(deployment.ingest(desc).is_ok());
  deployment.master().set_acl({"corridor-project"});

  auto denied_client = deployment.make_client();
  ASSERT_TRUE(denied_client.is_ok());
  EXPECT_FALSE(denied_client.value().open(desc.name, "wrong").is_ok());

  auto ok_client = deployment.make_client();
  ASSERT_TRUE(ok_client.is_ok());
  EXPECT_TRUE(ok_client.value().open(desc.name, "corridor-project").is_ok());
  deployment.stop();
}

// A count prefix claiming 2^32-1 elements in a frame of a few bytes must
// be answered with kDataLoss: sizing a vector by it would throw on the
// master's reactor loop and end the process.  The master then goes on
// serving opens.
TEST(DpssTcp, MasterSurvivesHostileCountPrefixes) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  TcpDeployment deployment(2);
  ASSERT_TRUE(deployment.ingest(desc, 8192).is_ok());

  net::Writer beat;  // host, port, requests served, then the floor count
  beat.str("x");
  beat.u32(1);
  beat.u64(0);
  beat.u32(0xffffffffu);
  net::Writer spans;  // host, sent_at, then the span count
  spans.str("x");
  spans.f64(0.0);
  spans.u32(0xffffffffu);
  net::Message hostile[2];
  hostile[0].type = kHeartbeat;
  hostile[0].payload = beat.take();
  hostile[1].type = kSpanExportRequest;
  hostile[1].payload = spans.take();

  auto wire = net::TcpStream::connect("127.0.0.1", deployment.master_port());
  ASSERT_TRUE(wire.is_ok());
  for (const net::Message& frame : hostile) {
    SCOPED_TRACE(frame.type);
    ASSERT_TRUE(net::send_message(*wire.value(), frame).is_ok());
    auto reply = net::recv_message(*wire.value());
    ASSERT_TRUE(reply.is_ok());
    EXPECT_EQ(reply.value().type, kErrorReply);
    EXPECT_EQ(decode_error_reply(reply.value()).code(),
              core::StatusCode::kDataLoss);
  }

  auto client = deployment.make_client();
  ASSERT_TRUE(client.is_ok());
  auto file = client.value().open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  const vol::Volume v = desc.generate(0);
  std::vector<std::uint8_t> buf(v.byte_size());
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), v.byte_size());
  EXPECT_EQ(std::memcmp(buf.data(), v.data().data(), buf.size()), 0);
  deployment.stop();
}

}  // namespace
}  // namespace visapult::dpss
