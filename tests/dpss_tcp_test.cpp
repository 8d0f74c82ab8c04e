// DPSS over real loopback TCP sockets: the same client/master/server code
// as the pipe tests, exercised through the kernel's network stack.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
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

// Copy counters and tier hits summed over a deployment's servers.
struct Copies {
  std::uint64_t decode = 0, encode = 0, store = 0, tier = 0, door = 0;
  std::uint64_t hits = 0;
};

Copies copies(TcpDeployment& deployment) {
  Copies c;
  for (int i = 0; i < deployment.server_count(); ++i) {
    BlockServer& srv = deployment.server(i);
    auto& reg = srv.metrics_registry();
    c.decode += reg.counter("dpss_server_copy_decode_bytes_total").value();
    c.encode += reg.counter("dpss_server_copy_encode_bytes_total").value();
    c.store += reg.counter("dpss_server_copy_store_bytes_total").value();
    c.tier += srv.cache_metrics().copied_bytes;
    c.hits += srv.cache_metrics().hits;
    c.door += deployment.server_net_stats(i).copy_bytes;
  }
  return c;
}

// One rf=3 chain write of one block, then one warm read of it, counted
// exactly.  Each replica copies the block once out of its request frame
// and each forwarding hop once into the next frame; the store and the
// tier copy nothing.  The read copies the block once on the server, into
// its reply frame, and the reply leaves the reactor uncopied.  Each frame
// here leaves a TcpStream in one send call: every block frame of the write
// alone, and the read's one request as a batch of one.
TEST(DpssTcp, ChainWriteAndWarmReadCopyCounts) {
  constexpr std::uint32_t kBlock = 8192;
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  TcpDeployment deployment(3);
  ASSERT_TRUE(deployment.start().is_ok());
  ASSERT_TRUE(
      deployment.ingest(desc, kBlock, 1, /*replication_factor=*/3).is_ok());
  auto client = deployment.make_client();
  ASSERT_TRUE(client.is_ok());
  auto file = client.value().open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  DpssFile& f = *file.value();
  auto& file_reg = f.metrics_registry();
  auto file_copies = [&](const char* site) {
    return file_reg.counter(std::string("dpss_client_copy_") + site +
                            "_bytes_total")
        .value();
  };

  const Copies c0 = copies(deployment);
  const net::TcpCallCounts t0 = net::tcp_call_counts();
  std::vector<std::uint8_t> block(kBlock, 0xAB);
  ASSERT_TRUE(f.write(block.data(), block.size()).is_ok());
  const Copies c1 = copies(deployment);
  const net::TcpCallCounts t1 = net::tcp_call_counts();
  EXPECT_EQ(c1.decode - c0.decode, 3u * kBlock);
  EXPECT_EQ(c1.encode - c0.encode, 2u * kBlock);
  EXPECT_EQ(c1.store - c0.store, 0u);
  EXPECT_EQ(c1.tier - c0.tier, 0u);
  // Client to primary, primary to second, second to third.
  EXPECT_EQ(t1.frames_sent - t0.frames_sent, 3u);
  EXPECT_EQ(t1.send_calls - t0.send_calls, 3u);
  EXPECT_EQ(file_copies("user"), kBlock);
  EXPECT_EQ(file_copies("encode"), kBlock);

  std::vector<std::uint8_t> got(kBlock);
  auto n = f.pread(got.data(), got.size(), 0);
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  EXPECT_EQ(got, block);
  const Copies c2 = copies(deployment);
  const net::TcpCallCounts t2 = net::tcp_call_counts();
  EXPECT_EQ(c2.hits - c1.hits, 1u);  // written through, so warm
  EXPECT_EQ(c2.decode - c1.decode, 0u);
  EXPECT_EQ(c2.encode - c1.encode, std::uint64_t{kBlock});
  EXPECT_EQ(c2.store - c1.store, 0u);
  EXPECT_EQ(c2.tier - c1.tier, 0u);
  // The front door copied the read request (into its read buffer, then
  // into a Message) and not one byte of the reply.
  const std::size_t request =
      encode(BlockReadRequest{desc.name, 0, {}}).payload.size();
  EXPECT_EQ(c2.door - c1.door, net::kFrameHeaderBytes + 2 * request);
  EXPECT_EQ(t2.frames_sent - t1.frames_sent, 1u);
  EXPECT_EQ(t2.send_calls - t1.send_calls, 1u);
  // The client copied the reply once, from its frame straight into the
  // caller's buffer; decode copied nothing
  // (dpss_client_copy_decode_bytes_total stays 0).
  EXPECT_EQ(file_reg.counter("dpss_client_wire_bytes_total").value(), kBlock);
  EXPECT_EQ(file_copies("user"), 2u * kBlock);
  deployment.stop();
}

// Every batch a client's legs hand their streams: how many frames, and how
// many of them carry a block.
struct Batches {
  using Batch = std::pair<std::size_t, std::size_t>;  // (frames, blocks)
  std::mutex mu;
  std::vector<Batch> sent;
};

// A TcpStream that records each send_frames() batch before passing it on.
class RecordingStream final : public net::ByteStream {
 public:
  RecordingStream(net::StreamPtr inner, std::shared_ptr<Batches> log)
      : inner_(std::move(inner)), log_(std::move(log)) {}

  core::Status send_all(const std::uint8_t* data, std::size_t len) override {
    return inner_->send_all(data, len);
  }
  core::Status send_frame(const std::uint8_t* header, std::size_t header_len,
                          const std::uint8_t* payload,
                          std::size_t payload_len) override {
    return inner_->send_frame(header, header_len, payload, payload_len);
  }
  core::Status send_frames(const net::Frame* frames,
                           std::size_t count) override {
    Batches::Batch batch{count, 0};
    for (std::size_t i = 0; i < count; ++i) {
      if (!coalesced(frames[i])) ++batch.second;
    }
    {
      std::lock_guard lk(log_->mu);
      log_->sent.push_back(batch);
    }
    return inner_->send_frames(frames, count);
  }
  core::Status recv_all(std::uint8_t* data, std::size_t len) override {
    return inner_->recv_all(data, len);
  }
  void close() override { inner_->close(); }
  core::Status set_recv_timeout(double seconds) override {
    return inner_->set_recv_timeout(seconds);
  }

 private:
  net::StreamPtr inner_;
  std::shared_ptr<Batches> log_;
};

// A read leg hands its stream every request in one batch.  A write leg
// hands it each block frame in a batch of its own, so it holds one encoded
// block at a time.
TEST(DpssTcp, ReadLegsBatchRequestsAndWriteLegsSendBlocksOneByOne) {
  constexpr std::uint32_t kBlock = 8192;
  constexpr std::size_t kBlocks = 8;
  const vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  TcpDeployment deployment(2);
  ASSERT_TRUE(deployment.ingest(desc, kBlock).is_ok());
  auto master = net::TcpStream::connect("127.0.0.1", deployment.master_port());
  ASSERT_TRUE(master.is_ok()) << master.status().to_string();
  auto log = std::make_shared<Batches>();
  DpssClient client(
      std::move(master).take(),
      [log](const ServerAddress& addr) -> core::Result<net::StreamPtr> {
        auto s = net::TcpStream::connect(addr.host, addr.port);
        if (!s.is_ok()) return s.status();
        return net::StreamPtr(
            std::make_shared<RecordingStream>(std::move(s).take(), log));
      });
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  DpssFile& f = *file.value();

  // 8 blocks over 2 servers: 4 per leg.
  std::vector<std::uint8_t> data(kBlocks * kBlock);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  ASSERT_TRUE(f.write(data.data(), data.size()).is_ok());
  {
    std::lock_guard lk(log->mu);
    EXPECT_EQ(log->sent, std::vector<Batches::Batch>(kBlocks, {1, 1}));
    log->sent.clear();
  }

  std::vector<std::uint8_t> got(data.size());
  auto n = f.pread(got.data(), got.size(), 0);
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  EXPECT_EQ(got, data);
  {
    std::lock_guard lk(log->mu);
    EXPECT_EQ(log->sent,
              std::vector<Batches::Batch>(2, {kBlocks / 2, 0}));
  }
  deployment.stop();
}

}  // namespace
}  // namespace visapult::dpss
