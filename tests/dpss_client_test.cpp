// DPSS end-to-end over in-memory pipes: master lookup, access control,
// striped parallel reads, Unix-like seek/read semantics, load balance.
#include "dpss/client.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>

#include "dpss/deployment.h"
#include "support/test_support.h"

namespace visapult::dpss {
namespace {

// Reference bytes for timestep t of a dataset.
std::vector<std::uint8_t> step_bytes(const vol::DatasetDesc& desc, int t) {
  const vol::Volume v = desc.generate(t);
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data().data());
  return std::vector<std::uint8_t>(p, p + v.byte_size());
}

class DpssPipeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    desc_ = vol::small_combustion_dataset(/*timesteps=*/2);
    deployment_ = std::make_unique<PipeDeployment>(4);
    ASSERT_TRUE(deployment_->ingest(desc_, /*block_bytes=*/4096).is_ok());
  }

  vol::DatasetDesc desc_;
  std::unique_ptr<PipeDeployment> deployment_;
};

TEST_F(DpssPipeTest, OpenResolvesLayoutAndServers) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  EXPECT_EQ(file.value()->size(), desc_.total_bytes());
  EXPECT_EQ(file.value()->server_count(), 4);
  EXPECT_EQ(file.value()->layout().block_bytes, 4096u);
}

TEST_F(DpssPipeTest, OpenUnknownDatasetFails) {
  auto client = deployment_->make_client();
  auto file = client.open("does-not-exist");
  EXPECT_FALSE(file.is_ok());
  EXPECT_EQ(file.status().code(), core::StatusCode::kNotFound);
}

TEST_F(DpssPipeTest, SequentialReadMatchesGenerator) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok());

  const auto expected = step_bytes(desc_, 0);
  std::vector<std::uint8_t> buf(expected.size());
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), expected.size());
  EXPECT_EQ(buf, expected);
}

TEST_F(DpssPipeTest, SecondTimestepAtCorrectOffset) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok());

  const auto expected = step_bytes(desc_, 1);
  std::vector<std::uint8_t> buf(expected.size());
  ASSERT_GE(file.value()->lseek(static_cast<std::int64_t>(desc_.bytes_per_step())), 0);
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(buf, expected);
}

TEST_F(DpssPipeTest, UnalignedReadsAcrossBlockBoundaries) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok());

  const auto expected = step_bytes(desc_, 0);
  // Straddle several 4 KB blocks at an odd offset.
  const std::size_t offset = 4096 * 3 - 17;
  const std::size_t len = 4096 * 2 + 31;
  std::vector<std::uint8_t> buf(len);
  auto n = file.value()->pread(buf.data(), len, offset);
  ASSERT_TRUE(n.is_ok());
  ASSERT_EQ(n.value(), len);
  EXPECT_TRUE(std::memcmp(buf.data(), expected.data() + offset, len) == 0);
}

TEST_F(DpssPipeTest, LseekSemantics) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok());
  auto& f = *file.value();
  EXPECT_EQ(f.lseek(100, Whence::kSet), 100);
  EXPECT_EQ(f.lseek(50, Whence::kCur), 150);
  EXPECT_EQ(f.lseek(-50, Whence::kEnd),
            static_cast<std::int64_t>(f.size()) - 50);
  EXPECT_EQ(f.lseek(-1, Whence::kSet), -1);  // before start: error
  EXPECT_EQ(f.lseek(1, Whence::kEnd), -1);   // past end: error
}

TEST_F(DpssPipeTest, ReadAtEndIsShort) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok());
  auto& f = *file.value();
  ASSERT_GE(f.lseek(-10, Whence::kEnd), 0);
  std::vector<std::uint8_t> buf(100);
  auto n = f.read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), 10u);
  // Fully past the end: zero bytes.
  auto n2 = f.read(buf.data(), buf.size());
  ASSERT_TRUE(n2.is_ok());
  EXPECT_EQ(n2.value(), 0u);
}

TEST_F(DpssPipeTest, ScatterReadExtents) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok());
  const auto expected = step_bytes(desc_, 0);

  std::vector<std::uint8_t> a(100), b(333), c(8192);
  std::vector<DpssFile::Extent> extents = {
      {0, a.size(), a.data()},
      {5000, b.size(), b.data()},
      {12000, c.size(), c.data()},
  };
  ASSERT_TRUE(file.value()->read_extents(extents).is_ok());
  EXPECT_EQ(std::memcmp(a.data(), expected.data(), a.size()), 0);
  EXPECT_EQ(std::memcmp(b.data(), expected.data() + 5000, b.size()), 0);
  EXPECT_EQ(std::memcmp(c.data(), expected.data() + 12000, c.size()), 0);
}

TEST_F(DpssPipeTest, ScatterReadBeyondEndFails) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok());
  std::vector<std::uint8_t> buf(16);
  std::vector<DpssFile::Extent> extents = {
      {desc_.total_bytes() - 8, buf.size(), buf.data()}};
  EXPECT_FALSE(file.value()->read_extents(extents).is_ok());
}

TEST_F(DpssPipeTest, BlocksAreLoadBalancedAcrossServers) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok());
  std::vector<std::uint8_t> buf(desc_.bytes_per_step());
  ASSERT_TRUE(file.value()->read(buf.data(), buf.size()).is_ok());
  const auto per_server = file.value()->per_server_blocks();
  ASSERT_EQ(per_server.size(), 4u);
  std::uint64_t lo = per_server[0], hi = per_server[0];
  for (auto c : per_server) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  EXPECT_GT(lo, 0u);
  EXPECT_LE(hi - lo, 1u);  // round-robin striping is near-perfectly even
}

TEST_F(DpssPipeTest, StoreIsBalancedAcrossServers) {
  std::size_t lo = SIZE_MAX, hi = 0;
  for (int s = 0; s < deployment_->server_count(); ++s) {
    const std::size_t n = deployment_->server(s).block_count(desc_.name);
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  EXPECT_GT(lo, 0u);
  EXPECT_LE(hi - lo, 1u);
}

TEST_F(DpssPipeTest, WriteReadRoundTripThroughClient) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok());
  auto& f = *file.value();

  std::vector<std::uint8_t> data(4096 * 2, 0xCD);
  ASSERT_GE(f.lseek(0), 0);
  ASSERT_TRUE(f.write(data.data(), data.size()).is_ok());

  std::vector<std::uint8_t> back(data.size());
  auto n = f.pread(back.data(), back.size(), 0);
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(back, data);
}

TEST_F(DpssPipeTest, UnalignedWriteRejected) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok());
  std::vector<std::uint8_t> data(10);
  ASSERT_GE(file.value()->lseek(1), 0);
  EXPECT_FALSE(file.value()->write(data.data(), data.size()).is_ok());
}

TEST(DpssAcl, TokenEnforcement) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(2);
  ASSERT_TRUE(deployment.ingest(desc).is_ok());
  deployment.master().set_acl({"good-token"});

  auto client = deployment.make_client();
  auto denied = client.open(desc.name, "bad-token");
  EXPECT_FALSE(denied.is_ok());
  EXPECT_EQ(denied.status().code(), core::StatusCode::kPermissionDenied);

  auto client2 = deployment.make_client();
  auto allowed = client2.open(desc.name, "good-token");
  EXPECT_TRUE(allowed.is_ok());
}

TEST(DpssParallel, ConcurrentClientsSeeConsistentData) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(3);
  ASSERT_TRUE(deployment.ingest(desc, 4096).is_ok());
  const auto expected = step_bytes(desc, 0);

  std::vector<std::thread> threads;
  for (int c = 0; c < 6; ++c) {
    threads.emplace_back([&deployment, &desc, &expected] {
      auto client = deployment.make_client();
      auto file = client.open(desc.name);
      ASSERT_TRUE(file.is_ok());
      std::vector<std::uint8_t> buf(expected.size());
      auto n = file.value()->read(buf.data(), buf.size());
      ASSERT_TRUE(n.is_ok());
      EXPECT_EQ(buf, expected);
    });
  }
  for (auto& t : threads) t.join();
}

TEST(DpssStripeBlocks, LargerStripesStillCorrect) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(2);
  ASSERT_TRUE(deployment.ingest(desc, 4096, /*stripe_blocks=*/4).is_ok());
  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  const auto expected = step_bytes(desc, 0);
  std::vector<std::uint8_t> buf(expected.size());
  ASSERT_TRUE(file.value()->read(buf.data(), buf.size()).is_ok());
  EXPECT_EQ(buf, expected);
}

// A block server over a socketpair door that answers each read of block b
// with a reply naming block `named(b)`, every byte `fill`, after `delay`
// seconds.
class FakeBlockServer {
 public:
  FakeBlockServer(std::uint32_t block_bytes,
                  std::function<std::uint64_t(std::uint64_t)> named,
                  std::uint8_t fill, double delay)
      : door_([=](net::Message&& msg, std::uint64_t) -> net::Reply {
          auto req = decode<BlockReadRequest>(msg);
          if (!req.is_ok()) return encode_error_reply(req.status());
          BlockReadReply reply;
          reply.block = named(req.value().block);
          reply.data.assign(block_bytes, fill);
          return net::Reply(encode(reply), delay);
        }) {}

  core::Result<net::StreamPtr> connect() { return door_.connect(); }

 private:
  test_support::LocalDoor door_;
};

// A reply must name the block its request named.  Here server 1 answers
// each request for block b with block b ^ 1, one of server 0's blocks,
// after server 0's replies have landed.  Its leg fails and the read with
// it, and none of its bytes reach the caller's buffer, not even the part
// server 0's leg fills.
TEST(DpssMisnamedReply, FailsItsLegAndFillsNoBuffer) {
  constexpr std::uint32_t kBlock = 4096;
  constexpr std::uint64_t kBlocks = 8;
  constexpr std::uint8_t kLie = 0xEE;
  Master master;
  DatasetLayout layout;
  layout.total_bytes = kBlocks * kBlock;
  layout.block_bytes = kBlock;
  layout.server_count = 2;
  const std::vector<ServerAddress> servers = {{"server-0", 0},
                                              {"server-1", 1}};
  ASSERT_TRUE(master.register_dataset("ds", layout, servers).is_ok());
  test_support::LocalDoor master_door(
      [&master](net::Message&& msg, std::uint64_t) {
        return master.handle_request(std::move(msg));
      });
  FakeBlockServer honest(
      kBlock, [](std::uint64_t b) { return b; }, 0x01, 0.0);
  FakeBlockServer liar(
      kBlock, [](std::uint64_t b) { return b ^ 1; }, kLie, 0.05);
  auto master_stream = master_door.connect();
  ASSERT_TRUE(master_stream.is_ok());
  DpssClient client(std::move(master_stream).take(),
                    [&](const ServerAddress& addr) {
                      return addr.port == 0 ? honest.connect()
                                            : liar.connect();
                    });
  auto file = client.open("ds");
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();

  std::vector<std::uint8_t> got(kBlocks * kBlock, 0);
  EXPECT_FALSE(file.value()->pread(got.data(), got.size(), 0).is_ok());
  EXPECT_EQ(std::count(got.begin(), got.end(), kLie), 0);
}

}  // namespace
}  // namespace visapult::dpss
