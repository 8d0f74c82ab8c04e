// One serving path: both transports serve the master and every block server
// through the same reactor doors, and a pipe deployment differs from a TCP
// one only in how a door opens and how a stream reaches it.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "dpss/deployment.h"
#include "net/message.h"
#include "support/test_support.h"

namespace visapult::dpss {
namespace {

core::Result<DpssClient> new_client(PipeDeployment& d) {
  return d.make_client();
}
core::Result<DpssClient> new_client(TcpDeployment& d) {
  return d.make_client();
}

// The value of one exported sample, or -1 when the scrape lacks it.
double sample(BlockServer& server, const std::string& name,
              const std::string& labels = "") {
  for (const obs::Sample& s : server.metrics_registry().samples()) {
    if (s.name == name && s.labels == labels) return s.value;
  }
  return -1;
}

template <typename D>
class DeploymentDoors : public ::testing::Test {
 protected:
  D deployment{3};
};

struct TransportName {
  template <typename D>
  static std::string GetName(int) {
    return std::is_same_v<D, PipeDeployment> ? "Pipe" : "Tcp";
  }
};
using Transports = ::testing::Types<PipeDeployment, TcpDeployment>;
TYPED_TEST_SUITE(DeploymentDoors, Transports, TransportName);

// One rf=3 chain write of one block: the client's write reaches the
// primary's client door, and each of the two forwards reaches the next
// replica's peer door, which copies the frame into its read buffer and its
// payload into the request's Message.  The peer doors export those counts
// beside the client doors.
TYPED_TEST(DeploymentDoors, ChainWriteCountsOneRequestOnEachDownstreamPeerDoor) {
  constexpr std::uint32_t kBlock = 8192;
  auto& deployment = this->deployment;
  const vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  ASSERT_TRUE(
      deployment.ingest(desc, kBlock, 1, /*replication_factor=*/3).is_ok());
  auto client = new_client(deployment);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  auto file = client.value().open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  std::vector<std::uint64_t> client_requests;
  for (int i = 0; i < deployment.server_count(); ++i) {
    client_requests.push_back(deployment.server_net_stats(i).requests);
  }

  const std::vector<std::uint8_t> block(kBlock, 0xAB);
  ASSERT_TRUE(file.value()->write(block.data(), block.size()).is_ok());

  int primaries = 0;
  int downstream = 0;
  for (int i = 0; i < deployment.server_count(); ++i) {
    SCOPED_TRACE("server " + std::to_string(i));
    const net::ReactorServerStats peer = deployment.server_peer_net_stats(i);
    const std::uint64_t writes =
        deployment.server_net_stats(i).requests - client_requests[i];
    BlockServer& server = deployment.server(i);
    EXPECT_EQ(sample(server, "dpss_server_peer_net_requests_total"),
              static_cast<double>(peer.requests));
    EXPECT_EQ(sample(server, "dpss_server_peer_net_copy_bytes_total"),
              static_cast<double>(peer.copy_bytes));
    EXPECT_EQ(sample(server, "dpss_util_conn_bytes_read_total",
                     obs::label_pair("front", "peer")),
              static_cast<double>(peer.bytes_read));
    if (writes == 1) {
      ++primaries;
      EXPECT_EQ(peer.requests, 0u);
      EXPECT_EQ(peer.copy_bytes, 0u);
      continue;
    }
    ++downstream;
    EXPECT_EQ(writes, 0u);
    EXPECT_EQ(peer.requests, 1u);
    // bytes_read is the one forwarded frame: its header and its payload.
    EXPECT_GT(peer.bytes_read, net::kFrameHeaderBytes + kBlock);
    EXPECT_EQ(peer.copy_bytes, 2 * peer.bytes_read - net::kFrameHeaderBytes);
  }
  EXPECT_EQ(primaries, 1);
  EXPECT_EQ(downstream, 2);
}

template <typename D>
class DeploymentReadPath : public ::testing::Test {
 protected:
  D deployment{4};
};
TYPED_TEST_SUITE(DeploymentReadPath, Transports, TransportName);

// Summed over every block server: one exported sample, before and after.
double summed(Deployment& deployment, const std::string& name) {
  double total = 0;
  for (int i = 0; i < deployment.server_count(); ++i) {
    total += sample(deployment.server(i), name);
  }
  return total;
}

// A 1 MiB read of 16 64 KiB blocks striped over 4 servers: each server's
// leg sends its 4 requests with one send call, each block is copied once
// on the client (from its reply frame into the caller's buffer) and never
// out of a frame by decode, and every read runs on a loop, not on a
// client door's worker pool.  An rf=3 write still runs on the pool, once,
// at its primary.
TYPED_TEST(DeploymentReadPath, ColdReadSendsOneBatchPerServerAndCopiesEachBlockOnce) {
  constexpr std::uint32_t kBlock = 64 * 1024;
  constexpr std::size_t kRead = 16 * kBlock;
  auto& deployment = this->deployment;
  const vol::DatasetDesc desc = vol::small_combustion_dataset(4);
  vol::DatasetDesc rf3 = vol::small_combustion_dataset(1);
  rf3.name = "combustion-64-rf3";
  ASSERT_TRUE(deployment.ingest(desc, kBlock).is_ok());
  ASSERT_TRUE(deployment.ingest(rf3, kBlock, 1, /*replication_factor=*/3)
                  .is_ok());
  auto client = new_client(deployment);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  auto file = client.value().open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  ASSERT_EQ(file.value()->size(), kRead);
  obs::MetricsRegistry& file_reg = file.value()->metrics_registry();
  auto copied = [&](const char* site) {
    return file_reg
        .counter(std::string("dpss_client_copy_") + site + "_bytes_total")
        .value();
  };
  const char* kRequests = "dpss_server_requests_total";
  // Counted when a task is queued, before its handler runs; the wait
  // histogram is fed once the task has finished.
  const char* kPoolTasks = "dpss_util_pool_tasks_submitted_total";
  const char* kPoolWaits = "dpss_util_pool_task_wait_seconds_count";

  const net::TcpCallCounts t0 = net::tcp_call_counts();
  const double requests0 = summed(deployment, kRequests);
  const double tasks0 = summed(deployment, kPoolTasks);
  const double waits0 = summed(deployment, kPoolWaits);
  std::vector<std::uint8_t> got(kRead);
  auto n = file.value()->pread(got.data(), got.size(), 0);
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  ASSERT_EQ(n.value(), kRead);
  const net::TcpCallCounts t1 = net::tcp_call_counts();
  EXPECT_EQ(t1.frames_sent - t0.frames_sent, 16u);
  EXPECT_EQ(t1.send_calls - t0.send_calls, 4u);
  EXPECT_EQ(copied("user"), kRead);
  EXPECT_EQ(copied("decode"), 0u);
  EXPECT_EQ(summed(deployment, kRequests) - requests0, 16.0);
  EXPECT_EQ(summed(deployment, kPoolTasks) - tasks0, 0.0);
  EXPECT_EQ(summed(deployment, kPoolWaits) - waits0, 0.0);
  std::vector<std::uint8_t> want;
  for (int t = 0; t < desc.timesteps; ++t) {
    const vol::Volume v = desc.generate(t);
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data().data());
    want.insert(want.end(), p, p + v.byte_size());
  }
  EXPECT_TRUE(got == want);

  auto writer = client.value().open(rf3.name);
  ASSERT_TRUE(writer.is_ok()) << writer.status().to_string();
  std::vector<double> client_requests;
  std::vector<double> pool_tasks;
  for (int i = 0; i < deployment.server_count(); ++i) {
    client_requests.push_back(deployment.server_net_stats(i).requests);
    pool_tasks.push_back(sample(deployment.server(i), kPoolTasks));
  }
  const double waits1 = summed(deployment, kPoolWaits);
  const std::vector<std::uint8_t> block(kBlock, 0xAB);
  ASSERT_TRUE(writer.value()->write(block.data(), block.size()).is_ok());
  EXPECT_TRUE(test_support::wait_until(
      [&] { return summed(deployment, kPoolWaits) - waits1 == 1.0; }));
  int primaries = 0;
  for (int i = 0; i < deployment.server_count(); ++i) {
    SCOPED_TRACE("server " + std::to_string(i));
    const double writes =
        deployment.server_net_stats(i).requests - client_requests[i];
    const double tasks =
        sample(deployment.server(i), kPoolTasks) - pool_tasks[i];
    EXPECT_EQ(tasks, writes);
    if (writes == 1) ++primaries;
  }
  EXPECT_EQ(primaries, 1);
}

// A pipe deployment's reads go through its doors: every server's client
// door accepted the client's connection and counted its block reads, and
// the master's door counted the open.
TEST(PipeDeployment, ServesThroughItsDoors) {
  PipeDeployment deployment(3);
  const vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  ASSERT_TRUE(deployment.ingest(desc, 8192).is_ok());
  DpssClient client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();

  const vol::Volume v = desc.generate(0);
  std::vector<std::uint8_t> buf(v.byte_size());
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  ASSERT_EQ(n.value(), buf.size());
  EXPECT_EQ(std::memcmp(buf.data(), v.data().data(), buf.size()), 0);

  for (int i = 0; i < deployment.server_count(); ++i) {
    const net::ReactorServerStats s = deployment.server_net_stats(i);
    EXPECT_GE(s.accepted, 1u) << "server " << i;
    EXPECT_GE(s.requests, 1u) << "server " << i;
  }
  EXPECT_GE(deployment.master_net_stats().requests, 1u);
}

}  // namespace
}  // namespace visapult::dpss
