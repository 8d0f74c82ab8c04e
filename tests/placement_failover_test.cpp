// Failover paths through the placement subsystem: replica reads surviving
// a server kill, failure reporting into the master's health tracking,
// health-ranked opens, rejoin, and live rebalancing on join/leave.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "dpss/deployment.h"
#include "support/test_support.h"

namespace visapult::dpss {
namespace {

std::vector<std::uint8_t> expected_bytes(const vol::DatasetDesc& desc) {
  std::vector<std::uint8_t> expect;
  expect.reserve(desc.total_bytes());
  for (int t = 0; t < desc.timesteps; ++t) {
    const vol::Volume v = desc.generate(t);
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(v.data().data());
    expect.insert(expect.end(), bytes, bytes + v.byte_size());
  }
  return expect;
}

TEST(PlacementFailover, ReplicatedIngestPlacesEveryBlockTwice) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(4);
  ASSERT_TRUE(deployment.ingest(desc, 8192, 1, /*replication_factor=*/2)
                  .is_ok());
  auto map = deployment.master().placement_map(desc.name);
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->replication_factor(), 2u);
  // Each server stores exactly the blocks the map assigns it.
  for (int s = 0; s < deployment.server_count(); ++s) {
    std::size_t expected = 0;
    for (std::uint64_t b = 0; b < map->block_count(); ++b) {
      if (map->server_holds_block(static_cast<std::uint32_t>(s), b)) ++expected;
    }
    EXPECT_EQ(deployment.server(s).block_count(desc.name), expected);
  }
  std::size_t total = 0;
  for (int s = 0; s < deployment.server_count(); ++s) {
    total += deployment.server(s).block_count(desc.name);
  }
  EXPECT_EQ(total, static_cast<std::size_t>(map->block_count()) * 2u);
}

TEST(PlacementFailover, PipeReadSurvivesServerKillMidScan) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(4);
  ASSERT_TRUE(deployment.ingest(desc, 8192, 1, 2).is_ok());

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();

  const auto expect = expected_bytes(desc);
  std::vector<std::uint8_t> buf(expect.size());
  const std::size_t half = buf.size() / 2;

  auto n1 = file.value()->read(buf.data(), half);
  ASSERT_TRUE(n1.is_ok());
  ASSERT_EQ(n1.value(), half);

  deployment.kill_server(1);

  auto n2 = file.value()->read(buf.data() + half, buf.size() - half);
  ASSERT_TRUE(n2.is_ok()) << n2.status().to_string();
  ASSERT_EQ(n2.value(), buf.size() - half);
  EXPECT_EQ(std::memcmp(buf.data(), expect.data(), buf.size()), 0);

  // The file noticed (at most one server died) and failed over.
  const auto dead = file.value()->dead_servers();
  ASSERT_LE(dead.size(), 1u);
  if (!dead.empty()) {
    EXPECT_EQ(dead[0], 1);
    EXPECT_GT(file.value()->failover_reads(), 0u);
    // ...and told the master, whose health ranking now demotes the server.
    EXPECT_NE(deployment.master().health().state(deployment.server_address(1)),
              placement::HealthState::kUp);
  }
}

TEST(PlacementFailover, SingleCopyKillStillFailsCleanly) {
  // Replication factor 1 has nowhere to fail over: the classic error
  // surfaces, it must not hang or crash.
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(2);
  ASSERT_TRUE(deployment.ingest(desc, 8192).is_ok());
  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  deployment.kill_server(0);
  std::vector<std::uint8_t> buf(desc.total_bytes());
  EXPECT_FALSE(file.value()->read(buf.data(), buf.size()).is_ok());
}

TEST(PlacementFailover, DownRankedServerIsAvoidedOnNewOpens) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(4);
  ASSERT_TRUE(deployment.ingest(desc, 8192, 1, 2).is_ok());

  // Three failure reports take server 2 down in the master's eyes; the
  // server itself keeps running (a flapping NIC, say).
  const auto victim = deployment.server_address(2);
  for (int i = 0; i < 3; ++i) deployment.master().report_failure(victim);
  ASSERT_EQ(deployment.master().health().state(victim),
            placement::HealthState::kDown);

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  std::vector<std::uint8_t> buf(desc.total_bytes());
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  // Every block has a live replica ranked above the down server.
  EXPECT_EQ(file.value()->per_server_blocks()[2], 0u);
  EXPECT_EQ(expected_bytes(desc),
            std::vector<std::uint8_t>(buf.begin(), buf.end()));
}

TEST(PlacementFailover, LoadRankingPrefersLeastLoadedReplica) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(4);
  ASSERT_TRUE(deployment.ingest(desc, 8192, 1, 2).is_ok());

  // Server 3 reports a crushing load; everyone else is idle.
  deployment.master().heartbeat(deployment.server_address(3), 1000000);

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  std::vector<std::uint8_t> buf(desc.total_bytes());
  ASSERT_TRUE(file.value()->read(buf.data(), buf.size()).is_ok());
  // With rf=2 every block has an idle replica to prefer.
  EXPECT_EQ(file.value()->per_server_blocks()[3], 0u);
}

// ---- the same levers over both transports ----

core::Result<DpssClient> new_client(PipeDeployment& d) {
  return d.make_client();
}
core::Result<DpssClient> new_client(TcpDeployment& d) {
  return d.make_client();
}

// Open `desc` on `client`, read it whole and close it; `dead` receives the
// servers the file marked dead.
core::Result<std::vector<std::uint8_t>> read_on(
    DpssClient& client, const vol::DatasetDesc& desc,
    std::vector<int>* dead = nullptr) {
  auto file = client.open(desc.name);
  if (!file.is_ok()) return file.status();
  std::vector<std::uint8_t> buf(desc.total_bytes());
  auto n = file.value()->read(buf.data(), buf.size());
  if (!n.is_ok()) return n.status();
  buf.resize(n.value());
  if (dead) *dead = file.value()->dead_servers();
  return buf;
}

// The same on a fresh client.
template <typename D>
core::Result<std::vector<std::uint8_t>> read_whole(
    D& deployment, const vol::DatasetDesc& desc,
    std::vector<int>* dead = nullptr) {
  auto client = new_client(deployment);
  if (!client.is_ok()) return client.status();
  return read_on(client.value(), desc, dead);
}

template <typename D>
class PlacementFailoverLevers : public ::testing::Test {
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
TYPED_TEST_SUITE(PlacementFailoverLevers, Transports, TransportName);

TYPED_TEST(PlacementFailoverLevers, RejoinAfterReviveServesAgain) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  auto& deployment = this->deployment;
  ASSERT_TRUE(deployment.ingest(desc, 8192, 1, 2).is_ok());

  deployment.kill_server(0);
  ASSERT_TRUE(deployment.server_killed(0));
  ASSERT_TRUE(read_whole(deployment, desc).is_ok());

  // The server comes back at the address the catalog lists.
  const auto address = deployment.server_address(0);
  deployment.revive_server(0);
  EXPECT_FALSE(deployment.server_killed(0));
  EXPECT_EQ(deployment.server_address(0), address);
  EXPECT_EQ(deployment.master().health().state(address),
            placement::HealthState::kUp);
  std::vector<int> dead;
  auto bytes = read_whole(deployment, desc, &dead);
  ASSERT_TRUE(bytes.is_ok()) << bytes.status().to_string();
  EXPECT_TRUE(dead.empty());
  EXPECT_EQ(expected_bytes(desc), bytes.value());
}

TYPED_TEST(PlacementFailoverLevers, PooledStreamToRevivedServerIsReplaced) {
  // A single copy: no replica to fail over to, so the read after the
  // restart succeeds only if the client replaces the connection it pooled
  // to server 0 -- which died with the old server -- instead of reusing it.
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  auto& deployment = this->deployment;
  ASSERT_TRUE(deployment.ingest(desc, 8192).is_ok());
  auto client = new_client(deployment);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  auto first = read_on(client.value(), desc);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();

  deployment.kill_server(0);
  deployment.revive_server(0);
  ASSERT_FALSE(deployment.server_killed(0));

  std::vector<int> dead;
  auto second = read_on(client.value(), desc, &dead);
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_TRUE(dead.empty());
  EXPECT_EQ(first.value(), second.value());
  EXPECT_EQ(expected_bytes(desc), second.value());
}

TYPED_TEST(PlacementFailoverLevers, RebalanceOntoJoiningServer) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  auto& deployment = this->deployment;
  ASSERT_TRUE(deployment.ingest(desc, 8192, 1, 2).is_ok());

  const int joined = deployment.add_server();
  ASSERT_EQ(joined, 3);
  ASSERT_TRUE(deployment.rebalance_dataset(desc.name).is_ok());

  // The joiner now holds its ring share and the map agrees with reality.
  EXPECT_GT(deployment.server(joined).block_count(desc.name), 0u);
  auto map = deployment.master().placement_map(desc.name);
  ASSERT_NE(map, nullptr);
  for (int s = 0; s < deployment.server_count(); ++s) {
    std::size_t expected = 0;
    for (std::uint64_t b = 0; b < map->block_count(); ++b) {
      if (map->server_holds_block(static_cast<std::uint32_t>(s), b)) ++expected;
    }
    EXPECT_EQ(deployment.server(s).block_count(desc.name), expected)
        << "server " << s;
  }

  std::vector<int> dead;
  auto bytes = read_whole(deployment, desc, &dead);
  ASSERT_TRUE(bytes.is_ok()) << bytes.status().to_string();
  EXPECT_TRUE(dead.empty());
  EXPECT_EQ(expected_bytes(desc), bytes.value());
}

TEST(PlacementFailover, RebalanceAfterKillRestoresReplication) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(4);
  ASSERT_TRUE(deployment.ingest(desc, 8192, 1, 2).is_ok());

  deployment.kill_server(2);
  ASSERT_TRUE(deployment.rebalance_dataset(desc.name).is_ok());

  // The new map never places a block on the dead server, and both replicas
  // of every block exist on live servers.
  auto map = deployment.master().placement_map(desc.name);
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->ring().size(), 3u);
  for (std::uint64_t b = 0; b < map->block_count(); ++b) {
    const auto& replicas = map->replicas_for_block(b).servers;
    ASSERT_EQ(replicas.size(), 2u);
    for (std::uint32_t s : replicas) {
      const auto addr = map->ring().servers()[s];
      EXPECT_NE(addr, deployment.server_address(2));
      BlockServer* holder = nullptr;
      for (int i = 0; i < deployment.server_count(); ++i) {
        if (deployment.server_address(i) == addr) {
          holder = &deployment.server(i);
        }
      }
      ASSERT_NE(holder, nullptr);
      EXPECT_TRUE(holder->has_block(desc.name, b));
    }
  }

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  // The rebalanced catalog no longer lists the dead server at all.
  EXPECT_EQ(file.value()->server_count(), 3);
  std::vector<std::uint8_t> buf(desc.total_bytes());
  ASSERT_TRUE(file.value()->read(buf.data(), buf.size()).is_ok());
  EXPECT_EQ(expected_bytes(desc),
            std::vector<std::uint8_t>(buf.begin(), buf.end()));
  EXPECT_TRUE(file.value()->dead_servers().empty());
}

TEST(PlacementFailover, ReplicationFactorRestoredAfterShrinkAndRegrow) {
  // A transient shrink below the replication factor must not permanently
  // downgrade the dataset: the clamp applies to the active map only.
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(3);
  ASSERT_TRUE(deployment.ingest(desc, 8192, 1, 2).is_ok());

  deployment.kill_server(1);
  deployment.kill_server(2);
  ASSERT_TRUE(deployment.rebalance_dataset(desc.name).is_ok());
  auto shrunk = deployment.master().placement_map(desc.name);
  ASSERT_NE(shrunk, nullptr);
  EXPECT_EQ(shrunk->replication_factor(), 1u);  // clamped to the one survivor

  deployment.revive_server(1);
  deployment.revive_server(2);
  ASSERT_TRUE(deployment.rebalance_dataset(desc.name).is_ok());
  auto regrown = deployment.master().placement_map(desc.name);
  ASSERT_NE(regrown, nullptr);
  EXPECT_EQ(regrown->replication_factor(), 2u);  // configured factor is back

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  std::vector<std::uint8_t> buf(desc.total_bytes());
  ASSERT_TRUE(file.value()->read(buf.data(), buf.size()).is_ok());
  EXPECT_EQ(expected_bytes(desc),
            std::vector<std::uint8_t>(buf.begin(), buf.end()));
}

TEST(PlacementFailover, ClassicStripedDatasetCannotRebalance) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(2);
  ASSERT_TRUE(deployment.ingest(desc, 8192).is_ok());
  const auto st = deployment.rebalance_dataset(desc.name);
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), core::StatusCode::kFailedPrecondition);
}

// The ISSUE acceptance scenario: a 4-server TCP deployment at replication
// factor 2, one server killed mid-read, and a sequential scan of the
// striped dataset completing with zero read errors.
TEST(PlacementFailover, TcpScanSurvivesServerKillMidRead) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  TcpDeployment deployment(4);
  ASSERT_TRUE(deployment.start().is_ok());
  ASSERT_TRUE(deployment.ingest(desc, 8192, 1, /*replication_factor=*/2)
                  .is_ok());

  auto client = deployment.make_client();
  ASSERT_TRUE(client.is_ok());
  auto file = client.value().open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();

  const auto expect = expected_bytes(desc);
  std::vector<std::uint8_t> buf(expect.size());
  const std::size_t third = buf.size() / 3;

  auto n1 = file.value()->read(buf.data(), third);
  ASSERT_TRUE(n1.is_ok());
  ASSERT_EQ(n1.value(), third);

  deployment.kill_server(0);

  auto n2 = file.value()->read(buf.data() + third, buf.size() - third);
  ASSERT_TRUE(n2.is_ok()) << n2.status().to_string();
  ASSERT_EQ(n2.value(), buf.size() - third);
  EXPECT_EQ(std::memcmp(buf.data(), expect.data(), buf.size()), 0);
  deployment.stop();
}

TEST(PlacementFailover, TcpOpenAfterKillToleratesDeadServer) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  TcpDeployment deployment(4);
  ASSERT_TRUE(deployment.ingest(desc, 8192, 1, 2).is_ok());
  deployment.kill_server(3);

  auto client = deployment.make_client();
  ASSERT_TRUE(client.is_ok());
  auto file = client.value().open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  EXPECT_EQ(file.value()->dead_servers(), std::vector<int>{3});

  const auto expect = expected_bytes(desc);
  std::vector<std::uint8_t> buf(expect.size());
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(std::memcmp(buf.data(), expect.data(), buf.size()), 0);
  deployment.stop();
}

}  // namespace
}  // namespace visapult::dpss
