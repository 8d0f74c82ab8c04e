// Erasure coding end to end through the DPSS tier: ingest-time encoding at
// ~(k+m)/k capacity, client-side reconstruction reads through dead
// servers (including the kill-two-mid-read TCP acceptance scenario),
// slice-level rebalancing with reconstruction after a disk loss, and the
// master's background re-replication trigger.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "codec/stripe_layout.h"
#include "dpss/deployment.h"
#include "support/test_support.h"

namespace visapult::dpss {
namespace {

constexpr codec::EcProfile kEc42{4, 2};
constexpr codec::EcProfile kEc22{2, 2};

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

std::size_t farm_bytes(PipeDeployment& d) {
  std::size_t total = 0;
  for (int i = 0; i < d.server_count(); ++i) {
    total += d.server(i).total_bytes();
  }
  return total;
}

TEST(CodecIngest, SlicesLandExactlyWhereTheLayoutSays) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(8);
  ASSERT_TRUE(deployment.ingest(desc, 8192, 1, 1, kEc42).is_ok());

  auto map = deployment.master().placement_map(desc.name);
  ASSERT_NE(map, nullptr);
  ASSERT_TRUE(map->erasure_coded());
  EXPECT_EQ(map->ec_profile(), kEc42);
  EXPECT_EQ(map->stripe_blocks(), 4u);
  codec::StripeLayout layout(map);

  const std::string parity = codec::StripeLayout::parity_dataset(desc.name);
  for (std::uint64_t b = 0; b < map->block_count(); ++b) {
    const int owner = layout.server_for_slice(layout.group_of_block(b),
                                              layout.slice_of_block(b));
    ASSERT_GE(owner, 0);
    // The data slice sits verbatim on its one owner and nowhere else.
    for (int s = 0; s < deployment.server_count(); ++s) {
      EXPECT_EQ(deployment.server(s).has_block(desc.name, b), s == owner)
          << "block " << b << " server " << s;
    }
  }
  for (std::uint64_t g = 0; g < layout.group_count(); ++g) {
    for (std::uint32_t j = 0; j < kEc42.parity_slices; ++j) {
      const int owner = layout.server_for_slice(g, kEc42.data_slices + j);
      ASSERT_GE(owner, 0);
      EXPECT_TRUE(
          deployment.server(owner).has_block(parity, layout.parity_block(g, j)))
          << "group " << g << " parity " << j;
    }
  }
}

TEST(CodecIngest, CapacityStaysUnderOnePointSixX) {
  // The acceptance bound: (4,2) stores at ~1.5x raw, < 1.6x even with a
  // short final block and a zero-padded tail group (block size 12 KB does
  // not divide the dataset), where rf=2 would store 2.0x.
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);

  PipeDeployment ec_farm(8);
  ASSERT_TRUE(ec_farm.ingest(desc, 12288, 1, 1, kEc42).is_ok());
  const double ec_ratio = static_cast<double>(farm_bytes(ec_farm)) /
                          static_cast<double>(desc.total_bytes());
  EXPECT_GE(ec_ratio, 1.45);
  EXPECT_LE(ec_ratio, 1.6);

  PipeDeployment rf_farm(8);
  ASSERT_TRUE(rf_farm.ingest(desc, 8192, 1, 2).is_ok());
  const double rf_ratio = static_cast<double>(farm_bytes(rf_farm)) /
                          static_cast<double>(desc.total_bytes());
  EXPECT_NEAR(rf_ratio, 2.0, 0.01);
}

TEST(CodecIngest, EcNeedsKPlusMServersAndNoReplication) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(4);
  EXPECT_FALSE(deployment.ingest(desc, 8192, 1, 1, codec::EcProfile{4, 2})
                   .is_ok());  // needs 6 servers
  EXPECT_FALSE(deployment.ingest(desc, 8192, 1, 2, kEc22).is_ok());  // rf 2 + EC
  EXPECT_TRUE(deployment.ingest(desc, 8192, 1, 1, kEc22).is_ok());
}

TEST(CodecIngest, HalfEnabledProfileIngestsAsClassicAndStaysOpenable) {
  // {0, m}.enabled() is false, so the dataset must behave exactly like a
  // classic stripe end to end -- in particular the master must not
  // serialize the malformed profile into OpenReply, which would brick
  // every open at the decoder's wire validation.
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(3);
  ASSERT_TRUE(
      deployment.ingest(desc, 8192, 1, 1, codec::EcProfile{0, 2}).is_ok());
  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  EXPECT_FALSE(file.value()->ec_profile().enabled());
  const auto expect = expected_bytes(desc);
  std::vector<std::uint8_t> buf(expect.size());
  ASSERT_TRUE(file.value()->read(buf.data(), buf.size()).is_ok());
  EXPECT_EQ(std::memcmp(buf.data(), expect.data(), buf.size()), 0);
}

TEST(CodecIngest, HalfEnabledProfileSyncsThroughPlacementDeltas) {
  // The master's log keeps the {0, m} profile as registered; placement
  // deltas serve those log entries, so they must decode as well.
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(3);
  ASSERT_TRUE(
      deployment.ingest(desc, 8192, 1, 1, codec::EcProfile{0, 2}).is_ok());
  auto client = deployment.make_client();
  auto epoch = client.sync_placement(desc.name);
  ASSERT_TRUE(epoch.is_ok()) << epoch.status().to_string();
  EXPECT_EQ(epoch.value(), deployment.master().meta_epoch());
  auto mirrored = client.placement_mirror().lookup(desc.name);
  ASSERT_TRUE(mirrored.has_value());
  EXPECT_FALSE(mirrored->placement.ec.enabled());
}

TEST(CodecFailover, HealthyScanNeverTouchesParity) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(8);
  ASSERT_TRUE(deployment.ingest(desc, 8192, 1, 1, kEc42).is_ok());

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  EXPECT_EQ(file.value()->ec_profile(), kEc42);

  const auto expect = expected_bytes(desc);
  std::vector<std::uint8_t> buf(expect.size());
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(std::memcmp(buf.data(), expect.data(), buf.size()), 0);
  // Systematic fast path: no reconstruction, and raw bytes == one dataset.
  EXPECT_EQ(file.value()->reconstructed_reads(), 0u);
  EXPECT_EQ(file.value()->raw_bytes_received(), desc.total_bytes());
}

TEST(CodecFailover, PipeScanSurvivesKillMidScanViaReconstruction) {
  // 12 KB blocks: the final block is short and the last group zero-padded,
  // so reconstruction exercises both padding paths.
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(6);
  ASSERT_TRUE(deployment.ingest(desc, 12288, 1, 1, kEc42).is_ok());

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();

  const auto expect = expected_bytes(desc);
  std::vector<std::uint8_t> buf(expect.size());
  const std::size_t half = buf.size() / 2;
  auto n1 = file.value()->read(buf.data(), half);
  ASSERT_TRUE(n1.is_ok());

  deployment.kill_server(2);

  auto n2 = file.value()->read(buf.data() + half, buf.size() - half);
  ASSERT_TRUE(n2.is_ok()) << n2.status().to_string();
  ASSERT_EQ(n2.value(), buf.size() - half);
  EXPECT_EQ(std::memcmp(buf.data(), expect.data(), buf.size()), 0);

  const auto dead = file.value()->dead_servers();
  ASSERT_LE(dead.size(), 1u);
  if (!dead.empty()) {
    EXPECT_EQ(dead[0], 2);
    // Blocks whose data slice lived on server 2 were rebuilt from parity,
    // and the master heard about the failure.
    EXPECT_GT(file.value()->reconstructed_reads(), 0u);
    EXPECT_NE(deployment.master().health().state(deployment.server_address(2)),
              placement::HealthState::kUp);
  }
}

// The ISSUE acceptance scenario: a 4-server TCP deployment with (2, 2)
// erasure coding, TWO servers killed mid-read, and the sequential scan
// completing through client-side reconstruction.
TEST(CodecFailover, TcpScanSurvivesKillTwoMidRead) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  TcpDeployment deployment(4);
  ASSERT_TRUE(deployment.start().is_ok());
  ASSERT_TRUE(deployment.ingest(desc, 8192, 1, 1, kEc22).is_ok());

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
  deployment.kill_server(2);

  auto n2 = file.value()->read(buf.data() + third, buf.size() - third);
  ASSERT_TRUE(n2.is_ok()) << n2.status().to_string();
  ASSERT_EQ(n2.value(), buf.size() - third);
  EXPECT_EQ(std::memcmp(buf.data(), expect.data(), buf.size()), 0);
  // With (2,2) on four servers every group lost at most two slices, so
  // every block either read in place or reconstructed -- zero errors.
  EXPECT_GT(file.value()->reconstructed_reads(), 0u);
  deployment.stop();
}

TEST(CodecFailover, OpenAfterKillToleratesDeadServers) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(6);
  ASSERT_TRUE(deployment.ingest(desc, 8192, 1, 1, kEc42).is_ok());
  deployment.kill_server(1);
  deployment.kill_server(4);

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  const auto expect = expected_bytes(desc);
  std::vector<std::uint8_t> buf(expect.size());
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  EXPECT_EQ(std::memcmp(buf.data(), expect.data(), buf.size()), 0);
}

TEST(CodecFailover, LossBeyondParityFailsCleanly) {
  // (2,1): two dead servers can leave a group with one surviving slice --
  // the read must fail with a status, not hang or mis-decode.
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(3);
  ASSERT_TRUE(deployment.ingest(desc, 8192, 1, 1, codec::EcProfile{2, 1})
                  .is_ok());
  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  deployment.kill_server(0);
  deployment.kill_server(1);
  std::vector<std::uint8_t> buf(desc.total_bytes());
  const auto n = file.value()->read(buf.data(), buf.size());
  EXPECT_FALSE(n.is_ok());
}

TEST(CodecRebalance, SliceLevelPlanAfterWipeReconstructsAndRestoresRedundancy) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(7);
  ASSERT_TRUE(deployment.ingest(desc, 8192, 1, 1, kEc42).is_ok());

  // Disk loss: server 3's store is wiped, so any slice it held must be
  // reconstructed (not copied) while rebalancing onto the survivors.
  deployment.wipe_server(3);
  ASSERT_TRUE(deployment.rebalance_dataset(desc.name).is_ok());

  auto map = deployment.master().placement_map(desc.name);
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->ring().size(), 6u);
  EXPECT_EQ(map->ec_profile(), kEc42);
  codec::StripeLayout layout(map);
  const std::string parity = codec::StripeLayout::parity_dataset(desc.name);

  // Every slice of every group now lives on a live server.
  auto server_of = [&](const placement::ServerAddress& addr) -> BlockServer* {
    for (int i = 0; i < deployment.server_count(); ++i) {
      if (deployment.server_address(i) == addr) return &deployment.server(i);
    }
    return nullptr;
  };
  for (std::uint64_t g = 0; g < layout.group_count(); ++g) {
    for (std::uint32_t s = 0; s < kEc42.total_slices(); ++s) {
      const int owner = layout.server_for_slice(g, s);
      ASSERT_GE(owner, 0);
      const auto addr = map->ring().servers()[static_cast<std::uint32_t>(owner)];
      EXPECT_NE(addr, deployment.server_address(3)) << "group " << g;
      BlockServer* srv = server_of(addr);
      ASSERT_NE(srv, nullptr);
      if (s < kEc42.data_slices) {
        const std::uint64_t block = layout.block_of_slice(g, s);
        if (block >= map->block_count()) continue;
        EXPECT_TRUE(srv->has_block(desc.name, block))
            << "group " << g << " data slice " << s;
      } else {
        EXPECT_TRUE(srv->has_block(
            parity, layout.parity_block(g, s - kEc42.data_slices)))
            << "group " << g << " parity slice " << s;
      }
    }
  }

  // And a fresh client reads the full dataset without reconstruction.
  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  const auto expect = expected_bytes(desc);
  std::vector<std::uint8_t> buf(expect.size());
  ASSERT_TRUE(file.value()->read(buf.data(), buf.size()).is_ok());
  EXPECT_EQ(std::memcmp(buf.data(), expect.data(), buf.size()), 0);
  EXPECT_EQ(file.value()->reconstructed_reads(), 0u);
}

TEST(CodecRebalance, EcRebalanceRefusedBelowKPlusMServers) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(4);
  ASSERT_TRUE(deployment.ingest(desc, 8192, 1, 1, kEc22).is_ok());
  deployment.kill_server(0);
  const auto st = deployment.rebalance_dataset(desc.name);
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), core::StatusCode::kFailedPrecondition);
}

TEST(AutoRebalance, MasterRebalancesAfterDownDeadline) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(5);
  ASSERT_TRUE(deployment.ingest(desc, 8192, 1, 2).is_ok());
  deployment.enable_auto_rebalance(/*down_deadline_seconds=*/10.0);

  // Server 1 dies; failure reports take it down in the master's eyes.
  deployment.kill_server(1);
  for (int i = 0; i < 3; ++i) {
    deployment.master().report_failure(deployment.server_address(1));
  }
  ASSERT_EQ(deployment.master().health().state(deployment.server_address(1)),
            placement::HealthState::kDown);

  // First observation arms the deadline; nothing moves yet.
  EXPECT_TRUE(deployment.master().tick(0.0).empty());
  auto before = deployment.master().placement_map(desc.name);
  // Still within the deadline.
  EXPECT_TRUE(deployment.master().tick(5.0).empty());
  EXPECT_EQ(deployment.master().placement_map(desc.name), before);

  // Past the deadline: the master re-plans on its own.
  const auto rebalanced = deployment.master().tick(12.0);
  ASSERT_EQ(rebalanced.size(), 1u);
  EXPECT_EQ(rebalanced[0], desc.name);
  auto map = deployment.master().placement_map(desc.name);
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->ring().size(), 4u);
  EXPECT_EQ(map->replication_factor(), 2u);

  // Nothing left referencing the dead server: the next tick is a no-op.
  EXPECT_TRUE(deployment.master().tick(20.0).empty());

  // Reads over the repaired placement see the full dataset.
  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  const auto expect = expected_bytes(desc);
  std::vector<std::uint8_t> buf(expect.size());
  ASSERT_TRUE(file.value()->read(buf.data(), buf.size()).is_ok());
  EXPECT_EQ(std::memcmp(buf.data(), expect.data(), buf.size()), 0);
  EXPECT_TRUE(file.value()->dead_servers().empty());
}

TEST(AutoRebalance, RejoinBeforeDeadlineCancelsTheTrigger) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(4);
  ASSERT_TRUE(deployment.ingest(desc, 8192, 1, 2).is_ok());
  deployment.enable_auto_rebalance(10.0);

  deployment.kill_server(2);
  for (int i = 0; i < 3; ++i) {
    deployment.master().report_failure(deployment.server_address(2));
  }
  EXPECT_TRUE(deployment.master().tick(0.0).empty());

  // The server heartbeats back in before the deadline expires.
  deployment.revive_server(2);
  EXPECT_TRUE(deployment.master().tick(9.0).empty());
  auto map = deployment.master().placement_map(desc.name);
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->ring().size(), 4u);  // untouched
}

}  // namespace
}  // namespace visapult::dpss
