// Integration tests of the server-driven write pipeline over live
// deployments: chain replication under each ack policy, generation
// stamping through every cache tier, EC parity-delta writes,
// stale-replica read detection, and fixup-queue recovery after a primary
// dies.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "backend/data_source.h"
#include "dpss/deployment.h"
#include "ingest/chain.h"
#include "support/test_support.h"

namespace visapult::dpss {
namespace {

constexpr std::uint32_t kBlock = 8192;

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((i * 131 + salt) & 0xff);
  }
  return out;
}

// Ring-order primary of `block` when every server is healthy -- the same
// choice the client's write path makes.
int healthy_primary(const placement::PlacementMap& map, std::uint64_t block) {
  return ingest::plan_chain(map.replicas_for_block(block), {}, {}).primary;
}

// close() hands the file's connections back to the client's pool: later
// writes and reads fail cleanly, and no healthy server is reported to the
// master as failed.
TEST(IngestWrite, ClosedFileRefusesWritesAndReads) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(4);
  ASSERT_TRUE(deployment.ingest(desc, kBlock, 1, 2).is_ok());
  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  file.value()->close();

  const auto fresh = pattern_bytes(kBlock, 3);
  EXPECT_FALSE(file.value()->write(fresh.data(), fresh.size()).is_ok());
  std::vector<std::uint8_t> buf(kBlock);
  EXPECT_FALSE(file.value()->pread(buf.data(), buf.size(), 0).is_ok());
  for (int s = 0; s < deployment.server_count(); ++s) {
    EXPECT_EQ(deployment.master().health().state(deployment.server_address(s)),
              placement::HealthState::kUp)
        << "server " << s;
  }
}

TEST(IngestWrite, ChainWriteLandsOnEveryReplicaWithOneClientCopy) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(4);
  ASSERT_TRUE(deployment.ingest(desc, kBlock, 1, /*replication_factor=*/2)
                  .is_ok());
  auto map = deployment.master().placement_map(desc.name);
  ASSERT_NE(map, nullptr);

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();

  const auto fresh = pattern_bytes(desc.total_bytes(), 7);
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());
  EXPECT_EQ(file.value()->degraded_writes(), 0u);

  // Every replica of every block carries the new bytes at generation 1.
  for (std::uint64_t b = 0; b < map->block_count(); ++b) {
    const auto& replicas = map->replicas_for_block(b).servers;
    ASSERT_EQ(replicas.size(), 2u);
    const std::uint64_t len =
        std::min<std::uint64_t>(kBlock, desc.total_bytes() - b * kBlock);
    for (std::uint32_t s : replicas) {
      auto stored = deployment.server(static_cast<int>(s))
                        .stamped_block(desc.name, b);
      ASSERT_TRUE(stored.is_ok()) << "server " << s << " block " << b;
      EXPECT_EQ(stored.value().generation, 1u);
      ASSERT_EQ(stored.value().data.size(), len);
      EXPECT_EQ(0, std::memcmp(stored.value().data.data(),
                               fresh.data() + b * kBlock,
                               static_cast<std::size_t>(len)));
    }
  }

  // The second copy moved server-to-server, not through the client.
  std::uint64_t forwards = 0;
  for (int s = 0; s < deployment.server_count(); ++s) {
    forwards += deployment.server(s).chain_forwards();
  }
  EXPECT_EQ(forwards, map->block_count());

  // A fresh client reads the overwrite back.
  auto reader = deployment.make_client();
  auto rfile = reader.open(desc.name);
  ASSERT_TRUE(rfile.is_ok());
  std::vector<std::uint8_t> buf(desc.total_bytes());
  auto n = rfile.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  ASSERT_EQ(n.value(), buf.size());
  EXPECT_EQ(buf, fresh);
}

TEST(IngestWrite, PrimaryPolicyLeavesFollowersToFixupQueue) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(4);
  deployment.enable_fixups();
  ASSERT_TRUE(deployment.ingest(desc, kBlock, 1, 2).is_ok());
  auto map = deployment.master().placement_map(desc.name);

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  file.value()->set_ack_policy(ingest::AckPolicy::kPrimary);

  const auto fresh = pattern_bytes(desc.total_bytes(), 21);
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());
  // Every block is durable on its primary but owed to its follower.
  EXPECT_EQ(file.value()->degraded_writes(), map->block_count());
  EXPECT_EQ(deployment.master().fixup_depth(), map->block_count());

  // Followers are still at generation 0 (stale), primaries at 1.
  for (std::uint64_t b = 0; b < map->block_count(); ++b) {
    const int primary = healthy_primary(*map, b);
    for (std::uint32_t s : map->replicas_for_block(b).servers) {
      const std::uint64_t gen = deployment.server(static_cast<int>(s))
                                    .block_generation(desc.name, b);
      EXPECT_EQ(gen, static_cast<int>(s) == primary ? 1u : 0u)
          << "server " << s << " block " << b;
    }
  }

  // One tick drains the queue; every replica converges on generation 1.
  deployment.master().tick(0.0);
  EXPECT_EQ(deployment.master().fixup_depth(), 0u);
  EXPECT_EQ(deployment.master().fixups_applied(), map->block_count());
  for (std::uint64_t b = 0; b < map->block_count(); ++b) {
    const std::uint64_t len =
        std::min<std::uint64_t>(kBlock, desc.total_bytes() - b * kBlock);
    for (std::uint32_t s : map->replicas_for_block(b).servers) {
      auto stored = deployment.server(static_cast<int>(s))
                        .stamped_block(desc.name, b);
      ASSERT_TRUE(stored.is_ok());
      EXPECT_EQ(stored.value().generation, 1u);
      EXPECT_EQ(0, std::memcmp(stored.value().data.data(),
                               fresh.data() + b * kBlock,
                               static_cast<std::size_t>(len)));
    }
  }
}

TEST(IngestWrite, QuorumPolicyOnThreeReplicas) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(4);
  deployment.enable_fixups();
  ASSERT_TRUE(deployment.ingest(desc, kBlock, 1, 3).is_ok());
  auto map = deployment.master().placement_map(desc.name);

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  file.value()->set_ack_policy(ingest::AckPolicy::kQuorum);

  const auto fresh = pattern_bytes(desc.total_bytes(), 33);
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());

  // 2 of 3 acked synchronously; exactly one replica per block lags.
  for (std::uint64_t b = 0; b < map->block_count(); ++b) {
    int at_one = 0, at_zero = 0;
    for (std::uint32_t s : map->replicas_for_block(b).servers) {
      const std::uint64_t gen = deployment.server(static_cast<int>(s))
                                    .block_generation(desc.name, b);
      (gen == 1 ? at_one : at_zero)++;
    }
    EXPECT_EQ(at_one, 2) << "block " << b;
    EXPECT_EQ(at_zero, 1) << "block " << b;
  }

  deployment.master().tick(0.0);
  for (std::uint64_t b = 0; b < map->block_count(); ++b) {
    for (std::uint32_t s : map->replicas_for_block(b).servers) {
      EXPECT_EQ(deployment.server(static_cast<int>(s))
                    .block_generation(desc.name, b),
                1u);
    }
  }
}

TEST(IngestWrite, EcParityDeltaWriteSurvivesOwnerKill) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(6);
  ASSERT_TRUE(
      deployment.ingest(desc, kBlock, 1, 1, codec::EcProfile{4, 2}).is_ok());

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());

  const auto fresh = pattern_bytes(desc.total_bytes(), 55);
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok())
      << "EC chain write failed";
  EXPECT_EQ(file.value()->degraded_writes(), 0u);

  // Parity owners really applied deltas.
  std::uint64_t deltas = 0;
  for (int s = 0; s < deployment.server_count(); ++s) {
    deltas += deployment.server(s).parity_deltas_applied();
  }
  auto map = deployment.master().placement_map(desc.name);
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(deltas, map->block_count() * 2);  // m = 2 per block

  // Healthy read returns the new bytes.
  auto reader = deployment.make_client();
  auto rfile = reader.open(desc.name);
  ASSERT_TRUE(rfile.is_ok());
  std::vector<std::uint8_t> buf(desc.total_bytes());
  auto n = rfile.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(buf, fresh);

  // Kill a server and re-read through reconstruction: decoding with the
  // *updated* parity must still yield the overwritten bytes -- the delta
  // path kept parity exactly consistent with a full re-encode.
  deployment.kill_server(0);
  auto degraded = deployment.make_client();
  auto dfile = degraded.open(desc.name);
  ASSERT_TRUE(dfile.is_ok());
  std::fill(buf.begin(), buf.end(), 0);
  n = dfile.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  EXPECT_EQ(buf, fresh);
  EXPECT_GT(dfile.value()->reconstructed_reads(), 0u);
}

TEST(IngestWrite, EcWriteWithDeadParityOwnerFixesUpTheParityBlock) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(6);
  deployment.enable_fixups();
  ASSERT_TRUE(
      deployment.ingest(desc, kBlock, 1, 1, codec::EcProfile{4, 2}).is_ok());
  auto map = deployment.master().placement_map(desc.name);
  ASSERT_NE(map, nullptr);

  // Kill one parity owner of group 0, then overwrite block 0: the delta
  // to the dead owner is missed and its *parity block* lands on the fixup
  // queue (not the data block -- the owner never stored data for it).
  const auto& owners = map->replicas_for_group(0).servers;
  ASSERT_EQ(owners.size(), 6u);
  const int parity_owner = static_cast<int>(owners[4]);
  const int data_owner = static_cast<int>(owners[0]);
  deployment.kill_server(parity_owner);

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  const auto fresh = pattern_bytes(kBlock, 42);
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());
  EXPECT_EQ(file.value()->degraded_writes(), 1u);
  EXPECT_GE(deployment.master().fixup_depth(), 1u);

  // The fixup re-encodes the parity from the (updated) data slices into
  // the dead owner's surviving store; after it rejoins, losing the data
  // owner still reconstructs the OVERWRITTEN bytes through that parity.
  deployment.master().tick(0.0);
  EXPECT_EQ(deployment.master().fixup_depth(), 0u);
  deployment.revive_server(parity_owner);
  deployment.kill_server(data_owner);

  auto reader = deployment.make_client();
  auto rfile = reader.open(desc.name);
  ASSERT_TRUE(rfile.is_ok());
  std::vector<std::uint8_t> buf(kBlock);
  auto n = rfile.value()->pread(buf.data(), buf.size(), 0);
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  ASSERT_EQ(n.value(), buf.size());
  EXPECT_EQ(0, std::memcmp(buf.data(), fresh.data(), buf.size()));
  EXPECT_GT(rfile.value()->reconstructed_reads(), 0u);
}

TEST(IngestWrite, OverwriteNeverServesStaleFromServerMemoryTier) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(1);
  ASSERT_TRUE(deployment.ingest(desc, kBlock).is_ok());

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());

  // Warm the server's memory tier with generation-0 bytes.
  std::vector<std::uint8_t> buf(desc.total_bytes());
  ASSERT_TRUE(file.value()->read(buf.data(), buf.size()).is_ok());
  const auto warm = deployment.server(0).cache_metrics();
  EXPECT_GT(warm.entries, 0u);

  // Overwrite, then re-read: every byte must be the new generation even
  // though the old one was resident in server memory.
  const auto fresh = pattern_bytes(desc.total_bytes(), 123);
  ASSERT_TRUE(file.value()->lseek(0) == 0);
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());
  ASSERT_TRUE(file.value()->lseek(0) == 0);
  std::fill(buf.begin(), buf.end(), 0);
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(buf, fresh);
}

TEST(IngestWrite, OverwriteNeverServesStaleFromClientReadahead) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(2);
  ASSERT_TRUE(deployment.ingest(desc, kBlock, 1, 2).is_ok());

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  ReadaheadOptions ra;
  ra.threads = 0;  // deterministic inline fills
  file.value()->enable_readahead(ra);

  std::vector<std::uint8_t> buf(desc.total_bytes());
  ASSERT_TRUE(file.value()->read(buf.data(), buf.size()).is_ok());
  // Second pass is served from the read-ahead tier.
  const auto before = file.value()->readahead_metrics();
  ASSERT_TRUE(file.value()->lseek(0) == 0);
  ASSERT_TRUE(file.value()->read(buf.data(), buf.size()).is_ok());
  const auto after = file.value()->readahead_metrics();
  EXPECT_GT(after.hits, before.hits);

  // The overwrite re-keys every block; the cached generation-0 entries
  // must never serve again.
  const auto fresh = pattern_bytes(desc.total_bytes(), 200);
  ASSERT_TRUE(file.value()->lseek(0) == 0);
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());
  ASSERT_TRUE(file.value()->lseek(0) == 0);
  std::fill(buf.begin(), buf.end(), 0);
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(buf, fresh);
  EXPECT_GT(file.value()->known_generation(0), 0u);
}

TEST(IngestWrite, KillPrimaryStaleFollowerRecoversThroughFixup) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(4);
  deployment.enable_fixups();
  ASSERT_TRUE(deployment.ingest(desc, kBlock, 1, 2).is_ok());
  auto map = deployment.master().placement_map(desc.name);

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  // kPrimary: followers deliberately miss generation 1.
  file.value()->set_ack_policy(ingest::AckPolicy::kPrimary);
  const auto fresh = pattern_bytes(desc.total_bytes(), 77);
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());

  // Kill the primary of block 0 mid-run: the only fresh copy's server is
  // gone, and its follower is a generation behind.
  const int primary = healthy_primary(*map, 0);
  ASSERT_GE(primary, 0);
  deployment.kill_server(primary);

  // The acknowledged-generation floor makes the stale follower visible:
  // the read refuses to serve generation-0 bytes as generation 1.
  std::vector<std::uint8_t> buf(kBlock);
  auto n = file.value()->pread(buf.data(), buf.size(), 0);
  ASSERT_FALSE(n.is_ok());
  EXPECT_GT(file.value()->stale_read_retries(), 0u);

  // The fixup queue re-syncs the follower from the dead primary's
  // surviving store (a kill is a process death, not a disk loss), after
  // which the read completes with the overwritten bytes.
  deployment.master().tick(0.0);
  EXPECT_EQ(deployment.master().fixup_depth(), 0u);
  n = file.value()->pread(buf.data(), buf.size(), 0);
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  EXPECT_EQ(0, std::memcmp(buf.data(), fresh.data(), buf.size()));
}

TEST(IngestWrite, TcpChainWriteRoundTrips) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  TcpDeployment deployment(3);
  ASSERT_TRUE(deployment.start().is_ok());
  ASSERT_TRUE(deployment.ingest(desc, kBlock, 1, 2).is_ok());

  auto client = deployment.make_client();
  ASSERT_TRUE(client.is_ok());
  auto file = client.value().open(desc.name);
  ASSERT_TRUE(file.is_ok());

  const auto fresh = pattern_bytes(desc.total_bytes(), 11);
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());
  EXPECT_EQ(file.value()->degraded_writes(), 0u);

  auto reader = deployment.make_client();
  ASSERT_TRUE(reader.is_ok());
  auto rfile = reader.value().open(desc.name);
  ASSERT_TRUE(rfile.is_ok());
  std::vector<std::uint8_t> buf(desc.total_bytes());
  auto n = rfile.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(buf, fresh);
  deployment.stop();
}

TEST(IngestWrite, GeneratorSourceGenerationBumpInvalidates) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  backend::GeneratorSource source(desc, desc.total_bytes() * 2);
  vol::Brick brick;
  brick.dims = desc.dims;
  std::vector<float> out(desc.dims.cell_count());
  ASSERT_TRUE(source.load_brick(0, brick, out.data()).is_ok());
  ASSERT_TRUE(source.load_brick(0, brick, out.data()).is_ok());
  const auto before = source.cache_metrics();
  EXPECT_GT(before.hits, 0u);

  // Re-ingest: cached timesteps are stale; the next load must regenerate.
  source.bump_generation();
  EXPECT_EQ(source.generation(), 1u);
  ASSERT_TRUE(source.load_brick(0, brick, out.data()).is_ok());
  const auto after = source.cache_metrics();
  EXPECT_EQ(after.hits, before.hits);          // no stale hit
  EXPECT_GT(after.misses, before.misses);      // regenerated
}

}  // namespace
}  // namespace visapult::dpss
