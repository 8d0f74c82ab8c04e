// Delta-stream equivalence fuzz (satellite S3): a client that replays
// epoch-numbered placement deltas -- re-syncing from its epoch, taking a
// full snapshot only on a gap past the log's retention window -- ends up
// with a catalog byte-identical to one bootstrapped fresh from a snapshot.
// Randomised op interleavings (registers, membership updates, rf changes)
// with deliberately bursty sync cadence so both the replay and the
// snapshot-on-gap paths are exercised, at the library level and over the
// real wire through DpssClient::sync_shard.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "dpss/client.h"
#include "dpss/master.h"
#include "dpss/protocol.h"
#include "meta/catalog.h"
#include "meta/log.h"
#include "net/stream.h"
#include "support/test_support.h"

namespace visapult::dpss {
namespace {

std::vector<ServerAddress> farm(std::uint64_t n) {
  std::vector<ServerAddress> servers;
  for (std::uint64_t i = 0; i < n; ++i) {
    servers.push_back(ServerAddress{"server-" + std::to_string(i),
                                    static_cast<std::uint16_t>(7000 + i)});
  }
  return servers;
}

meta::LogEntry random_mutation(core::Rng& rng,
                               const meta::Catalog& state,
                               std::uint64_t next_name) {
  meta::LogEntry e;
  const auto names = state.names();
  const bool update = !names.empty() && rng.next_double() < 0.6;
  if (update) {
    e.kind = meta::EntryKind::kUpdate;
    e.dataset = names[rng.next_below(names.size())];
    // Keep the configured placement; updates change membership.
    auto entry = state.lookup(e.dataset);
    e.placement = entry->placement;
    e.layout = entry->layout;
  } else {
    e.kind = meta::EntryKind::kRegister;
    e.dataset = "fuzz-" + std::to_string(next_name);
    e.layout.block_bytes = 4096;
    e.layout.total_bytes = (1 + rng.next_below(32)) * 4096;
    e.layout.stripe_blocks = static_cast<std::uint32_t>(1 + rng.next_below(4));
    e.placement.replication_factor =
        static_cast<std::uint32_t>(1 + rng.next_below(3));
  }
  const std::uint64_t n =
      std::max<std::uint64_t>(e.placement.replication_factor,
                              1 + rng.next_below(5));
  e.servers = farm(n);
  e.layout.server_count = static_cast<std::uint32_t>(n);
  return e;
}

TEST(MetaDeltaFuzz, ReplayedDeltasMatchFreshSnapshotByteForByte) {
  core::Rng rng(20260808);
  // Small window so bursts overrun it and force the snapshot path.
  meta::ReplicatedLog log(/*window=*/16);
  meta::Catalog leader;

  // Catalog locks internally and is not movable; the mirror is rebuilt in
  // place on the snapshot path, so hold it by pointer.
  auto mirror = std::make_unique<meta::Catalog>();
  std::uint64_t mirror_epoch = 0;
  std::uint64_t names = 0;
  std::uint64_t snapshots_taken = 0, delta_replays = 0;

  auto sync_mirror = [&] {
    auto entries = log.entries_since(mirror_epoch);
    if (!entries.has_value()) {
      // Gap past the window: rebuild from a fresh snapshot.
      mirror = std::make_unique<meta::Catalog>();
      for (const auto& e : leader.snapshot()) {
        ASSERT_TRUE(mirror->apply(e).is_ok());
      }
      mirror_epoch = log.last_epoch();
      ++snapshots_taken;
      return;
    }
    for (const auto& e : *entries) {
      ASSERT_TRUE(mirror->apply(e).is_ok());
      mirror_epoch = e.epoch;
    }
    if (!entries->empty()) ++delta_replays;
  };

  for (int round = 0; round < 60; ++round) {
    // A burst of mutations; sometimes longer than the retention window.
    const std::uint64_t burst =
        1 + rng.next_below(rng.next_double() < 0.2 ? 40 : 8);
    for (std::uint64_t i = 0; i < burst; ++i) {
      meta::LogEntry e = random_mutation(rng, leader, names);
      if (e.kind == meta::EntryKind::kRegister) ++names;
      ASSERT_TRUE(leader.validate(e).is_ok()) << leader.validate(e).message();
      e.epoch = log.append(e);
      ASSERT_TRUE(leader.apply(e).is_ok());
    }
    if (rng.next_double() < 0.7) {
      sync_mirror();
      // After any successful sync the mirror IS the leader, byte for byte.
      ASSERT_EQ(mirror->fingerprint(), leader.fingerprint())
          << "diverged at round " << round;
    }
  }
  sync_mirror();
  EXPECT_EQ(mirror->fingerprint(), leader.fingerprint());
  // The cadence must have exercised both paths, or the fuzz proves nothing.
  EXPECT_GT(snapshots_taken, 0u);
  EXPECT_GT(delta_replays, 0u);
}

// Same property over the real wire: DpssClient::sync_shard pulls
// kPlacementDelta RPCs from a served Master and folds them into its
// mirror; after enough mutations to overrun the master's log window the
// reply degrades to a snapshot transparently.
TEST(MetaDeltaFuzz, WireSyncShardConvergesThroughWindowOverrun) {
  core::Rng rng(7);
  Master master;
  test_support::LocalDoor door([&master](net::Message&& msg, std::uint64_t) {
    return master.handle_request(std::move(msg));
  });
  Connector connector = [&door](const ServerAddress&) {
    return door.connect();
  };
  auto master_stream = connector(ServerAddress{"master", 0});
  ASSERT_TRUE(master_stream.is_ok());
  DpssClient client(std::move(master_stream).take(), connector);

  std::uint64_t names = 0;
  for (int round = 0; round < 8; ++round) {
    // More mutations per round than the log window on some rounds.
    const std::uint64_t burst = 1 + rng.next_below(
        round % 3 == 2 ? meta::ReplicatedLog::kDefaultWindow + 20 : 10);
    for (std::uint64_t i = 0; i < burst; ++i) {
      const std::uint64_t n = 1 + rng.next_below(4);
      DatasetLayout layout;
      layout.block_bytes = 4096;
      layout.total_bytes = (1 + rng.next_below(16)) * 4096;
      layout.stripe_blocks = 1;
      layout.server_count = static_cast<std::uint32_t>(n);
      PlacementOptions options;
      options.replication_factor =
          static_cast<std::uint32_t>(1 + rng.next_below(std::min<std::uint64_t>(n, 2)));
      ASSERT_TRUE(master
                      .register_dataset("wire-" + std::to_string(names++),
                                        layout, farm(n), options)
                      .is_ok());
    }
    auto epoch = client.sync_shard(0);
    ASSERT_TRUE(epoch.is_ok()) << epoch.status().message();
    EXPECT_EQ(epoch.value(), master.meta_epoch());
    ASSERT_EQ(client.placement_mirror().fingerprint(),
              master.catalog().fingerprint())
        << "diverged at round " << round;
  }
  EXPECT_EQ(client.placement_mirror().size(), names);
}

}  // namespace
}  // namespace visapult::dpss
