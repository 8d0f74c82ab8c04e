// Sharded metadata plane integration: MetaCluster wiring, client shard
// routing with member failover, forwarded opens, follower replication,
// leader election off client-reported health evidence (the S2 satellite:
// master endpoints are first-class HealthTracker identities), the client's
// catalog mirror, and the heartbeat generation gossip.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dpss/client.h"
#include "dpss/deployment.h"
#include "dpss/master.h"
#include "dpss/meta_cluster.h"
#include "dpss/protocol.h"
#include "dpss/server.h"
#include "net/message.h"
#include "net/stream.h"
#include "placement/health.h"
#include "support/test_support.h"

namespace visapult::dpss {
namespace {

DatasetLayout small_layout(std::uint32_t servers) {
  DatasetLayout layout;
  layout.block_bytes = 4096;
  layout.total_bytes = 8 * layout.block_bytes;
  layout.stripe_blocks = 1;
  layout.server_count = servers;
  return layout;
}

// One real block server shared by every registered dataset, so client
// opens connect end to end.
struct Store {
  BlockServer server{"meta-test-store"};
  ServerAddress address{"meta-test-store", 0};
  test_support::LocalDoor door{
      [this](net::Message&& msg, std::uint64_t conn_id) {
        return server.dispatch(std::move(msg), conn_id);
      }};

  void fill(const std::string& dataset, const DatasetLayout& layout,
            std::uint64_t generation = 0) {
    for (std::uint64_t b = 0; b < layout.block_count(); ++b) {
      std::vector<std::uint8_t> data(layout.block_bytes,
                                     static_cast<std::uint8_t>(b));
      if (generation == 0) {
        ASSERT_TRUE(server.put_block(dataset, b, std::move(data)).is_ok());
      } else {
        ASSERT_TRUE(
            server.put_block_at(dataset, b, std::move(data), generation)
                .is_ok());
      }
    }
  }

  Connector connector() {
    return [this](const ServerAddress&) { return door.connect(); };
  }
};

DpssClient sharded_client(MetaCluster& cluster, Store& store) {
  auto master_stream = cluster.connector()(cluster.address(0, 0));
  EXPECT_TRUE(master_stream.is_ok());
  DpssClient client(std::move(master_stream).take(), store.connector());
  client.enable_sharded_meta(cluster.shard_map(), cluster.member_addresses(),
                             cluster.connector());
  return client;
}

TEST(MetaCluster, ShardedRegistrationRoutesByHashAndOpensResolve) {
  MetaCluster cluster(3, 2);
  Store store;
  const DatasetLayout layout = small_layout(1);
  std::vector<std::string> names;
  for (int i = 0; i < 9; ++i) {
    names.push_back("dataset-" + std::to_string(i));
    store.fill(names.back(), layout);
    ASSERT_TRUE(
        cluster.register_dataset(names.back(), layout, {store.address})
            .is_ok());
  }

  // Each dataset landed on exactly its hash-owner shard's catalog.
  for (const auto& name : names) {
    const std::uint32_t owner = cluster.shard_map().shard_for(name);
    for (std::uint32_t j = 0; j < cluster.shard_count(); ++j) {
      const bool present =
          cluster.member(j, 0).catalog().lookup(name).has_value();
      EXPECT_EQ(present, j == owner) << name << " on shard " << j;
    }
  }

  DpssClient client = sharded_client(cluster, store);
  for (const auto& name : names) {
    auto file = client.open(name);
    ASSERT_TRUE(file.is_ok()) << name;
    EXPECT_EQ(file.value()->size(), layout.total_bytes);
  }
  // First opens all carried full snapshots.
  EXPECT_EQ(client.snapshot_opens(), names.size());

  // Re-opens hit the delta fast path: epochs unchanged, not_modified.
  for (const auto& name : names) {
    ASSERT_TRUE(client.open(name).is_ok());
    EXPECT_GT(client.cached_epoch(name), 0u);
  }
  EXPECT_EQ(client.delta_opens(), names.size());
}

TEST(MetaCluster, NonOwnerMemberForwardsOpenToOwnerLeader) {
  MetaCluster cluster(2, 1);
  Store store;
  const DatasetLayout layout = small_layout(1);
  const std::string name = "forwarded-ds";
  store.fill(name, layout);
  ASSERT_TRUE(cluster.register_dataset(name, layout, {store.address}).is_ok());

  const std::uint32_t owner = cluster.shard_map().shard_for(name);
  const std::uint32_t other = 1 - owner;

  // Dial the NON-owner shard directly and open: the member forwards to the
  // owner's leader and relays the reply verbatim.
  auto stream = cluster.connector()(cluster.address(other, 0));
  ASSERT_TRUE(stream.is_ok());
  OpenRequest req;
  req.dataset = name;
  ASSERT_TRUE(net::send_message(*stream.value(),
                                encode(req)).is_ok());
  auto wire = net::recv_message(*stream.value());
  ASSERT_TRUE(wire.is_ok());
  auto reply = decode<OpenReply>(wire.value());
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value().layout.total_bytes, layout.total_bytes);
  EXPECT_GT(reply.value().catalog_epoch, 0u);

  EXPECT_EQ(cluster.member(other, 0).meta_status().forwarded_opens, 1u);
  EXPECT_EQ(cluster.member(owner, 0).meta_status().forwarded_opens, 0u);
}

TEST(MetaCluster, FollowersReplicateByteIdenticalCatalogs) {
  MetaCluster cluster(2, 3);
  Store store;
  const DatasetLayout layout = small_layout(1);
  for (int i = 0; i < 6; ++i) {
    const std::string name = "replicated-" + std::to_string(i);
    ASSERT_TRUE(
        cluster.register_dataset(name, layout, {store.address}).is_ok());
  }
  for (std::uint32_t j = 0; j < cluster.shard_count(); ++j) {
    const std::string leader_print = cluster.member(j, 0).catalog().fingerprint();
    const std::uint64_t leader_epoch = cluster.member(j, 0).meta_epoch();
    for (std::uint32_t k = 1; k < cluster.replica_count(); ++k) {
      EXPECT_EQ(cluster.member(j, k).catalog().fingerprint(), leader_print)
          << "shard " << j << " replica " << k;
      EXPECT_EQ(cluster.member(j, k).meta_epoch(), leader_epoch);
    }
  }
}

TEST(MetaCluster, FollowersReplicateHalfSetEcProfile) {
  // A half-set profile such as {0, m} registers as classic striping; the
  // raw log entry that carries it must still replicate to followers.
  MetaCluster cluster(1, 3);
  Store store;
  PlacementOptions placement;
  placement.ec = codec::EcProfile{0, 2};
  ASSERT_TRUE(cluster
                  .register_dataset("half-set", small_layout(1),
                                    {store.address}, placement)
                  .is_ok());
  const std::string leader_print = cluster.member(0, 0).catalog().fingerprint();
  for (std::uint32_t k = 1; k < cluster.replica_count(); ++k) {
    EXPECT_EQ(cluster.member(0, k).catalog().fingerprint(), leader_print)
        << "replica " << k;
    EXPECT_EQ(cluster.member(0, k).meta_epoch(),
              cluster.member(0, 0).meta_epoch());
  }
  DpssClient client = sharded_client(cluster, store);
  ASSERT_TRUE(client.sync_shard(0).is_ok());
  EXPECT_TRUE(client.placement_mirror().lookup("half-set").has_value());
}

// The acceptance property: kill the owning shard's leader, and opens keep
// succeeding -- follower answers first (reads need no leader), the client
// reports the dead endpoint (S2: master endpoints are HealthTracker
// identities), and the election promotes the highest-epoch survivor.
TEST(MetaCluster, LeaderKillFailoverReportsAndElection) {
  MetaCluster cluster(2, 3);
  Store store;
  const DatasetLayout layout = small_layout(1);
  const std::string name = "survives-the-kill";
  store.fill(name, layout);
  ASSERT_TRUE(cluster.register_dataset(name, layout, {store.address}).is_ok());

  DpssClient client = sharded_client(cluster, store);
  ASSERT_TRUE(client.open(name).is_ok());
  EXPECT_EQ(client.master_failovers(), 0u);

  const std::uint32_t owner = cluster.shard_map().shard_for(name);
  const ServerAddress dead_leader = cluster.address(owner, 0);
  cluster.kill(owner, 0);

  // Zero client-visible failures through the death.
  auto file = client.open(name);
  ASSERT_TRUE(file.is_ok());
  EXPECT_EQ(file.value()->size(), layout.total_bytes);
  EXPECT_GT(client.master_failovers(), 0u);
  EXPECT_GT(client.master_failure_reports(), 0u);
  // The follower answered from its replicated catalog: a delta open.
  EXPECT_GE(client.delta_opens(), 1u);

  // S2: the answering survivor holds client-reported evidence against the
  // dead MASTER endpoint in its HealthTracker -- same machinery, same
  // address type as block-server failures.
  bool evidence = false;
  for (std::uint32_t k = 1; k < cluster.replica_count(); ++k) {
    if (cluster.member(owner, k).health().state(dead_leader) !=
        placement::HealthState::kUp) {
      evidence = true;
    }
  }
  EXPECT_TRUE(evidence);

  // Election: a live follower promotes; registrations work again.
  EXPECT_GE(cluster.tick(), 1);
  Master* promoted = cluster.leader(owner);
  ASSERT_NE(promoted, nullptr);
  EXPECT_TRUE(promoted->is_leader());
  EXPECT_NE(promoted->address(), dead_leader);
  EXPECT_GE(cluster.leader_elections(), 1u);

  const std::string after = "registered-after-election";
  store.fill(after, layout);
  // Route manually when the new dataset hashes to the killed shard.
  ASSERT_TRUE(
      cluster.register_dataset(after, layout, {store.address}).is_ok());
  ASSERT_TRUE(client.open(after).is_ok());
}

TEST(MetaCluster, ClientMirrorConvergesToShardCatalogs) {
  MetaCluster cluster(3, 2);
  Store store;
  const DatasetLayout layout = small_layout(1);
  std::vector<std::string> names;
  for (int i = 0; i < 12; ++i) {
    names.push_back("mirror-" + std::to_string(i));
    ASSERT_TRUE(
        cluster.register_dataset(names.back(), layout, {store.address})
            .is_ok());
  }

  DpssClient client = sharded_client(cluster, store);
  for (std::uint32_t j = 0; j < cluster.shard_count(); ++j) {
    auto epoch = client.sync_shard(j);
    ASSERT_TRUE(epoch.is_ok());
    EXPECT_EQ(epoch.value(), cluster.member(j, 0).meta_epoch());
  }
  EXPECT_EQ(client.placement_mirror().size(), names.size());
  for (const auto& name : names) {
    const std::uint32_t owner = cluster.shard_map().shard_for(name);
    auto mirrored = client.placement_mirror().lookup(name);
    auto authoritative = cluster.member(owner, 0).catalog().lookup(name);
    ASSERT_TRUE(mirrored.has_value()) << name;
    ASSERT_TRUE(authoritative.has_value()) << name;
    EXPECT_EQ(mirrored->epoch, authoritative->epoch);
    EXPECT_EQ(mirrored->layout.total_bytes, authoritative->layout.total_bytes);
    ASSERT_EQ(mirrored->servers.size(), authoritative->servers.size());
    EXPECT_EQ(mirrored->servers[0], authoritative->servers[0]);
  }
}

// Gossip: heartbeats carry per-dataset max generations up, OpenReplys
// carry the merged floor (and a hotness hint) back down.
TEST(PipeDeploymentGossip, HeartbeatFloorsReachOpenReplies) {
  PipeDeployment deploy(2);
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  ASSERT_TRUE(deploy.ingest(desc, 4096).is_ok());

  // Stamp one block with a non-zero generation, as an ingest write would.
  auto stamped = deploy.server(0).stamped_block(desc.name, 0);
  ASSERT_TRUE(stamped.is_ok());
  ASSERT_TRUE(deploy.server(0)
                  .put_block_at(desc.name, 0, stamped.value().data, 5)
                  .is_ok());

  // Before any heartbeat: no floor gossiped.
  DpssClient cold = deploy.make_client();
  auto before = cold.open(desc.name);
  ASSERT_TRUE(before.is_ok());
  EXPECT_EQ(before.value()->dataset_generation_floor(), 0u);

  deploy.heartbeat_all(1.0);

  DpssClient client = deploy.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  EXPECT_EQ(file.value()->dataset_generation_floor(), 5u);

  // Hotness: enough opens flip the reply's cache hint to kHot.
  std::unique_ptr<DpssFile> last;
  for (std::uint64_t i = 0; i < meta::GenerationGossip::kHotOpens + 1; ++i) {
    auto f = client.open(desc.name);
    ASSERT_TRUE(f.is_ok());
    last = std::move(f).take();
  }
  EXPECT_EQ(last->cache_hint(), meta::CacheHint::kHot);
}

}  // namespace
}  // namespace visapult::dpss
