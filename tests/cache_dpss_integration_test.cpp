// The cache tier wired through the DPSS: warm hits skip the DiskModel,
// repeated reads hit >= 90% on the second pass, server-side prefetch warms
// striped runs, client-side read-ahead serves re-reads without wire
// traffic, and HPSS migration leaves the cache warm.  All timing
// assertions run against modeled disk seconds or an injected virtual
// clock -- never wall time.
#include "dpss/deployment.h"

#include <gtest/gtest.h>

#include <cstring>

#include "dpss/hpss.h"
#include "dpss/protocol.h"
#include "net/message.h"
#include "support/test_support.h"

namespace visapult::dpss {
namespace {

std::vector<std::uint8_t> step_bytes(const vol::DatasetDesc& desc, int t) {
  const vol::Volume v = desc.generate(t);
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data().data());
  return std::vector<std::uint8_t>(p, p + v.byte_size());
}

// Aggregate cache counters across a deployment's servers.
template <typename Deployment>
cache::MetricsSnapshot deployment_metrics(Deployment& d) {
  cache::MetricsSnapshot total;
  for (int i = 0; i < d.server_count(); ++i) {
    const auto m = d.server(i).cache_metrics();
    total.hits += m.hits;
    total.misses += m.misses;
    total.insertions += m.insertions;
    total.evictions += m.evictions;
    total.prefetch_issued += m.prefetch_issued;
    total.prefetch_hits += m.prefetch_hits;
    total.bytes += m.bytes;
    total.entries += m.entries;
  }
  return total;
}

template <typename Deployment>
double deployment_disk_seconds(Deployment& d) {
  double total = 0.0;
  for (int i = 0; i < d.server_count(); ++i) {
    total += d.server(i).modeled_disk_seconds();
  }
  return total;
}

template <typename Deployment>
void drop_all_caches(Deployment& d) {
  for (int i = 0; i < d.server_count(); ++i) d.server(i).drop_cache();
}

// The acceptance-criteria scenario: a cold pass fills the cache, the second
// pass hits >= 90% and never touches the modelled disks.
TEST(ServerCacheTest, RepeatedReadSecondPassIsWarm) {
  const auto desc = vol::small_combustion_dataset(2);
  ServerCacheConfig cc;
  cc.prefetch = false;  // isolate demand-path behaviour
  PipeDeployment deployment(3, DiskModel{}, cc);
  ASSERT_TRUE(deployment.ingest(desc, /*block_bytes=*/4096).is_ok());

  // Ingest is write-through (warm); model a server restart for a true cold
  // first pass.
  drop_all_caches(deployment);
  ASSERT_EQ(deployment_metrics(deployment).entries, 0u);

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  std::vector<std::uint8_t> buf(desc.total_bytes());

  // Pass 1: cold -- every block charges the disk model and admits-on-fill.
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  ASSERT_EQ(n.value(), buf.size());
  const auto cold = deployment_metrics(deployment);
  const double cold_disk = deployment_disk_seconds(deployment);
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_GT(cold.misses, 0u);
  EXPECT_GT(cold_disk, 0.0);

  // Pass 2: warm -- >= 90% hit ratio (here: 100%) and zero new disk time.
  ASSERT_EQ(file.value()->lseek(0), 0);
  std::vector<std::uint8_t> buf2(desc.total_bytes());
  n = file.value()->read(buf2.data(), buf2.size());
  ASSERT_TRUE(n.is_ok());
  const auto warm = deployment_metrics(deployment);
  const std::uint64_t pass2_hits = warm.hits - cold.hits;
  const std::uint64_t pass2_misses = warm.misses - cold.misses;
  ASSERT_GT(pass2_hits + pass2_misses, 0u);
  const double pass2_ratio =
      static_cast<double>(pass2_hits) /
      static_cast<double>(pass2_hits + pass2_misses);
  EXPECT_GE(pass2_ratio, 0.9);
  EXPECT_DOUBLE_EQ(deployment_disk_seconds(deployment), cold_disk)
      << "warm reads must bypass the DiskModel entirely";
  EXPECT_EQ(buf2, buf);
}

// Throttle mode: the modelled service time is actually slept -- but only on
// misses.  The injected virtual clock makes this exact and instant.
TEST(ServerCacheTest, ThrottledWarmReadsDoNotSleep) {
  ServerCacheConfig cc;
  cc.prefetch = false;
  DiskModel disk;
  BlockServer server("throttled", disk, /*throttle=*/true, cc);
  test_support::RecordingVirtualClock vclock;
  server.set_clock(&vclock);

  const std::string ds = "d";
  for (std::uint64_t b = 0; b < 8; ++b) {
    ASSERT_TRUE(server.put_block(ds, b,
                                 std::vector<std::uint8_t>(4096, 1)).is_ok());
  }
  server.drop_cache();

  // The door waits out each reply's modelled read on the virtual clock, as
  // a blocking caller does, so the charge is observable without wall time.
  test_support::LocalDoor door(
      [&](net::Message&& msg, std::uint64_t conn_id) {
        net::Reply reply = server.dispatch(std::move(msg), conn_id);
        vclock.sleep_for(reply.delay_seconds);
        return std::move(reply.message);
      });
  auto client_end = door.connect().take();
  auto read_block = [&](std::uint64_t b) {
    BlockReadRequest req;
    req.dataset = ds;
    req.block = b;
    ASSERT_TRUE(net::send_message(*client_end,
                                  encode(req)).is_ok());
    auto msg = net::recv_message(*client_end);
    ASSERT_TRUE(msg.is_ok());
    auto reply = decode<BlockReadReply>(msg.value());
    ASSERT_TRUE(reply.is_ok());
    ASSERT_EQ(reply.value().data.size(), 4096u);
  };

  for (std::uint64_t b = 0; b < 8; ++b) read_block(b);
  const double cold_slept = vclock.total_slept();
  EXPECT_GT(cold_slept, 0.0);
  // Eight sequential misses, each >= the uncontended service time.
  EXPECT_GE(cold_slept, 8 * disk.block_service_seconds(4096) - 1e-9);

  for (std::uint64_t b = 0; b < 8; ++b) read_block(b);
  EXPECT_DOUBLE_EQ(vclock.total_slept(), cold_slept)
      << "warm hits must not pay the modelled seek+transfer";

  client_end->close();
  server.shutdown();
}

// A sequential client run warms the server ahead of the demand stream
// (fills run inline on the serving thread, so the run is deterministic).
TEST(ServerCacheTest, PrefetchWarmsSequentialRun) {
  ServerCacheConfig cc;
  cc.prefetch = true;
  cc.prefetch_config.min_run = 3;
  cc.prefetch_config.depth = 4;
  BlockServer server("prefetching", DiskModel{}, /*throttle=*/false, cc);

  const std::string ds = "d";
  constexpr std::uint64_t kBlocks = 32;
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    ASSERT_TRUE(server.put_block(ds, b,
                                 std::vector<std::uint8_t>(1024, 2)).is_ok());
  }
  server.drop_cache();

  test_support::LocalDoor door(
      [&server](net::Message&& msg, std::uint64_t conn_id) {
        return server.dispatch(std::move(msg), conn_id);
      });
  auto client_end = door.connect().take();
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    BlockReadRequest req;
    req.dataset = ds;
    req.block = b;
    ASSERT_TRUE(net::send_message(*client_end,
                                  encode(req)).is_ok());
    auto msg = net::recv_message(*client_end);
    ASSERT_TRUE(msg.is_ok());
    ASSERT_TRUE(decode<BlockReadReply>(msg.value()).is_ok());
  }
  client_end->close();
  server.shutdown();

  const auto m = server.cache_metrics();
  EXPECT_GT(m.prefetch_issued, 0u);
  EXPECT_GT(m.prefetch_hits, 0u);
  // Once the run is confirmed (block 2), read-ahead stays ahead of the
  // demand stream: the vast majority of the remaining reads are hits.
  EXPECT_GE(m.hit_ratio(), 0.8) << m.to_json();
}

// Satellite: HPSS -> DPSS migration interacting with a cold cache.  The
// staging writes are write-through, so migration itself fills the memory
// tier and post-migration client reads are warm hits.
TEST(MigrationCacheTest, MigrationFillsCacheAndReadsAreWarm) {
  HpssArchive archive;
  const auto desc = vol::small_combustion_dataset(2);
  archive.store(desc);

  ServerCacheConfig cc;
  cc.prefetch = false;
  PipeDeployment cache_deployment(3, DiskModel{}, cc);
  auto report = migrate_to_dpss(archive, desc.name, cache_deployment, 8192);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();

  // Migration populated the memory tier on every server.
  const auto after_migration = deployment_metrics(cache_deployment);
  EXPECT_GT(after_migration.insertions, 0u);
  EXPECT_GT(after_migration.bytes, 0u);
  EXPECT_EQ(after_migration.entries, (desc.total_bytes() + 8191) / 8192);

  // Post-migration reads: pure warm hits, zero disk-model charge.
  auto client = cache_deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  std::vector<std::uint8_t> buf(desc.total_bytes());
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  ASSERT_EQ(n.value(), buf.size());

  const auto warm = deployment_metrics(cache_deployment);
  EXPECT_GT(warm.hits, 0u);
  EXPECT_EQ(warm.misses, 0u);
  EXPECT_DOUBLE_EQ(deployment_disk_seconds(cache_deployment), 0.0);

  // And the bytes are the archive's bytes.
  const auto expected = step_bytes(desc, 0);
  EXPECT_EQ(std::memcmp(buf.data(), expected.data(), expected.size()), 0);

  // A cache drop (server restart) makes the same dataset cold again --
  // reads then charge the disks and refill the tier.
  drop_all_caches(cache_deployment);
  ASSERT_EQ(file.value()->lseek(0), 0);
  ASSERT_TRUE(file.value()->read(buf.data(), buf.size()).is_ok());
  EXPECT_GT(deployment_disk_seconds(cache_deployment), 0.0);
  EXPECT_GT(deployment_metrics(cache_deployment).misses, 0u);
}

// Client-side read-ahead: sequential dpssRead streams are detected, blocks
// arrive ahead of demand, and a re-read is served from the client cache
// with no wire traffic at all.
TEST(ClientReadaheadTest, SequentialReadsWarmTheClientCache) {
  const auto desc = vol::small_combustion_dataset(2);
  ServerCacheConfig server_cc;
  server_cc.prefetch = false;  // measure the *client* tier
  PipeDeployment deployment(4, DiskModel{}, server_cc);
  ASSERT_TRUE(deployment.ingest(desc, /*block_bytes=*/4096).is_ok());

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());

  ReadaheadOptions ra;
  ra.cache_bytes = desc.total_bytes() * 2;  // whole file fits client-side
  ra.threads = 0;  // inline prefetch: deterministic
  ra.prefetch.min_run = 2;
  ra.prefetch.depth = 4;
  file.value()->enable_readahead(ra);
  ASSERT_TRUE(file.value()->readahead_enabled());

  // Block-at-a-time sequential read (one block per wire round without
  // read-ahead).
  std::vector<std::uint8_t> buf(desc.total_bytes());
  for (std::size_t at = 0; at < buf.size(); at += 4096) {
    auto n = file.value()->pread(buf.data() + at, 4096, at);
    ASSERT_TRUE(n.is_ok());
    ASSERT_EQ(n.value(), std::min<std::size_t>(4096, buf.size() - at));
  }
  const auto expected0 = step_bytes(desc, 0);
  EXPECT_EQ(std::memcmp(buf.data(), expected0.data(), expected0.size()), 0);
  const auto expected1 = step_bytes(desc, 1);
  EXPECT_EQ(std::memcmp(buf.data() + expected0.size(), expected1.data(),
                        expected1.size()),
            0);

  const auto m1 = file.value()->readahead_metrics();
  EXPECT_GT(m1.prefetch_issued, 0u);
  EXPECT_GT(m1.prefetch_hits, 0u);
  EXPECT_GE(m1.hit_ratio(), 0.8) << m1.to_json();

  // Re-read: the whole file is client-resident; zero wire traffic.
  const std::uint64_t wire_before = file.value()->wire_bytes_received();
  std::vector<std::uint8_t> buf2(desc.total_bytes());
  auto n = file.value()->pread(buf2.data(), buf2.size(), 0);
  ASSERT_TRUE(n.is_ok());
  ASSERT_EQ(n.value(), buf2.size());
  EXPECT_EQ(file.value()->wire_bytes_received(), wire_before);
  EXPECT_EQ(buf2, buf);
}

// Read-ahead with strided extents (brick scatter-reads walk the file with
// a constant block stride) still returns exact bytes.
TEST(ClientReadaheadTest, StridedExtentsStayCorrect) {
  const auto desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(2);
  ASSERT_TRUE(deployment.ingest(desc, /*block_bytes=*/4096).is_ok());

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  ReadaheadOptions ra;
  ra.threads = 0;
  ra.prefetch.min_run = 2;
  file.value()->enable_readahead(ra);

  const auto all0 = step_bytes(desc, 0);
  // Every other block of timestep 0.
  for (std::size_t off = 0; off + 4096 <= all0.size(); off += 8192) {
    std::vector<std::uint8_t> chunk(4096);
    DpssFile::Extent e;
    e.offset = off;
    e.length = chunk.size();
    e.dest = chunk.data();
    ASSERT_TRUE(file.value()->read_extents({e}).is_ok());
    EXPECT_EQ(std::memcmp(chunk.data(), all0.data() + off, chunk.size()), 0)
        << "offset " << off;
  }
}

}  // namespace
}  // namespace visapult::dpss
