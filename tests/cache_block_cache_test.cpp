// BlockCache invariants: byte budget never exceeded, pinned blocks never
// evicted or erased, metrics account every operation, and the whole
// contract holds under concurrent hit/miss/evict races.
#include "cache/block_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "netlog/event.h"
#include "support/test_support.h"

namespace visapult::cache {
namespace {

BlockKey key(std::uint64_t block, const std::string& dataset = "ds") {
  BlockKey k;
  k.dataset = dataset;
  k.block = block;
  return k;
}

std::vector<std::uint8_t> bytes(std::size_t n, std::uint8_t fill) {
  return std::vector<std::uint8_t>(n, fill);
}

BlockCacheConfig small_config(std::size_t capacity, PolicyKind policy) {
  BlockCacheConfig cc;
  cc.capacity_bytes = capacity;
  cc.shards = 1;  // exact global eviction order for the assertions below
  cc.policy = policy;
  return cc;
}

TEST(BlockCacheTest, MissThenHit) {
  BlockCache cache(small_config(1024, PolicyKind::kLru));
  EXPECT_EQ(cache.lookup(key(1)), nullptr);
  ASSERT_TRUE(cache.insert(key(1), bytes(100, 0xaa)));
  auto data = cache.lookup(key(1));
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->size(), 100u);
  EXPECT_EQ((*data)[0], 0xaa);

  const auto m = cache.metrics();
  EXPECT_EQ(m.hits, 1u);
  EXPECT_EQ(m.misses, 1u);
  EXPECT_EQ(m.insertions, 1u);
  EXPECT_EQ(m.bytes, 100u);
  EXPECT_EQ(m.entries, 1u);
  EXPECT_NEAR(m.hit_ratio(), 0.5, 1e-12);
}

// The cornerstone invariant: resident bytes never exceed the budget, under
// every policy.
TEST(BlockCacheTest, ByteBudgetIsNeverExceeded) {
  for (PolicyKind policy : {PolicyKind::kLru, PolicyKind::kSegmentedLru}) {
    BlockCache cache(small_config(1000, policy));
    for (std::uint64_t b = 0; b < 50; ++b) {
      cache.insert(key(b), bytes(300, static_cast<std::uint8_t>(b)));
      EXPECT_LE(cache.total_bytes(), 1000u) << policy_name(policy);
      EXPECT_LE(cache.entry_count(), 3u) << policy_name(policy);
    }
    const auto m = cache.metrics();
    EXPECT_GT(m.evictions, 0u) << policy_name(policy);
    EXPECT_EQ(m.bytes, cache.total_bytes()) << policy_name(policy);
  }
}

TEST(BlockCacheTest, OversizedBlockIsRejected) {
  BlockCache cache(small_config(256, PolicyKind::kLru));
  EXPECT_FALSE(cache.insert(key(1), bytes(512, 1)));
  EXPECT_EQ(cache.total_bytes(), 0u);
  EXPECT_EQ(cache.metrics().admit_rejects, 1u);
  // The failed admission did not poison the key.
  EXPECT_TRUE(cache.insert(key(1), bytes(64, 1)));
}

TEST(BlockCacheTest, LruEvictionOrder) {
  BlockCache cache(small_config(300, PolicyKind::kLru));
  cache.insert(key(1), bytes(100, 1));
  cache.insert(key(2), bytes(100, 2));
  cache.insert(key(3), bytes(100, 3));
  // Touch 1 so 2 becomes LRU, then overflow.
  EXPECT_NE(cache.lookup(key(1)), nullptr);
  cache.insert(key(4), bytes(100, 4));
  EXPECT_TRUE(cache.contains(key(1)));
  EXPECT_FALSE(cache.contains(key(2)));
  EXPECT_TRUE(cache.contains(key(3)));
  EXPECT_TRUE(cache.contains(key(4)));
}

TEST(BlockCacheTest, PinnedBlocksAreNeverEvicted) {
  for (PolicyKind policy : {PolicyKind::kLru, PolicyKind::kSegmentedLru}) {
    BlockCache cache(small_config(300, policy));
    ASSERT_TRUE(cache.insert(key(0), bytes(100, 0)));
    BlockCache::Pin pin = cache.lookup_pinned(key(0));
    ASSERT_TRUE(static_cast<bool>(pin));

    // Flood far past the budget: key 0 must stay resident throughout.
    for (std::uint64_t b = 1; b < 40; ++b) {
      cache.insert(key(b), bytes(100, static_cast<std::uint8_t>(b)));
      EXPECT_TRUE(cache.contains(key(0))) << policy_name(policy);
      EXPECT_LE(cache.total_bytes(), 300u) << policy_name(policy);
    }
    EXPECT_EQ((*pin)[0], 0u);

    // Released, it becomes an ordinary eviction candidate again (except
    // under SLRU, whose protected segment is exactly what shields a
    // re-referenced block from a one-touch scan).
    pin.release();
    for (std::uint64_t b = 40; b < 50; ++b) {
      cache.insert(key(b), bytes(100, 1));
    }
    if (policy != PolicyKind::kSegmentedLru) {
      EXPECT_FALSE(cache.contains(key(0))) << policy_name(policy);
    }
    EXPECT_LE(cache.total_bytes(), 300u) << policy_name(policy);
  }
}

TEST(BlockCacheTest, InsertFailsWhenEverythingIsPinned) {
  BlockCache cache(small_config(200, PolicyKind::kLru));
  cache.insert(key(1), bytes(100, 1));
  cache.insert(key(2), bytes(100, 2));
  BlockCache::Pin p1 = cache.lookup_pinned(key(1));
  BlockCache::Pin p2 = cache.lookup_pinned(key(2));
  ASSERT_TRUE(static_cast<bool>(p1));
  ASSERT_TRUE(static_cast<bool>(p2));

  EXPECT_FALSE(cache.insert(key(3), bytes(100, 3)));
  EXPECT_EQ(cache.metrics().admit_rejects, 1u);
  EXPECT_LE(cache.total_bytes(), 200u);

  p1.release();
  EXPECT_TRUE(cache.insert(key(3), bytes(100, 3)));
  EXPECT_FALSE(cache.contains(key(1)));
}

TEST(BlockCacheTest, RejectedAdmissionEvictsNothing) {
  BlockCache cache(small_config(1000, PolicyKind::kLru));
  cache.insert(key(1), bytes(600, 1));
  BlockCache::Pin pin = cache.lookup_pinned(key(1));  // 600 bytes pinned
  cache.insert(key(2), bytes(300, 2));                // 300 bytes warm

  // A 500-byte block fits the capacity but not alongside the pinned 600,
  // even with the warm 300 gone: the admission must be rejected WITHOUT
  // sacrificing the warm entry on the way.
  EXPECT_FALSE(cache.insert(key(3), bytes(500, 3)));
  EXPECT_TRUE(cache.contains(key(2)));
  EXPECT_EQ(cache.metrics().evictions, 0u);
  EXPECT_EQ(cache.total_bytes(), 900u);
}

TEST(BlockCacheTest, EraseAndClearSkipPinned) {
  BlockCache cache(small_config(1024, PolicyKind::kLru));
  cache.insert(key(1), bytes(10, 1));
  cache.insert(key(2), bytes(10, 2));
  BlockCache::Pin pin = cache.lookup_pinned(key(1));

  EXPECT_FALSE(cache.erase(key(1)));  // pinned
  EXPECT_TRUE(cache.erase(key(2)));
  cache.clear();
  EXPECT_TRUE(cache.contains(key(1)));
  EXPECT_EQ(cache.entry_count(), 1u);

  pin.release();
  cache.clear();
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.total_bytes(), 0u);
}

TEST(BlockCacheTest, EraseDatasetDropsOnlyThatDataset) {
  BlockCache cache(small_config(1 << 20, PolicyKind::kLru));
  for (std::uint64_t b = 0; b < 4; ++b) cache.insert(key(b, "a"), bytes(8, 1));
  for (std::uint64_t b = 0; b < 3; ++b) cache.insert(key(b, "b"), bytes(8, 2));
  EXPECT_EQ(cache.erase_dataset("a"), 4u);
  EXPECT_EQ(cache.entry_count(), 3u);
  EXPECT_FALSE(cache.contains(key(0, "a")));
  EXPECT_TRUE(cache.contains(key(0, "b")));
}

TEST(BlockCacheTest, OverwriteAdjustsByteAccounting) {
  BlockCache cache(small_config(1000, PolicyKind::kLru));
  cache.insert(key(1), bytes(400, 1));
  cache.insert(key(1), bytes(100, 2));
  EXPECT_EQ(cache.total_bytes(), 100u);
  EXPECT_EQ(cache.entry_count(), 1u);
  auto data = cache.lookup(key(1));
  ASSERT_NE(data, nullptr);
  EXPECT_EQ((*data)[0], 2);

  // Growing an entry evicts others rather than blowing the budget.
  cache.insert(key(2), bytes(400, 3));
  cache.insert(key(1), bytes(900, 4));
  EXPECT_LE(cache.total_bytes(), 1000u);
  EXPECT_FALSE(cache.contains(key(2)));
}

TEST(BlockCacheTest, PrefetchedEntriesCountPrefetchHitOnce) {
  BlockCache cache(small_config(1024, PolicyKind::kLru));
  cache.insert(key(1), bytes(10, 1), /*prefetched=*/true);
  EXPECT_NE(cache.lookup(key(1)), nullptr);
  EXPECT_NE(cache.lookup(key(1)), nullptr);
  const auto m = cache.metrics();
  EXPECT_EQ(m.prefetch_hits, 1u);  // only the first demand hit
  EXPECT_EQ(m.hits, 2u);
}

TEST(BlockCacheTest, MovedPinReleasesExactlyOnce) {
  BlockCache cache(small_config(200, PolicyKind::kLru));
  cache.insert(key(1), bytes(100, 1));
  BlockCache::Pin a = cache.lookup_pinned(key(1));
  BlockCache::Pin b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  // Still pinned through b: an overflow insert cannot evict it.
  EXPECT_FALSE(cache.insert(key(2), bytes(150, 2)));
  b.release();
  b.release();  // idempotent
  EXPECT_TRUE(cache.insert(key(2), bytes(150, 2)));
}

TEST(BlockCacheTest, LoggerBracketsHitsMissesAndEvictions) {
  auto sink = std::make_shared<netlog::MemorySink>();
  core::VirtualClock clock;
  BlockCache cache(small_config(200, PolicyKind::kLru));
  cache.set_logger(std::make_shared<netlog::NetLogger>(clock, "test-host",
                                                       "cache", sink));
  cache.lookup(key(1));                   // miss
  cache.insert(key(1), bytes(150, 1));
  cache.lookup(key(1));                   // hit
  cache.insert(key(2), bytes(150, 2));    // evicts 1

  int hits = 0, misses = 0, evicts = 0;
  for (const auto& e : sink->events()) {
    if (e.tag == netlog::tags::kCacheHit) ++hits;
    if (e.tag == netlog::tags::kCacheMiss) ++misses;
    if (e.tag == netlog::tags::kCacheEvict) ++evicts;
  }
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(misses, 1);
  EXPECT_EQ(evicts, 1);
}

// Concurrent hammering: readers, writers and pinners race on a small cache
// across all shards; afterwards every invariant must still hold.  Run under
// the CI AddressSanitizer job, this is the test that earns its keep.
TEST(BlockCacheConcurrencyTest, RacingHitMissEvictPinHoldsInvariants) {
  BlockCacheConfig cc;
  cc.capacity_bytes = 64 * 1024;
  cc.shards = 4;
  cc.policy = PolicyKind::kLru;
  BlockCache cache(cc);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  constexpr std::uint64_t kKeySpace = 64;  // far larger than fits
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (int ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      core::Rng rng(test_support::deterministic_seed(
          static_cast<std::uint64_t>(ti)));
      for (int op = 0; op < kOpsPerThread; ++op) {
        const std::uint64_t b = rng.next_below(kKeySpace);
        switch (rng.next_below(4)) {
          case 0:
            cache.insert(key(b), bytes(2048, static_cast<std::uint8_t>(b)));
            break;
          case 1: {
            auto data = cache.lookup(key(b));
            if (data && (*data)[0] != static_cast<std::uint8_t>(b)) {
              failed.store(true);
            }
            break;
          }
          case 2: {
            BlockCache::Pin pin = cache.lookup_pinned(key(b));
            if (pin) {
              // While pinned, the block must stay resident even under the
              // other threads' eviction pressure.
              if (!cache.contains(key(b))) failed.store(true);
              if ((*pin)[0] != static_cast<std::uint8_t>(b)) {
                failed.store(true);
              }
            }
            break;
          }
          default:
            cache.erase(key(b));
            break;
        }
        if (cache.total_bytes() > cc.capacity_bytes) failed.store(true);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_LE(cache.total_bytes(), cc.capacity_bytes);
  const auto m = cache.metrics();
  EXPECT_EQ(m.bytes, cache.total_bytes());
  EXPECT_EQ(m.entries, cache.entry_count());
  EXPECT_GT(m.hits + m.misses, 0u);
}

}  // namespace
}  // namespace visapult::cache
