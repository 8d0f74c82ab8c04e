// Eviction policy behaviour: exact LRU ordering, SLRU scan resistance,
// and the pinned-skip contract of select_victim.
#include "cache/policy.h"

#include <gtest/gtest.h>

#include <set>

namespace visapult::cache {
namespace {

BlockKey key(std::uint64_t block, const std::string& dataset = "ds") {
  BlockKey k;
  k.dataset = dataset;
  k.block = block;
  return k;
}

// Always-evictable predicate.
bool any(const BlockKey&) { return true; }

TEST(PolicyKindTest, NameParseRoundTrip) {
  for (PolicyKind kind : {PolicyKind::kLru, PolicyKind::kSegmentedLru}) {
    EXPECT_STREQ(make_policy(kind)->name(), policy_name(kind));
  }
}

TEST(LruPolicyTest, EvictsLeastRecentlyUsed) {
  LruPolicy lru;
  for (std::uint64_t b = 0; b < 4; ++b) lru.on_insert(key(b));
  lru.on_access(key(0));  // 0 becomes MRU; 1 is now LRU

  BlockKey victim;
  ASSERT_TRUE(lru.select_victim(any, &victim));
  EXPECT_EQ(victim, key(1));

  lru.on_erase(key(1));
  ASSERT_TRUE(lru.select_victim(any, &victim));
  EXPECT_EQ(victim, key(2));
  EXPECT_EQ(lru.tracked(), 3u);
}

TEST(LruPolicyTest, SelectVictimSkipsUnevictable) {
  LruPolicy lru;
  for (std::uint64_t b = 0; b < 3; ++b) lru.on_insert(key(b));
  // 0 is LRU but "pinned": the next candidate must be chosen.
  BlockKey victim;
  ASSERT_TRUE(lru.select_victim(
      [](const BlockKey& k) { return k.block != 0; }, &victim));
  EXPECT_EQ(victim, key(1));
  // Nothing evictable at all.
  EXPECT_FALSE(lru.select_victim([](const BlockKey&) { return false; },
                                 &victim));
}

TEST(SegmentedLruPolicyTest, ReReferencePromotesToProtected) {
  SegmentedLruPolicy slru;
  for (std::uint64_t b = 0; b < 4; ++b) slru.on_insert(key(b));
  EXPECT_EQ(slru.probation_size(), 4u);
  EXPECT_EQ(slru.protected_size(), 0u);

  slru.on_access(key(2));
  EXPECT_EQ(slru.probation_size(), 3u);
  EXPECT_EQ(slru.protected_size(), 1u);

  // Probation is victimised before the protected segment.
  BlockKey victim;
  ASSERT_TRUE(slru.select_victim(any, &victim));
  EXPECT_EQ(victim, key(0));
}

TEST(SegmentedLruPolicyTest, ScanDoesNotDisplaceProtectedSet) {
  SegmentedLruPolicy slru;
  // Hot set: 0 and 1, inserted and re-referenced.
  slru.on_insert(key(0));
  slru.on_insert(key(1));
  slru.on_access(key(0));
  slru.on_access(key(1));

  // A long scan: each block inserted once, never re-referenced, evicted in
  // a bounded working set (as the cache would drive it).
  for (std::uint64_t b = 100; b < 120; ++b) {
    slru.on_insert(key(b));
    BlockKey victim;
    ASSERT_TRUE(slru.select_victim(any, &victim));
    // The scan only ever displaces scan blocks, never the hot set.
    EXPECT_GE(victim.block, 100u);
    slru.on_erase(victim);
  }
  EXPECT_EQ(slru.tracked(), 2u);  // only the hot set survives the scan
}

TEST(SegmentedLruPolicyTest, ProtectedOverflowDemotesToProbation) {
  SegmentedLruPolicy slru;
  for (std::uint64_t b = 0; b < 3; ++b) slru.on_insert(key(b));
  // Promote all three; cap is ceil(2/3 * 3) = 2, so the coldest promoted
  // key is demoted back to probation.
  for (std::uint64_t b = 0; b < 3; ++b) slru.on_access(key(b));
  EXPECT_EQ(slru.protected_size(), 2u);
  EXPECT_EQ(slru.probation_size(), 1u);

  BlockKey victim;
  ASSERT_TRUE(slru.select_victim(any, &victim));
  EXPECT_EQ(victim, key(0));  // first promoted = coldest = demoted
}

// Every policy must tolerate access/erase of unknown keys (the cache never
// issues them, but defensive no-ops keep the contract simple).
TEST(PolicyContractTest, UnknownKeysAreNoOps) {
  for (PolicyKind kind : {PolicyKind::kLru, PolicyKind::kSegmentedLru}) {
    auto policy = make_policy(kind);
    policy->on_access(key(42));
    policy->on_erase(key(42));
    BlockKey victim;
    EXPECT_FALSE(policy->select_victim(any, &victim)) << policy->name();
    policy->on_insert(key(1));
    EXPECT_TRUE(policy->select_victim(any, &victim)) << policy->name();
    EXPECT_EQ(victim, key(1));
  }
}

}  // namespace
}  // namespace visapult::cache
