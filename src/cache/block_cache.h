// Sharded in-memory block cache.
//
// The memory tier the paper's DPSS block servers rely on (section 3.5):
// logical blocks keyed by (dataset, block index), bounded by a byte budget,
// with pluggable eviction (policy.h) and a pin/refcount protocol so a block
// being served to a client can never be evicted out from under the read.
//
// Concurrency: the key space is hash-sharded; each shard owns a mutex, an
// eviction policy instance and a slice of the byte budget, so concurrent
// readers on different shards never contend.  Block payloads are
// shared_ptr<const vector<uint8_t>>, so even an evicted block stays valid
// for readers that already hold it -- pins additionally guarantee
// *residency* (refill protocols and zero-copy servers want both).  The
// DPSS block server is such a server: its store and this tier hold the
// same buffer for each block, and its replies are encoded straight from
// it (dpss/server.h).
//
// Instrumentation: every hit/miss/insert/eviction is counted in
// cache::Metrics and, when a NetLogger is attached, bracketed with
// CACHE_HIT / CACHE_MISS / CACHE_EVICT events so NLV analysis of a run can
// report hit ratios next to the paper's pipeline tags.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/metrics.h"
#include "cache/policy.h"
#include "netlog/logger.h"

namespace visapult::cache {

// Immutable shared block payload.
using BlockData = std::shared_ptr<const std::vector<std::uint8_t>>;

struct BlockCacheConfig {
  std::size_t capacity_bytes = 64ull << 20;
  int shards = 8;  // clamped to >= 1; use 1 for strict global ordering
  PolicyKind policy = PolicyKind::kLru;
};

class BlockCache {
 public:
  explicit BlockCache(BlockCacheConfig config = BlockCacheConfig());
  ~BlockCache() = default;

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  // RAII residency pin.  While a Pin is alive its block cannot be evicted
  // or erased; the data pointer is always valid (empty Pin on cache miss).
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept { *this = std::move(other); }
    Pin& operator=(Pin&& other) noexcept;
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { release(); }

    explicit operator bool() const { return data_ != nullptr; }
    const std::vector<std::uint8_t>& operator*() const { return *data_; }
    const BlockData& data() const { return data_; }
    const BlockKey& key() const { return key_; }

    // Drop the pin early (idempotent).
    void release();

   private:
    friend class BlockCache;
    Pin(BlockCache* cache, BlockKey key, BlockData data)
        : cache_(cache), key_(std::move(key)), data_(std::move(data)) {}

    BlockCache* cache_ = nullptr;
    BlockKey key_;
    BlockData data_;
  };

  // Demand lookup: returns the payload and refreshes the policy on a hit,
  // nullptr on a miss.  Counted.
  BlockData lookup(const BlockKey& key);
  // Demand lookup that also pins the entry.  Counted.
  Pin lookup_pinned(const BlockKey& key);
  // Residency probe: no policy refresh, no metrics.
  bool contains(const BlockKey& key) const;

  // Admit (or overwrite) a block, evicting unpinned victims until the
  // payload fits its shard's budget.  Returns false -- and counts an
  // admission reject -- when the block cannot fit (payload larger than the
  // shard budget, or everything else pinned).  `prefetched` marks entries
  // brought in by read-ahead; the first demand hit on one counts as a
  // prefetch hit.  The vector form wraps the bytes in a buffer of the
  // tier's own and counts them as copied (MetricsSnapshot::copied_bytes).
  bool insert(const BlockKey& key, BlockData data, bool prefetched = false);
  bool insert(const BlockKey& key, std::vector<std::uint8_t> bytes,
              bool prefetched = false);

  // Explicit invalidation.  Pinned entries are in active use and are left
  // in place (erase returns false; the bulk forms skip them).
  bool erase(const BlockKey& key);
  std::size_t erase_dataset(const std::string& dataset);
  void clear();

  std::size_t total_bytes() const;
  std::size_t entry_count() const;
  std::size_t capacity_bytes() const { return config_.capacity_bytes; }
  int shard_count() const { return static_cast<int>(shards_.size()); }

  // Full snapshot: counters plus current occupancy.
  MetricsSnapshot metrics() const;
  // Counter handle for collaborators that account into the same snapshot
  // (the Prefetcher counts issues here).
  Metrics& counters() { return metrics_; }

  // Attach a NetLogger for CACHE_* events.  Call during setup, before the
  // cache sees traffic; not synchronized against in-flight operations.
  void set_logger(std::shared_ptr<netlog::NetLogger> logger) {
    logger_ = std::move(logger);
  }

 private:
  struct Entry {
    BlockData data;
    std::size_t charge = 0;
    int pins = 0;
    bool prefetched = false;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<BlockKey, Entry, BlockKeyHash> map;
    std::unique_ptr<EvictionPolicy> policy;
    std::size_t bytes = 0;
    std::size_t capacity = 0;
  };

  Shard& shard_for(const BlockKey& key);
  const Shard& shard_for(const BlockKey& key) const;
  void unpin(const BlockKey& key);
  void log_event(const char* tag, const BlockKey& key, std::size_t bytes);
  // Erase one entry under the shard lock (policy + byte accounting).
  void erase_locked(Shard& shard,
                    std::unordered_map<BlockKey, Entry, BlockKeyHash>::iterator it);

  BlockCacheConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable Metrics metrics_;
  std::shared_ptr<netlog::NetLogger> logger_;
};

}  // namespace visapult::cache
