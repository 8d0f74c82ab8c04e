#include "cache/block_cache.h"

#include <algorithm>
#include <set>

#include "netlog/event.h"

namespace visapult::cache {

BlockCache::Pin& BlockCache::Pin::operator=(Pin&& other) noexcept {
  if (this != &other) {
    release();
    cache_ = other.cache_;
    key_ = std::move(other.key_);
    data_ = std::move(other.data_);
    other.cache_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

void BlockCache::Pin::release() {
  if (cache_ && data_) {
    cache_->unpin(key_);
  }
  cache_ = nullptr;
  data_ = nullptr;
}

BlockCache::BlockCache(BlockCacheConfig config) : config_(config) {
  const int n = std::max(1, config_.shards);
  config_.shards = n;
  const std::size_t per = config_.capacity_bytes / static_cast<std::size_t>(n);
  shards_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->policy = make_policy(config_.policy);
    shard->capacity = per;
    shards_.push_back(std::move(shard));
  }
  // Remainder bytes go to shard 0 so the shard budgets sum to the total.
  shards_[0]->capacity += config_.capacity_bytes % static_cast<std::size_t>(n);
}

BlockCache::Shard& BlockCache::shard_for(const BlockKey& key) {
  return *shards_[BlockKeyHash{}(key) % shards_.size()];
}

const BlockCache::Shard& BlockCache::shard_for(const BlockKey& key) const {
  return *shards_[BlockKeyHash{}(key) % shards_.size()];
}

void BlockCache::log_event(const char* tag, const BlockKey& key,
                           std::size_t bytes) {
  if (!logger_) return;
  logger_->log(tag, static_cast<std::int64_t>(key.block), -1,
               {{"DATASET", key.dataset}, {"BYTES", std::to_string(bytes)}});
}

BlockData BlockCache::lookup(const BlockKey& key) {
  Shard& shard = shard_for(key);
  BlockData data;
  std::size_t bytes = 0;
  bool hit = false;
  {
    std::lock_guard lk(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      hit = true;
      data = it->second.data;
      bytes = it->second.charge;
      shard.policy->on_access(key);
      if (it->second.prefetched) {
        it->second.prefetched = false;
        metrics_.count_prefetch_hit();
      }
    }
  }
  if (hit) {
    metrics_.count_hit();
    log_event(netlog::tags::kCacheHit, key, bytes);
  } else {
    metrics_.count_miss();
    log_event(netlog::tags::kCacheMiss, key, 0);
  }
  return data;
}

BlockCache::Pin BlockCache::lookup_pinned(const BlockKey& key) {
  Shard& shard = shard_for(key);
  BlockData data;
  std::size_t bytes = 0;
  {
    std::lock_guard lk(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      data = it->second.data;
      bytes = it->second.charge;
      ++it->second.pins;
      shard.policy->on_access(key);
      if (it->second.prefetched) {
        it->second.prefetched = false;
        metrics_.count_prefetch_hit();
      }
    }
  }
  if (data) {
    metrics_.count_hit();
    log_event(netlog::tags::kCacheHit, key, bytes);
    return Pin(this, key, std::move(data));
  }
  metrics_.count_miss();
  log_event(netlog::tags::kCacheMiss, key, 0);
  return Pin();
}

void BlockCache::unpin(const BlockKey& key) {
  Shard& shard = shard_for(key);
  std::lock_guard lk(shard.mu);
  auto it = shard.map.find(key);
  // The entry is guaranteed present: erase/evict skip pinned entries, so a
  // live Pin keeps its key resident.
  if (it != shard.map.end() && it->second.pins > 0) {
    --it->second.pins;
  }
}

bool BlockCache::contains(const BlockKey& key) const {
  const Shard& shard = shard_for(key);
  std::lock_guard lk(shard.mu);
  return shard.map.count(key) > 0;
}

bool BlockCache::insert(const BlockKey& key, BlockData data, bool prefetched) {
  const std::size_t charge_bytes = data ? data->size() : 0;
  Shard& shard = shard_for(key);
  std::vector<std::pair<BlockKey, std::size_t>> evicted;
  bool admitted = false;
  {
    std::lock_guard lk(shard.mu);
    auto it = shard.map.find(key);
    const std::size_t existing_charge =
        it != shard.map.end() ? it->second.charge : 0;
    if (charge_bytes <= shard.capacity) {
      // Trial victim selection among unpinned entries other than the key
      // itself (an overwrite reuses its own entry's budget).  Nothing is
      // evicted until the block is known to fit: a doomed admission must
      // not empty the shard on its way to being rejected.
      std::set<BlockKey> chosen;
      std::size_t reclaimed = 0;
      bool fits;
      while (!(fits = shard.bytes + charge_bytes <=
                      shard.capacity + existing_charge + reclaimed)) {
        BlockKey victim;
        const bool found = shard.policy->select_victim(
            [&shard, &key, &chosen](const BlockKey& k) {
              if (k == key || chosen.count(k)) return false;
              auto v = shard.map.find(k);
              return v != shard.map.end() && v->second.pins == 0;
            },
            &victim);
        if (!found) break;
        reclaimed += shard.map.find(victim)->second.charge;
        chosen.insert(victim);
      }
      if (fits) {
        for (const BlockKey& victim : chosen) {
          auto v = shard.map.find(victim);
          evicted.emplace_back(victim, v->second.charge);
          erase_locked(shard, v);
        }
        if (it != shard.map.end()) {
          // Overwrite in place: adjust the byte accounting, keep pins.
          shard.bytes -= it->second.charge;
          it->second.data = std::move(data);
          it->second.charge = charge_bytes;
          it->second.prefetched = prefetched;
          shard.bytes += charge_bytes;
          shard.policy->on_access(key);
        } else {
          Entry entry;
          entry.data = std::move(data);
          entry.charge = charge_bytes;
          entry.prefetched = prefetched;
          shard.map.emplace(key, std::move(entry));
          shard.policy->on_insert(key);
          shard.bytes += charge_bytes;
        }
        admitted = true;
      }
    }
  }
  for (const auto& [victim, bytes] : evicted) {
    metrics_.count_eviction();
    log_event(netlog::tags::kCacheEvict, victim, bytes);
  }
  if (admitted) {
    metrics_.count_insertion();
  } else {
    metrics_.count_admit_reject();
  }
  return admitted;
}

bool BlockCache::insert(const BlockKey& key, std::vector<std::uint8_t> bytes,
                        bool prefetched) {
  metrics_.count_copied(bytes.size());
  return insert(
      key, std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes)),
      prefetched);
}

void BlockCache::erase_locked(
    Shard& shard,
    std::unordered_map<BlockKey, Entry, BlockKeyHash>::iterator it) {
  shard.bytes -= it->second.charge;
  shard.policy->on_erase(it->first);
  shard.map.erase(it);
}

bool BlockCache::erase(const BlockKey& key) {
  Shard& shard = shard_for(key);
  std::lock_guard lk(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end() || it->second.pins > 0) return false;
  erase_locked(shard, it);
  return true;
}

std::size_t BlockCache::erase_dataset(const std::string& dataset) {
  std::size_t erased = 0;
  for (auto& shard : shards_) {
    std::lock_guard lk(shard->mu);
    for (auto it = shard->map.begin(); it != shard->map.end();) {
      if (it->first.dataset == dataset && it->second.pins == 0) {
        auto victim = it++;
        erase_locked(*shard, victim);
        ++erased;
      } else {
        ++it;
      }
    }
  }
  return erased;
}

void BlockCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard lk(shard->mu);
    for (auto it = shard->map.begin(); it != shard->map.end();) {
      if (it->second.pins == 0) {
        auto victim = it++;
        erase_locked(*shard, victim);
      } else {
        ++it;
      }
    }
  }
}

std::size_t BlockCache::total_bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lk(shard->mu);
    total += shard->bytes;
  }
  return total;
}

std::size_t BlockCache::entry_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lk(shard->mu);
    total += shard->map.size();
  }
  return total;
}

MetricsSnapshot BlockCache::metrics() const {
  MetricsSnapshot s = metrics_.snapshot();
  s.capacity_bytes = config_.capacity_bytes;
  for (const auto& shard : shards_) {
    std::lock_guard lk(shard->mu);
    s.bytes += shard->bytes;
    s.entries += shard->map.size();
  }
  return s;
}

}  // namespace visapult::cache
