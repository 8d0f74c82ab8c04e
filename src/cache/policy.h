// Eviction policies for the block cache.
//
// One EvictionPolicy instance lives inside each BlockCache shard, always
// driven under that shard's mutex, so implementations need no locking of
// their own.  The policy tracks *keys only*; sizes and pin counts stay in
// the cache, which passes an `evictable` predicate to select_victim() so a
// policy can never propose a pinned block.
//
// Two classic policies, selectable per cache:
//   * LRU           -- exact recency list; the DPSS server tier's policy.
//   * Segmented LRU -- probationary + protected segments: blocks must be
//                      re-referenced to earn protection, so one scan of a
//                      large dataset cannot flush the hot set.  The client
//                      read-ahead tier uses it.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

namespace visapult::cache {

// Identity of a cached block: the DPSS dataset name plus the logical block
// index within it, plus the block's ingest *generation* -- an overwrite
// bumps the generation, so the fresh payload lives under a new key and a
// stale entry can never satisfy a lookup for the latest data (the DPSS
// write pipeline erases the old key explicitly; unversioned users leave
// generation at 0 and behave exactly as before).  Integration layers reuse
// the block field for their own granularity (the backend keys whole
// timesteps).
struct BlockKey {
  std::string dataset;
  std::uint64_t block = 0;
  std::uint64_t generation = 0;

  friend bool operator==(const BlockKey& a, const BlockKey& b) {
    return a.block == b.block && a.generation == b.generation &&
           a.dataset == b.dataset;
  }
  friend bool operator!=(const BlockKey& a, const BlockKey& b) {
    return !(a == b);
  }
  friend bool operator<(const BlockKey& a, const BlockKey& b) {
    if (a.dataset != b.dataset) return a.dataset < b.dataset;
    if (a.block != b.block) return a.block < b.block;
    return a.generation < b.generation;
  }
};

struct BlockKeyHash {
  std::size_t operator()(const BlockKey& key) const {
    // splitmix64 finish over the block index and generation, xored into
    // the string hash.
    std::uint64_t z =
        key.block + 0x9e3779b97f4a7c15ull + (key.generation << 32);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return std::hash<std::string>{}(key.dataset) ^
           static_cast<std::size_t>(z ^ (z >> 31));
  }
};

enum class PolicyKind { kLru, kSegmentedLru };

const char* policy_name(PolicyKind kind);

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  virtual const char* name() const = 0;

  // A new key was admitted.  The key is guaranteed untracked.
  virtual void on_insert(const BlockKey& key) = 0;
  // A tracked key was referenced (demand hit or overwrite).
  virtual void on_access(const BlockKey& key) = 0;
  // A tracked key left the cache (eviction or explicit erase).
  virtual void on_erase(const BlockKey& key) = 0;

  // Propose the next victim among tracked keys for which `evictable`
  // returns true.  Returns false when no tracked key is evictable.  The
  // cache erases the victim itself (triggering on_erase).
  virtual bool select_victim(
      const std::function<bool(const BlockKey&)>& evictable,
      BlockKey* victim) = 0;

  virtual std::size_t tracked() const = 0;
};

std::unique_ptr<EvictionPolicy> make_policy(PolicyKind kind);

// ---- implementations (exposed for direct unit testing) ---------------------

class LruPolicy final : public EvictionPolicy {
 public:
  const char* name() const override { return "lru"; }
  void on_insert(const BlockKey& key) override;
  void on_access(const BlockKey& key) override;
  void on_erase(const BlockKey& key) override;
  bool select_victim(const std::function<bool(const BlockKey&)>& evictable,
                     BlockKey* victim) override;
  std::size_t tracked() const override { return pos_.size(); }

 private:
  std::list<BlockKey> order_;  // front = most recent
  std::unordered_map<BlockKey, std::list<BlockKey>::iterator, BlockKeyHash>
      pos_;
};

class SegmentedLruPolicy final : public EvictionPolicy {
 public:
  const char* name() const override { return "slru"; }
  void on_insert(const BlockKey& key) override;
  void on_access(const BlockKey& key) override;
  void on_erase(const BlockKey& key) override;
  bool select_victim(const std::function<bool(const BlockKey&)>& evictable,
                     BlockKey* victim) override;
  std::size_t tracked() const override { return pos_.size(); }

  // Introspection for tests.
  std::size_t probation_size() const { return probation_.size(); }
  std::size_t protected_size() const { return protected_.size(); }

 private:
  struct Slot {
    std::list<BlockKey>::iterator it;
    bool is_protected = false;
  };
  // Protected segment holds at most 2/3 of tracked keys; overflow demotes
  // its LRU tail back to probation.
  std::size_t protected_cap() const;
  void enforce_protected_cap();

  std::list<BlockKey> probation_;   // front = most recent
  std::list<BlockKey> protected_;   // front = most recent
  std::unordered_map<BlockKey, Slot, BlockKeyHash> pos_;
};

}  // namespace visapult::cache
