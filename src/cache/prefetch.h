// Stripe-aware read-ahead.
//
// Visapult's access patterns are runs: a back-end PE reads its slab of a
// timestep as a sequence of consecutive logical blocks, and each DPSS
// block server sees every `server_count`-th block of that run -- a
// constant-*stride* sequence.  RunDetector recognises both (any constant
// stride, forward or backward), and Prefetcher turns a confirmed run into
// asynchronous fetches of the next `depth` predicted blocks through a
// core::ThreadPool, so striped WAN reads overlap with rendering instead of
// serialising behind it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cache/metrics.h"
#include "core/thread_pool.h"

namespace visapult::cache {

// Detects sequential / constant-stride runs in a stream of block indices.
// Not thread-safe; the owning Prefetcher serialises access.
class RunDetector {
 public:
  // `min_run` = number of accesses that must share one stride before the
  // run is confirmed (3 means: two accesses propose a stride, the third
  // confirms it).
  explicit RunDetector(int min_run = 3) : min_run_(min_run < 2 ? 2 : min_run) {}

  // Observe a demand access.  Returns the active stride (signed, non-zero)
  // while a run is confirmed, 0 otherwise.
  std::int64_t observe(std::uint64_t block);

  std::int64_t stride() const { return active() ? stride_ : 0; }
  int run_length() const { return run_; }
  std::uint64_t last_block() const { return last_; }

 private:
  bool active() const { return run_ >= min_run_; }

  int min_run_;
  bool has_last_ = false;
  std::uint64_t last_ = 0;
  std::int64_t stride_ = 0;
  int run_ = 1;
};

struct PrefetchConfig {
  int min_run = 3;        // accesses that confirm a run
  int depth = 4;          // predicted blocks fetched ahead
  int max_in_flight = 16; // cap on concurrently scheduled fetches
};

// Schedules read-ahead on a ThreadPool.  One Prefetcher serves any number
// of datasets (one RunDetector per dataset-and-stride stream).
class Prefetcher {
 public:
  // Performs the actual fetch+admit; runs on a pool thread, or inline on
  // the caller of on_access() when `pool` is null (block servers, whose
  // fills book the modelled disks without waiting for them, and the
  // deterministic unit tests).  Must not call back into this Prefetcher.
  using Fetch =
      std::function<void(const std::string& dataset, std::uint64_t block)>;
  // Returns true when a predicted block should be skipped (already cached,
  // not resident on this server, ...).
  using Filter =
      std::function<bool(const std::string& dataset, std::uint64_t block)>;

  Prefetcher(PrefetchConfig config, Fetch fetch,
             core::ThreadPool* pool = nullptr, Metrics* metrics = nullptr);
  ~Prefetcher();

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  void set_filter(Filter filter);

  // Observe a demand access on `dataset`; once a run is confirmed,
  // schedules fetches for up to `depth` predicted blocks in
  // [0, block_count).  Pass block_count = UINT64_MAX when the caller's
  // filter already bounds the block space.  `stream` distinguishes
  // concurrent access streams over the same dataset (one per client
  // connection on a block server): each stream gets its own RunDetector,
  // so interleaved multi-PE runs do not garble each other's strides.
  void on_access(const std::string& dataset, std::uint64_t block,
                 std::uint64_t block_count, std::uint64_t stream = 0);

  // Forget learned access patterns (e.g. after a cache drop).
  void reset_patterns();

  std::uint64_t issued() const;
  std::size_t in_flight() const;
  // Block until every scheduled fetch has completed.
  void drain();

 private:
  void run_fetch(const std::string& dataset, std::uint64_t block);

  PrefetchConfig config_;
  Fetch fetch_;
  core::ThreadPool* pool_;
  Metrics* metrics_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Filter filter_;
  // One detector per (dataset, stream) access sequence.
  std::map<std::pair<std::string, std::uint64_t>, RunDetector> detectors_;
  std::set<std::pair<std::string, std::uint64_t>> scheduled_;
  int in_flight_ = 0;
  std::uint64_t issued_ = 0;
};

}  // namespace visapult::cache
