// Cache instrumentation counters.
//
// Every BlockCache operation is counted here so the hit ratios the paper's
// DPSS measurements imply ("the cache" of section 3.5) are observable: the
// bench harness prints them as JSON, dpss_tool prints them per run, and the
// campaign simulator reports them per replay pass.  Counters are sharded
// obs::Counter instances (lock-free, cacheline-padded) because they sit on
// the block-read hot path; MetricsSnapshot is the value-type view handed to
// reporting code, and obs collectors sample the same counters into the
// stats exposition.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace visapult::cache {

struct MetricsSnapshot {
  std::uint64_t hits = 0;            // demand lookups served from memory
  std::uint64_t misses = 0;          // demand lookups that fell through
  std::uint64_t insertions = 0;      // admissions (including overwrites)
  std::uint64_t evictions = 0;       // entries dropped for capacity
  std::uint64_t admit_rejects = 0;   // blocks that could not be admitted
  std::uint64_t prefetch_issued = 0; // read-ahead fetches scheduled
  std::uint64_t prefetch_hits = 0;   // demand hits on prefetched entries
  // Bytes admitted as a vector, which the tier wraps in a buffer of its
  // own: a second copy whenever the caller keeps the bytes too.  Blocks
  // admitted as BlockData share the caller's buffer and add nothing.
  std::uint64_t copied_bytes = 0;
  std::size_t bytes = 0;             // resident bytes (charged sizes)
  std::size_t capacity_bytes = 0;    // configured budget
  std::size_t entries = 0;           // resident block count

  double hit_ratio() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
  // One-line machine-readable form, e.g. for bench output.
  std::string to_json() const;
};

class Metrics {
 public:
  void count_hit() { hits_.inc(); }
  void count_miss() { misses_.inc(); }
  void count_insertion() { insertions_.inc(); }
  void count_eviction() { evictions_.inc(); }
  void count_admit_reject() { admit_rejects_.inc(); }
  void count_prefetch_issued() { prefetch_issued_.inc(); }
  void count_prefetch_hit() { prefetch_hits_.inc(); }
  void count_copied(std::uint64_t bytes) { copied_bytes_.add(bytes); }

  // Counter fields only; the cache fills bytes/capacity/entries.
  MetricsSnapshot snapshot() const;

  void reset();

  // Emit the counters as exposition samples under `prefix` (e.g.
  // "dpss_cache"), for MetricsRegistry::add_collector.
  void collect(const std::string& prefix, std::vector<obs::Sample>& out) const;

 private:
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter insertions_;
  obs::Counter evictions_;
  obs::Counter admit_rejects_;
  obs::Counter prefetch_issued_;
  obs::Counter prefetch_hits_;
  obs::Counter copied_bytes_;
};

}  // namespace visapult::cache
