// Process-wide metrics plane: counters, gauges, and latency histograms.
//
// The paper's methodology was instrumentation-first -- NetLogger event logs
// at every component.  This module is the aggregate side of that story: the
// always-on counters and distributions that every subsystem (cache, server,
// client, reactor) feeds, snapshotted on demand by kStats introspection and
// rendered as Prometheus-style text for dpss_tool and CI.
//
// Hot-path cost model: Counter::add is one relaxed fetch_add on a
// thread-sharded, cacheline-padded slot; Histogram::observe is a frexp to
// pick a log-spaced bucket plus a relaxed fetch_add (and a CAS loop for the
// running sum, uncontended once sharded).  Neither takes a lock, so both
// sit safely inside the reactor's request dispatch.
//
// Components cache Counter*/Histogram* references at construction --
// MetricsRegistry hands out stable pointers -- so the by-name map lookup is
// never on a request path.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace visapult::obs {

// Monotonic event count, sharded by thread so concurrent increments from
// the reactor loops and worker pools never bounce one cacheline.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    shards_[shard_slot()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() { add(1); }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  friend class Histogram;  // shares the per-thread shard slot
  static constexpr std::size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  static std::size_t shard_slot();
  Shard shards_[kShards];
};

// Point-in-time level (queue depth, in-flight requests, resident bytes).
// add() returns the post-update value so callers can track high-water marks.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::int64_t add(std::int64_t delta) {
    return v_.fetch_add(delta, std::memory_order_relaxed) + delta;
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Value-type view of a Histogram, safe to ship across threads and assert on
// in tests.  Quantiles interpolate within the log-spaced bucket that holds
// the requested rank, clamped to the observed min/max.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<std::uint64_t> buckets;

  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
};

// Log-bucketed distribution of non-negative samples (latencies in seconds,
// sizes in bytes).  68 buckets at sqrt(2) growth from 1 microsecond cover
// 1 us .. ~4.8 hours; values outside clamp to the edge buckets, and the
// exact min/max are tracked so clamping never corrupts the tails.
class Histogram {
 public:
  static constexpr int kBuckets = 68;

  void observe(double v);
  // core::RunningStat-compatible spelling for bench/stat call sites.
  void add(double v) { observe(v); }

  std::uint64_t count() const;
  double sum() const;
  double mean() const;
  double min() const;
  double max() const;
  double quantile(double q) const { return snapshot().quantile(q); }

  HistogramSnapshot snapshot() const;
  void reset();

  // Inclusive upper bound of bucket `i` (shared with HistogramSnapshot).
  static double bucket_bound(int i);
  static int bucket_of(double v);

 private:
  static constexpr std::size_t kShards = 4;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_bits{0};  // bit-cast double, CAS-added
    std::atomic<std::uint64_t> buckets[kBuckets] = {};
  };
  Shard shards_[kShards];
  // Bit patterns of non-negative doubles order like the values, so
  // min/max are single CAS loops over the raw bits.
  std::atomic<std::uint64_t> min_bits_{~0ull};
  std::atomic<std::uint64_t> max_bits_{0};
  std::atomic<std::uint64_t> seen_{0};
};

// One exposition sample: a flat name (Prometheus charset), optional
// `key="value"` label text, and the value.  Collectors emit these for
// counters owned elsewhere (reactor loops, cache tiers) so exposition
// never forces a dependency from those modules onto obs.
struct Sample {
  std::string name;
  std::string labels;  // rendered inside {...} when non-empty
  double value = 0.0;
};

// True iff `name` is a legal Prometheus metric name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.  Registration rejects anything else -- a name
// with `"` or `\` would render invalid exposition text.
bool valid_metric_name(const std::string& name);

// Escape a label value for exposition: `\` -> `\\`, `"` -> `\"`,
// newline -> `\n`.
std::string escape_label_value(const std::string& value);

// Render one `key="value"` label pair with the value escaped; join pairs
// with "," for Sample::labels.
std::string label_pair(const std::string& key, const std::string& value);

// Named instruments plus exposition-time collectors.  Every component that
// answers kStats introspection owns one registry; MetricsRegistry::global()
// is the ambient default for code with no better home.
class MetricsRegistry {
 public:
  using Collector = std::function<void(std::vector<Sample>&)>;

  static MetricsRegistry& global();

  // Stable pointers: instruments live as long as the registry.  Throws
  // std::invalid_argument if `name` fails valid_metric_name() -- bad names
  // would corrupt every future exposition, so they fail loudly at
  // registration (construction time), never on the hot path.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Collectors run at snapshot/render time; remove before the backing
  // object dies.  Returns a handle for remove_collector.
  std::uint64_t add_collector(Collector fn);
  void remove_collector(std::uint64_t id);

  // Flattened view: every instrument (histograms expand to _count/_sum/
  // _min/_max/_p50/_p95/_p99) plus every collector's samples.
  std::vector<Sample> samples() const;

  // Prometheus-style text exposition: `# TYPE` comments, `name value`
  // lines, histograms as the quantile expansion above.
  std::string render_text() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::uint64_t, Collector> collectors_;
  std::uint64_t next_collector_ = 1;
};

}  // namespace visapult::obs
