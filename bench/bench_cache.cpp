// Block-cache bench: cold vs. warm read throughput through a DPSS
// deployment, and eviction-policy hit ratios on a mixed hot-set/scan
// workload.
//
// The last stdout line is a single machine-readable JSON object (the
// BENCH_* perf-trajectory hook):
//   {"bench":"cache","cold_mbps":...,"cold_p50_ms":...,"cold_p95_ms":...,
//    "cold_p99_ms":...,"warm_mbps":... (same p50/p95/p99 trio),
//    "warm_hit_ratio":...,"cold_disk_s":...,"warm_disk_s":...,
//    "policy_lru_hit_ratio":...,"policy_slru_hit_ratio":...}
// Each pass reads the file block by block so every pread lands in an
// obs::Histogram: the warm pass collapses the whole distribution, not just
// the mean, and the percentile columns show it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "cache/block_cache.h"
#include "core/rng.h"
#include "core/stats.h"
#include "core/units.h"
#include "dpss/deployment.h"
#include "obs/metrics.h"

using namespace visapult;

namespace {

struct PassResult {
  double seconds = 0.0;
  double disk_seconds = 0.0;  // modeled DiskModel charge during the pass
  double hit_ratio = 0.0;
  // Per-block pread latency tail (ms) across the pass.
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

double aggregate_disk_seconds(dpss::PipeDeployment& d) {
  double total = 0.0;
  for (int i = 0; i < d.server_count(); ++i) {
    total += d.server(i).modeled_disk_seconds();
  }
  return total;
}

cache::MetricsSnapshot aggregate_metrics(dpss::PipeDeployment& d) {
  cache::MetricsSnapshot total;
  for (int i = 0; i < d.server_count(); ++i) {
    const auto m = d.server(i).cache_metrics();
    total.hits += m.hits;
    total.misses += m.misses;
  }
  return total;
}

PassResult timed_read(dpss::PipeDeployment& deployment, dpss::DpssFile& file,
                      std::vector<std::uint8_t>& buf) {
  const auto before = aggregate_metrics(deployment);
  const double disk_before = aggregate_disk_seconds(deployment);
  PassResult r;
  // Block-by-block so every pread is one latency sample.
  obs::Histogram latency;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t off = 0; off < buf.size();
       off += dpss::kDefaultBlockBytes) {
    const std::size_t len = std::min<std::size_t>(dpss::kDefaultBlockBytes,
                                                  buf.size() - off);
    const auto r0 = std::chrono::steady_clock::now();
    auto n = file.pread(buf.data() + off, len, off);
    if (!n.is_ok() || n.value() != len) {
      std::fprintf(stderr, "read failed\n");
      return r;
    }
    latency.observe(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - r0)
                        .count());
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  const auto snap = latency.snapshot();
  r.p50_ms = snap.p50() * 1e3;
  r.p95_ms = snap.p95() * 1e3;
  r.p99_ms = snap.p99() * 1e3;
  r.disk_seconds = aggregate_disk_seconds(deployment) - disk_before;
  const auto after = aggregate_metrics(deployment);
  const auto hits = after.hits - before.hits;
  const auto misses = after.misses - before.misses;
  r.hit_ratio = hits + misses == 0
                    ? 0.0
                    : static_cast<double>(hits) / (hits + misses);
  return r;
}

// Mixed workload for the policy comparison: a hot set re-referenced
// zipf-ishly, interleaved with one-touch scan blocks -- the access mix a
// DPSS serving interactive browsing plus batch staging sees.
double policy_hit_ratio(cache::PolicyKind policy) {
  cache::BlockCacheConfig cc;
  cc.capacity_bytes = 64 * 32 * 1024;  // 64 blocks resident
  cc.shards = 1;
  cc.policy = policy;
  cache::BlockCache bc(cc);

  core::Rng rng(20000412);  // fixed seed: comparable across runs/policies
  const std::uint64_t kHot = 48;     // fits alongside scan churn
  const std::uint64_t kScan = 4096;  // far exceeds capacity
  std::uint64_t scan_at = 0;
  for (int op = 0; op < 60000; ++op) {
    std::uint64_t block;
    if (rng.chance(0.7)) {
      // Hot set, skewed towards low indices.
      block = std::min(rng.next_below(kHot), rng.next_below(kHot));
    } else {
      block = kHot + (scan_at++ % kScan);  // one-touch scan stream
    }
    cache::BlockKey key;
    key.dataset = "workload";
    key.block = block;
    if (!bc.lookup(key)) {
      bc.insert(key, std::vector<std::uint8_t>(32 * 1024, 0));
    }
  }
  return bc.metrics().hit_ratio();
}

}  // namespace

int main() {
  std::printf("=== DPSS block-cache bench ===\n\n");

  // ---- cold vs warm through the deployment ------------------------------
  const auto dataset = vol::DatasetDesc{"cache-bench", {128, 64, 64}, 4,
                                        vol::Generator::kCombustion, 42};
  dpss::ServerCacheConfig cc;
  cc.capacity_bytes = 256ull << 20;
  dpss::PipeDeployment deployment(4, dpss::DiskModel{}, cc);
  if (!deployment.ingest(dataset).is_ok()) {
    std::fprintf(stderr, "ingest failed\n");
    return 1;
  }
  for (int i = 0; i < deployment.server_count(); ++i) {
    deployment.server(i).drop_cache();  // cold start
  }

  auto client = deployment.make_client();
  auto file = client.open(dataset.name);
  if (!file.is_ok()) {
    std::fprintf(stderr, "open failed\n");
    return 1;
  }
  std::vector<std::uint8_t> buf(dataset.total_bytes());

  const PassResult cold = timed_read(deployment, *file.value(), buf);
  const PassResult warm = timed_read(deployment, *file.value(), buf);
  const double cold_mbps = static_cast<double>(buf.size()) / cold.seconds / 1e6;
  const double warm_mbps = static_cast<double>(buf.size()) / warm.seconds / 1e6;

  core::TableWriter table({"pass", "wall time", "throughput",
                           "pread p50/p95/p99 ms", "hit ratio",
                           "modeled disk time"});
  auto fmt_tail = [](const PassResult& p) {
    return core::fmt_double(p.p50_ms, 2) + "/" + core::fmt_double(p.p95_ms, 2) +
           "/" + core::fmt_double(p.p99_ms, 2);
  };
  table.add_row({"cold", core::fmt_double(cold.seconds * 1e3, 1) + " ms",
                 core::format_rate(static_cast<double>(buf.size()) / cold.seconds),
                 fmt_tail(cold), core::fmt_double(cold.hit_ratio, 3),
                 core::fmt_double(cold.disk_seconds, 3) + " s"});
  table.add_row({"warm", core::fmt_double(warm.seconds * 1e3, 1) + " ms",
                 core::format_rate(static_cast<double>(buf.size()) / warm.seconds),
                 fmt_tail(warm), core::fmt_double(warm.hit_ratio, 3),
                 core::fmt_double(warm.disk_seconds, 3) + " s"});
  std::printf("Whole-file read, %s across 4 servers (64 KB blocks):\n%s\n",
              core::format_bytes(static_cast<double>(buf.size())).c_str(),
              table.to_string().c_str());

  // ---- eviction-policy comparison ---------------------------------------
  core::TableWriter policies({"policy", "hit ratio (hot-set + scan mix)"});
  const double lru = policy_hit_ratio(cache::PolicyKind::kLru);
  const double slru = policy_hit_ratio(cache::PolicyKind::kSegmentedLru);
  policies.add_row({"lru", core::fmt_double(lru, 4)});
  policies.add_row({"slru", core::fmt_double(slru, 4)});
  std::printf("Eviction policies, 2 MB cache vs ~130 MB touched:\n%s\n",
              policies.to_string().c_str());

  // ---- machine-readable summary (keep last, one line) -------------------
  return bench::Summary("cache")
      .metric("cold_mbps", cold_mbps)
      .metric("cold_p50_ms", cold.p50_ms)
      .metric("cold_p95_ms", cold.p95_ms)
      .metric("cold_p99_ms", cold.p99_ms)
      .metric("warm_mbps", warm_mbps)
      .metric("warm_p50_ms", warm.p50_ms)
      .metric("warm_p95_ms", warm.p95_ms)
      .metric("warm_p99_ms", warm.p99_ms)
      .metric("warm_hit_ratio", warm.hit_ratio)
      .metric("cold_disk_s", cold.disk_seconds)
      .metric("warm_disk_s", warm.disk_seconds)
      .metric("policy_lru_hit_ratio", lru)
      .metric("policy_slru_hit_ratio", slru)
      .write();
}
