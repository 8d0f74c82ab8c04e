#include "cache/metrics.h"

#include <cstdio>

namespace visapult::cache {

std::string MetricsSnapshot::to_json() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"hits\":%llu,\"misses\":%llu,\"hit_ratio\":%.4f,"
      "\"insertions\":%llu,\"evictions\":%llu,\"admit_rejects\":%llu,"
      "\"prefetch_issued\":%llu,\"prefetch_hits\":%llu,"
      "\"bytes\":%llu,\"capacity_bytes\":%llu,\"entries\":%llu}",
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses), hit_ratio(),
      static_cast<unsigned long long>(insertions),
      static_cast<unsigned long long>(evictions),
      static_cast<unsigned long long>(admit_rejects),
      static_cast<unsigned long long>(prefetch_issued),
      static_cast<unsigned long long>(prefetch_hits),
      static_cast<unsigned long long>(bytes),
      static_cast<unsigned long long>(capacity_bytes),
      static_cast<unsigned long long>(entries));
  return buf;
}

MetricsSnapshot Metrics::snapshot() const {
  MetricsSnapshot s;
  s.hits = hits_.value();
  s.misses = misses_.value();
  s.insertions = insertions_.value();
  s.evictions = evictions_.value();
  s.admit_rejects = admit_rejects_.value();
  s.prefetch_issued = prefetch_issued_.value();
  s.prefetch_hits = prefetch_hits_.value();
  s.copied_bytes = copied_bytes_.value();
  return s;
}

void Metrics::reset() {
  hits_.reset();
  misses_.reset();
  insertions_.reset();
  evictions_.reset();
  admit_rejects_.reset();
  prefetch_issued_.reset();
  prefetch_hits_.reset();
  copied_bytes_.reset();
}

void Metrics::collect(const std::string& prefix,
                      std::vector<obs::Sample>& out) const {
  const auto s = snapshot();
  auto emit = [&](const char* name, double v) {
    out.push_back({prefix + name, "", v});
  };
  emit("_hits_total", static_cast<double>(s.hits));
  emit("_misses_total", static_cast<double>(s.misses));
  emit("_insertions_total", static_cast<double>(s.insertions));
  emit("_evictions_total", static_cast<double>(s.evictions));
  emit("_admit_rejects_total", static_cast<double>(s.admit_rejects));
  emit("_prefetch_issued_total", static_cast<double>(s.prefetch_issued));
  emit("_prefetch_hits_total", static_cast<double>(s.prefetch_hits));
  emit("_copied_bytes_total", static_cast<double>(s.copied_bytes));
}

}  // namespace visapult::cache
