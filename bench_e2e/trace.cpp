// Bench-side tracing: spans around calls into each layer, the wire union
// fed by WireStream, self times, and the JSON span dump.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

#include "e2e.h"

namespace e2e {

using visapult::core::Status;

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

namespace {

// The calling thread's innermost open span and the op it belongs to.
struct ThreadSpan {
  std::uint64_t id = 0;
  std::uint64_t op = 0;
};
thread_local ThreadSpan t_current;

// Total length of the union of [a, b) intervals clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>>& iv, double lo,
               double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_a = 0.0, cur_b = -1.0;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (a > cur_b) {
      if (cur_b > cur_a) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) total += cur_b - cur_a;
  return total;
}

}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

void Tracer::arm(double t0, double slot_seconds) {
  t0_ = t0;
  slot_ = slot_seconds;
  armed_.store(true);
}

void Tracer::disarm() { armed_.store(false); }

bool Tracer::traced_at(double t) const {
  if (!armed_.load(std::memory_order_relaxed) || t < t0_) return false;
  return static_cast<long>((t - t0_) / slot_) % 2 == 1;
}

void Tracer::push(const Span& s) {
  open_[s.id] = spans_.size();
  spans_.push_back(s);
}

std::uint64_t Tracer::begin_op(const char* name, std::uint64_t op, double t) {
  if (!traced_at(t)) return 0;
  Span s;
  s.id = next_id_.fetch_add(1) + 1;
  s.op = op;
  s.name = name;
  s.start = now_s();
  {
    std::lock_guard lk(mu_);
    push(s);
  }
  t_current = {s.id, op};
  io_op_.store(op);
  io_parent_.store(s.id);
  return s.id;
}

std::uint64_t Tracer::begin(const char* name) {
  if (t_current.id == 0) return 0;
  Span s;
  s.id = next_id_.fetch_add(1) + 1;
  s.parent = t_current.id;
  s.op = t_current.op;
  s.name = name;
  s.start = now_s();
  {
    std::lock_guard lk(mu_);
    push(s);
  }
  t_current.id = s.id;
  io_parent_.store(s.id);
  return s.id;
}

void Tracer::end(std::uint64_t id) {
  if (id == 0) return;
  const double t = now_s();
  std::uint64_t parent = 0;
  {
    std::lock_guard lk(mu_);
    auto it = open_.find(id);
    if (it == open_.end()) return;
    spans_[it->second].end = t;
    parent = spans_[it->second].parent;
    open_.erase(it);
  }
  t_current.id = parent;
  if (parent == 0) t_current.op = 0;
  io_parent_.store(parent);
}

bool Tracer::io_enter() {
  const std::uint64_t parent = io_parent_.load(std::memory_order_relaxed);
  if (parent == 0) return false;
  std::lock_guard lk(mu_);
  if (in_io_++ == 0) {
    io_start_ = now_s();
    io_start_parent_ = parent;
    io_start_op_ = io_op_.load(std::memory_order_relaxed);
  }
  return true;
}

void Tracer::io_exit(bool counted) {
  if (!counted) return;
  std::lock_guard lk(mu_);
  if (--in_io_ != 0) return;
  Span s;
  s.id = next_id_.fetch_add(1) + 1;
  s.parent = io_start_parent_;
  s.op = io_start_op_;
  s.name = "net.wire";
  s.start = io_start_;
  s.end = now_s();
  spans_.push_back(s);
}

std::size_t Tracer::span_count() const {
  std::lock_guard lk(mu_);
  return spans_.size();
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::lock_guard lk(mu_);
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const auto& s : spans_) {
    if (s.parent != 0 && s.end > 0) children[s.parent].push_back({s.start, s.end});
  }
  std::map<std::string, SpanTotals> out;
  for (const auto& s : spans_) {
    if (s.end <= 0) continue;  // still open: not a finished measurement
    auto& t = out[s.name];
    const double dur = s.end - s.start;
    ++t.count;
    t.seconds += dur;
    auto it = children.find(s.id);
    t.self_seconds +=
        it == children.end() ? dur : dur - covered(it->second, s.start, s.end);
  }
  return out;
}

Status Tracer::write_json(const std::string& path, const std::string& workload,
                          std::uint64_t seed, std::size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return visapult::core::unavailable("cannot write " + path);
  std::lock_guard lk(mu_);
  std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,\"spans_total\":%zu,",
               workload.c_str(), static_cast<unsigned long long>(seed),
               spans_.size());
  std::fprintf(f, "\"spans\":[");
  const std::size_t n = std::min(max_spans, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"name\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f}",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.name, s.start * 1e6,
                 s.end * 1e6);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0 ? Status::ok()
                             : visapult::core::unavailable("short write " + path);
}

}  // namespace e2e
