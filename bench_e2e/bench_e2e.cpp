// bench_e2e: one workload of the end-to-end DPSS/Visapult benchmark.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Sets the workload up several times (setup_s is the median), runs the
// closed loop for --seconds, checks every output, and prints one JSON object
// as the last stdout line: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records bench-side spans in alternate time slots and reports the per-layer
// metrics, the tracing overhead and the speed-of-light ceilings instead,
// and writes the spans to BENCH_e2e_<workload>.trace.json.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "e2e.h"

using namespace e2e;

namespace {

constexpr int kBlocks = 5;
// Traced and untraced slots alternate this many times per run, fine enough
// that drift over the run lands on both sides of the overhead comparison.
constexpr int kTraceSlots = 20;
constexpr int kSetups = 3;
constexpr std::size_t kMaxTraceSpans = 100000;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

// Peak resident set (VmHWM) in MB.
double rss_peak_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

// Closed-loop rate of each of kBlocks equal time blocks (ops over the op
// time they took, so the bench's own output check is excluded); the median.
double median_block_rate(const std::vector<OpRecord>& ops, double t0,
                         double t1) {
  std::vector<double> n(kBlocks, 0.0), busy(kBlocks, 0.0);
  const double len = (t1 - t0) / kBlocks;
  for (const auto& r : ops) {
    const int b = std::clamp(static_cast<int>((r.start - t0) / len), 0,
                             kBlocks - 1);
    n[b] += 1.0;
    busy[b] += r.latency;
  }
  std::vector<double> rates;
  std::fprintf(stderr, "block rates (1/s):");
  for (int b = 0; b < kBlocks; ++b) {
    if (busy[b] > 0) rates.push_back(n[b] / busy[b]);
    std::fprintf(stderr, " %.2f", ratio(n[b], busy[b]));
  }
  std::fprintf(stderr, "\n");
  return percentile(rates, 0.5);
}

Counters minus(const Counters& b, const Counters& a) {
  Counters d;
  d.server_service_s = b.server_service_s - a.server_service_s;
  d.server_service_n = b.server_service_n - a.server_service_n;
  d.pool_wait_s = b.pool_wait_s - a.pool_wait_s;
  d.pool_wait_n = b.pool_wait_n - a.pool_wait_n;
  d.master_req_s = b.master_req_s - a.master_req_s;
  d.master_req_n = b.master_req_n - a.master_req_n;
  d.requests = b.requests - a.requests;
  d.disk_model_s = b.disk_model_s - a.disk_model_s;
  d.cache_hits = b.cache_hits - a.cache_hits;
  d.cache_misses = b.cache_misses - a.cache_misses;
  d.evictions = b.evictions - a.evictions;
  d.prefetch_issued = b.prefetch_issued - a.prefetch_issued;
  d.prefetch_hits = b.prefetch_hits - a.prefetch_hits;
  d.chain_forwards = b.chain_forwards - a.chain_forwards;
  d.reconstructed = b.reconstructed - a.reconstructed;
  d.degraded_writes = b.degraded_writes - a.degraded_writes;
  d.door_bytes = b.door_bytes - a.door_bytes;
  for (std::size_t i = 0; i < b.loop_busy_s.size() && i < a.loop_busy_s.size();
       ++i) {
    d.loop_busy_s.push_back(b.loop_busy_s[i] - a.loop_busy_s[i]);
    d.loop_idle_s.push_back(b.loop_idle_s[i] - a.loop_idle_s[i]);
  }
  return d;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], val = argv[i + 1];
    if (k == "--workload") {
      a->workload = val;
    } else if (k == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(val.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = val == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::fprintf(stderr, "  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  auto w = make_workload(args.workload, args.seed);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const double t = now_s();
    if (auto st = w->setup(); !st.is_ok()) {
      std::fprintf(stderr, "%s: setup failed: %s\n", args.workload.c_str(),
                   st.to_string().c_str());
      return 1;
    }
    setups.push_back(now_s() - t);
  }

  std::vector<OpRecord> ops;
  const Counters c0 = w->counters();
  const double cpu0 = cpu_seconds();
  const double t0 = now_s();
  if (args.trace) tracer().arm(t0, args.seconds / kTraceSlots);
  w->run(args.seconds, &ops);
  tracer().disarm();
  const double t1 = std::max(now_s(), t0 + args.seconds);
  const double cpu1 = cpu_seconds();
  const Counters d = minus(w->counters(), c0);

  std::uint64_t attempted = ops.size();
  std::uint64_t failed = 0;
  std::vector<double> latencies, traced_lat, untraced_lat;
  for (const auto& r : ops) {
    if (!r.ok) ++failed;
    latencies.push_back(r.latency);
    (r.traced ? traced_lat : untraced_lat).push_back(r.latency);
  }
  failed += w->final_check(&attempted);
  const double n = static_cast<double>(ops.size());
  const double frames_wall = [&] {
    double s = 0;
    for (const auto& r : ops) s += r.latency;
    return s;
  }();
  const double rate = median_block_rate(ops, t0, t1);
  const double cpu_per_op = ratio(cpu1 - cpu0, n);

  std::fprintf(stderr,
               "%s seed=%llu: %zu ops in %.2f s, %llu failed; %.1f ops/s "
               "(%.1f MB/s), setups %.3f/%.3f/%.3f s\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               ops.size(), t1 - t0, static_cast<unsigned long long>(failed), rate,
               rate * w->op_bytes() / 1e6, setups[0], setups[1], setups[2]);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"ops_per_s", rate, "1/s"},
        {"op_p50_ms", percentile(latencies, 0.50) * 1e3, "ms"},
        {"op_p90_ms", percentile(latencies, 0.90) * 1e3, "ms"},
        {"setup_s", percentile(setups, 0.5), "s"},
        {"rss_peak_mb", rss_peak_mb(), "MB"},
    };
    print_result(failed == 0 && attempted > 0, attempted, failed, metrics);
    return 0;
  }

  // ---- traced run: per-layer metrics -----------------------------------------
  const auto totals = tracer().totals();
  auto total = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const SpanTotals root =
      total(args.workload == "visapult" ? "backend.load" : "op");
  double client_self = 0.0;
  for (const auto& [name, t] : totals) {
    if (name != "net.wire" && name != "net.connect") client_self += t.self_seconds;
  }
  double busy_max = 0.0;
  for (std::size_t i = 0; i < d.loop_busy_s.size(); ++i) {
    busy_max = std::max(busy_max,
                        ratio(d.loop_busy_s[i], d.loop_busy_s[i] + d.loop_idle_s[i]));
  }
  const FrameReport fr = w->frame_report();
  const double root_n = static_cast<double>(root.count);
  const double user_bytes = (n - static_cast<double>(failed)) * w->op_bytes();
  const Ceilings sol = measure_ceilings();

  metrics = {
      {"net.wire_ms_per_op", ratio(total("net.wire").seconds, root_n) * 1e3, "ms"},
      {"net.connect_ms_per_open",
       ratio(total("net.connect").seconds,
             static_cast<double>(total("meta.open").count)) * 1e3, "ms"},
      {"net.loop_busy_fraction_max", busy_max, "ratio"},
      {"net.useful_byte_ratio", ratio(user_bytes, d.door_bytes), "ratio"},
      {"dpss.client_self_ms_per_op", ratio(client_self, root_n) * 1e3, "ms"},
      {"dpss.server_service_ms_per_req",
       ratio(d.server_service_s, d.server_service_n) * 1e3, "ms"},
      {"dpss.server_queue_wait_ms_per_req",
       ratio(d.pool_wait_s, d.pool_wait_n) * 1e3, "ms"},
      {"dpss.requests_per_op", ratio(d.requests, n), "count"},
      {"dpss.disk_model_ms_per_op", ratio(d.disk_model_s, n) * 1e3, "ms"},
      {"dpss.disk_utilization",
       ratio(d.disk_model_s, w->spindles() * (t1 - t0)), "ratio"},
      {"cache.hit_ratio", ratio(d.cache_hits, d.cache_hits + d.cache_misses),
       "ratio"},
      {"cache.prefetch_useful_ratio",
       ratio(d.prefetch_hits, d.prefetch_issued), "ratio"},
      {"cache.evictions_per_op", ratio(d.evictions, n), "count"},
      {"codec.reconstructed_blocks_per_op", ratio(d.reconstructed, n), "count"},
      {"ingest.chain_forwards_per_op", ratio(d.chain_forwards, n), "count"},
      {"ingest.degraded_writes", d.degraded_writes, "count"},
      {"meta.open_ms",
       ratio(total("meta.open").seconds,
             static_cast<double>(total("meta.open").count)) * 1e3, "ms"},
      {"meta.master_request_ms", ratio(d.master_req_s, d.master_req_n) * 1e3,
       "ms"},
      {"backend.load_ms_per_frame",
       ratio(total("backend.load").seconds,
             static_cast<double>(total("backend.load").count)) * 1e3, "ms"},
      {"render.render_ms_per_frame", ratio(fr.render_s, fr.frames) * 1e3, "ms"},
      {"backend.send_ms_per_frame", ratio(fr.send_s, fr.frames) * 1e3, "ms"},
      {"backend.overlap_ratio", ratio(fr.load_s + fr.render_s, frames_wall),
       "ratio"},
      {"viewer.renders_per_frame", ratio(fr.renders, fr.frames), "ratio"},
      {"cpu.ms_per_op", cpu_per_op * 1e3, "ms"},
      {"trace.overhead_ratio",
       ratio(percentile(traced_lat, 0.5), percentile(untraced_lat, 0.5)) - 1.0,
       "ratio"},
      {"trace.ops", root_n, "count"},
      {"sol.memcpy_gbps", sol.memcpy_gbps, "GB/s"},
      {"sol.tcp_loopback_gbps", sol.tcp_gbps, "GB/s"},
      {"sol.cache_hit_us", sol.cache_hit_us, "us"},
      {"sol.rs_encode_gbps", sol.rs_encode_gbps, "GB/s"},
      {"sol.rs_reconstruct_gbps", sol.rs_reconstruct_gbps, "GB/s"},
      {"sol.reply_codec_gbps", sol.reply_codec_gbps, "GB/s"},
      {"sol.render_ms", sol.render_ms, "ms"},
  };

  // Each traced layer share beside the ceiling that bounds it, both in ms
  // per op (per request for the server rows).  "-" marks work that runs
  // inside another layer's span and has no share of its own yet.
  const double bytes = w->op_bytes();
  const double block = 64.0 * 1024;
  auto row = [](const char* layer, double measured_ms, const char* sol_name,
                double ceiling_ms, const char* per) {
    char m[32] = "-";
    if (measured_ms >= 0) std::snprintf(m, sizeof(m), "%.4f", measured_ms);
    std::fprintf(stderr, "  %-22s %10s  <- %-24s %10.4f  ms/%s\n", layer, m,
                 sol_name, ceiling_ms, per);
  };
  std::fprintf(stderr, "layer share vs speed of light (%.0f traced ops):\n",
               root_n);
  const double wire_ms = ratio(total("net.wire").seconds, root_n) * 1e3;
  if (w->on_lan()) {
    row("net.wire", wire_ms, "LAN NIC rate", bytes / kLanBytesPerSec * 1e3, "op");
  }
  row("net.wire", wire_ms, "sol.tcp_loopback_gbps",
      ratio(bytes, sol.tcp_gbps * 1e9) * 1e3, "op");
  row("dpss.client_self", ratio(client_self, root_n) * 1e3, "sol.memcpy_gbps",
      ratio(bytes, sol.memcpy_gbps * 1e9) * 1e3, "op");
  row("codec.reconstruct", -1, "sol.rs_reconstruct_gbps",
      ratio(d.reconstructed, n) * ratio(3 * block, sol.rs_reconstruct_gbps * 1e9) * 1e3,
      "op");
  row("dpss.server_service", ratio(d.server_service_s, d.server_service_n) * 1e3,
      "sol.cache_hit_us", sol.cache_hit_us * 1e-3, "req");
  row("dpss.reply_codec", -1, "sol.reply_codec_gbps",
      ratio(block, sol.reply_codec_gbps * 1e9) * 1e3, "req");
  if (fr.frames > 0) {
    row("render", ratio(fr.render_s, fr.frames) * 1e3, "sol.render_ms",
        sol.render_ms, "frame");
  }

  const std::string path = "BENCH_e2e_" + args.workload + ".trace.json";
  if (auto st = tracer().write_json(path, args.workload, args.seed, kMaxTraceSpans);
      !st.is_ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s (%zu spans)\n", path.c_str(), tracer().span_count());
  print_result(failed == 0 && attempted > 0, attempted, failed, metrics);
  return 0;
}
