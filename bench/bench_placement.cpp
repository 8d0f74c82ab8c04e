// Placement bench: ingest and read throughput across replication factors,
// plus degraded-read throughput after killing a server (the client fails
// over to surviving replicas).
//
// Four pipe-transport servers host a synthetic combustion series.  For
// each replication factor we measure: ingest (every block written to all
// of its replicas), a healthy sequential scan, and -- where replicas exist
// -- the same scan with server 0 killed mid-deployment.  Replication
// factor 1 has no degraded figure: a kill there loses data outright.
//
// A second section sweeps concurrent reader connections against one real
// TCP block server's reactor front door: same request stream, growing
// fan-in, aggregate pread throughput per point.
//
// The last stdout line is a single machine-readable JSON object (the
// BENCH_* perf-trajectory hook):
//   {"bench":"placement","rf1_ingest_mbps":...,"rf1_read_mbps":...,
//    "rf2_ingest_mbps":...,"rf2_read_mbps":...,"rf2_degraded_mbps":...,
//    "rf3_ingest_mbps":...,"rf3_read_mbps":...,"rf3_degraded_mbps":...,
//    "rf2_failover_reads":...,
//    "sweep_reactor_c<N>_mbps":...,"sweep_reactor_c<N>_p50_ms":...,
//    "sweep_reactor_c<N>_p95_ms":...,"sweep_reactor_c<N>_p99_ms":...,
//    "sweep_reactor_max_conns":...}
// Latency percentiles come from an obs::Histogram shared by every driver
// thread -- the same log-bucketed instrument the servers export.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/stats.h"
#include "core/units.h"
#include "dpss/deployment.h"
#include "obs/metrics.h"

using namespace visapult;

namespace {

double mbps(double bytes, double seconds) {
  return seconds > 0 ? bytes / seconds / 1e6 : 0.0;
}

struct RfResult {
  double ingest_mbps = 0.0;
  double read_mbps = 0.0;
  double degraded_mbps = 0.0;  // 0 when rf == 1 (no failover possible)
  std::uint64_t failover_reads = 0;
};

RfResult run_rf(const vol::DatasetDesc& dataset, std::uint32_t rf) {
  RfResult out;
  dpss::PipeDeployment deployment(4);
  const double total = static_cast<double>(dataset.total_bytes());

  auto t0 = std::chrono::steady_clock::now();
  if (!deployment.ingest(dataset, dpss::kDefaultBlockBytes, 1, rf).is_ok()) {
    std::fprintf(stderr, "ingest failed (rf=%u)\n", rf);
    return out;
  }
  out.ingest_mbps = mbps(
      total * rf,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());

  std::vector<std::uint8_t> buf(dataset.total_bytes());
  {
    auto client = deployment.make_client();
    auto file = client.open(dataset.name);
    if (!file.is_ok()) return out;
    t0 = std::chrono::steady_clock::now();
    auto n = file.value()->read(buf.data(), buf.size());
    if (!n.is_ok() || n.value() != buf.size()) return out;
    out.read_mbps = mbps(
        total,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }

  if (rf >= 2) {
    auto client = deployment.make_client();
    auto file = client.open(dataset.name);
    if (!file.is_ok()) return out;
    deployment.kill_server(0);
    t0 = std::chrono::steady_clock::now();
    auto n = file.value()->read(buf.data(), buf.size());
    if (!n.is_ok() || n.value() != buf.size()) {
      std::fprintf(stderr, "degraded read failed (rf=%u)\n", rf);
      return out;
    }
    out.degraded_mbps = mbps(
        total,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    out.failover_reads = file.value()->failover_reads();
  }
  return out;
}

// ---- connections-vs-throughput sweep ----

constexpr int kSweepConns[] = {64, 256, 512, 1024, 2048};
constexpr int kSweepDrivers = 16;
constexpr int kReadsPerConn = 8;
constexpr std::size_t kSweepReadBytes = 4096;

struct SweepPoint {
  int target_conns = 0;
  int sustained_conns = 0;  // opens that succeeded and read error-free
  double aggregate_mbps = 0.0;
  // Per-pread latency tail (ms) across every connection at this point.
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

SweepPoint run_sweep_point(const vol::DatasetDesc& dataset, int conns) {
  SweepPoint out;
  out.target_conns = conns;

  dpss::TcpDeploymentOptions options;
  options.worker_threads = 8;
  dpss::TcpDeployment deployment(1, dpss::DiskModel{}, /*throttle=*/false,
                                 dpss::ServerCacheConfig{}, options);
  if (!deployment.start().is_ok()) return out;
  if (!deployment.ingest(dataset, /*block_bytes=*/8192).is_ok()) return out;

  struct Reader {
    dpss::DpssClient client;
    std::unique_ptr<dpss::DpssFile> file;
  };
  std::vector<std::unique_ptr<Reader>> readers(
      static_cast<std::size_t>(conns));
  std::atomic<int> open_failures{0};
  {
    std::vector<std::thread> drivers;
    for (int d = 0; d < kSweepDrivers; ++d) {
      drivers.emplace_back([&, d] {
        for (int i = d; i < conns; i += kSweepDrivers) {
          auto client = deployment.make_client();
          if (!client.is_ok()) {
            open_failures.fetch_add(1);
            continue;
          }
          auto file = client.value().open(dataset.name);
          if (!file.is_ok()) {
            open_failures.fetch_add(1);
            continue;
          }
          readers[static_cast<std::size_t>(i)] = std::unique_ptr<Reader>(
              new Reader{std::move(client).take(), std::move(file).take()});
        }
      });
    }
    for (auto& t : drivers) t.join();
  }

  std::atomic<int> read_errors{0};
  obs::Histogram latency;  // sharded: all drivers observe concurrently
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> drivers;
    for (int d = 0; d < kSweepDrivers; ++d) {
      drivers.emplace_back([&, d] {
        std::vector<std::uint8_t> buf(kSweepReadBytes);
        for (int i = d; i < conns; i += kSweepDrivers) {
          if (!readers[static_cast<std::size_t>(i)]) continue;
          auto& file = *readers[static_cast<std::size_t>(i)]->file;
          for (int r = 0; r < kReadsPerConn; ++r) {
            const std::uint64_t offset =
                (static_cast<std::uint64_t>(i) * kReadsPerConn + r) * 8192 %
                (dataset.total_bytes() - kSweepReadBytes);
            const auto r0 = std::chrono::steady_clock::now();
            auto n = file.pread(buf.data(), buf.size(), offset);
            if (!n.is_ok() || n.value() != kSweepReadBytes) {
              read_errors.fetch_add(1);
              break;
            }
            latency.observe(std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - r0)
                                .count());
          }
        }
      });
    }
    for (auto& t : drivers) t.join();
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  out.sustained_conns = conns - open_failures.load() - read_errors.load();
  const double bytes = static_cast<double>(conns - open_failures.load()) *
                       kReadsPerConn * kSweepReadBytes;
  out.aggregate_mbps = mbps(bytes, secs);
  const auto snap = latency.snapshot();
  out.p50_ms = snap.p50() * 1e3;
  out.p95_ms = snap.p95() * 1e3;
  out.p99_ms = snap.p99() * 1e3;
  readers.clear();
  deployment.stop();
  return out;
}

}  // namespace

int main() {
  const auto dataset = vol::DatasetDesc{"placement-bench", {96, 64, 64}, 2,
                                        vol::Generator::kCombustion, 7};
  std::printf("bench_placement: %s x%d (%s), 4 pipe servers\n\n",
              dataset.dims.to_string().c_str(), dataset.timesteps,
              core::format_bytes(static_cast<double>(dataset.total_bytes()))
                  .c_str());

  core::TableWriter table({"rf", "ingest MB/s", "healthy read MB/s",
                           "degraded read MB/s", "failover reads"});
  RfResult results[4];
  for (std::uint32_t rf = 1; rf <= 3; ++rf) {
    results[rf] = run_rf(dataset, rf);
    table.add_row({std::to_string(rf),
                   core::fmt_double(results[rf].ingest_mbps, 1),
                   core::fmt_double(results[rf].read_mbps, 1),
                   rf >= 2 ? core::fmt_double(results[rf].degraded_mbps, 1)
                           : std::string("n/a"),
                   std::to_string(results[rf].failover_reads)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Fan-in sweep: one TCP block server, growing concurrent readers.
  std::printf("connection sweep: 1 TCP server, %d preads x %zu B/conn\n",
              kReadsPerConn, kSweepReadBytes);
  core::TableWriter sweep_table(
      {"conns", "MB/s", "p50/p95/p99 ms", "sustained"});
  auto fmt_tail = [](const SweepPoint& p) {
    return core::fmt_double(p.p50_ms, 2) + "/" + core::fmt_double(p.p95_ms, 2) +
           "/" + core::fmt_double(p.p99_ms, 2);
  };
  std::vector<SweepPoint> reactor_pts;
  int max_sustained = 0;
  for (int conns : kSweepConns) {
    reactor_pts.push_back(run_sweep_point(dataset, conns));
    const SweepPoint& p = reactor_pts.back();
    if (p.sustained_conns == p.target_conns) {
      max_sustained = std::max(max_sustained, p.sustained_conns);
    }
    sweep_table.add_row({std::to_string(conns),
                         core::fmt_double(p.aggregate_mbps, 1), fmt_tail(p),
                         std::to_string(p.sustained_conns)});
  }
  std::printf("%s\n", sweep_table.to_string().c_str());

  bench::Summary summary("placement");
  summary.metric("rf1_ingest_mbps", results[1].ingest_mbps)
      .metric("rf1_read_mbps", results[1].read_mbps)
      .metric("rf2_ingest_mbps", results[2].ingest_mbps)
      .metric("rf2_read_mbps", results[2].read_mbps)
      .metric("rf2_degraded_mbps", results[2].degraded_mbps)
      .metric("rf3_ingest_mbps", results[3].ingest_mbps)
      .metric("rf3_read_mbps", results[3].read_mbps)
      .metric("rf3_degraded_mbps", results[3].degraded_mbps)
      .metric("rf2_failover_reads",
              static_cast<double>(results[2].failover_reads));
  for (std::size_t i = 0; i < reactor_pts.size(); ++i) {
    const std::string c = std::to_string(reactor_pts[i].target_conns);
    summary.metric("sweep_reactor_c" + c + "_mbps",
                   reactor_pts[i].aggregate_mbps)
        .metric("sweep_reactor_c" + c + "_p50_ms", reactor_pts[i].p50_ms)
        .metric("sweep_reactor_c" + c + "_p95_ms", reactor_pts[i].p95_ms)
        .metric("sweep_reactor_c" + c + "_p99_ms", reactor_pts[i].p99_ms);
  }
  summary.metric("sweep_reactor_max_conns",
                 static_cast<double>(max_sustained));
  return summary.write();
}
