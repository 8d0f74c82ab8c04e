// Ingest-pipeline bench: server-driven chain-replicated overwrite
// throughput at rf 1/2/3, and EC(4,2) parity-delta overwrites.
//
// Six pipe-transport servers host a synthetic combustion series.  For
// each replication factor we ingest, open a file, and overwrite the whole
// dataset with one copy per block sent to its primary and the chain moving
// the rest server-to-server.  The EC section overwrites a (4,2) dataset
// through parity-delta writes (client ships each block once; m GF deltas
// move server-to-server) and reports the parity-delta kernel ops.
//
// A final section sweeps concurrent writer connections against a real TCP
// deployment: each writer chain-replicates its own slice, and the
// aggregate write throughput per connection count shows where the front
// door knees over.
//
// The last stdout line is a single machine-readable JSON object (the
// BENCH_* perf-trajectory hook):
//   {"bench":"ingest","rf1_chain_mbps":...,"rf2_chain_mbps":...,
//    "rf3_chain_mbps":...,"ec42_chain_mbps":...,"ec42_parity_deltas":...,
//    "rf2_chain_forwards":...,
//    "sweep_reactor_w<N>_mbps":...,"sweep_reactor_w<N>_p50_ms":...,
//    "sweep_reactor_w<N>_p95_ms":...,"sweep_reactor_w<N>_p99_ms":...}
// Per-write latency percentiles come from an obs::Histogram shared by the
// driver threads -- mean throughput alone hides the chain's tail.
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

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((i * 131 + salt) & 0xff);
  }
  return out;
}

struct OverwriteResult {
  double chain_mbps = 0.0;
  std::uint64_t chain_forwards = 0;
};

double timed_overwrite(dpss::DpssFile& file,
                       const std::vector<std::uint8_t>& bytes) {
  if (file.lseek(0) != 0) return 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  if (!file.write(bytes.data(), bytes.size()).is_ok()) return 0.0;
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return mbps(static_cast<double>(bytes.size()), secs);
}

OverwriteResult run_rf(const vol::DatasetDesc& dataset, std::uint32_t rf) {
  OverwriteResult out;
  dpss::PipeDeployment deployment(6);
  if (!deployment.ingest(dataset, dpss::kDefaultBlockBytes, 1, rf).is_ok()) {
    std::fprintf(stderr, "ingest failed (rf=%u)\n", rf);
    return out;
  }
  auto client = deployment.make_client();
  auto file = client.open(dataset.name);
  if (!file.is_ok()) return out;

  const auto chain_bytes = pattern_bytes(dataset.total_bytes(), 2);
  out.chain_mbps = timed_overwrite(*file.value(), chain_bytes);
  for (int s = 0; s < deployment.server_count(); ++s) {
    out.chain_forwards += deployment.server(s).chain_forwards();
  }
  return out;
}

// ---- writer-connections sweep ----

constexpr int kWriterCounts[] = {16, 64, 256};
constexpr int kWriterDrivers = 8;
constexpr int kWriteRounds = 4;
constexpr std::size_t kSliceBytes = 8192;

struct WriterPoint {
  int conns = 0;
  double aggregate_mbps = 0.0;
  int write_errors = 0;
  // Per-write (lseek+write of one slice) latency tail in milliseconds.
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

WriterPoint run_writer_point(const vol::DatasetDesc& dataset, int conns) {
  WriterPoint out;
  out.conns = conns;

  dpss::TcpDeploymentOptions options;
  options.worker_threads = 8;
  dpss::TcpDeployment deployment(4, dpss::DiskModel{}, /*throttle=*/false,
                                 dpss::ServerCacheConfig{}, options);
  if (!deployment.start().is_ok()) return out;
  // Block size == slice size: every writer owns whole blocks, so the
  // sweep measures the front door, not generation races on shared blocks.
  if (!deployment.ingest(dataset, kSliceBytes, 1, 2).is_ok()) {
    return out;
  }

  struct Writer {
    dpss::DpssClient client;
    std::unique_ptr<dpss::DpssFile> file;
  };
  std::vector<std::unique_ptr<Writer>> writers(
      static_cast<std::size_t>(conns));
  std::atomic<int> errors{0};
  {
    std::vector<std::thread> drivers;
    for (int d = 0; d < kWriterDrivers; ++d) {
      drivers.emplace_back([&, d] {
        for (int i = d; i < conns; i += kWriterDrivers) {
          auto client = deployment.make_client();
          if (!client.is_ok()) {
            errors.fetch_add(1);
            continue;
          }
          auto file = client.value().open(dataset.name);
          if (!file.is_ok()) {
            errors.fetch_add(1);
            continue;
          }
          writers[static_cast<std::size_t>(i)] = std::unique_ptr<Writer>(
              new Writer{std::move(client).take(), std::move(file).take()});
        }
      });
    }
    for (auto& t : drivers) t.join();
  }

  // Every writer chain-replicates its own slice of the file, repeatedly.
  obs::Histogram latency;  // sharded: all drivers observe concurrently
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> drivers;
    for (int d = 0; d < kWriterDrivers; ++d) {
      drivers.emplace_back([&, d] {
        for (int i = d; i < conns; i += kWriterDrivers) {
          if (!writers[static_cast<std::size_t>(i)]) continue;
          auto& file = *writers[static_cast<std::size_t>(i)]->file;
          const std::uint64_t offset =
              static_cast<std::uint64_t>(i) * kSliceBytes %
              (dataset.total_bytes() - kSliceBytes);
          const auto bytes = pattern_bytes(
              kSliceBytes, static_cast<std::uint8_t>(i));
          for (int r = 0; r < kWriteRounds; ++r) {
            const auto w0 = std::chrono::steady_clock::now();
            if (file.lseek(static_cast<std::int64_t>(offset)) < 0 ||
                !file.write(bytes.data(), bytes.size()).is_ok()) {
              errors.fetch_add(1);
              break;
            }
            latency.observe(std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - w0)
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

  out.write_errors = errors.load();
  out.aggregate_mbps = mbps(
      static_cast<double>(conns - errors.load()) * kWriteRounds * kSliceBytes,
      secs);
  const auto snap = latency.snapshot();
  out.p50_ms = snap.p50() * 1e3;
  out.p95_ms = snap.p95() * 1e3;
  out.p99_ms = snap.p99() * 1e3;
  writers.clear();
  deployment.stop();
  return out;
}

}  // namespace

int main() {
  const auto dataset = vol::DatasetDesc{"ingest-bench", {96, 64, 64}, 2,
                                        vol::Generator::kCombustion, 7};
  std::printf("bench_ingest: %s x%d (%s), 6 pipe servers\n\n",
              dataset.dims.to_string().c_str(), dataset.timesteps,
              core::format_bytes(static_cast<double>(dataset.total_bytes()))
                  .c_str());

  core::TableWriter table({"mode", "chain MB/s", "chain forwards"});
  OverwriteResult results[4];
  for (std::uint32_t rf = 1; rf <= 3; ++rf) {
    results[rf] = run_rf(dataset, rf);
    table.add_row({"rf=" + std::to_string(rf),
                   core::fmt_double(results[rf].chain_mbps, 1),
                   std::to_string(results[rf].chain_forwards)});
  }

  // EC(4,2): writable only through the parity-delta pipeline.
  double ec_mbps = 0.0;
  std::uint64_t ec_deltas = 0;
  {
    dpss::PipeDeployment deployment(6);
    if (deployment
            .ingest(dataset, dpss::kDefaultBlockBytes, 1, 1,
                    codec::EcProfile{4, 2})
            .is_ok()) {
      auto client = deployment.make_client();
      auto file = client.open(dataset.name);
      if (file.is_ok()) {
        const auto bytes = pattern_bytes(dataset.total_bytes(), 3);
        ec_mbps = timed_overwrite(*file.value(), bytes);
        for (int s = 0; s < deployment.server_count(); ++s) {
          ec_deltas += deployment.server(s).parity_deltas_applied();
        }
      }
    }
    table.add_row({"EC(4,2)", core::fmt_double(ec_mbps, 1),
                   std::to_string(ec_deltas) + " deltas"});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Writer fan-in sweep over real TCP: 4 servers, rf=2 chain writes.
  std::printf("writer sweep: 4 TCP servers, rf=2 chain, %d x %zu B/conn\n",
              kWriteRounds, kSliceBytes);
  core::TableWriter sweep_table(
      {"writers", "MB/s", "p50/p95/p99 ms", "errors"});
  auto fmt_tail = [](const WriterPoint& p) {
    return core::fmt_double(p.p50_ms, 2) + "/" + core::fmt_double(p.p95_ms, 2) +
           "/" + core::fmt_double(p.p99_ms, 2);
  };
  std::vector<WriterPoint> reactor_pts;
  for (int conns : kWriterCounts) {
    reactor_pts.push_back(run_writer_point(dataset, conns));
    sweep_table.add_row(
        {std::to_string(conns),
         core::fmt_double(reactor_pts.back().aggregate_mbps, 1),
         fmt_tail(reactor_pts.back()),
         std::to_string(reactor_pts.back().write_errors)});
  }
  std::printf("%s\n", sweep_table.to_string().c_str());

  bench::Summary summary("ingest");
  summary.metric("rf1_chain_mbps", results[1].chain_mbps)
      .metric("rf2_chain_mbps", results[2].chain_mbps)
      .metric("rf3_chain_mbps", results[3].chain_mbps)
      .metric("ec42_chain_mbps", ec_mbps)
      .metric("ec42_parity_deltas", static_cast<double>(ec_deltas))
      .metric("rf2_chain_forwards",
              static_cast<double>(results[2].chain_forwards));
  for (std::size_t i = 0; i < reactor_pts.size(); ++i) {
    const std::string w = std::to_string(reactor_pts[i].conns);
    summary.metric("sweep_reactor_w" + w + "_mbps",
                   reactor_pts[i].aggregate_mbps)
        .metric("sweep_reactor_w" + w + "_p50_ms", reactor_pts[i].p50_ms)
        .metric("sweep_reactor_w" + w + "_p95_ms", reactor_pts[i].p95_ms)
        .metric("sweep_reactor_w" + w + "_p99_ms", reactor_pts[i].p99_ms);
  }
  return summary.write();
}
