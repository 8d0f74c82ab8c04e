// Metadata-plane bench: what sharding and delta opens buy on the catalog
// path (PR 9, the src/meta plane).
//
// Three experiments, one MetaCluster harness:
//   1. Open storm, 1 shard vs 4: eight worker threads share one client
//      (one backend process), and every master link is shaped with a
//      WAN-scale one-way delay, as metadata RPCs in the paper's ESnet
//      deployments are.  The single master is one link, one request in
//      flight -- the classic SPOF serialisation, paying one RTT per open.
//      Four shards mean four links and four opens in flight: the RTTs
//      overlap, which is the whole point of killing the SPOF.
//   2. Delta vs snapshot open latency, single threaded: the first open of
//      a dataset ships the full placement (membership, health, load); a
//      re-open with known_epoch comes back not_modified.
//   3. Re-open storm through a leader kill: warm cache, kill one shard's
//      leader, re-open everything.  Errors must be zero -- followers
//      answer, the client fails over and reports the dead endpoint.
//
// The last stdout line is a single machine-readable JSON object (the
// BENCH_* perf-trajectory hook):
//   {"bench":"meta","single_opens_per_sec":...,"sharded_opens_per_sec":...,
//    "shard_speedup":...,"snapshot_p50_ms":... (p95/p99),"delta_p50_ms":...
//    (p95/p99),"storm_opens":...,"storm_errors":...,"storm_failovers":...,
//    "storm_opens_per_sec":...}
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/stats.h"
#include "dpss/client.h"
#include "dpss/meta_cluster.h"
#include "dpss/server.h"
#include "net/shaper.h"
#include "net/stream.h"
#include "obs/metrics.h"

using namespace visapult;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A catalog population heavy enough that the open path does real work:
// wide membership makes every snapshot reply copy the server list plus a
// health/load column per server.
constexpr int kDatasets = 512;
constexpr int kServers = 16;
constexpr int kThreads = 8;

std::string dataset_name(int i) { return "bench-ds-" + std::to_string(i); }

dpss::DatasetLayout bench_layout() {
  dpss::DatasetLayout layout;
  layout.block_bytes = 65536;
  layout.total_bytes = 16 * layout.block_bytes;
  layout.stripe_blocks = 1;
  layout.server_count = kServers;
  return layout;
}

std::vector<dpss::ServerAddress> bench_farm() {
  std::vector<dpss::ServerAddress> servers;
  for (int i = 0; i < kServers; ++i) {
    servers.push_back(dpss::ServerAddress{
        "bench-server-" + std::to_string(i),
        static_cast<std::uint16_t>(9000 + i)});
  }
  return servers;
}

void populate(dpss::MetaCluster& cluster, int datasets) {
  const auto layout = bench_layout();
  const auto farm = bench_farm();
  dpss::PlacementOptions options;
  options.replication_factor = 2;
  for (int i = 0; i < datasets; ++i) {
    auto st = cluster.register_dataset(dataset_name(i), layout, farm, options);
    if (!st.is_ok()) {
      std::fprintf(stderr, "register %s: %s\n", dataset_name(i).c_str(),
                   st.message().c_str());
      std::exit(1);
    }
  }
}

// One-way delay injected on every master link for the WAN storm; the
// data plane and the latency microbenches stay on raw pipes.
constexpr double kWanDelaySec = 1.5e-3;

dpss::Connector master_connector(dpss::MetaCluster& cluster, bool wan) {
  dpss::Connector inner = cluster.connector();
  if (!wan) return inner;
  return [inner](const dpss::ServerAddress& addr)
             -> core::Result<net::StreamPtr> {
    auto stream = inner(addr);
    if (!stream.is_ok()) return stream;
    net::ShaperConfig cfg;
    cfg.latency_sec = kWanDelaySec;
    net::StreamPtr shaped =
        std::make_shared<net::ShapedStream>(std::move(stream).take(), cfg);
    return shaped;
  };
}

std::unique_ptr<dpss::DpssClient> make_client(dpss::MetaCluster& cluster,
                                              bool wan = false) {
  dpss::Connector masters = master_connector(cluster, wan);
  auto stream = masters(cluster.address(0, 0));
  if (!stream.is_ok()) std::exit(1);
  // open() checks out a connection to every placement server, dialling
  // those with none idle in the client's pool; this bench never reads
  // blocks, so hand out live pipe ends with nobody on the other side.
  dpss::Connector no_data =
      [](const dpss::ServerAddress&) -> core::Result<net::StreamPtr> {
    auto [client_end, server_end] = net::make_pipe();
    (void)server_end;
    return client_end;
  };
  auto client = std::make_unique<dpss::DpssClient>(std::move(stream).take(),
                                                   std::move(no_data));
  client->enable_sharded_meta(cluster.shard_map(), cluster.member_addresses(),
                              std::move(masters));
  return client;
}

// Eight threads share one client and split the dataset space; every open
// is the first for its dataset, so each ships a full snapshot reply.
double storm_opens_per_sec(dpss::DpssClient& client, int datasets) {
  const double t0 = now_seconds();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&client, t, datasets] {
      for (int i = t; i < datasets; i += kThreads) {
        auto file = client.open(dataset_name(i));
        if (!file.is_ok()) std::exit(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  return static_cast<double>(datasets) / (now_seconds() - t0);
}

}  // namespace

int main() {
  // ---- 1. open storm: single master vs four shards ----------------------
  dpss::MetaCluster single(1, 1);
  populate(single, kDatasets);
  auto single_client = make_client(single, /*wan=*/true);
  const double single_ops = storm_opens_per_sec(*single_client, kDatasets);

  dpss::MetaCluster sharded(4, 1);
  populate(sharded, kDatasets);
  auto sharded_client = make_client(sharded, /*wan=*/true);
  const double sharded_ops = storm_opens_per_sec(*sharded_client, kDatasets);
  const double speedup = sharded_ops / single_ops;

  // ---- 2. snapshot vs delta open latency, single threaded ---------------
  obs::Histogram snapshot_ms, delta_ms;
  auto lat_client = make_client(sharded);
  for (int pass = 0; pass < 2; ++pass) {
    obs::Histogram& hist = pass == 0 ? snapshot_ms : delta_ms;
    for (int i = 0; i < kDatasets; ++i) {
      const double t0 = now_seconds();
      auto file = lat_client->open(dataset_name(i));
      if (!file.is_ok()) return 1;
      hist.observe((now_seconds() - t0) * 1e3);
    }
  }
  if (lat_client->snapshot_opens() != static_cast<std::uint64_t>(kDatasets) ||
      lat_client->delta_opens() != static_cast<std::uint64_t>(kDatasets)) {
    std::fprintf(stderr, "latency passes did not split snapshot/delta\n");
    return 1;
  }
  const auto snap = snapshot_ms.snapshot();
  const auto delta = delta_ms.snapshot();

  // ---- 3. re-open storm through a shard-leader kill ----------------------
  constexpr int kStormDatasets = 256;
  dpss::MetaCluster ha(4, 3);
  populate(ha, kStormDatasets);
  auto storm_client = make_client(ha);
  for (int i = 0; i < kStormDatasets; ++i) {
    if (!storm_client->open(dataset_name(i)).is_ok()) return 1;
  }
  ha.kill(0, 0);  // shard 0's leader: ~1/4 of the catalog loses its master
  std::uint64_t storm_errors = 0;
  const double t0 = now_seconds();
  for (int i = 0; i < kStormDatasets; ++i) {
    if (!storm_client->open(dataset_name(i)).is_ok()) ++storm_errors;
  }
  const double storm_ops = static_cast<double>(kStormDatasets) /
                           (now_seconds() - t0);
  const std::uint64_t failovers = storm_client->master_failovers();

  // ---- report ------------------------------------------------------------
  core::TableWriter table({"experiment", "opens/sec", "p50/p95/p99 ms"});
  auto tail = [](const obs::HistogramSnapshot& h) {
    return core::fmt_double(h.p50(), 3) + "/" + core::fmt_double(h.p95(), 3) +
           "/" + core::fmt_double(h.p99(), 3);
  };
  table.add_row({"storm, 1 shard", core::fmt_double(single_ops, 0), "-"});
  table.add_row({"storm, 4 shards", core::fmt_double(sharded_ops, 0),
                 "speedup " + core::fmt_double(speedup, 2) + "x"});
  table.add_row({"open, snapshot path", "-", tail(snap)});
  table.add_row({"open, delta path", "-", tail(delta)});
  table.add_row({"re-open storm after kill", core::fmt_double(storm_ops, 0),
                 std::to_string(storm_errors) + " errors, " +
                     std::to_string(failovers) + " failovers"});
  std::printf("Metadata plane, %d datasets x %d servers, %d threads:\n%s\n",
              kDatasets, kServers, kThreads, table.to_string().c_str());

  return bench::Summary("meta")
      .metric("single_opens_per_sec", single_ops)
      .metric("sharded_opens_per_sec", sharded_ops)
      .metric("shard_speedup", speedup)
      .metric("snapshot_p50_ms", snap.p50())
      .metric("snapshot_p95_ms", snap.p95())
      .metric("snapshot_p99_ms", snap.p99())
      .metric("delta_p50_ms", delta.p50())
      .metric("delta_p95_ms", delta.p95())
      .metric("delta_p99_ms", delta.p99())
      .metric("storm_opens", kStormDatasets)
      .metric("storm_errors", static_cast<double>(storm_errors))
      .metric("storm_failovers", static_cast<double>(failovers))
      .metric("storm_opens_per_sec", storm_ops)
      .write();
}
