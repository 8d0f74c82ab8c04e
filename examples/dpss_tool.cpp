// DPSS demonstration over real loopback TCP sockets.
//
// Starts a master + N block servers as in Fig. 7, ingests a synthetic
// combustion dataset (striped round-robin across the servers), then
// exercises the Unix-like client API -- dpssOpen / dpssLSeek / dpssRead --
// and reports client-side throughput as the number of servers (and thus
// client threads) grows: the DPSS scaling claim, live on sockets.  Each
// run also reports the servers' memory-tier counters (hits, misses,
// evictions, prefetches), and a final cold-vs-warm rerun shows the cache
// tier working.
//
// The `placement` subcommand instead stands up a replicated deployment and
// prints the placement subsystem's view: the consistent-hash ring's
// ownership shares, per-server replica block counts and imbalance ratio,
// and the replica health table as failures are reported and a heartbeat
// rejoins the server.
//
// The `ec` subcommand stands up an erasure-coded deployment: it prints the
// dataset's redundancy mode and stripe layout, the per-server data/parity
// slice distribution with the measured capacity ratio, then kills up to m
// servers mid-session and shows the scan completing through client-side
// reconstruction (with the reconstruction-read counters).
//
// The `ingest` subcommand exercises the server-driven write pipeline: it
// prints the replication topology (primary + chain per placement group),
// overwrites the dataset under each ack policy showing the generation
// counters and the fixup-queue depth before and after a master tick, then
// overwrites an EC(4,2) dataset through parity-delta writes and reports
// the per-server delta counters with a read-back verification.
//
// The `net` subcommand stands up a reactor-mode deployment, drives a burst
// of concurrent readers through it, and prints the reactor's view of the
// work: per-event-loop dispatch counters (wakeups, fd dispatches, timers,
// posted tasks, registered fds) and each front door's connection/request
// counters (accepted, requests, read timeouts, overflow closes, queue
// depth) -- the live introspection for the epoll net layer.
//
// The `stats` subcommand stands up a reactor-mode deployment, drives load
// through it, then pulls live metrics over the wire -- the kStats
// introspection every master and block server answers -- and renders a
// per-server table of request counts and read-latency percentiles
// (p50/p95/p99 straight from the servers' log-bucketed histograms).  With
// rounds > 1 it loops, re-driving load and re-polling each round (a poor
// man's `watch`).  The
// final raw Prometheus-style exposition is printed verbatim so CI can grep
// for the metric families.
//
// The `top` subcommand is the live dashboard for the trace/alert plane: it
// stands up a traced reactor deployment (every component's NetLogger feeds
// a drainable sink), arms an open-rate alert rule on the master, then
// loops: drive load (a traced rf=3 chain write, then -- after killing a
// server -- a traced degraded EC(4,2) read, plus an open/pread burst each
// round), export finished spans into the master's SpanCollector over the
// kSpanExport RPC, tick the master so traces finalize and alerts scrape,
// and render the per-server request/latency table, the critical-path
// breakdown of the slowest traces, and the firing alerts.  Two idle rounds
// at the end let the alert resolve, and the final raw master exposition is
// printed for the CI greps (dpss_trace_stage_seconds, ALERT lines).
//
// The `util` subcommand is the USE-method dashboard: it stands up a
// reactor deployment, drives a chain write plus a pread burst through it,
// then renders one row per schedulable resource -- event loops, worker
// pools, front doors, peer links, cache tier -- with its utilization,
// saturation, and error figures, all scraped off the dpss_util_* metric
// families the kIntrospect kStats text exports.
//
// The `profile` subcommand arms the in-process stage profiler, drives a
// traced rf=3 write and a degraded EC(4,2) read, and prints the sampled
// stage stacks in flamegraph-collapsed form (`a;b;c count`), plus the
// top stage -- where the wall time actually went.
//
// Run `dpss_tool help` for the full subcommand list.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codec/stripe_layout.h"
#include "core/clock.h"
#include "core/stats.h"
#include "core/units.h"
#include "dpss/client.h"
#include "dpss/deployment.h"
#include "dpss/meta_cluster.h"
#include "dpss/protocol.h"
#include "ingest/chain.h"
#include "net/message.h"
#include "net/stream.h"
#include "netlog/logger.h"
#include "netlog/span_extract.h"
#include "obs/profiler.h"
#include "obs/span.h"

using namespace visapult;

namespace {

cache::MetricsSnapshot cache_totals(dpss::TcpDeployment& deployment) {
  cache::MetricsSnapshot total;
  for (int i = 0; i < deployment.server_count(); ++i) {
    const auto m = deployment.server(i).cache_metrics();
    total.hits += m.hits;
    total.misses += m.misses;
    total.evictions += m.evictions;
    total.prefetch_issued += m.prefetch_issued;
    total.prefetch_hits += m.prefetch_hits;
    total.bytes += m.bytes;
    total.entries += m.entries;
  }
  return total;
}

std::string cache_summary(const cache::MetricsSnapshot& m) {
  return std::to_string(m.hits) + "h/" + std::to_string(m.misses) + "m";
}

// `meta`: stand up a sharded, replicated metadata plane, drive an open
// storm through one sharded client (cold pass = snapshot opens, warm pass
// = delta opens), kill one shard's leader mid-storm to show failover and
// election, then render the per-member shard table straight off the wire
// -- the kMetaStatusRequest RPC every master answers.
int run_meta_report(int shards, int replicas, int datasets) {
  std::printf("Metadata plane: %d shard(s) x %d replica(s), %d datasets\n\n",
              shards, replicas, datasets);
  dpss::MetaCluster cluster(static_cast<std::uint32_t>(shards),
                            static_cast<std::uint32_t>(replicas));

  dpss::DatasetLayout layout;
  layout.block_bytes = 65536;
  layout.total_bytes = 16 * layout.block_bytes;
  layout.stripe_blocks = 1;
  layout.server_count = 4;
  std::vector<dpss::ServerAddress> farm;
  for (int i = 0; i < 4; ++i) {
    farm.push_back(dpss::ServerAddress{"demo-server-" + std::to_string(i),
                                       static_cast<std::uint16_t>(9100 + i)});
  }
  dpss::PlacementOptions options;
  options.replication_factor = 2;
  for (int i = 0; i < datasets; ++i) {
    auto st = cluster.register_dataset("meta-ds-" + std::to_string(i), layout,
                                       farm, options);
    if (!st.is_ok()) {
      std::fprintf(stderr, "register failed: %s\n", st.to_string().c_str());
      return 1;
    }
  }

  // Metadata-only storm: the block-server connector hands out pipe ends
  // with nobody behind them -- opens resolve placement, reads never run.
  dpss::Connector no_data =
      [](const dpss::ServerAddress&) -> core::Result<net::StreamPtr> {
    auto [client_end, server_end] = net::make_pipe();
    (void)server_end;
    return client_end;
  };
  auto stream = cluster.connector()(cluster.address(0, 0));
  if (!stream.is_ok()) return 1;
  dpss::DpssClient client(std::move(stream).take(), no_data);
  client.enable_sharded_meta(cluster.shard_map(), cluster.member_addresses(),
                             cluster.connector());

  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < datasets; ++i) {
      if (!client.open("meta-ds-" + std::to_string(i)).is_ok()) {
        std::fprintf(stderr, "open failed in pass %d\n", pass);
        return 1;
      }
    }
  }
  std::printf(
      "cold+warm storm: %llu snapshot opens, %llu delta opens "
      "(delta/snapshot ratio %.2f)\n",
      static_cast<unsigned long long>(client.snapshot_opens()),
      static_cast<unsigned long long>(client.delta_opens()),
      client.snapshot_opens() == 0
          ? 0.0
          : static_cast<double>(client.delta_opens()) /
                static_cast<double>(client.snapshot_opens()));

  // Kill shard 0's leader, re-open everything, run the election.
  const int victim = cluster.leader_replica(0);
  if (replicas > 1 && victim >= 0) {
    cluster.kill(0, static_cast<std::uint32_t>(victim));
    std::uint64_t errors = 0;
    for (int i = 0; i < datasets; ++i) {
      if (!client.open("meta-ds-" + std::to_string(i)).is_ok()) ++errors;
    }
    const int elections = cluster.tick();
    std::printf(
        "killed shard 0 leader (replica %d): %llu re-open errors, "
        "%llu client failovers, %d election(s)\n",
        victim, static_cast<unsigned long long>(errors),
        static_cast<unsigned long long>(client.master_failovers()), elections);
  }
  std::printf("\n");

  // The shard table, straight off the wire.
  core::TableWriter table({"shard", "member", "role", "epoch", "datasets",
                           "delta/snap/fwd opens", "elections"});
  for (std::uint32_t j = 0; j < cluster.shard_count(); ++j) {
    for (std::uint32_t k = 0; k < cluster.replica_count(); ++k) {
      const std::string name = cluster.address(j, k).key();
      if (cluster.killed(j, k)) {
        table.add_row({std::to_string(j), name, "DEAD", "-", "-", "-", "-"});
        continue;
      }
      auto wire = cluster.connector()(cluster.address(j, k));
      if (!wire.is_ok()) return 1;
      if (!net::send_message(*wire.value(),
                             dpss::encode(dpss::MetaStatusRequest{}))
               .is_ok()) {
        return 1;
      }
      auto msg = net::recv_message(*wire.value());
      if (!msg.is_ok()) return 1;
      auto status = dpss::decode<dpss::MetaStatus>(msg.value());
      if (!status.is_ok()) return 1;
      const auto& s = status.value();
      table.add_row(
          {std::to_string(s.shard_id), name,
           s.is_leader ? "leader" : "follower", std::to_string(s.epoch),
           std::to_string(s.datasets),
           std::to_string(s.delta_opens) + "/" +
               std::to_string(s.snapshot_opens) + "/" +
               std::to_string(s.forwarded_opens),
           std::to_string(s.leader_elections)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}

int run_placement_report(int servers, int replication_factor) {
  const auto dataset = vol::DatasetDesc{"combustion-demo", {96, 64, 64}, 2,
                                        vol::Generator::kCombustion, 42};
  std::printf(
      "Placement report: %d servers, replication factor %d, dataset %s\n\n",
      servers, replication_factor, dataset.dims.to_string().c_str());

  dpss::TcpDeployment deployment(servers);
  if (auto st = deployment.start(); !st.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", st.to_string().c_str());
    return 1;
  }
  if (auto st = deployment.ingest(dataset, dpss::kDefaultBlockBytes, 1,
                                  static_cast<std::uint32_t>(replication_factor));
      !st.is_ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", st.to_string().c_str());
    return 1;
  }
  deployment.heartbeat_all();

  auto map = deployment.master().placement_map(dataset.name);
  if (!map) {
    std::fprintf(stderr,
                 "no placement map (replication factor 1 uses the classic "
                 "stripe; pass a factor >= 2)\n");
    return 1;
  }

  const auto ownership = map->ring().ownership();
  const auto counts = map->server_block_counts();
  core::TableWriter ring_table(
      {"server", "address", "vnodes", "ring share", "replica blocks",
       "stored blocks", "health"});
  for (int i = 0; i < deployment.server_count(); ++i) {
    const auto addr = deployment.server_address(i);
    ring_table.add_row(
        {std::to_string(i), addr.key(),
         std::to_string(map->ring().vnodes_per_server()),
         core::fmt_double(100.0 * ownership[static_cast<std::size_t>(i)], 1) + "%",
         std::to_string(counts[static_cast<std::size_t>(i)]),
         std::to_string(deployment.server(i).block_count(dataset.name)),
         placement::health_state_name(
             deployment.master().health().state(addr))});
  }
  std::printf("%s\n", ring_table.to_string().c_str());
  std::printf("groups: %llu  replication: %u  imbalance (max/mean): %s\n\n",
              static_cast<unsigned long long>(map->group_count()),
              map->replication_factor(),
              core::fmt_double(map->imbalance_ratio(), 3).c_str());

  // Health transitions, live: client-reported failures demote server 0
  // (up -> suspect -> down), a heartbeat rejoins it.
  const auto victim = deployment.server_address(0);
  core::TableWriter health_table({"event", "server 0 health"});
  auto health_row = [&](const char* event) {
    health_table.add_row(
        {event, placement::health_state_name(
                    deployment.master().health().state(victim))});
  };
  health_row("after ingest + heartbeats");
  deployment.master().report_failure(victim);
  health_row("1 client failure report");
  deployment.master().report_failure(victim);
  deployment.master().report_failure(victim);
  health_row("3 failure reports");
  deployment.master().heartbeat(victim, 0);
  health_row("heartbeat (rejoin)");
  std::printf("Health transitions (failure reports, then rejoin):\n%s\n",
              health_table.to_string().c_str());
  deployment.stop();
  return 0;
}

int run_ec_report(int servers, int k, int m) {
  const auto dataset = vol::DatasetDesc{"combustion-demo", {96, 64, 64}, 2,
                                        vol::Generator::kCombustion, 42};
  const codec::EcProfile ec{static_cast<std::uint32_t>(k),
                            static_cast<std::uint32_t>(m)};
  if (ec.total_slices() > static_cast<std::uint32_t>(servers)) {
    std::fprintf(stderr, "need at least k+m=%u servers (got %d)\n",
                 ec.total_slices(), servers);
    return 1;
  }
  std::printf(
      "EC report: %d servers, Reed-Solomon (%d,%d), dataset %s (%s)\n\n",
      servers, k, m, dataset.dims.to_string().c_str(),
      core::format_bytes(static_cast<double>(dataset.total_bytes())).c_str());

  dpss::TcpDeployment deployment(servers);
  if (auto st = deployment.start(); !st.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", st.to_string().c_str());
    return 1;
  }
  if (auto st =
          deployment.ingest(dataset, dpss::kDefaultBlockBytes, 1, 1, ec);
      !st.is_ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", st.to_string().c_str());
    return 1;
  }

  auto map = deployment.master().placement_map(dataset.name);
  if (!map || !map->erasure_coded()) {
    std::fprintf(stderr, "no EC placement map\n");
    return 1;
  }
  codec::StripeLayout layout(map);
  std::printf(
      "redundancy mode: RS(%u,%u)  groups: %llu  stripe: %u blocks/group  "
      "nominal capacity: %sx\n\n",
      ec.data_slices, ec.parity_slices,
      static_cast<unsigned long long>(layout.group_count()),
      map->stripe_blocks(), core::fmt_double(ec.capacity_ratio(), 3).c_str());

  // Slice distribution: who stores which kind of slice.
  std::vector<std::uint64_t> data_slices(
      static_cast<std::size_t>(servers), 0);
  std::vector<std::uint64_t> parity_slices(
      static_cast<std::size_t>(servers), 0);
  for (std::uint64_t g = 0; g < layout.group_count(); ++g) {
    for (std::uint32_t s = 0; s < ec.total_slices(); ++s) {
      const int owner = layout.server_for_slice(g, s);
      if (owner < 0) continue;
      if (s < ec.data_slices) {
        if (layout.block_of_slice(g, s) < map->block_count()) {
          ++data_slices[static_cast<std::size_t>(owner)];
        }
      } else {
        ++parity_slices[static_cast<std::size_t>(owner)];
      }
    }
  }
  std::size_t stored = 0;
  core::TableWriter slice_table(
      {"server", "address", "data slices", "parity slices", "stored"});
  for (int i = 0; i < deployment.server_count(); ++i) {
    stored += deployment.server(i).total_bytes();
    slice_table.add_row(
        {std::to_string(i), deployment.server_address(i).key(),
         std::to_string(data_slices[static_cast<std::size_t>(i)]),
         std::to_string(parity_slices[static_cast<std::size_t>(i)]),
         core::format_bytes(
             static_cast<double>(deployment.server(i).total_bytes()))});
  }
  std::printf("%s\n", slice_table.to_string().c_str());
  std::printf("measured capacity: %sx raw (rf=2 would be 2.00x)\n\n",
              core::fmt_double(static_cast<double>(stored) /
                                   static_cast<double>(dataset.total_bytes()),
                               3).c_str());

  // Degraded reads, live: kill up to m servers and scan through
  // reconstruction.
  auto client = deployment.make_client();
  if (!client.is_ok()) return 1;
  auto file = client.value().open(dataset.name);
  if (!file.is_ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 file.status().to_string().c_str());
    return 1;
  }
  std::vector<std::uint8_t> buf(dataset.total_bytes());
  core::TableWriter read_table({"scenario", "read", "throughput",
                                "reconstructed blocks", "wire bytes"});
  std::uint64_t prev_recon = 0, prev_wire = 0;
  int killed = 0;
  for (int round = 0; round <= m; ++round) {
    if (round > 0) {
      deployment.kill_server(round - 1);
      ++killed;
    }
    (void)file.value()->lseek(0);
    const auto t0 = std::chrono::steady_clock::now();
    auto n = file.value()->read(buf.data(), buf.size());
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const std::uint64_t recon = file.value()->reconstructed_reads();
    const std::uint64_t wire = file.value()->wire_bytes_received();
    read_table.add_row(
        {killed == 0 ? "healthy" : std::to_string(killed) + " server(s) dead",
         n.is_ok() && n.value() == buf.size() ? "complete" : "FAILED",
         core::format_rate(static_cast<double>(buf.size()) / secs),
         std::to_string(recon - prev_recon),
         core::format_bytes(static_cast<double>(wire - prev_wire))});
    prev_recon = recon;
    prev_wire = wire;
  }
  std::printf("Degraded reads through client-side reconstruction:\n%s\n",
              read_table.to_string().c_str());
  deployment.stop();
  return 0;
}

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((i * 131 + salt) & 0xff);
  }
  return out;
}

int run_ingest_report(int servers, int rf) {
  const auto dataset = vol::DatasetDesc{"combustion-demo", {96, 64, 64}, 2,
                                        vol::Generator::kCombustion, 42};
  std::printf(
      "Ingest report: %d servers, replication factor %d, dataset %s (%s)\n\n",
      servers, rf, dataset.dims.to_string().c_str(),
      core::format_bytes(static_cast<double>(dataset.total_bytes())).c_str());

  dpss::TcpDeployment deployment(servers);
  deployment.enable_fixups();
  if (auto st = deployment.start(); !st.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", st.to_string().c_str());
    return 1;
  }
  if (auto st = deployment.ingest(dataset, dpss::kDefaultBlockBytes, 1,
                                  static_cast<std::uint32_t>(rf));
      !st.is_ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", st.to_string().c_str());
    return 1;
  }
  auto map = deployment.master().placement_map(dataset.name);
  if (!map) {
    std::fprintf(stderr, "no placement map (pass a replication factor >= 2)\n");
    return 1;
  }

  // Replication topology: the chain each group's writes travel.
  core::TableWriter topo({"group", "blocks", "primary", "chain"});
  const std::uint64_t sample =
      std::min<std::uint64_t>(map->group_count(), 6);
  for (std::uint64_t g = 0; g < sample; ++g) {
    auto plan = ingest::plan_chain(map->replicas_for_group(g), {}, {});
    std::string chain;
    for (std::uint32_t s : plan.followers) {
      if (!chain.empty()) chain += " -> ";
      chain += std::to_string(s);
    }
    topo.add_row({std::to_string(g),
                  std::to_string(map->group_first_block(g)) + ".." +
                      std::to_string(map->group_last_block(g) - 1),
                  std::to_string(plan.primary),
                  chain.empty() ? "(none)" : chain});
  }
  std::printf("Replication topology (%llu groups, first %llu shown):\n%s\n",
              static_cast<unsigned long long>(map->group_count()),
              static_cast<unsigned long long>(sample),
              topo.to_string().c_str());

  // Overwrite under each ack policy.
  auto client = deployment.make_client();
  if (!client.is_ok()) return 1;
  auto file = client.value().open(dataset.name);
  if (!file.is_ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 file.status().to_string().c_str());
    return 1;
  }
  core::TableWriter writes({"ack policy", "overwrite", "degraded writes",
                            "fixup depth", "after tick", "max generation"});
  std::uint64_t prev_degraded = 0;
  std::uint8_t salt = 1;
  for (ingest::AckPolicy policy :
       {ingest::AckPolicy::kAll, ingest::AckPolicy::kQuorum,
        ingest::AckPolicy::kPrimary}) {
    file.value()->set_ack_policy(policy);
    (void)file.value()->lseek(0);
    const auto bytes = pattern_bytes(dataset.total_bytes(), salt++);
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = file.value()->write(bytes.data(), bytes.size()).is_ok();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const std::uint64_t degraded = file.value()->degraded_writes();
    const std::size_t depth = deployment.master().fixup_depth();
    deployment.master().tick(0.0);
    std::uint64_t max_gen = 0;
    for (int s = 0; s < deployment.server_count(); ++s) {
      max_gen = std::max(max_gen,
                         deployment.server(s).max_generation(dataset.name));
    }
    writes.add_row(
        {ingest::ack_policy_name(policy),
         ok ? core::format_rate(static_cast<double>(bytes.size()) / secs)
            : std::string("FAILED"),
         std::to_string(degraded - prev_degraded), std::to_string(depth),
         std::to_string(deployment.master().fixup_depth()),
         std::to_string(max_gen)});
    prev_degraded = degraded;
  }
  std::printf(
      "Overwrites through the chain pipeline (fixups drain on tick):\n%s\n",
      writes.to_string().c_str());

  // EC(4,2) parity-delta overwrite with read-back verification.
  if (servers >= 6) {
    const auto ec_dataset =
        vol::DatasetDesc{"combustion-ec", {96, 64, 64}, 2,
                         vol::Generator::kCombustion, 43};
    if (auto st = deployment.ingest(ec_dataset, dpss::kDefaultBlockBytes, 1,
                                    1, codec::EcProfile{4, 2});
        !st.is_ok()) {
      std::fprintf(stderr, "EC ingest failed: %s\n", st.to_string().c_str());
      return 1;
    }
    auto ec_file = client.value().open(ec_dataset.name);
    if (!ec_file.is_ok()) return 1;
    const auto bytes = pattern_bytes(ec_dataset.total_bytes(), 99);
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok =
        ec_file.value()->write(bytes.data(), bytes.size()).is_ok();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::vector<std::uint8_t> readback(ec_dataset.total_bytes());
    (void)ec_file.value()->lseek(0);
    auto n = ec_file.value()->read(readback.data(), readback.size());
    core::TableWriter ec_table({"server", "parity deltas applied",
                                "max data gen", "max parity gen"});
    for (int s = 0; s < deployment.server_count(); ++s) {
      ec_table.add_row(
          {std::to_string(s),
           std::to_string(deployment.server(s).parity_deltas_applied()),
           std::to_string(
               deployment.server(s).max_generation(ec_dataset.name)),
           std::to_string(deployment.server(s).max_generation(
               codec::StripeLayout::parity_dataset(ec_dataset.name)))});
    }
    std::printf(
        "EC(4,2) parity-delta overwrite: %s, read-back %s\n%s\n",
        ok ? core::format_rate(static_cast<double>(bytes.size()) / secs)
                 .c_str()
           : "FAILED",
        n.is_ok() && n.value() == readback.size() && readback == bytes
            ? "verified"
            : "MISMATCH",
        ec_table.to_string().c_str());
  }
  deployment.stop();
  return 0;
}

int run_net_report(int servers, int clients) {
  const auto dataset = vol::DatasetDesc{"combustion-demo", {96, 64, 64}, 2,
                                        vol::Generator::kCombustion, 42};
  std::printf("Net report: %d servers (reactor front door), %d clients\n\n",
              servers, clients);

  dpss::TcpDeploymentOptions options;
  options.worker_threads = 8;
  dpss::TcpDeployment deployment(servers, dpss::DiskModel{},
                                 /*throttle=*/false,
                                 dpss::ServerCacheConfig{}, options);
  if (auto st = deployment.start(); !st.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", st.to_string().c_str());
    return 1;
  }
  if (auto st = deployment.ingest(dataset, /*block_bytes=*/8192);
      !st.is_ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", st.to_string().c_str());
    return 1;
  }

  // Drive a burst of concurrent readers so the counters show real load.
  struct Reader {
    dpss::DpssClient client;
    std::unique_ptr<dpss::DpssFile> file;
  };
  std::vector<std::unique_ptr<Reader>> readers(
      static_cast<std::size_t>(clients));
  std::atomic<int> errors{0};
  const int drivers_n = std::min(clients, 16);
  {
    std::vector<std::thread> drivers;
    for (int d = 0; d < drivers_n; ++d) {
      drivers.emplace_back([&, d] {
        std::vector<std::uint8_t> buf(4096);
        for (int i = d; i < clients; i += drivers_n) {
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
          for (int r = 0; r < 4; ++r) {
            const std::uint64_t offset =
                (static_cast<std::uint64_t>(i) * 4 + r) * 8192 %
                (dataset.total_bytes() - buf.size());
            if (!file.value()->pread(buf.data(), buf.size(), offset)
                     .is_ok()) {
              errors.fetch_add(1);
              break;
            }
          }
          readers[static_cast<std::size_t>(i)] = std::unique_ptr<Reader>(
              new Reader{std::move(client).take(), std::move(file).take()});
        }
      });
    }
    for (auto& t : drivers) t.join();
  }
  std::printf("burst: %d clients x 4 preads, %d errors\n\n", clients,
              errors.load());

  // Per-loop reactor counters (the shared ReactorPool).
  const auto loops = deployment.reactor_stats();
  core::TableWriter loop_table({"loop", "wakeups", "fd dispatches",
                                "timers fired", "tasks run", "fds",
                                "timers pending", "tasks queued"});
  for (std::size_t i = 0; i < loops.size(); ++i) {
    loop_table.add_row({std::to_string(i), std::to_string(loops[i].wakeups),
                        std::to_string(loops[i].fd_dispatches),
                        std::to_string(loops[i].timers_fired),
                        std::to_string(loops[i].tasks_run),
                        std::to_string(loops[i].fds),
                        std::to_string(loops[i].timers_pending),
                        std::to_string(loops[i].tasks_queued)});
  }
  std::printf("Event loops (%zu in the pool):\n%s\n", loops.size(),
              loop_table.to_string().c_str());

  // Per-front-door connection/request counters.
  core::TableWriter door_table(
      {"front door", "accepted", "active", "requests", "read timeouts",
       "overflow closes", "queued write bytes"});
  auto door_row = [&](const std::string& name,
                      const net::ReactorServerStats& s) {
    door_table.add_row({name, std::to_string(s.accepted),
                        std::to_string(s.active_conns),
                        std::to_string(s.requests),
                        std::to_string(s.read_timeouts),
                        std::to_string(s.overflow_closes),
                        core::format_bytes(
                            static_cast<double>(s.queued_write_bytes))});
  };
  door_row("master", deployment.master_net_stats());
  for (int i = 0; i < deployment.server_count(); ++i) {
    door_row("server " + std::to_string(i), deployment.server_net_stats(i));
  }
  std::printf("Front doors (connections held open):\n%s\n",
              door_table.to_string().c_str());

  readers.clear();
  deployment.stop();
  return errors.load() == 0 ? 0 : 1;
}

// First sample in a Prometheus-style exposition whose name (before any
// `{labels}`) matches exactly; 0.0 when absent.
double metric_value(const std::string& text, const std::string& name) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    std::size_t name_end = line.find_first_of("{ ");
    if (name_end != name.size() || line.compare(0, name_end, name) != 0) {
      continue;
    }
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    return std::atof(line.c_str() + sp + 1);
  }
  return 0.0;
}

std::string fmt_tail_ms(const std::string& text, const std::string& hist) {
  return core::fmt_double(metric_value(text, hist + "_p50") * 1e3, 2) + "/" +
         core::fmt_double(metric_value(text, hist + "_p95") * 1e3, 2) + "/" +
         core::fmt_double(metric_value(text, hist + "_p99") * 1e3, 2);
}

// Like metric_value, but only lines whose label block contains `label`
// (e.g. loop="2") qualify -- for per-instance families.
double labeled_value(const std::string& text, const std::string& name,
                     const std::string& label) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    std::size_t name_end = line.find_first_of("{ ");
    if (name_end != name.size() || line.compare(0, name_end, name) != 0) {
      continue;
    }
    if (line.find(label) == std::string::npos) continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    return std::atof(line.c_str() + sp + 1);
  }
  return 0.0;
}

// Sum over every sample of the family (all label combinations).
double metric_sum(const std::string& text, const std::string& name) {
  double total = 0.0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    std::size_t name_end = line.find_first_of("{ ");
    if (name_end != name.size() || line.compare(0, name_end, name) != 0) {
      continue;
    }
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    total += std::atof(line.c_str() + sp + 1);
  }
  return total;
}

// Shared burst driver: `clients` short-lived clients, 4 preads each.
int drive_pread_burst(dpss::TcpDeployment& deployment,
                      const vol::DatasetDesc& dataset, int clients) {
  std::atomic<int> errors{0};
  const int drivers_n = std::min(clients, 16);
  std::vector<std::thread> drivers;
  for (int d = 0; d < drivers_n; ++d) {
    drivers.emplace_back([&, d] {
      std::vector<std::uint8_t> buf(4096);
      for (int i = d; i < clients; i += drivers_n) {
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
        for (int r = 0; r < 4; ++r) {
          const std::uint64_t offset =
              (static_cast<std::uint64_t>(i) * 4 + r) * 8192 %
              (dataset.total_bytes() - buf.size());
          if (!file.value()->pread(buf.data(), buf.size(), offset).is_ok()) {
            errors.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  return errors.load();
}

int run_stats_report(int servers, int clients, int rounds) {
  const auto dataset = vol::DatasetDesc{"combustion-demo", {96, 64, 64}, 2,
                                        vol::Generator::kCombustion, 42};
  std::printf(
      "Stats report: %d servers (reactor front door), %d clients/round, "
      "%d round(s)\n\n",
      servers, clients, rounds);

  dpss::TcpDeploymentOptions options;
  options.worker_threads = 8;
  dpss::TcpDeployment deployment(servers, dpss::DiskModel{},
                                 /*throttle=*/false,
                                 dpss::ServerCacheConfig{}, options);
  if (auto st = deployment.start(); !st.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", st.to_string().c_str());
    return 1;
  }
  if (auto st = deployment.ingest(dataset, /*block_bytes=*/8192);
      !st.is_ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", st.to_string().c_str());
    return 1;
  }

  auto poller = deployment.make_client();
  if (!poller.is_ok()) return 1;

  for (int round = 1; round <= rounds; ++round) {
    // Drive a burst so the counters and histograms move between polls.
    std::atomic<int> errors{0};
    const int drivers_n = std::min(clients, 16);
    {
      std::vector<std::thread> drivers;
      for (int d = 0; d < drivers_n; ++d) {
        drivers.emplace_back([&, d] {
          std::vector<std::uint8_t> buf(4096);
          for (int i = d; i < clients; i += drivers_n) {
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
            for (int r = 0; r < 4; ++r) {
              const std::uint64_t offset =
                  (static_cast<std::uint64_t>(i) * 4 + r) * 8192 %
                  (dataset.total_bytes() - buf.size());
              if (!file.value()->pread(buf.data(), buf.size(), offset)
                       .is_ok()) {
                errors.fetch_add(1);
                break;
              }
            }
          }
        });
      }
      for (auto& t : drivers) t.join();
    }

    // Live poll over the wire: kStats introspection of master and servers.
    auto master_text = poller.value().introspect(dpss::IntrospectKind::kStats);
    if (!master_text.is_ok()) {
      std::fprintf(stderr, "master stats failed: %s\n",
                   master_text.status().to_string().c_str());
      return 1;
    }
    std::printf(
        "round %d/%d: %d errors; master opens=%llu requests p50/p95/p99 ms "
        "%s\n",
        round, rounds, errors.load(),
        static_cast<unsigned long long>(
            metric_value(master_text.value(), "dpss_master_opens_total")),
        fmt_tail_ms(master_text.value(), "dpss_master_request_seconds")
            .c_str());

    core::TableWriter table({"server", "requests", "read p50/p95/p99 ms",
                             "in flight", "cache hits", "net accepted"});
    for (int i = 0; i < deployment.server_count(); ++i) {
      auto text = poller.value().introspect(deployment.server_address(i),
                                            dpss::IntrospectKind::kStats);
      if (!text.is_ok()) {
        std::fprintf(stderr, "server %d stats failed: %s\n", i,
                     text.status().to_string().c_str());
        return 1;
      }
      const std::string& s = text.value();
      table.add_row(
          {std::to_string(i),
           std::to_string(static_cast<std::uint64_t>(
               metric_value(s, "dpss_server_requests_total"))),
           fmt_tail_ms(s, "dpss_server_read_seconds"),
           std::to_string(static_cast<std::int64_t>(
               metric_value(s, "dpss_server_in_flight"))),
           std::to_string(static_cast<std::uint64_t>(
               metric_value(s, "dpss_cache_hits_total"))),
           std::to_string(static_cast<std::uint64_t>(
               metric_value(s, "dpss_server_net_connections_accepted_total")))});
    }
    std::printf("%s\n", table.to_string().c_str());
  }

  // Raw exposition, verbatim: what a scraper (or the CI grep) would see.
  auto master_text = poller.value().introspect(dpss::IntrospectKind::kStats);
  auto server_text = poller.value().introspect(deployment.server_address(0),
                                               dpss::IntrospectKind::kStats);
  if (master_text.is_ok()) {
    std::printf("--- master exposition ---\n%s", master_text.value().c_str());
  }
  if (server_text.is_ok()) {
    std::printf("--- server 0 exposition ---\n%s",
                server_text.value().c_str());
  }
  deployment.stop();
  return 0;
}

// Client-side half of the trace pipeline for `top`: one sink + logger the
// traced client/file write lifeline events into, drained and shipped to
// the master's collector over the kSpanExport RPC.
struct ClientTrace {
  std::shared_ptr<netlog::MemorySink> sink;
  std::shared_ptr<netlog::NetLogger> logger;
  netlog::SpanExtractor extractor;

  ClientTrace()
      : sink(std::make_shared<netlog::MemorySink>(8192)),
        logger(std::make_shared<netlog::NetLogger>(core::global_real_clock(),
                                                   "client", "dpss", sink)) {}

  std::uint64_t ship(dpss::DpssClient& via) {
    std::vector<obs::SpanRecord> spans;
    extractor.feed(sink->drain(), spans);
    if (spans.empty()) return 0;
    auto n = via.export_spans("client", core::global_real_clock().now(), spans);
    return n.is_ok() ? n.value() : 0;
  }
};

int run_top_report(int servers, int clients, int rounds) {
  const auto dataset = vol::DatasetDesc{"combustion-demo", {96, 64, 64}, 2,
                                        vol::Generator::kCombustion, 42};
  const auto ec_dataset = vol::DatasetDesc{"combustion-ec", {96, 64, 64}, 2,
                                           vol::Generator::kCombustion, 43};
  std::printf(
      "Top: %d servers (traced), %d clients/round, %d round(s) -- "
      "rf=3 chain write, degraded EC(4,2) read, open-rate alert\n\n",
      servers, clients, rounds);

  dpss::TcpDeploymentOptions options;
  options.worker_threads = 8;
  dpss::TcpDeployment deployment(servers, dpss::DiskModel{},
                                 /*throttle=*/false,
                                 dpss::ServerCacheConfig{}, options);
  if (auto st = deployment.start(); !st.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", st.to_string().c_str());
    return 1;
  }
  // Sample stage stacks for the whole run; the final collapsed profile
  // names the same bottleneck the critical-path breakdown does.
  obs::Profiler::global().start(197.0);
  deployment.enable_trace_collection();
  deployment.master().set_trace_linger(0.0);
  if (auto st = deployment.master().enable_alerts(
          {"open_surge: rate(dpss_master_opens_total) > 0.5",
           // Saturation rule on the USE plane: a loop pinned above 90%
           // busy for three consecutive scrapes is a starving reactor.
           "loop_busy: dpss_util_loop_busy_fraction_max > 0.9 for 3"});
      !st.is_ok()) {
    std::fprintf(stderr, "bad alert rule: %s\n", st.to_string().c_str());
    return 1;
  }
  if (auto st = deployment.ingest(dataset, /*block_bytes=*/8192, 1, 3);
      !st.is_ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", st.to_string().c_str());
    return 1;
  }
  if (auto st = deployment.ingest(ec_dataset, /*block_bytes=*/8192, 1, 1,
                                  codec::EcProfile{4, 2});
      !st.is_ok()) {
    std::fprintf(stderr, "EC ingest failed: %s\n", st.to_string().c_str());
    return 1;
  }

  auto poller = deployment.make_client();
  if (!poller.is_ok()) return 1;
  ClientTrace trace;
  poller.value().enable_open_tracing(trace.logger);
  auto rf_file = poller.value().open(dataset.name);
  auto ec_file = poller.value().open(ec_dataset.name);
  if (!rf_file.is_ok() || !ec_file.is_ok()) {
    std::fprintf(stderr, "open failed\n");
    return 1;
  }
  rf_file.value()->enable_tracing(trace.logger);
  ec_file.value()->enable_tracing(trace.logger);

  double now = 0.0;
  int round = 1;
  // `rounds` loaded rounds, then two idle rounds so the open-rate alert
  // seen firing under load is also seen resolving.
  for (; round <= rounds + 2; ++round) {
    const bool idle = round > rounds;
    std::atomic<int> errors{0};
    if (!idle) {
      if (round == 1) {
        // Traced rf=3 chain write: one trace whose critical path walks
        // client_write -> serv -> chain_forward hops.
        const auto bytes = pattern_bytes(dataset.total_bytes(), 7);
        (void)rf_file.value()->lseek(0);
        if (!rf_file.value()->write(bytes.data(), bytes.size()).is_ok()) {
          std::fprintf(stderr, "traced write failed\n");
          return 1;
        }
      }
      if (round == 2) {
        // Kill a server, then a traced degraded EC read: the trace's
        // disk/cache stages now include reconstruction fan-out.
        deployment.kill_server(0);
        std::vector<std::uint8_t> buf(ec_dataset.total_bytes());
        (void)ec_file.value()->lseek(0);
        auto n = ec_file.value()->read(buf.data(), buf.size());
        if (!n.is_ok() || n.value() != buf.size()) {
          std::fprintf(stderr, "degraded EC read failed\n");
          return 1;
        }
      }
      // Open/pread burst: moves the master opens counter the alert rule
      // watches (reads go to the EC dataset, robust to the killed server).
      const int drivers_n = std::min(clients, 16);
      std::vector<std::thread> drivers;
      for (int d = 0; d < drivers_n; ++d) {
        drivers.emplace_back([&, d] {
          std::vector<std::uint8_t> buf(4096);
          for (int i = d; i < clients; i += drivers_n) {
            auto client = deployment.make_client();
            if (!client.is_ok()) {
              errors.fetch_add(1);
              continue;
            }
            auto file = client.value().open(ec_dataset.name);
            if (!file.is_ok()) {
              errors.fetch_add(1);
              continue;
            }
            for (int r = 0; r < 4; ++r) {
              const std::uint64_t offset =
                  (static_cast<std::uint64_t>(i) * 4 + r) * 8192 %
                  (ec_dataset.total_bytes() - buf.size());
              if (!file.value()->pread(buf.data(), buf.size(), offset)
                       .is_ok()) {
                errors.fetch_add(1);
                break;
              }
            }
          }
        });
      }
      for (auto& t : drivers) t.join();
    }

    // Export the round's finished spans into the collector, then tick the
    // master: traces finalize (linger 0) and the alert engine scrapes.
    const std::uint64_t shipped =
        deployment.export_spans() + trace.ship(poller.value());
    now += 1.0;
    deployment.master().tick(now);

    auto master_text = poller.value().introspect(dpss::IntrospectKind::kStats);
    if (!master_text.is_ok()) {
      std::fprintf(stderr, "master stats failed: %s\n",
                   master_text.status().to_string().c_str());
      return 1;
    }
    const std::string& mt = master_text.value();
    std::printf(
        "round %d/%d%s: %d errors, %llu spans shipped; traces active=%llu "
        "finalized=%llu dropped=%llu; alerts firing=%llu\n",
        round, rounds + 2, idle ? " (idle)" : "", errors.load(),
        static_cast<unsigned long long>(shipped),
        static_cast<unsigned long long>(metric_value(mt, "dpss_trace_active")),
        static_cast<unsigned long long>(
            metric_value(mt, "dpss_trace_traces_finalized_total")),
        static_cast<unsigned long long>(
            metric_value(mt, "dpss_trace_traces_dropped_total")),
        static_cast<unsigned long long>(
            metric_value(mt, "dpss_alerts_fired_total") -
            metric_value(mt, "dpss_alerts_resolved_total")));

    // Per-loop utilization, straight off the shared reactor pool: the
    // busy fraction is the U in the loops' USE row.
    const auto loops = deployment.reactor_stats();
    std::printf("loops busy:");
    for (std::size_t i = 0; i < loops.size(); ++i) {
      std::printf(" loop%zu=%s%%", i,
                  core::fmt_double(100.0 * loops[i].busy_fraction(), 1)
                      .c_str());
    }
    std::printf("\n");

    core::TableWriter table(
        {"server", "requests", "read p50/p95/p99 ms", "in flight",
         "cache hits", "pool sat", "cache occ"});
    for (int i = 0; i < deployment.server_count(); ++i) {
      auto text = poller.value().introspect(deployment.server_address(i),
                                            dpss::IntrospectKind::kStats);
      if (!text.is_ok()) {
        table.add_row({std::to_string(i), "down", "-", "-", "-", "-", "-"});
        continue;
      }
      const std::string& s = text.value();
      table.add_row(
          {std::to_string(i),
           std::to_string(static_cast<std::uint64_t>(
               metric_value(s, "dpss_server_requests_total"))),
           fmt_tail_ms(s, "dpss_server_read_seconds"),
           std::to_string(static_cast<std::int64_t>(
               metric_value(s, "dpss_server_in_flight"))),
           std::to_string(static_cast<std::uint64_t>(
               metric_value(s, "dpss_cache_hits_total"))),
           core::fmt_double(metric_value(s, "dpss_util_pool_saturation"), 3),
           core::fmt_double(
               100.0 * metric_value(s, "dpss_util_cache_occupancy_fraction"),
               1) +
               "%"});
    }
    std::printf("%s\n", table.to_string().c_str());

    // The collector's own view, over the wire: slowest traces broken down
    // by critical-path stage, plus the alert status lines.
    auto report = poller.value().introspect(dpss::IntrospectKind::kTraceReport);
    if (report.is_ok()) std::printf("%s\n", report.value().c_str());
  }

  // Raw exposition, verbatim: the stage histograms and alert samples a
  // scraper (or the CI grep) sees.
  auto master_text = poller.value().introspect(dpss::IntrospectKind::kStats);
  if (master_text.is_ok()) {
    std::printf("--- master exposition ---\n%s", master_text.value().c_str());
  }
  // The profiler's answer to the same question the critical path answers:
  // where did the time go?  Fetched over the kIntrospect RPC like any remote
  // scraper would, then compared against the in-process top stage.
  auto profile = poller.value().introspect(dpss::IntrospectKind::kProfile);
  if (profile.is_ok() && !profile.value().empty()) {
    std::printf("--- collapsed stage profile ---\n%s",
                profile.value().c_str());
    std::printf("profile top stage: %s\n",
                obs::Profiler::global().top_stage().c_str());
  }
  obs::Profiler::global().stop();
  deployment.stop();
  return 0;
}

// `util`: stand up a reactor deployment, push a replicated chain write and
// a pread burst through it, then render the USE-method table -- one row
// per schedulable resource with its Utilization / Saturation / Errors
// figures, scraped off the dpss_util_* families in the kStats text.
int run_util_report(int servers, int clients) {
  const auto dataset = vol::DatasetDesc{"combustion-demo", {96, 64, 64}, 2,
                                        vol::Generator::kCombustion, 42};
  std::printf(
      "Utilization report (USE method): %d servers, %d clients, rf=3 "
      "chain write + pread burst\n\n",
      servers, clients);

  dpss::TcpDeploymentOptions options;
  options.worker_threads = 8;
  dpss::TcpDeployment deployment(servers, dpss::DiskModel{},
                                 /*throttle=*/false,
                                 dpss::ServerCacheConfig{}, options);
  if (auto st = deployment.start(); !st.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", st.to_string().c_str());
    return 1;
  }
  if (auto st = deployment.ingest(dataset, /*block_bytes=*/8192, 1, 3);
      !st.is_ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", st.to_string().c_str());
    return 1;
  }

  auto poller = deployment.make_client();
  if (!poller.is_ok()) return 1;
  // A chain write moves the peer links (replica copies travel
  // server-to-server); the burst moves loops, pools, and front doors.
  auto file = poller.value().open(dataset.name);
  if (!file.is_ok()) return 1;
  const auto bytes = pattern_bytes(dataset.total_bytes(), 5);
  if (!file.value()->write(bytes.data(), bytes.size()).is_ok()) {
    std::fprintf(stderr, "chain write failed\n");
    return 1;
  }
  const int errors = drive_pread_burst(deployment, dataset, clients);
  std::printf("load: rf=3 overwrite + %d clients x 4 preads, %d errors\n\n",
              clients, errors);

  auto master_text = poller.value().introspect(dpss::IntrospectKind::kStats);
  if (!master_text.is_ok()) {
    std::fprintf(stderr, "master stats failed: %s\n",
                 master_text.status().to_string().c_str());
    return 1;
  }
  const std::string& mt = master_text.value();

  core::TableWriter use({"resource", "utilization", "saturation", "errors"});
  const auto loops = deployment.reactor_stats();
  for (std::size_t i = 0; i < loops.size(); ++i) {
    const std::string sel = "loop=\"" + std::to_string(i) + "\"";
    use.add_row(
        {"event loop " + std::to_string(i),
         core::fmt_double(100.0 * loops[i].busy_fraction(), 1) + "% busy",
         "p99 dispatch wait " +
             core::fmt_double(
                 labeled_value(mt, "dpss_util_loop_dispatch_wait_seconds_p99",
                               sel) *
                     1e3,
                 3) +
             " ms, " + std::to_string(loops[i].tasks_queued) + " queued",
         "-"});
  }
  use.add_row(
      {"master front door",
       core::format_bytes(labeled_value(mt, "dpss_util_conn_bytes_read_total",
                                        "front=\"master\"")) +
           " in / " +
           core::format_bytes(labeled_value(
               mt, "dpss_util_conn_bytes_written_total", "front=\"master\"")) +
           " out",
       core::format_bytes(labeled_value(mt, "dpss_util_conn_backlog_bytes",
                                        "front=\"master\"")) +
           " backlog",
       std::to_string(static_cast<std::uint64_t>(
           metric_value(mt, "dpss_master_net_overflow_closes_total")))});
  for (int i = 0; i < deployment.server_count(); ++i) {
    auto text = poller.value().introspect(deployment.server_address(i),
                                          dpss::IntrospectKind::kStats);
    if (!text.is_ok()) {
      use.add_row({"server " + std::to_string(i), "down", "-", "-"});
      continue;
    }
    const std::string& s = text.value();
    const std::string id = std::to_string(i);
    use.add_row(
        {"server " + id + " pool",
         std::to_string(static_cast<std::uint64_t>(
             metric_value(s, "dpss_util_pool_tasks_completed_total"))) +
             " tasks, p99 run " +
             core::fmt_double(
                 metric_value(s, "dpss_util_pool_task_run_seconds_p99") * 1e3,
                 3) +
             " ms",
         "depth " +
             std::to_string(static_cast<std::uint64_t>(
                 metric_value(s, "dpss_util_pool_queue_depth"))) +
             " (peak " +
             std::to_string(static_cast<std::uint64_t>(
                 metric_value(s, "dpss_util_pool_queue_peak"))) +
             "), p99 wait " +
             core::fmt_double(
                 metric_value(s, "dpss_util_pool_task_wait_seconds_p99") * 1e3,
                 3) +
             " ms",
         "-"});
    use.add_row(
        {"server " + id + " front door",
         core::format_bytes(labeled_value(
             s, "dpss_util_conn_bytes_read_total", "front=\"server\"")) +
             " in / " +
             core::format_bytes(labeled_value(
                 s, "dpss_util_conn_bytes_written_total", "front=\"server\"")) +
             " out",
         core::format_bytes(labeled_value(s, "dpss_util_conn_backlog_bytes",
                                          "front=\"server\"")) +
             " backlog",
         std::to_string(static_cast<std::uint64_t>(
             metric_value(s, "dpss_server_net_overflow_closes_total")))});
    use.add_row(
        {"server " + id + " cache tier",
         core::fmt_double(
             100.0 * metric_value(s, "dpss_util_cache_occupancy_fraction"),
             1) +
             "% occupied",
         "pressure " +
             core::fmt_double(metric_value(s, "dpss_util_cache_pressure"), 3),
         "-"});
    const double peer_bytes = metric_sum(s, "dpss_util_peer_bytes_total");
    if (peer_bytes > 0.0 ||
        metric_sum(s, "dpss_util_peer_exchanges_total") > 0.0) {
      use.add_row(
          {"server " + id + " peer links",
           std::to_string(static_cast<std::uint64_t>(
               metric_sum(s, "dpss_util_peer_exchanges_total"))) +
               " exchanges, " + core::format_bytes(peer_bytes),
           "-",
           std::to_string(static_cast<std::uint64_t>(
               metric_sum(s, "dpss_util_peer_failures_total")))});
    }
  }
  std::printf("%s\n", use.to_string().c_str());

  // Raw expositions for scrapers and the CI greps.
  auto server_text = poller.value().introspect(deployment.server_address(0),
                                               dpss::IntrospectKind::kStats);
  std::printf("--- master exposition ---\n%s", mt.c_str());
  if (server_text.is_ok()) {
    std::printf("--- server 0 exposition ---\n%s",
                server_text.value().c_str());
  }
  deployment.stop();
  return errors == 0 ? 0 : 1;
}

// `profile`: arm the stage profiler, drive the traced rf=3 write +
// degraded EC(4,2) read + pread burst, and print the folded stacks.
int run_profile_report(int servers, int clients, double hz) {
  const auto dataset = vol::DatasetDesc{"combustion-demo", {96, 64, 64}, 2,
                                        vol::Generator::kCombustion, 42};
  const auto ec_dataset = vol::DatasetDesc{"combustion-ec", {96, 64, 64}, 2,
                                           vol::Generator::kCombustion, 43};
  std::printf(
      "Stage profile: %d servers, %d clients, sampler %.0f Hz -- rf=3 "
      "write, degraded EC(4,2) read, pread burst\n\n",
      servers, clients, hz);

  obs::Profiler::global().start(hz);
  dpss::TcpDeploymentOptions options;
  options.worker_threads = 8;
  dpss::TcpDeployment deployment(servers, dpss::DiskModel{},
                                 /*throttle=*/false,
                                 dpss::ServerCacheConfig{}, options);
  if (auto st = deployment.start(); !st.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", st.to_string().c_str());
    return 1;
  }
  if (auto st = deployment.ingest(dataset, /*block_bytes=*/8192, 1, 3);
      !st.is_ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", st.to_string().c_str());
    return 1;
  }
  if (auto st = deployment.ingest(ec_dataset, /*block_bytes=*/8192, 1, 1,
                                  codec::EcProfile{4, 2});
      !st.is_ok()) {
    std::fprintf(stderr, "EC ingest failed: %s\n", st.to_string().c_str());
    return 1;
  }

  auto poller = deployment.make_client();
  if (!poller.is_ok()) return 1;
  auto rf_file = poller.value().open(dataset.name);
  auto ec_file = poller.value().open(ec_dataset.name);
  if (!rf_file.is_ok() || !ec_file.is_ok()) return 1;
  const auto bytes = pattern_bytes(dataset.total_bytes(), 7);
  if (!rf_file.value()->write(bytes.data(), bytes.size()).is_ok()) {
    std::fprintf(stderr, "rf=3 write failed\n");
    return 1;
  }
  deployment.kill_server(0);
  std::vector<std::uint8_t> buf(ec_dataset.total_bytes());
  auto n = ec_file.value()->read(buf.data(), buf.size());
  if (!n.is_ok() || n.value() != buf.size()) {
    std::fprintf(stderr, "degraded EC read failed\n");
    return 1;
  }
  const int errors = drive_pread_burst(deployment, ec_dataset, clients);
  std::printf("load: %d errors; profiler sampled %llu stacks across %zu "
              "thread(s)\n\n",
              errors,
              static_cast<unsigned long long>(
                  obs::Profiler::global().samples_taken()),
              obs::Profiler::global().registered_threads());

  // Over the wire, as a remote scraper would pull it.
  auto collapsed = poller.value().introspect(dpss::IntrospectKind::kProfile);
  if (!collapsed.is_ok()) {
    std::fprintf(stderr, "profile RPC failed: %s\n",
                 collapsed.status().to_string().c_str());
    return 1;
  }
  std::printf("--- collapsed stage profile (flamegraph format) ---\n%s",
              collapsed.value().c_str());
  std::printf("top stage: %s\n", obs::Profiler::global().top_stage().c_str());
  obs::Profiler::global().stop();
  deployment.stop();
  return errors == 0 ? 0 : 1;
}

int usage(std::FILE* out) {
  std::fprintf(
      out,
      "dpss_tool -- DPSS demos and live introspection over loopback TCP\n"
      "\n"
      "usage: dpss_tool [subcommand] [args...]\n"
      "\n"
      "subcommands:\n"
      "  [max_servers]                        scaling run + "
      "cache-effectiveness demo (default)\n"
      "  meta [shards] [replicas] [datasets]  sharded metadata plane: "
      "failover + election\n"
      "  placement [servers] [rf]             consistent-hash ring + "
      "replica health table\n"
      "  ec [servers] [k] [m]                 erasure coding: degraded "
      "reads through reconstruction\n"
      "  ingest [servers] [rf]                chain replication + "
      "parity-delta write pipeline\n"
      "  net [servers] [clients]              reactor event loops + front "
      "door counters\n"
      "  stats [servers] [clients] [rounds]   live stats poll: per-server "
      "latency table + exposition\n"
      "  top [servers] [clients] [rounds]     trace/alert dashboard: "
      "critical paths, firing alerts\n"
      "  util [servers] [clients]             USE-method table: loop/pool/"
      "link/cache utilization\n"
      "  profile [servers] [clients] [hz]     in-process stage profiler, "
      "flamegraph-collapsed\n"
      "  help                                 this message\n");
  return out == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && (std::strcmp(argv[1], "help") == 0 ||
                   std::strcmp(argv[1], "--help") == 0 ||
                   std::strcmp(argv[1], "-h") == 0)) {
    return usage(stdout);
  }
  if (argc > 1 && std::strcmp(argv[1], "util") == 0) {
    const int servers = argc > 2 ? std::atoi(argv[2]) : 4;
    const int clients = argc > 3 ? std::atoi(argv[3]) : 32;
    return run_util_report(std::max(3, servers), std::max(1, clients));
  }
  if (argc > 1 && std::strcmp(argv[1], "profile") == 0) {
    const int servers = argc > 2 ? std::atoi(argv[2]) : 6;
    const int clients = argc > 3 ? std::atoi(argv[3]) : 16;
    const double hz = argc > 4 ? std::atof(argv[4]) : 197.0;
    return run_profile_report(std::max(6, servers), std::max(1, clients),
                              hz > 0 ? hz : 197.0);
  }
  if (argc > 1 && std::strcmp(argv[1], "ingest") == 0) {
    const int servers = argc > 2 ? std::atoi(argv[2]) : 6;
    const int rf = argc > 3 ? std::atoi(argv[3]) : 3;
    return run_ingest_report(std::max(3, servers), std::max(2, rf));
  }
  if (argc > 1 && std::strcmp(argv[1], "stats") == 0) {
    const int servers = argc > 2 ? std::atoi(argv[2]) : 2;
    const int clients = argc > 3 ? std::atoi(argv[3]) : 64;
    const int rounds = argc > 4 ? std::atoi(argv[4]) : 1;
    return run_stats_report(std::max(1, servers), std::max(1, clients),
                            std::max(1, rounds));
  }
  if (argc > 1 && std::strcmp(argv[1], "top") == 0) {
    const int servers = argc > 2 ? std::atoi(argv[2]) : 6;
    const int clients = argc > 3 ? std::atoi(argv[3]) : 4;
    const int rounds = argc > 4 ? std::atoi(argv[4]) : 3;
    return run_top_report(std::max(6, servers), std::max(1, clients),
                          std::max(2, rounds));
  }
  if (argc > 1 && std::strcmp(argv[1], "net") == 0) {
    const int servers = argc > 2 ? std::atoi(argv[2]) : 2;
    const int clients = argc > 3 ? std::atoi(argv[3]) : 128;
    return run_net_report(std::max(1, servers), std::max(1, clients));
  }
  if (argc > 1 && std::strcmp(argv[1], "ec") == 0) {
    const int servers = argc > 2 ? std::atoi(argv[2]) : 6;
    const int k = argc > 3 ? std::atoi(argv[3]) : 4;
    const int m = argc > 4 ? std::atoi(argv[4]) : 2;
    return run_ec_report(std::max(2, servers), std::max(1, k), std::max(1, m));
  }
  if (argc > 1 && std::strcmp(argv[1], "meta") == 0) {
    const int shards = argc > 2 ? std::atoi(argv[2]) : 4;
    const int replicas = argc > 3 ? std::atoi(argv[3]) : 3;
    const int datasets = argc > 4 ? std::atoi(argv[4]) : 24;
    return run_meta_report(std::max(1, shards), std::max(1, replicas),
                           std::max(1, datasets));
  }
  if (argc > 1 && std::strcmp(argv[1], "placement") == 0) {
    const int servers = argc > 2 ? std::atoi(argv[2]) : 4;
    const int rf = argc > 3 ? std::atoi(argv[3]) : 2;
    return run_placement_report(std::max(2, servers), std::max(2, rf));
  }
  // Anything left must be the default run's numeric [max_servers]; an
  // unrecognised word is a typo'd subcommand, not a server count.
  if (argc > 1) {
    const char* arg = argv[1];
    for (const char* p = arg; *p; ++p) {
      if (*p < '0' || *p > '9') {
        std::fprintf(stderr, "dpss_tool: unknown subcommand '%s'\n\n", arg);
        return usage(stderr);
      }
    }
  }
  const int max_servers = argc > 1 ? std::atoi(argv[1]) : 4;
  const auto dataset = vol::DatasetDesc{"combustion-demo", {96, 64, 64}, 2,
                                        vol::Generator::kCombustion, 42};

  std::printf("DPSS over loopback TCP: dataset %s, %d timesteps (%s)\n\n",
              dataset.dims.to_string().c_str(), dataset.timesteps,
              core::format_bytes(static_cast<double>(dataset.total_bytes())).c_str());

  core::TableWriter table({"servers", "blocks/server", "read throughput",
                           "balanced", "cache hits/misses"});
  for (int servers = 1; servers <= max_servers; servers *= 2) {
    dpss::TcpDeployment deployment(servers);
    if (auto st = deployment.start(); !st.is_ok()) {
      std::fprintf(stderr, "start failed: %s\n", st.to_string().c_str());
      return 1;
    }
    if (auto st = deployment.ingest(dataset); !st.is_ok()) {
      std::fprintf(stderr, "ingest failed: %s\n", st.to_string().c_str());
      return 1;
    }

    auto client = deployment.make_client();
    if (!client.is_ok()) return 1;
    auto file = client.value().open(dataset.name);
    if (!file.is_ok()) {
      std::fprintf(stderr, "open failed: %s\n", file.status().to_string().c_str());
      return 1;
    }

    // Sequential read of the whole logical file via dpssRead.
    std::vector<std::uint8_t> buf(dataset.total_bytes());
    const auto t0 = std::chrono::steady_clock::now();
    auto n = file.value()->read(buf.data(), buf.size());
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (!n.is_ok() || n.value() != buf.size()) {
      std::fprintf(stderr, "read failed\n");
      return 1;
    }

    const auto per_server = file.value()->per_server_blocks();
    std::uint64_t lo = per_server[0], hi = per_server[0];
    for (auto c : per_server) {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    table.add_row({std::to_string(servers),
                   std::to_string(deployment.server(0).block_count(dataset.name)),
                   core::format_rate(static_cast<double>(buf.size()) / secs),
                   hi - lo <= 1 ? "yes" : "no",
                   cache_summary(cache_totals(deployment))});
    deployment.stop();
  }
  std::printf("%s\n", table.to_string().c_str());

  // Cache effectiveness: drop the memory tier (cold restart), read the
  // file twice, and watch the second pass come from server memory.
  {
    dpss::TcpDeployment deployment(4);
    (void)deployment.ingest(dataset);
    for (int i = 0; i < deployment.server_count(); ++i) {
      deployment.server(i).drop_cache();
    }
    auto client = deployment.make_client();
    auto file = client.value().open(dataset.name);
    std::vector<std::uint8_t> buf(dataset.total_bytes());
    core::TableWriter cache_table(
        {"pass", "hits", "misses", "hit ratio", "evictions", "prefetched",
         "modeled disk"});
    cache::MetricsSnapshot prev;
    double prev_disk = 0.0;
    for (const char* pass : {"cold", "warm"}) {
      (void)file.value()->lseek(0);
      (void)file.value()->read(buf.data(), buf.size());
      const auto now = cache_totals(deployment);
      double disk = 0.0;
      for (int i = 0; i < deployment.server_count(); ++i) {
        disk += deployment.server(i).modeled_disk_seconds();
      }
      const auto hits = now.hits - prev.hits;
      const auto misses = now.misses - prev.misses;
      cache_table.add_row(
          {pass, std::to_string(hits), std::to_string(misses),
           core::fmt_double(hits + misses == 0
                                ? 0.0
                                : static_cast<double>(hits) / (hits + misses),
                            3),
           std::to_string(now.evictions - prev.evictions),
           std::to_string(now.prefetch_issued - prev.prefetch_issued),
           core::fmt_double(disk - prev_disk, 3) + " s"});
      prev = now;
      prev_disk = disk;
    }
    deployment.stop();
    std::printf("Memory-tier effectiveness (4 servers, cold then warm):\n%s\n",
                cache_table.to_string().c_str());
  }

  // Unix-like semantics demo.
  dpss::TcpDeployment deployment(2);
  (void)deployment.ingest(dataset);
  auto client = deployment.make_client();
  auto file = client.value().open(dataset.name);
  std::printf("dpssOpen(\"%s\")  -> handle with %s across %d servers\n",
              dataset.name.c_str(),
              core::format_bytes(static_cast<double>(file.value()->size())).c_str(),
              file.value()->server_count());
  std::printf("dpssLSeek(+1 MB) -> offset %lld\n",
              static_cast<long long>(file.value()->lseek(1 << 20)));
  std::vector<std::uint8_t> sample(64 * 1024);
  auto n = file.value()->read(sample.data(), sample.size());
  std::printf("dpssRead(64 KB)  -> %zu bytes at new offset %llu\n",
              n.is_ok() ? n.value() : 0,
              static_cast<unsigned long long>(file.value()->tell()));
  deployment.stop();
  return 0;
}
