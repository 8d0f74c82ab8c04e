// DPSS master.
//
// Paper Fig. 7: the master performs "logical to physical block lookup,
// access control, load balancing" and hands clients back the set of block
// servers to stream from.  Data never flows through the master -- clients
// talk to block servers directly, which is what lets DPSS throughput scale
// with the number of servers.
//
// PR 3 makes the lookup replica-aware: a dataset registered with a
// PlacementOptions gets a consistent-hash PlacementMap (replication_factor
// copies of every block), OpenReplys carry the ring parameters plus a
// health/load snapshot so clients rank replicas least-loaded-live-first,
// and two new RPCs feed the health tracker: server heartbeats and
// client-reported I/O failures.  rebalance_dataset() recomputes the map
// for a changed server set and returns the Rebalancer's copy/drop plan for
// the deployment to execute.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/status.h"
#include "dpss/protocol.h"
#include "ingest/fixup.h"
#include "meta/catalog.h"
#include "meta/gossip.h"
#include "meta/log.h"
#include "meta/shard_map.h"
#include "net/stream.h"
#include "netlog/logger.h"
#include "obs/alert.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "placement/health.h"
#include "placement/placement_map.h"
#include "placement/rebalancer.h"

namespace visapult::dpss {

// How a dataset's blocks map onto servers -- moved to meta/types.h with
// the sharded metadata plane; aliased so every existing caller compiles.
using PlacementOptions = meta::PlacementOptions;

// Background re-replication (PR 4 satellite): with auto-rebalance enabled
// the master watches its own HealthTracker from tick(now) and re-plans any
// ring-placed dataset that still references a server that has been down
// for at least `down_deadline_seconds`.
struct AutoRebalanceConfig {
  double down_deadline_seconds = 30.0;
};

// One master's position in the sharded metadata plane.  The default is
// the legacy deployment: single shard, this master its (sole) leader.
struct MetaConfig {
  meta::ShardMap shard_map;
  std::uint32_t shard_id = 0;
  bool is_leader = true;
  // First-class identity of this master endpoint, so client failure
  // reports against a *master* are addressable by the same HealthTracker
  // machinery that covers block servers.
  ServerAddress address{"master", 0};
};

class Master {
 public:
  Master();

  // ---- catalog ----
  // Register a dataset: its layout plus the addresses of the servers
  // holding its stripes (order defines the striping).  On a sharded
  // deployment this must run on the owning shard's leader: the mutation
  // is validated, appended to the replicated log, applied to the catalog
  // state machine, and pushed to the shard's followers.
  core::Status register_dataset(const std::string& name,
                                const DatasetLayout& layout,
                                std::vector<ServerAddress> servers,
                                const PlacementOptions& placement = {});
  core::Result<OpenReply> lookup(const std::string& name,
                                 std::uint64_t known_epoch = 0) const;
  std::vector<std::string> dataset_names() const;

  // Placement map snapshot for a ring-placed dataset (null for classic
  // striped datasets and unknown names).
  std::shared_ptr<const placement::PlacementMap> placement_map(
      const std::string& name) const;

  // Recompute placement over `new_servers` (a join, leave, or death) and
  // swap it in; returns the executed copy/drop plan.  `executor` runs the
  // plan against the block stores *while the catalog entry is locked and
  // still pointing at the old map*, so no open() can observe the new
  // assignment before its copies exist; the swap happens only if the
  // executor succeeds (a null executor swaps unconditionally -- callers
  // that move no data, e.g. tests of the planning itself).  The dataset's
  // configured replication factor is preserved: shrinking below it only
  // clamps the active map, and a later rebalance over enough servers
  // restores full replication.
  core::Result<placement::RebalancePlan> rebalance_dataset(
      const std::string& name, std::vector<ServerAddress> new_servers,
      const std::function<core::Status(const placement::RebalancePlan&)>&
          executor = nullptr);

  // ---- sharded metadata plane ----
  // Place this master in a shard: its shard id within `shard_map`, its
  // leader/follower role, and its own wire identity.  `peers` opens
  // transports to other masters (followers for replication, other shards'
  // leaders for open forwarding); null disables both, which is the
  // legacy single-master mode.
  void configure_meta(MetaConfig config, Connector peers = nullptr);
  // The followers this leader replicates appends to.
  void set_followers(std::vector<ServerAddress> followers);
  // Where the leader of `shard` currently lives, for open forwarding and
  // client redirects.  Updated by the cluster harness on elections.
  void set_shard_leader(std::uint32_t shard, const ServerAddress& leader);
  // Follower -> leader promotion (HealthTracker declared the old leader
  // dead).  Counts toward dpss_meta_leader_elections_total.
  void promote_to_leader();
  bool is_leader() const;
  std::uint32_t shard_id() const;
  const ServerAddress& address() const { return address_; }
  // The shard log's current epoch (== the catalog's max applied epoch).
  std::uint64_t meta_epoch() const { return meta_log_.last_epoch(); }
  meta::Catalog& catalog() { return catalog_; }
  const meta::Catalog& catalog() const { return catalog_; }
  meta::ReplicatedLog& meta_log() { return meta_log_; }
  meta::GenerationGossip& gossip() { return gossip_; }
  MetaStatus meta_status() const;
  // Pull-based follower catch-up: fetch the leader's log since our epoch
  // (snapshot on gap) over the peer connector and apply it.
  core::Status catch_up(const ServerAddress& leader);
  std::uint64_t leader_elections() const;

  // Generation source for rebalance planning (satellite: ROADMAP 2d).
  // Wired by deployments to query the block stores: returns the min
  // generation stamp server `server` holds across `group`'s blocks of
  // `dataset`, or -1 when it does not hold the whole group.  The master
  // binds the dataset when planning; null plans generation-blind, exactly
  // as before.
  using DatasetGenerationView = std::function<std::int64_t(
      const std::string& dataset, const ServerAddress& server,
      std::uint64_t group)>;
  void set_generation_view(DatasetGenerationView view);

  // ---- health / load ----
  placement::HealthTracker& health() { return health_; }
  const placement::HealthTracker& health() const { return health_; }
  void heartbeat(const ServerAddress& server, std::uint64_t requests_served,
                 double now = 0.0);
  void report_failure(const ServerAddress& server);

  // ---- background re-replication ----
  // Arm the watcher: `executor` moves the planned blocks/slices (the
  // deployment's apply_rebalance_plan closure), exactly as for an
  // operator-driven rebalance_dataset.
  void enable_auto_rebalance(
      AutoRebalanceConfig config,
      std::function<core::Status(const placement::RebalancePlan&)> executor);
  // Drive staleness demotion, the down-deadline watcher, and the ingest
  // fixup queue on the caller's clock (seconds; deployments and tests pass
  // explicit times so transitions stay deterministic).  Returns the
  // datasets rebalanced at this tick.
  std::vector<std::string> tick(double now);

  // ---- ingest fixups ----
  // Replicas/parity owners that missed a write's generation, reported by
  // clients (kFixupReport) and drained from tick() through the fixup
  // executor (the deployment's apply_fixup closure).  A task that keeps
  // failing is retried up to kMaxFixupAttempts ticks, then dropped.
  static constexpr int kMaxFixupAttempts = 3;
  void set_fixup_executor(
      std::function<core::Status(const ingest::FixupTask&)> executor);
  void report_fixup(const ingest::FixupTask& task);
  std::size_t fixup_depth() const { return fixups_.depth(); }
  std::uint64_t fixups_applied() const { return fixups_applied_.value(); }
  std::uint64_t fixups_dropped() const { return fixups_dropped_.value(); }
  std::uint64_t fixups_enqueued() const { return fixups_.enqueued(); }

  // ---- access control ----
  // With an empty ACL every token is accepted; otherwise the OPEN token
  // must be present in the set.
  void set_acl(std::set<std::string> allowed_tokens);

  // ---- service ----
  // One request in, one reply out: what the master's reactor door runs for
  // each request (inline on its loops in a Deployment, on an elastic pool
  // in a MetaCluster, whose members call each other from inside it).
  // Thread-safe.
  net::Message handle_request(net::Message&& msg);

  // Per-request read timeouts the transport observed on master connections.
  void note_read_timeout() { read_timeouts_.inc(); }
  std::uint64_t read_timeouts() const { return read_timeouts_.value(); }

  std::uint64_t opens_served() const { return opens_.value(); }

  // The master's metrics plane (control-path counters, fixup queue depth,
  // request latency), the text of an IntrospectKind::kStats request.
  obs::MetricsRegistry& metrics_registry() { return registry_; }

  // ---- trace aggregation + alerting (PR 8) ----
  // The master doubles as the deployment's span collector: components ship
  // their finished spans via kSpanExportRequest, tick() finalizes traces
  // that have gone idle, and the collector's stage histograms + exemplars
  // ride the master's kStats introspection text.
  obs::SpanCollector& span_collector() { return collector_; }
  const obs::SpanCollector& span_collector() const { return collector_; }

  // Alert rules evaluated against a registry scrape on every tick(now)
  // (tick's `now` is the scrape clock, so campaigns and tests control the
  // burn-rate windows).  Rules use AlertRule::parse syntax; an unparsable
  // rule is returned as the error.
  core::Status enable_alerts(const std::vector<std::string>& rules);
  obs::AlertEngine& alert_engine() { return alerts_; }

  // Seconds a trace must sit idle (no new spans) before tick() finalizes
  // it -- measured on the real clock the RPC arrival stamps use.  0
  // finalizes everything assembled at each tick.
  void set_trace_linger(double seconds) { trace_linger_.store(seconds); }

  // The IntrospectKind::kTraceReport text: slowest-trace critical-path
  // breakdowns plus alert status lines.
  std::string trace_report();

  // Optional NetLogger: traced requests emit DPSS_MASTER_IN/OUT lifeline
  // events through it.
  void set_logger(std::shared_ptr<netlog::NetLogger> logger) {
    logger_ = std::move(logger);
  }

 private:
  // Push `entry` to every follower, resending the gap (or a snapshot)
  // when one lags.  Best effort: a dead follower is tolerated -- it
  // catches up on rejoin -- but failures count toward
  // dpss_meta_replication_failures_total.
  void replicate_to_followers(const meta::LogEntry& entry);
  // Forward an open this shard does not own to the owner's leader and
  // relay the reply verbatim.
  core::Result<net::Message> forward_open(std::uint32_t owner,
                                          const net::Message& msg);
  net::Message handle_meta_append(const net::Message& msg);
  net::Message handle_placement_delta(const net::Message& msg);

  mutable std::mutex mu_;
  // The catalog state machine + replicated log this master fronts.  Both
  // lock internally; mu_ additionally serialises the *mutation* path
  // (validate -> append -> apply -> replicate must not interleave).
  meta::Catalog catalog_;
  meta::ReplicatedLog meta_log_;
  meta::GenerationGossip gossip_;
  meta::ShardMap shard_map_;
  std::uint32_t shard_id_ = 0;
  std::atomic<bool> is_leader_{true};
  ServerAddress address_{"master", 0};
  Connector peers_;
  std::vector<ServerAddress> followers_;
  std::map<std::uint32_t, ServerAddress> shard_leaders_;
  // Last epoch each follower acked, keyed by address key().
  std::map<std::string, std::uint64_t> follower_epochs_;
  DatasetGenerationView generation_view_;
  std::set<std::string> acl_;
  bool acl_enabled_ = false;
  placement::HealthTracker health_;
  // Auto-rebalance state (guarded by mu_): when each server was first
  // *observed* down by tick(), keyed by address key().
  bool auto_rebalance_enabled_ = false;
  AutoRebalanceConfig auto_config_;
  std::function<core::Status(const placement::RebalancePlan&)> auto_executor_;
  std::map<std::string, double> down_since_;
  // Ingest pipeline state.  The queue has its own lock; the executor is
  // guarded by mu_.
  ingest::FixupQueue fixups_;
  std::function<core::Status(const ingest::FixupTask&)> fixup_executor_;
  // Metrics plane: registry_ precedes the instrument references it backs.
  obs::MetricsRegistry registry_;
  obs::Counter& opens_;
  obs::Counter& read_timeouts_;
  obs::Counter& heartbeats_;
  obs::Counter& failure_reports_;
  obs::Counter& fixups_applied_;
  obs::Counter& fixups_dropped_;
  // Metadata plane counters (PR 9).
  obs::Counter& meta_log_appends_;
  obs::Counter& meta_delta_opens_;
  obs::Counter& meta_snapshot_opens_;
  obs::Counter& meta_forwarded_opens_;
  obs::Counter& meta_leader_elections_;
  obs::Counter& meta_replication_failures_;
  obs::Histogram& request_seconds_;
  // Analysis plane: span collector + alert engine.  Both are internally
  // locked; alerts_enabled_ gates the per-tick registry scrape.
  obs::SpanCollector collector_;
  obs::AlertEngine alerts_;
  std::atomic<bool> alerts_enabled_{false};
  std::atomic<double> trace_linger_{0.5};
  std::shared_ptr<netlog::NetLogger> logger_;
  std::atomic<std::uint64_t> next_handle_{1};
};

}  // namespace visapult::dpss
