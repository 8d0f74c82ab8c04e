#include "dpss/master.h"

#include <algorithm>

#include "obs/profiler.h"

namespace visapult::dpss {

Master::Master()
    : opens_(registry_.counter("dpss_master_opens_total")),
      read_timeouts_(registry_.counter("dpss_master_read_timeouts_total")),
      heartbeats_(registry_.counter("dpss_master_heartbeats_total")),
      failure_reports_(
          registry_.counter("dpss_master_failure_reports_total")),
      fixups_applied_(registry_.counter("dpss_master_fixups_applied_total")),
      fixups_dropped_(registry_.counter("dpss_master_fixups_dropped_total")),
      meta_log_appends_(registry_.counter("dpss_meta_log_appends_total")),
      meta_delta_opens_(registry_.counter("dpss_meta_delta_opens_total")),
      meta_snapshot_opens_(
          registry_.counter("dpss_meta_snapshot_opens_total")),
      meta_forwarded_opens_(
          registry_.counter("dpss_meta_forwarded_opens_total")),
      meta_leader_elections_(
          registry_.counter("dpss_meta_leader_elections_total")),
      meta_replication_failures_(
          registry_.counter("dpss_meta_replication_failures_total")),
      request_seconds_(registry_.histogram("dpss_master_request_seconds")) {
  registry_.add_collector([this](std::vector<obs::Sample>& out) {
    out.push_back({"dpss_master_fixup_depth", "",
                   static_cast<double>(fixup_depth())});
    out.push_back({"dpss_master_fixups_enqueued_total", "",
                   static_cast<double>(fixups_enqueued())});
  });
  // Metadata plane gauges: the shard's log epoch, its role, and how far
  // its slowest follower trails the log (0 with no followers).
  registry_.add_collector([this](std::vector<obs::Sample>& out) {
    const std::uint64_t epoch = meta_log_.last_epoch();
    out.push_back({"dpss_meta_epoch", "", static_cast<double>(epoch)});
    out.push_back(
        {"dpss_meta_is_leader", "", is_leader_.load() ? 1.0 : 0.0});
    std::lock_guard lk(mu_);
    out.push_back(
        {"dpss_meta_shard_id", "", static_cast<double>(shard_id_)});
    std::uint64_t lag = 0;
    for (const auto& f : followers_) {
      const auto it = follower_epochs_.find(f.key());
      const std::uint64_t acked =
          it == follower_epochs_.end() ? 0 : it->second;
      lag = std::max(lag, epoch - std::min(epoch, acked));
    }
    out.push_back(
        {"dpss_meta_follower_lag", "", static_cast<double>(lag)});
  });
  // The analysis plane rides the master's exposition: trace stage
  // histograms + slowest-trace exemplars, and per-rule alert status.
  registry_.add_collector([this](std::vector<obs::Sample>& out) {
    collector_.collect_samples(out);
    alerts_.collect_samples(out);
  });
}

core::Status Master::register_dataset(const std::string& name,
                                      const DatasetLayout& layout,
                                      std::vector<ServerAddress> servers,
                                      const PlacementOptions& placement) {
  meta::LogEntry entry;
  entry.kind = meta::EntryKind::kRegister;
  entry.dataset = name;
  entry.layout = layout;
  entry.placement = placement;
  entry.servers = std::move(servers);
  std::lock_guard lk(mu_);
  if (!is_leader_.load()) {
    return core::failed_precondition(
        "not the shard leader for dataset " + name);
  }
  if (auto st = catalog_.validate(entry); !st.is_ok()) return st;
  entry.epoch = meta_log_.append(entry);
  meta_log_appends_.inc();
  if (auto st = catalog_.apply(entry); !st.is_ok()) return st;
  replicate_to_followers(entry);
  return core::Status::ok();
}

core::Result<OpenReply> Master::lookup(const std::string& name,
                                       std::uint64_t known_epoch) const {
  auto found = catalog_.lookup(name);
  if (!found) {
    return core::not_found("dataset not registered: " + name);
  }
  const meta::CatalogEntry& entry = *found;
  OpenReply reply;
  reply.handle = 0;  // assigned by the service loop
  reply.catalog_epoch = entry.epoch;
  reply.max_generation = gossip_.floor(name);
  reply.cache_hint = gossip_.hint(name);
  if (known_epoch != 0 && known_epoch == entry.epoch) {
    // The client's cached placement is current: skip the snapshot (and
    // the health/load scan) entirely -- this is the delta-open fast path.
    reply.not_modified = true;
    return reply;
  }
  reply.layout = entry.layout;
  reply.servers = entry.servers;
  // Effective factor: the configured one, clamped to the current
  // membership (matches the active map after a shrinking rebalance).
  reply.replication_factor = static_cast<std::uint32_t>(
      std::min<std::size_t>(entry.placement.replication_factor,
                            entry.servers.size()));
  reply.ring_vnodes =
      entry.placement.uses_ring()
          ? (entry.placement.ring_vnodes > 0
                 ? entry.placement.ring_vnodes
                 : static_cast<std::uint32_t>(placement::kDefaultVnodes))
          : 0;
  reply.ec = entry.placement.ec;
  // Health/load snapshot taken outside mu_: the tracker has its own lock.
  reply.server_health.reserve(reply.servers.size());
  reply.server_load.reserve(reply.servers.size());
  for (const auto& addr : reply.servers) {
    reply.server_health.push_back(health_.state(addr));
    reply.server_load.push_back(health_.load(addr));
  }
  return reply;
}

std::shared_ptr<const placement::PlacementMap> Master::placement_map(
    const std::string& name) const {
  auto found = catalog_.lookup(name);
  return found ? found->map : nullptr;
}

core::Result<placement::RebalancePlan> Master::rebalance_dataset(
    const std::string& name, std::vector<ServerAddress> new_servers,
    const std::function<core::Status(const placement::RebalancePlan&)>&
        executor) {
  if (new_servers.empty()) {
    return core::invalid_argument("rebalance needs at least one server");
  }
  std::lock_guard lk(mu_);
  if (!is_leader_.load()) {
    return core::failed_precondition(
        "not the shard leader for dataset " + name);
  }
  auto found = catalog_.lookup(name);
  if (!found) {
    return core::not_found("dataset not registered: " + name);
  }
  const meta::CatalogEntry entry = *found;
  if (!entry.map) {
    return core::failed_precondition(
        "dataset uses classic striping; re-ingest with a replication "
        "factor to enable rebalancing");
  }
  // The *configured* replication factor is kept in the catalog entry; only
  // the map built over the current membership is clamped, so a shrink to
  // one server followed by a regrow restores full replication.
  PlacementOptions active = entry.placement;
  if (active.ec.enabled() &&
      active.ec.total_slices() > new_servers.size()) {
    // An EC group cannot shed slices the way replication sheds copies:
    // fewer than k+m distinct servers cannot hold a stripe at all.
    return core::failed_precondition(
        "EC dataset needs " + std::to_string(active.ec.total_slices()) +
        " servers; only " + std::to_string(new_servers.size()) + " offered");
  }
  if (active.replication_factor > new_servers.size()) {
    active.replication_factor =
        static_cast<std::uint32_t>(new_servers.size());
  }
  auto new_map =
      meta::Catalog::build_map(name, entry.layout, new_servers, active);
  placement::GenerationView gen_view;
  if (generation_view_) {
    gen_view = [view = generation_view_, name](const ServerAddress& server,
                                               std::uint64_t group) {
      return view(name, server, group);
    };
  }
  placement::RebalancePlan plan =
      placement::Rebalancer::plan(*entry.map, *new_map, gen_view);
  // The executor's slice reconstruction pads and trims with the dataset's
  // byte geometry, which only the catalog knows.
  plan.block_bytes = entry.layout.block_bytes;
  plan.total_bytes = entry.layout.total_bytes;
  if (executor) {
    // Move the blocks while the catalog still serves the old map: an
    // open() concurrent with the rebalance never routes reads to a
    // replica that does not hold its blocks yet.
    if (auto st = executor(plan); !st.is_ok()) return st;
  }
  // Commit: the map swap is a log entry, replicated to the shard's
  // followers like every other catalog mutation.
  meta::LogEntry le;
  le.kind = meta::EntryKind::kUpdate;
  le.dataset = name;
  le.layout = entry.layout;
  le.layout.server_count = static_cast<std::uint32_t>(new_servers.size());
  le.placement = entry.placement;
  le.servers = std::move(new_servers);
  le.epoch = meta_log_.append(le);
  meta_log_appends_.inc();
  if (auto st = catalog_.apply(le); !st.is_ok()) return st;
  replicate_to_followers(le);
  return plan;
}

// ---- sharded metadata plane -------------------------------------------------

void Master::configure_meta(MetaConfig config, Connector peers) {
  std::lock_guard lk(mu_);
  shard_map_ = std::move(config.shard_map);
  shard_id_ = config.shard_id;
  is_leader_.store(config.is_leader);
  address_ = std::move(config.address);
  peers_ = std::move(peers);
}

void Master::set_followers(std::vector<ServerAddress> followers) {
  std::lock_guard lk(mu_);
  followers_ = std::move(followers);
}

void Master::set_shard_leader(std::uint32_t shard,
                              const ServerAddress& leader) {
  std::lock_guard lk(mu_);
  shard_leaders_[shard] = leader;
}

void Master::promote_to_leader() {
  if (!is_leader_.exchange(true)) meta_leader_elections_.inc();
}

bool Master::is_leader() const { return is_leader_.load(); }

std::uint32_t Master::shard_id() const {
  std::lock_guard lk(mu_);
  return shard_id_;
}

std::uint64_t Master::leader_elections() const {
  return meta_leader_elections_.value();
}

void Master::set_generation_view(DatasetGenerationView view) {
  std::lock_guard lk(mu_);
  generation_view_ = std::move(view);
}

MetaStatus Master::meta_status() const {
  MetaStatus s;
  std::lock_guard lk(mu_);
  s.shard_id = shard_id_;
  s.shard_count = shard_map_.shard_count();
  s.is_leader = is_leader_.load();
  s.epoch = meta_log_.last_epoch();
  s.address = address_;
  s.datasets = catalog_.size();
  s.delta_opens = meta_delta_opens_.value();
  s.snapshot_opens = meta_snapshot_opens_.value();
  s.forwarded_opens = meta_forwarded_opens_.value();
  s.leader_elections = meta_leader_elections_.value();
  return s;
}

void Master::replicate_to_followers(const meta::LogEntry& entry) {
  // Called under mu_, which serialises the mutation path -- entries reach
  // each follower in epoch order.
  if (!peers_ || followers_.empty()) return;
  auto push = [this](const ServerAddress& to, const meta::LogEntry& e)
      -> core::Result<MetaAppendReply> {
    auto stream = peers_(to);
    if (!stream.is_ok()) return stream.status();
    MetaAppendRequest req;
    req.entry = e;
    if (auto st = net::send_message(*stream.value(), encode(req));
        !st.is_ok()) {
      return st;
    }
    auto raw = net::recv_message(*stream.value());
    if (!raw.is_ok()) return raw.status();
    return decode<MetaAppendReply>(raw.value());
  };
  for (const auto& f : followers_) {
    auto r = push(f, entry);
    bool ok = false;
    if (r.is_ok() && r.value().accepted) {
      follower_epochs_[f.key()] = r.value().follower_epoch;
      ok = true;
    } else if (r.is_ok()) {
      // The follower is not at entry.epoch - 1: resend the gap from its
      // acked epoch.  A follower behind the retention window pulls a
      // snapshot itself (catch_up) instead.
      if (auto gap = meta_log_.entries_since(r.value().follower_epoch)) {
        ok = true;
        for (const auto& e : *gap) {
          auto rr = push(f, e);
          if (!rr.is_ok() || !rr.value().accepted) {
            ok = false;
            break;
          }
          follower_epochs_[f.key()] = rr.value().follower_epoch;
        }
      }
    }
    // Best effort: a dead follower is tolerated (it re-syncs on rejoin),
    // but the miss is visible in metrics.
    if (!ok) meta_replication_failures_.inc();
  }
}

core::Result<net::Message> Master::forward_open(std::uint32_t owner,
                                                const net::Message& msg) {
  ServerAddress leader;
  Connector peers;
  {
    std::lock_guard lk(mu_);
    peers = peers_;
    auto it = shard_leaders_.find(owner);
    if (it == shard_leaders_.end()) {
      return core::unavailable("no known leader for meta shard " +
                               std::to_string(owner));
    }
    leader = it->second;
  }
  if (!peers) return core::unavailable("no peer connector configured");
  auto stream = peers(leader);
  if (!stream.is_ok()) return stream.status();
  if (auto st = net::send_message(*stream.value(), msg); !st.is_ok()) {
    return st;
  }
  return net::recv_message(*stream.value());
}

core::Status Master::catch_up(const ServerAddress& leader) {
  Connector peers;
  {
    std::lock_guard lk(mu_);
    peers = peers_;
  }
  if (!peers) return core::unavailable("no peer connector configured");
  auto stream = peers(leader);
  if (!stream.is_ok()) return stream.status();
  PlacementDeltaRequest req;
  req.since_epoch = meta_log_.last_epoch();
  if (auto st = net::send_message(*stream.value(), encode(req));
      !st.is_ok()) {
    return st;
  }
  auto raw = net::recv_message(*stream.value());
  if (!raw.is_ok()) return raw.status();
  auto reply = decode<PlacementDeltaReply>(raw.value());
  if (!reply.is_ok()) return reply.status();
  std::lock_guard lk(mu_);
  if (reply.value().snapshot) {
    // Too far behind the leader's window: rebuild from the snapshot and
    // jump the log to the leader's epoch.
    for (const auto& e : reply.value().entries) {
      if (auto st = catalog_.apply(e); !st.is_ok()) return st;
    }
    meta_log_.reset(reply.value().epoch);
  } else {
    for (const auto& e : reply.value().entries) {
      if (meta_log_.accept(e)) {
        if (auto st = catalog_.apply(e); !st.is_ok()) return st;
      }
    }
  }
  return core::Status::ok();
}

net::Message Master::handle_meta_append(const net::Message& msg) {
  auto req = decode<MetaAppendRequest>(msg);
  if (!req.is_ok()) return encode_error_reply(req.status());
  MetaAppendReply reply;
  std::lock_guard lk(mu_);
  if (meta_log_.accept(req.value().entry)) {
    // accept() admits exactly the next epoch, so apply cannot regress.
    if (catalog_.apply(req.value().entry).is_ok()) reply.accepted = true;
  }
  reply.follower_epoch = meta_log_.last_epoch();
  return encode(reply);
}

net::Message Master::handle_placement_delta(const net::Message& msg) {
  auto req = decode<PlacementDeltaRequest>(msg);
  if (!req.is_ok()) return encode_error_reply(req.status());
  const PlacementDeltaRequest& q = req.value();
  PlacementDeltaReply reply;
  if (q.dataset.empty()) {
    // Whole-shard sync (follower catch-up, tooling).
    reply.epoch = meta_log_.last_epoch();
    if (auto entries = meta_log_.entries_since(q.since_epoch)) {
      reply.entries = std::move(*entries);
    } else {
      reply.snapshot = true;
      reply.entries = catalog_.snapshot();
    }
    return encode(reply);
  }
  auto found = catalog_.lookup(q.dataset);
  if (!found) {
    return encode_error_reply(
        core::not_found("dataset not registered: " + q.dataset));
  }
  reply.epoch = found->epoch;
  if (q.since_epoch >= found->epoch) {
    // Already current: empty delta.
    return encode(reply);
  }
  if (auto entries = meta_log_.entries_since(q.since_epoch)) {
    for (auto& e : *entries) {
      if (e.dataset == q.dataset) reply.entries.push_back(std::move(e));
    }
  } else {
    // Window pruned: one self-contained register entry *is* the dataset's
    // snapshot (entries carry full state, not diffs).
    reply.snapshot = true;
    meta::LogEntry le;
    le.epoch = found->epoch;
    le.kind = meta::EntryKind::kRegister;
    le.dataset = q.dataset;
    le.layout = found->layout;
    le.placement = found->placement;
    le.servers = found->servers;
    reply.entries.push_back(std::move(le));
  }
  return encode(reply);
}

void Master::heartbeat(const ServerAddress& server,
                       std::uint64_t requests_served, double now) {
  health_.heartbeat(server, requests_served, now);
}

void Master::report_failure(const ServerAddress& server) {
  health_.report_failure(server);
}

void Master::enable_auto_rebalance(
    AutoRebalanceConfig config,
    std::function<core::Status(const placement::RebalancePlan&)> executor) {
  std::lock_guard lk(mu_);
  auto_rebalance_enabled_ = true;
  auto_config_ = config;
  auto_executor_ = std::move(executor);
}

void Master::set_fixup_executor(
    std::function<core::Status(const ingest::FixupTask&)> executor) {
  std::lock_guard lk(mu_);
  fixup_executor_ = std::move(executor);
}

void Master::report_fixup(const ingest::FixupTask& task) {
  fixups_.push(task);
}

core::Status Master::enable_alerts(const std::vector<std::string>& rules) {
  for (const std::string& text : rules) {
    auto st = alerts_.add_rule(text);
    if (!st.is_ok()) return st;
  }
  alerts_enabled_.store(true);
  return core::Status::ok();
}

std::string Master::trace_report() {
  return collector_.render_report(5) + alerts_.render_text();
}

std::vector<std::string> Master::tick(double now) {
  OBS_STAGE("master.tick");
  health_.tick(now);

  // Hotness decays with the tick clock, not with traffic.
  gossip_.decay();

  // Analysis plane: finalize traces that have gone idle (idleness measured
  // on the real clock their ingest stamps used), then scrape the registry
  // into the alert rules with the caller's `now` as the window clock.
  collector_.finalize_idle(core::global_real_clock().now(),
                           trace_linger_.load());
  if (alerts_enabled_.load()) alerts_.scrape(registry_.samples(), now);

  // Drain the ingest fixup queue: every task re-syncs one replica (or
  // parity owner) that missed a generation.  Failures requeue with a
  // bumped attempt count -- the lagging server may simply still be down --
  // until the retry budget runs out.
  std::function<core::Status(const ingest::FixupTask&)> fixup_executor;
  {
    std::lock_guard lk(mu_);
    fixup_executor = fixup_executor_;
  }
  if (fixup_executor && fixups_.depth() > 0) {
    for (ingest::FixupTask& task : fixups_.drain()) {
      if (fixup_executor(task).is_ok()) {
        fixups_applied_.inc();
        continue;
      }
      if (++task.attempts >= kMaxFixupAttempts) {
        fixups_dropped_.inc();
      } else {
        fixups_.push(task);
      }
    }
  }

  // Track when each down server was first observed; a server that comes
  // back (heartbeat rejoin) clears its entry.
  std::vector<ServerAddress> down, overdue;
  for (const auto& entry : health_.snapshot()) {
    if (entry.state == placement::HealthState::kDown) {
      down.push_back(entry.server);
    }
  }
  std::function<core::Status(const placement::RebalancePlan&)> executor;
  std::vector<std::pair<std::string, std::vector<ServerAddress>>> work;
  {
    std::lock_guard lk(mu_);
    std::map<std::string, double> still_down;
    for (const auto& addr : down) {
      const auto it = down_since_.find(addr.key());
      const double since = it == down_since_.end() ? now : it->second;
      still_down[addr.key()] = since;
      if (auto_rebalance_enabled_ &&
          now - since >= auto_config_.down_deadline_seconds) {
        overdue.push_back(addr);
      }
    }
    down_since_ = std::move(still_down);
    // Only a leader may mutate placement; a follower just tracks health.
    if (overdue.empty() || !is_leader_.load()) return {};
    executor = auto_executor_;

    auto is_down = [&down](const ServerAddress& a) {
      for (const auto& d : down) {
        if (d == a) return true;
      }
      return false;
    };
    auto is_overdue = [&overdue](const ServerAddress& a) {
      for (const auto& o : overdue) {
        if (o == a) return true;
      }
      return false;
    };
    for (const auto& name : catalog_.names()) {
      auto entry = catalog_.lookup(name);
      if (!entry || !entry->map) continue;  // classic stripes cannot rebalance
      bool triggered = false;
      std::vector<ServerAddress> live;
      for (const auto& addr : entry->servers) {
        if (is_overdue(addr)) triggered = true;
        if (!is_down(addr)) live.push_back(addr);
      }
      if (!triggered || live.empty() ||
          live.size() == entry->servers.size()) {
        continue;
      }
      work.emplace_back(name, std::move(live));
    }
  }

  // Execute outside mu_: rebalance_dataset takes the lock itself, and the
  // executor moves real data.
  std::vector<std::string> rebalanced;
  for (auto& [name, live] : work) {
    if (rebalance_dataset(name, std::move(live), executor).is_ok()) {
      rebalanced.push_back(name);
    }
  }
  return rebalanced;
}

std::vector<std::string> Master::dataset_names() const {
  return catalog_.names();
}

void Master::set_acl(std::set<std::string> allowed_tokens) {
  std::lock_guard lk(mu_);
  acl_ = std::move(allowed_tokens);
  acl_enabled_ = true;
}

net::Message Master::handle_request(net::Message&& msg) {
  OBS_STAGE("master.request");
  const obs::TraceContext trace{msg.trace_id, msg.span_id};
  const double t0 = core::global_real_clock().now();
  if (trace.sampled() && logger_) {
    logger_->log(netlog::tags::kDpssMasterIn, -1, -1,
                 {{"TRACE", obs::trace_hex(trace.trace_id)},
                  {"SPAN", obs::trace_hex(trace.span_id)},
                  {"TYPE", std::to_string(msg.type)}});
  }
  net::Message reply;
  if (msg.type == kOpenRequest) {
    OBS_STAGE("master.open");
    auto req = decode<OpenRequest>(msg);
    if (!req.is_ok()) {
      reply = encode_error_reply(req.status());
    } else {
      bool allowed;
      bool forward = false;
      std::uint32_t owner = 0;
      {
        std::lock_guard lk(mu_);
        allowed = !acl_enabled_ || acl_.count(req.value().auth_token) > 0;
        owner = shard_map_.shard_for(req.value().dataset);
        forward = owner != shard_id_ && peers_ != nullptr;
      }
      if (!allowed) {
        reply = encode_error_reply(core::permission_denied(
            "token rejected for dataset " + req.value().dataset));
      } else if (forward) {
        // Any shard answers any open: relay to the owner's leader.
        auto relayed = forward_open(owner, msg);
        if (!relayed.is_ok()) {
          reply = encode_error_reply(relayed.status());
        } else {
          meta_forwarded_opens_.inc();
          reply = std::move(relayed).take();
        }
      } else {
        auto found =
            lookup(req.value().dataset, req.value().known_epoch);
        if (!found.is_ok()) {
          reply = encode_error_reply(found.status());
        } else {
          OpenReply r = std::move(found).take();
          r.handle = next_handle_.fetch_add(1);
          opens_.inc();
          gossip_.note_open(req.value().dataset);
          if (r.not_modified) {
            meta_delta_opens_.inc();
          } else {
            meta_snapshot_opens_.inc();
          }
          reply = encode(r);
        }
      }
    }
  } else if (msg.type == kHeartbeat) {
    auto req = decode<HeartbeatRequest>(msg);
    if (!req.is_ok()) {
      reply = encode_error_reply(req.status());
    } else {
      heartbeats_.inc();
      heartbeat(req.value().server, req.value().requests_served);
      // Gossip: merge the server's per-dataset generations upward, hand
      // the merged floors back down on the same beat.
      gossip_.merge(req.value().floors);
      reply = encode(HeartbeatReply{gossip_.snapshot()});
    }
  } else if (msg.type == kFailureReport) {
    auto req = decode<FailureReport>(msg);
    if (!req.is_ok()) {
      reply = encode_error_reply(req.status());
    } else {
      failure_reports_.inc();
      report_failure(req.value().server);
      reply.type = kFailureReportReply;
    }
  } else if (msg.type == kFixupReport) {
    auto req = decode<FixupReport>(msg);
    if (!req.is_ok()) {
      reply = encode_error_reply(req.status());
    } else {
      ingest::FixupTask task;
      task.dataset = req.value().dataset;
      task.block = req.value().block;
      task.generation = req.value().generation;
      task.target = req.value().target;
      report_fixup(task);
      reply.type = kFixupReportReply;
    }
  } else if (msg.type == kPlacementDeltaRequest) {
    reply = handle_placement_delta(msg);
  } else if (msg.type == kMetaAppendRequest) {
    reply = handle_meta_append(msg);
  } else if (msg.type == kMetaStatusRequest) {
    reply = encode(meta_status());
  } else if (msg.type == kIntrospectRequest) {
    auto req = decode<IntrospectRequest>(msg);
    if (!req.is_ok()) {
      reply = encode_error_reply(req.status());
    } else {
      IntrospectReply r;
      switch (req.value().kind) {
        case IntrospectKind::kStats:
          r.text = registry_.render_text();
          break;
        case IntrospectKind::kTraceReport:
          r.text = trace_report();
          break;
        case IntrospectKind::kProfile:
          r.text = obs::Profiler::global().render_collapsed();
          break;
      }
      reply = encode(r);
    }
  } else if (msg.type == kSpanExportRequest) {
    auto req = decode<SpanExportBatch>(msg);
    if (!req.is_ok()) {
      reply = encode_error_reply(req.status());
    } else {
      const SpanExportBatch& batch = req.value();
      const std::uint64_t accepted =
          collector_.ingest(batch.host, batch.sent_at,
                            core::global_real_clock().now(), batch.spans);
      reply = encode(SpanExportReply{accepted});
    }
  } else {
    reply = encode_error_reply(
        core::invalid_argument("unknown request type at master"));
  }
  request_seconds_.observe(
      std::max(0.0, core::global_real_clock().now() - t0));
  if (trace.sampled()) {
    reply.trace_id = trace.trace_id;
    reply.span_id = trace.span_id;
    if (logger_) {
      logger_->log(netlog::tags::kDpssMasterOut, -1, -1,
                   {{"TRACE", obs::trace_hex(trace.trace_id)},
                    {"SPAN", obs::trace_hex(trace.span_id)}});
    }
  }
  return reply;
}

}  // namespace visapult::dpss
