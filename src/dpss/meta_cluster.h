// In-process sharded metadata cluster.
//
// Wires `shards x replicas` Masters into the full sharded topology: each
// shard has one leader replicating its catalog log to the shard's
// followers, every member knows every shard's current leader (for open
// forwarding), and clients dial any member through connector().  Each
// member is served through its own reactor door (net/reactor_server.h),
// reached over socketpairs; the doors share one event loop and run their
// handlers on one elastic pool, because a member calls other members from
// inside a handler (forwarded opens, follower replication) and a handler
// waiting on a member whose handler ran inline on the same loop would
// never get its reply.  kill() closes a member's door -- clients fail over
// to the shard's survivors and report the death, and tick() runs the
// leader election off that HealthTracker evidence: the live member with
// the highest log epoch promotes, the others re-point their forwarding
// tables.  This is the harness the meta integration tests, the campaign
// fault scenario, bench_meta and dpss_tool meta all drive.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/thread_pool.h"
#include "dpss/master.h"
#include "dpss/protocol.h"
#include "meta/shard_map.h"
#include "net/reactor.h"
#include "net/reactor_server.h"

namespace visapult::dpss {

class MetaCluster {
 public:
  // `replicas` members per shard; member 0 of each shard starts as its
  // leader.
  MetaCluster(std::uint32_t shards, std::uint32_t replicas);
  ~MetaCluster();

  std::uint32_t shard_count() const { return shards_; }
  std::uint32_t replica_count() const { return replicas_; }
  const meta::ShardMap& shard_map() const { return shard_map_; }

  Master& member(std::uint32_t shard, std::uint32_t replica);
  ServerAddress address(std::uint32_t shard, std::uint32_t replica) const;
  // Member lists per shard, current-leader first -- the shape
  // DpssClient::enable_sharded_meta() takes.
  std::vector<std::vector<ServerAddress>> member_addresses() const;

  // The shard's current leader, or null when every member is dead.
  Master* leader(std::uint32_t shard);
  // Replica index of the shard's current (live) leader, or -1 when none
  // -- what a fault scenario needs to aim a kill() at the leader.
  int leader_replica(std::uint32_t shard) const;
  // The leader of the shard owning `dataset` (routing helper for
  // registration and rebalance, which must run on the owner's leader).
  Master* owner_leader(const std::string& dataset);

  // Register through the owning shard's leader (validates, appends to the
  // shard log, replicates to its followers).
  core::Status register_dataset(const std::string& name,
                                const DatasetLayout& layout,
                                std::vector<ServerAddress> servers,
                                const PlacementOptions& placement = {});

  // Transport into the cluster: a socketpair into the door at any
  // member's address, refused once the member is killed, exactly like a
  // dead machine.  Used by clients, follower replication, and cross-shard
  // open forwarding alike.
  Connector connector();

  // Kill a member: its door closes, dropping its connections and refusing
  // new ones.
  void kill(std::uint32_t shard, std::uint32_t replica);
  bool killed(std::uint32_t shard, std::uint32_t replica) const;

  // Election pass: a shard whose leader is dead -- the harness knows, or
  // any live member's HealthTracker holds client-reported evidence
  // against the leader's address -- promotes its live member with the
  // highest log epoch and re-points every member's shard-leader table.
  // Returns the number of elections run.
  int tick();

  // Total leader elections across all members (the metric the fault
  // scenarios assert on).
  std::uint64_t leader_elections() const;

 private:
  struct Member {
    std::unique_ptr<Master> master;
    std::unique_ptr<net::ReactorServer> door;
    ServerAddress address;
    bool killed = false;
    bool is_leader = false;
  };
  Member& at(std::uint32_t shard, std::uint32_t replica);
  const Member& at(std::uint32_t shard, std::uint32_t replica) const;
  void point_leader(std::uint32_t shard, const ServerAddress& leader);

  std::uint32_t shards_;
  std::uint32_t replicas_;
  meta::ShardMap shard_map_;
  // Declared before members_: the loop and the pool outlive every door.
  net::ReactorPool loops_{1};
  core::ThreadPool workers_{2, /*elastic=*/true};
  mutable std::mutex mu_;  // guards killed/is_leader flags and topology
  std::vector<std::vector<Member>> members_;  // [shard][replica]
};

}  // namespace visapult::dpss
