#include "dpss/meta_cluster.h"

#include <algorithm>

namespace visapult::dpss {

MetaCluster::MetaCluster(std::uint32_t shards, std::uint32_t replicas)
    : shards_(shards == 0 ? 1 : shards),
      replicas_(replicas == 0 ? 1 : replicas),
      shard_map_(shards_ == 0 ? 1 : shards_) {
  members_.resize(shards_);
  for (std::uint32_t j = 0; j < shards_; ++j) {
    for (std::uint32_t k = 0; k < replicas_; ++k) {
      Member m;
      m.master = std::make_unique<Master>();
      Master* master = m.master.get();
      m.door = std::make_unique<net::ReactorServer>(
          loops_,
          [master](net::Message&& msg, std::uint64_t) {
            return master->handle_request(std::move(msg));
          },
          net::ReactorServerOptions{}, &workers_);
      m.address = address(j, k);
      m.is_leader = (k == 0);
      members_[j].push_back(std::move(m));
    }
  }
  // Configure after every member exists: the peer connector resolves
  // across the whole cluster (follower replication, open forwarding).
  for (std::uint32_t j = 0; j < shards_; ++j) {
    std::vector<ServerAddress> followers;
    for (std::uint32_t k = 1; k < replicas_; ++k) {
      followers.push_back(address(j, k));
    }
    for (std::uint32_t k = 0; k < replicas_; ++k) {
      MetaConfig config;
      config.shard_map = shard_map_;
      config.shard_id = j;
      config.is_leader = (k == 0);
      config.address = address(j, k);
      Master& master = *members_[j][k].master;
      master.configure_meta(config, connector());
      if (k == 0) master.set_followers(followers);
      for (std::uint32_t other = 0; other < shards_; ++other) {
        master.set_shard_leader(other, address(other, 0));
      }
    }
  }
}

MetaCluster::~MetaCluster() {
  // Close every door before any master dies: a handler still running may
  // be calling another member.
  for (auto& shard : members_) {
    for (auto& member : shard) member.door->close();
  }
}

MetaCluster::Member& MetaCluster::at(std::uint32_t shard,
                                     std::uint32_t replica) {
  return members_[shard][replica];
}

const MetaCluster::Member& MetaCluster::at(std::uint32_t shard,
                                           std::uint32_t replica) const {
  return members_[shard][replica];
}

Master& MetaCluster::member(std::uint32_t shard, std::uint32_t replica) {
  return *at(shard, replica).master;
}

ServerAddress MetaCluster::address(std::uint32_t shard,
                                   std::uint32_t replica) const {
  return ServerAddress{
      "meta-s" + std::to_string(shard) + "-r" + std::to_string(replica),
      static_cast<std::uint16_t>(shard * replicas_ + replica)};
}

std::vector<std::vector<ServerAddress>> MetaCluster::member_addresses() const {
  std::lock_guard lk(mu_);
  std::vector<std::vector<ServerAddress>> out(shards_);
  for (std::uint32_t j = 0; j < shards_; ++j) {
    // Current leader first: clients try members in order.
    for (std::uint32_t k = 0; k < replicas_; ++k) {
      if (at(j, k).is_leader) out[j].push_back(at(j, k).address);
    }
    for (std::uint32_t k = 0; k < replicas_; ++k) {
      if (!at(j, k).is_leader) out[j].push_back(at(j, k).address);
    }
  }
  return out;
}

Master* MetaCluster::leader(std::uint32_t shard) {
  std::lock_guard lk(mu_);
  for (auto& member : members_[shard]) {
    if (member.is_leader && !member.killed) return member.master.get();
  }
  return nullptr;
}

int MetaCluster::leader_replica(std::uint32_t shard) const {
  std::lock_guard lk(mu_);
  for (std::uint32_t k = 0; k < replicas_; ++k) {
    if (at(shard, k).is_leader && !at(shard, k).killed) {
      return static_cast<int>(k);
    }
  }
  return -1;
}

Master* MetaCluster::owner_leader(const std::string& dataset) {
  return leader(shard_map_.shard_for(dataset));
}

core::Status MetaCluster::register_dataset(const std::string& name,
                                           const DatasetLayout& layout,
                                           std::vector<ServerAddress> servers,
                                           const PlacementOptions& placement) {
  Master* master = owner_leader(name);
  if (!master) {
    return core::unavailable("no live leader for dataset " + name);
  }
  return master->register_dataset(name, layout, std::move(servers), placement);
}

Connector MetaCluster::connector() {
  return [this](const ServerAddress& addr) -> core::Result<net::StreamPtr> {
    std::lock_guard lk(mu_);
    for (auto& shard : members_) {
      for (auto& member : shard) {
        // A killed member's door is closed and refuses (kUnavailable).
        if (member.address == addr) return member.door->connect_local();
      }
    }
    return core::not_found("unknown master endpoint: " + addr.host);
  };
}

void MetaCluster::kill(std::uint32_t shard, std::uint32_t replica) {
  net::ReactorServer* door = nullptr;
  {
    std::lock_guard lk(mu_);
    Member& member = at(shard, replica);
    if (member.killed) return;
    member.killed = true;
    door = member.door.get();
  }
  // Outside the lock: close() waits out the member's running handlers, and
  // a handler mid request may be inside the connector (which takes mu_).
  door->close();
}

bool MetaCluster::killed(std::uint32_t shard, std::uint32_t replica) const {
  std::lock_guard lk(mu_);
  return at(shard, replica).killed;
}

void MetaCluster::point_leader(std::uint32_t shard,
                               const ServerAddress& leader) {
  std::vector<Master*> live;
  {
    std::lock_guard lk(mu_);
    for (auto& other_shard : members_) {
      for (auto& member : other_shard) {
        if (!member.killed) live.push_back(member.master.get());
      }
    }
  }
  for (Master* master : live) master->set_shard_leader(shard, leader);
}

int MetaCluster::tick() {
  // Snapshot the membership under mu_, then talk to the members unlocked:
  // every Master call takes the master's own mutex, and a master mid
  // mutation calls back into the connector (which takes mu_) to replicate,
  // so holding mu_ across member calls is a lock-order inversion.  The
  // Master objects themselves are stable for the cluster's lifetime.
  struct Seat {
    Master* master;
    ServerAddress address;
    bool killed;
    bool is_leader;
  };
  std::vector<std::vector<Seat>> seats(shards_);
  {
    std::lock_guard lk(mu_);
    for (std::uint32_t j = 0; j < shards_; ++j) {
      for (auto& member : members_[j]) {
        seats[j].push_back(Seat{member.master.get(), member.address,
                                member.killed, member.is_leader});
      }
    }
  }
  int elections = 0;
  for (std::uint32_t j = 0; j < shards_; ++j) {
    // Current leader still standing?  The harness's own kill flag is the
    // ground truth; client-reported HealthTracker evidence on any live
    // member (shard_roundtrip reports dead endpoints it failed past) also
    // triggers the election, which is the deployed-world signal path.
    Seat* leader = nullptr;
    for (auto& seat : seats[j]) {
      if (seat.is_leader) leader = &seat;
    }
    bool dead = leader == nullptr || leader->killed;
    if (!dead && leader != nullptr) {
      for (auto& seat : seats[j]) {
        if (seat.killed || seat.is_leader) continue;
        if (seat.master->health().state(leader->address) !=
            placement::HealthState::kUp) {
          dead = true;
          break;
        }
      }
    }
    if (!dead) continue;
    // Promote the live member with the highest replicated-log epoch: it
    // has every entry any other survivor has (single-writer log, in-order
    // replication), so no acknowledged mutation is lost.
    Seat* best = nullptr;
    for (auto& seat : seats[j]) {
      if (seat.killed) continue;
      if (!best || seat.master->meta_epoch() > best->master->meta_epoch()) {
        best = &seat;
      }
    }
    if (!best || (leader != nullptr && best == leader && !leader->killed)) {
      continue;  // nobody left to promote, or the evidence was stale
    }
    {
      std::lock_guard lk(mu_);
      for (auto& member : members_[j]) {
        member.is_leader = (member.address == best->address);
      }
    }
    best->master->promote_to_leader();
    std::vector<ServerAddress> followers;
    for (auto& seat : seats[j]) {
      if (!seat.killed && &seat != best) {
        followers.push_back(seat.address);
      }
    }
    best->master->set_followers(followers);
    point_leader(j, best->address);
    ++elections;
  }
  return elections;
}

std::uint64_t MetaCluster::leader_elections() const {
  std::vector<Master*> masters;
  {
    std::lock_guard lk(mu_);
    for (const auto& shard : members_) {
      for (const auto& member : shard) {
        masters.push_back(member.master.get());
      }
    }
  }
  std::uint64_t total = 0;
  for (Master* master : masters) total += master->leader_elections();
  return total;
}

}  // namespace visapult::dpss
