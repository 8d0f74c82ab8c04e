// Per-server health state for the DPSS farm.
//
// The master is the only component that sees every client and every server,
// so it arbitrates health: block servers (or the deployment on their
// behalf) send periodic heartbeats carrying their served-request count, and
// clients report I/O errors they hit mid-read.  A server walks
//
//     up --(client-reported failure)--> suspect --(more failures)--> down
//      ^                                                               |
//      +----------------------(heartbeat: rejoin)---------------------+
//
// plus time-based demotion via tick(now) when heartbeats go stale.  Time is
// an explicit parameter (seconds on whatever clock the caller runs), never
// wall clock read internally, so tests drive transitions deterministically.
//
// Servers never seen before report kUp: the classic deployments do not
// heartbeat at all, and their servers must stay eligible.
//
// The tracker also keeps the last heartbeat's load figure (served-request
// count); the master snapshots it into OpenReplys so clients can rank
// replicas least-loaded-first.
//
// Thread safety: all methods lock an internal mutex; heartbeat, failure
// reports, and lookups arrive concurrently from the master's door, whose
// handlers run on several event loops or pool workers.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "placement/server_address.h"

namespace visapult::placement {

enum class HealthState : std::uint8_t { kUp = 0, kSuspect = 1, kDown = 2 };

const char* health_state_name(HealthState state);

struct HealthConfig {
  // Client-reported I/O errors: the first puts an up server on suspicion;
  // reaching `failures_to_down` takes it down.
  int failures_to_suspect = 1;
  int failures_to_down = 3;
  // Heartbeat staleness thresholds for tick(now).
  double suspect_after_seconds = 5.0;
  double down_after_seconds = 15.0;
};

class HealthTracker {
 public:
  explicit HealthTracker(HealthConfig config = {});

  // A server (re)announced itself: state returns to kUp, failure count
  // clears, `load` (its served-request counter) is recorded.
  void heartbeat(const ServerAddress& server, std::uint64_t load = 0,
                 double now = 0.0);
  // A client hit an I/O error against this server.
  void report_failure(const ServerAddress& server);
  // Operator/deployment knowledge: the server is gone (killed), no need to
  // wait for failure reports to accumulate.
  void mark_down(const ServerAddress& server);
  // Demote servers whose heartbeats are stale as of `now`.  Servers that
  // never heartbeated are left alone (classic deployments never beat).
  void tick(double now);

  HealthState state(const ServerAddress& server) const;
  bool is_live(const ServerAddress& server) const {
    return state(server) != HealthState::kDown;
  }
  std::uint64_t load(const ServerAddress& server) const;

  struct Entry {
    ServerAddress server;
    HealthState state = HealthState::kUp;
    std::uint64_t load = 0;
    int failures = 0;
    double last_heartbeat = 0.0;
  };
  std::vector<Entry> snapshot() const;

  std::uint64_t heartbeats_received() const;
  std::uint64_t failures_reported() const;

 private:
  struct Slot {
    ServerAddress server;
    HealthState state = HealthState::kUp;
    std::uint64_t load = 0;
    int failures = 0;
    double last_heartbeat = 0.0;
    bool ever_heartbeat = false;
  };
  Slot& slot_for(const ServerAddress& server);  // caller holds mu_

  mutable std::mutex mu_;
  HealthConfig config_;
  std::map<std::string, Slot> slots_;  // keyed by address key()
  std::uint64_t heartbeats_ = 0;
  std::uint64_t failures_ = 0;
};

}  // namespace visapult::placement
