// Shared test helpers that keep the suite deterministic under `ctest -j`.
//
// Five facilities, four matching the flake classes the seed suite exhibits:
//   * deterministic_seed()     -- per-test RNG seeds that are stable across
//                                 runs but distinct across tests, so two
//                                 tests never share a stream by accident.
//   * pick_ephemeral_port()    -- kernel-assigned loopback port for tests
//                                 that must name a port up front (prefer
//                                 TcpListener::listen(0) when possible).
//   * TempDir                  -- RAII mkdtemp fixture, removed on scope
//                                 exit, safe for parallel test processes.
//   * RecordingVirtualClock /  -- virtual-time helpers so rate/timing
//     wait_until()                assertions never depend on wall time.
//   * LocalDoor                -- serves one handler through a reactor door
//                                 reached over socketpairs, as deployments
//                                 serve their masters and block servers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/clock.h"
#include "core/thread_pool.h"
#include "net/reactor.h"
#include "net/reactor_server.h"

namespace visapult::test_support {

// Stable per-test RNG seed: hashes the currently running gtest's full name
// (suite.test/param) with an optional salt.  Re-runs of one test get the
// same stream; different tests get unrelated streams.  Falls back to a
// fixed constant outside a gtest context.
std::uint64_t deterministic_seed(std::uint64_t salt = 0);

// Binds 127.0.0.1:0, reads back the kernel-assigned port, closes the
// socket, and returns the port.  The port is *likely* free immediately
// afterwards; prefer APIs that accept port 0 directly when available --
// this is for code paths that must be handed a concrete port number.
std::uint16_t pick_ephemeral_port();

// An ephemeral port that was bound and closed, i.e. a port with (very
// probably) nothing listening.  For connect-must-fail tests.
std::uint16_t pick_dead_port();

// RAII temporary directory (mkdtemp under $TMPDIR or /tmp).  Recursively
// removed on destruction.  Each instance is unique, so parallel test
// binaries never collide.
class TempDir {
 public:
  TempDir();
  ~TempDir();

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }
  // Joins `name` onto the directory path.
  std::string file(const std::string& name) const;

 private:
  std::string path_;
};

// Polls `pred` (with a 1 ms cadence) until it returns true or
// `timeout_sec` of wall time elapses.  Returns the final predicate value.
// This is the sanctioned replacement for "sleep then assert" in tests that
// coordinate real threads: it is exact when the condition is already true
// and bounded when something is wrong.
bool wait_until(const std::function<bool()>& pred, double timeout_sec = 5.0);

// VirtualClock that also records the cumulative time handed to
// sleep_for().  Inject into Clock&-taking components (e.g. ShapedStream)
// to assert on *virtual* elapsed time: the token-bucket maths are checked
// exactly, and the test runs in microseconds of wall time regardless of
// machine load.
class RecordingVirtualClock final : public core::Clock {
 public:
  explicit RecordingVirtualClock(core::TimePoint start = 0.0)
      : clock_(start) {}

  core::TimePoint now() const override { return clock_.now(); }
  void sleep_for(double seconds) override {
    clock_.sleep_for(seconds);
    std::lock_guard lk(mu_);
    total_slept_ += seconds;
  }

  // Sum of all sleep_for() durations observed so far.
  double total_slept() const {
    std::lock_guard lk(mu_);
    return total_slept_;
  }

 private:
  core::VirtualClock clock_;
  mutable std::mutex mu_;
  double total_slept_ = 0.0;
};

// Serves `handler` the way a deployment serves its servers: a
// ReactorServer on its own event loop with its handlers on a small worker
// pool, and connect() hands out a socketpair connection to it
// (ReactorServer::connect_local) -- no port, no listener.  Declare it after
// whatever the handler captures, so the door closes first.
class LocalDoor {
 public:
  explicit LocalDoor(net::ReactorServer::Handler handler)
      : door_(loop_, std::move(handler), net::ReactorServerOptions{},
              &workers_) {}

  core::Result<net::StreamPtr> connect() { return door_.connect_local(); }

 private:
  net::ReactorPool loop_{1};
  core::ThreadPool workers_{2};
  net::ReactorServer door_;
};

}  // namespace visapult::test_support
