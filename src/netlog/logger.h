// NetLogger producer API and sinks.
//
// Mirrors the original toolkit's procedural interface: a component creates a
// NetLogger bound to its (host, program) identity and a sink, then drops
// `log(tag, frame, rank, fields...)` calls at instrumentation points.  Sinks:
//   * MemorySink  -- thread-safe in-process accumulation (the default for
//                    the experiment harness; plays the role of the netlogd
//                    daemon's event log),
//   * FileSink    -- ULM lines to a file,
//   * StreamSink  -- framed events over a ByteStream to a CollectorDaemon
//                    on another "host" (the paper's daemon model),
//   * TeeSink     -- fan-out to several sinks.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/clock.h"
#include "netlog/event.h"

namespace visapult::netlog {

class Sink {
 public:
  virtual ~Sink() = default;
  virtual void consume(const Event& event) = 0;
};

using SinkPtr = std::shared_ptr<Sink>;

class MemorySink final : public Sink {
 public:
  // `capacity` bounds the buffer: once full, the oldest event is dropped to
  // admit the newest (a ring), and dropped() counts the losses.  0 keeps
  // the historical unbounded behaviour -- fine for tests and short
  // campaigns, not for a long-lived traced deployment.
  explicit MemorySink(std::size_t capacity = 0) : capacity_(capacity) {}

  void consume(const Event& event) override;

  // Snapshot of retained events, oldest first.
  std::vector<Event> events() const;
  // Take-and-clear, oldest first: the atomic handoff span export needs so
  // an event is shipped exactly once even while producers keep logging.
  // Unlike clear(), dropped() keeps counting across drains.
  std::vector<Event> drain();
  std::size_t size() const;
  void clear();  // resets dropped() too

  std::size_t capacity() const { return capacity_; }
  // Events evicted to make room since construction or clear().
  std::uint64_t dropped() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::deque<Event> events_;
  std::uint64_t dropped_ = 0;
};

class FileSink final : public Sink {
 public:
  // Appends ULM lines; throws std::runtime_error if the file cannot open.
  explicit FileSink(const std::string& path);
  ~FileSink() override;
  void consume(const Event& event) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

class TeeSink final : public Sink {
 public:
  explicit TeeSink(std::vector<SinkPtr> sinks) : sinks_(std::move(sinks)) {}
  void consume(const Event& event) override {
    for (auto& s : sinks_) s->consume(event);
  }

 private:
  std::vector<SinkPtr> sinks_;
};

// The producer handle.
class NetLogger {
 public:
  NetLogger(core::Clock& clock, std::string host, std::string program,
            SinkPtr sink)
      : clock_(&clock), host_(std::move(host)), program_(std::move(program)),
        sink_(std::move(sink)) {}

  // Stamp and emit an event now.
  void log(const std::string& tag, std::int64_t frame = -1, int rank = -1,
           std::vector<std::pair<std::string, std::string>> fields = {});

  // Convenience for the common BYTES field.
  void log_bytes(const std::string& tag, std::int64_t frame, int rank,
                 double bytes);

  // Emit with an explicit timestamp (used by virtual-time components that
  // know event times ahead of the clock).
  void log_at(core::TimePoint t, const std::string& tag, std::int64_t frame,
              int rank,
              std::vector<std::pair<std::string, std::string>> fields = {});

  // The stamping clock's current time (a base for log_at()).
  core::TimePoint now() const { return clock_->now(); }
  const std::string& host() const { return host_; }
  const std::string& program() const { return program_; }

 private:
  core::Clock* clock_;
  std::string host_;
  std::string program_;
  SinkPtr sink_;
};

}  // namespace visapult::netlog
