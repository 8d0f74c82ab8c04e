// The six workloads.  Each runs against a fresh in-process TcpDeployment:
// master plus four block servers on loopback, two reactor loops, two
// handler workers per server.  One closed-loop load thread and one
// DpssClient (one connection per server plus the master link) generate the
// load, which fits a 4-core machine; closed loop fits the system because a
// Visapult PE or a browsing user blocks on each reply.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "backend/backend.h"
#include "backend/data_source.h"
#include "core/clock.h"
#include "core/rng.h"
#include "dpss/deployment.h"
#include "e2e.h"
#include "mpp/mpp.h"
#include "render/transfer.h"
#include "viewer/viewer.h"
#include "vol/dataset.h"
#include "vol/decompose.h"

namespace e2e {

namespace v = visapult;
using v::core::Status;

namespace {

constexpr std::size_t kMiB = 1u << 20;
constexpr int kServers = 4;

// The series every scan, write and visapult workload reads: 128^3 float32
// combustion timesteps (8 MiB each).
v::vol::DatasetDesc series(int timesteps, std::uint64_t seed) {
  return v::vol::DatasetDesc{"e2e-series", {128, 128, 128}, timesteps,
                             v::vol::Generator::kCombustion, seed};
}

// The bytes ingest stores for `desc`: its timesteps back to back.
std::vector<std::uint8_t> dataset_bytes(const v::vol::DatasetDesc& desc) {
  std::vector<std::uint8_t> out(desc.total_bytes());
  for (int t = 0; t < desc.timesteps; ++t) {
    const v::vol::Volume vol = desc.generate(t);
    std::memcpy(out.data() + static_cast<std::size_t>(t) * desc.bytes_per_step(),
                vol.data().data(), desc.bytes_per_step());
  }
  return out;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  v::core::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t x = rng.next_u64();
    std::memcpy(out.data() + i, &x, std::min<std::size_t>(8, n - i));
  }
  return out;
}

// Shared cluster plumbing: deployment, one client, and the program
// counters.
class ClusterWorkload : public Workload {
 public:
  explicit ClusterWorkload(std::uint64_t seed) : seed_(seed) {}

  Counters counters() override {
    Counters c;
    for (int i = 0; i < dep_->server_count(); ++i) {
      auto& srv = dep_->server(i);
      auto& reg = srv.metrics_registry();
      for (const char* h : {"dpss_server_read_seconds",
                            "dpss_server_write_seconds"}) {
        c.server_service_s += reg.histogram(h).sum();
        c.server_service_n += static_cast<double>(reg.histogram(h).count());
      }
      auto& wait = reg.histogram("dpss_util_pool_task_wait_seconds");
      c.pool_wait_s += wait.sum();
      c.pool_wait_n += static_cast<double>(wait.count());
      c.requests += static_cast<double>(srv.requests_served());
      c.disk_model_s += srv.modeled_disk_seconds();
      const auto m = srv.cache_metrics();
      c.cache_hits += static_cast<double>(m.hits);
      c.cache_misses += static_cast<double>(m.misses);
      c.evictions += static_cast<double>(m.evictions);
      c.prefetch_issued += static_cast<double>(m.prefetch_issued);
      c.prefetch_hits += static_cast<double>(m.prefetch_hits);
      c.chain_forwards += static_cast<double>(srv.chain_forwards());
      const auto net = dep_->server_net_stats(i);
      c.door_bytes += static_cast<double>(net.bytes_read + net.bytes_written);
    }
    auto& master_req =
        dep_->master().metrics_registry().histogram("dpss_master_request_seconds");
    c.master_req_s = master_req.sum();
    c.master_req_n = static_cast<double>(master_req.count());
    const auto mnet = dep_->master_net_stats();
    c.door_bytes += static_cast<double>(mnet.bytes_read + mnet.bytes_written);
    for (const auto& loop : dep_->reactor_stats()) {
      c.loop_busy_s.push_back(loop.busy_seconds);
      c.loop_idle_s.push_back(loop.idle_seconds);
    }
    add_file_counters(c);
    return c;
  }

  double spindles() const override { return kServers * disk_.disks; }

 protected:
  // Replace the deployment (and everything opened on it) with a fresh one.
  Status start_cluster(v::dpss::DiskModel disk, bool throttle,
                       v::dpss::ServerCacheConfig cache) {
    release();
    disk_ = disk;
    v::dpss::TcpDeploymentOptions options;
    options.reactor_loops = 2;
    options.worker_threads = 2;
    dep_ = std::make_unique<v::dpss::TcpDeployment>(kServers, disk, throttle,
                                                    cache, options);
    if (auto st = dep_->start(); !st.is_ok()) return st;
    return Status::ok();
  }

  Status connect_client() {
    const auto connector = wire_connector(on_lan() ? make_lan_nic() : nullptr);
    auto master = connector(v::dpss::ServerAddress{"127.0.0.1", dep_->master_port()});
    if (!master.is_ok()) return master.status();
    client_ = std::make_unique<v::dpss::DpssClient>(std::move(master).take(),
                                                    connector);
    return Status::ok();
  }

  // Drop files before the client and the client before the deployment.
  virtual void release() {
    client_.reset();
    dep_.reset();
  }

  virtual void add_file_counters(Counters&) {}

  std::uint64_t seed_;
  v::dpss::DiskModel disk_;
  std::unique_ptr<v::dpss::TcpDeployment> dep_;
  std::unique_ptr<v::dpss::DpssClient> client_;
};

// Workloads made of independent closed-loop ops: a timed op, then its
// output check outside the timer.
class OpWorkload : public ClusterWorkload {
 public:
  using ClusterWorkload::ClusterWorkload;

  void run(double seconds, std::vector<OpRecord>* ops) override {
    const double deadline = now_s() + seconds;
    for (std::uint64_t i = 0;; ++i) {
      OpRecord r;
      r.start = now_s();
      if (r.start >= deadline) break;
      Status st;
      {
        OpScope scope("op", i, r.start);
        r.traced = scope.traced();
        st = op();
      }
      r.latency = now_s() - r.start;
      r.ok = st.is_ok() && check();
      ops->push_back(r);
    }
  }

 protected:
  virtual Status op() = 0;
  virtual bool check() = 0;
};

// ---- scans: scan_warm, scan_cold, ec_degraded --------------------------------

class ScanWorkload final : public OpWorkload {
 public:
  enum class Kind { kWarm, kCold, kDegraded };
  ScanWorkload(Kind kind, std::uint64_t seed)
      : OpWorkload(seed), kind_(kind), desc_(series(4, seed)),
        expected_(dataset_bytes(desc_)), buf_(kMiB) {}

  Status setup() override {
    v::dpss::ServerCacheConfig cache;
    v::dpss::DiskModel disk;
    if (kind_ == Kind::kCold) {
      // 2 MiB memory tier per server: the 32 MiB series is 4x the
      // aggregate tier, so every pass streams from the throttled disks.
      cache.capacity_bytes = 2 * kMiB;
      disk = v::dpss::DiskModel{4, 0.0002, 400e6};
    }
    if (auto st = start_cluster(disk, kind_ == Kind::kCold, cache); !st.is_ok()) {
      return st;
    }
    const v::codec::EcProfile ec = kind_ == Kind::kDegraded
                                       ? v::codec::EcProfile{3, 1}
                                       : v::codec::EcProfile{};
    if (auto st = dep_->ingest(desc_, v::dpss::kDefaultBlockBytes, 1, 1, ec);
        !st.is_ok()) {
      return st;
    }
    if (auto st = connect_client(); !st.is_ok()) return st;
    auto file = client_->open(desc_.name);
    if (!file.is_ok()) return file.status();
    file_ = std::move(file).take();
    if (kind_ == Kind::kDegraded) {
      // Killed after open: the file learns of the death from its first
      // read and from then on rebuilds that server's blocks.  Ring
      // placement hashes the servers' ephemeral ports, so each server's
      // share of data slices changes from run to run; killing the one
      // whose share is nearest a quarter keeps the rebuilt fraction near
      // 25% in every run instead of wherever placement happened to fall.
      int victim = 0;
      double best = 1e300;
      const double quarter = static_cast<double>(expected_.size()) /
                             v::dpss::kDefaultBlockBytes / kServers;
      for (int i = 0; i < kServers; ++i) {
        const double off = std::abs(
            static_cast<double>(dep_->server(i).block_count(desc_.name)) - quarter);
        if (off < best) {
          best = off;
          victim = i;
        }
      }
      dep_->kill_server(victim);
    }
    // Warm-up: one checked pass over the series.
    offset_ = 0;
    for (std::size_t n = 0; n < expected_.size() / kMiB; ++n) {
      if (!op().is_ok() || !check()) {
        return v::core::internal_error("warm-up read failed or mismatched");
      }
    }
    return Status::ok();
  }

  // The cold scan is timed by the disk model, so it runs on bare loopback.
  bool on_lan() const override { return kind_ != Kind::kCold; }
  double op_bytes() const override { return kMiB; }

 protected:
  Status op() override {
    last_ = offset_;
    offset_ = (offset_ + kMiB) % expected_.size();
    v::core::Result<std::size_t> n = std::size_t{0};
    {
      SpanScope span("dpss.pread");
      n = file_->pread(buf_.data(), kMiB, last_);
    }
    if (!n.is_ok()) return n.status();
    if (n.value() != kMiB) return v::core::internal_error("short read");
    return Status::ok();
  }

  bool check() override {
    return std::memcmp(buf_.data(), expected_.data() + last_, kMiB) == 0;
  }

  void release() override {
    file_.reset();
    ClusterWorkload::release();
  }

  void add_file_counters(Counters& c) override {
    c.reconstructed = static_cast<double>(file_->reconstructed_reads());
  }

 private:
  Kind kind_;
  v::vol::DatasetDesc desc_;
  std::vector<std::uint8_t> expected_;
  std::vector<std::uint8_t> buf_;
  std::unique_ptr<v::dpss::DpssFile> file_;
  std::size_t offset_ = 0;
  std::size_t last_ = 0;
};

// ---- write_rf3 -----------------------------------------------------------------

// rf=3 chain overwrites with kAll acks, 1 MiB each, cycling over the series
// and alternating two seeded patterns so every write changes the bytes.
class WriteWorkload final : public OpWorkload {
 public:
  explicit WriteWorkload(std::uint64_t seed)
      : OpWorkload(seed), desc_(series(4, seed)),
        patterns_{random_bytes(desc_.total_bytes(), seed * 2 + 1),
                  random_bytes(desc_.total_bytes(), seed * 2 + 2)} {}

  Status setup() override {
    if (auto st = start_cluster({}, false, {}); !st.is_ok()) return st;
    if (auto st = dep_->ingest(desc_, v::dpss::kDefaultBlockBytes, 1, 3);
        !st.is_ok()) {
      return st;
    }
    if (auto st = connect_client(); !st.is_ok()) return st;
    auto file = client_->open(desc_.name);
    if (!file.is_ok()) return file.status();
    file_ = std::move(file).take();
    file_->set_ack_policy(v::ingest::AckPolicy::kAll);
    // Warm-up: one full pass, so every region holds a known pattern.
    cursor_ = 0;
    last_pattern_.assign(regions(), -1);
    for (std::size_t n = 0; n < regions(); ++n) {
      if (!op().is_ok()) return v::core::internal_error("warm-up write failed");
    }
    return Status::ok();
  }

  // Read back every region and compare with the pattern last written there.
  std::uint64_t final_check(std::uint64_t* attempted) override {
    std::vector<std::uint8_t> buf(kMiB);
    std::uint64_t failed = 0;
    for (std::size_t r = 0; r < regions(); ++r) {
      ++*attempted;
      const int p = last_pattern_[r];
      auto n = file_->pread(buf.data(), kMiB, r * kMiB);
      if (p < 0 || !n.is_ok() || n.value() != kMiB ||
          std::memcmp(buf.data(), patterns_[p].data() + r * kMiB, kMiB) != 0) {
        ++failed;
      }
    }
    return failed;
  }

  bool on_lan() const override { return true; }
  double op_bytes() const override { return kMiB; }

 protected:
  Status op() override {
    const std::size_t region = cursor_ % regions();
    const int pattern = static_cast<int>((cursor_ / regions()) % 2);
    ++cursor_;
    Status st;
    {
      SpanScope span("dpss.write");
      if (file_->lseek(static_cast<std::int64_t>(region * kMiB)) < 0) {
        return v::core::internal_error("lseek failed");
      }
      st = file_->write(patterns_[pattern].data() + region * kMiB, kMiB);
    }
    if (st.is_ok()) last_pattern_[region] = pattern;
    return st;
  }

  // Writes are checked by the read-back in final_check.
  bool check() override { return true; }

  void release() override {
    file_.reset();
    ClusterWorkload::release();
  }

  void add_file_counters(Counters& c) override {
    c.degraded_writes = static_cast<double>(file_->degraded_writes());
  }

 private:
  std::size_t regions() const { return desc_.total_bytes() / kMiB; }

  v::vol::DatasetDesc desc_;
  std::vector<std::uint8_t> patterns_[2];
  std::vector<int> last_pattern_;
  std::unique_ptr<v::dpss::DpssFile> file_;
  std::size_t cursor_ = 0;
};

// ---- open_browse ---------------------------------------------------------------

// 64 small rf=3 datasets; each op opens a seeded pick, reads its first
// 64 KiB and closes it.  One client, so after the warm-up every open is the
// delta-open path (epoch match, cached placement) plus per-open connects.
class BrowseWorkload final : public OpWorkload {
 public:
  static constexpr int kDatasets = 64;
  static constexpr std::size_t kRead = 64u << 10;

  explicit BrowseWorkload(std::uint64_t seed)
      : OpWorkload(seed), rng_(seed), buf_(kRead) {
    for (int i = 0; i < kDatasets; ++i) {
      auto bytes = dataset_bytes(desc(i));
      bytes.resize(kRead);
      expected_.push_back(std::move(bytes));
    }
  }

  Status setup() override {
    if (auto st = start_cluster({}, false, {}); !st.is_ok()) return st;
    for (int i = 0; i < kDatasets; ++i) {
      if (auto st = dep_->ingest(desc(i), v::dpss::kDefaultBlockBytes, 1, 3);
          !st.is_ok()) {
        return st;
      }
    }
    if (auto st = connect_client(); !st.is_ok()) return st;
    for (int i = 0; i < kDatasets; ++i) {
      pick_ = i;
      if (!browse().is_ok() || !check()) {
        return v::core::internal_error("warm-up browse failed or mismatched");
      }
    }
    return Status::ok();
  }

  bool on_lan() const override { return true; }
  double op_bytes() const override { return kRead; }

 protected:
  Status op() override {
    pick_ = static_cast<int>(rng_.next_below(kDatasets));
    return browse();
  }

  bool check() override {
    return std::memcmp(buf_.data(), expected_[pick_].data(), kRead) == 0;
  }

 private:
  // 32^3 float32 = 128 KiB, two blocks.
  v::vol::DatasetDesc desc(int i) const {
    return v::vol::DatasetDesc{"browse-" + std::to_string(i), {32, 32, 32}, 1,
                               v::vol::Generator::kCombustion, seed_ + i};
  }

  Status browse() {
    std::unique_ptr<v::dpss::DpssFile> file;
    {
      SpanScope span("meta.open");
      auto opened = client_->open("browse-" + std::to_string(pick_));
      if (!opened.is_ok()) return opened.status();
      file = std::move(opened).take();
    }
    v::core::Result<std::size_t> n = std::size_t{0};
    {
      SpanScope span("dpss.pread");
      n = file->pread(buf_.data(), kRead, 0);
    }
    {
      SpanScope span("dpss.close");
      file->close();
      file.reset();
    }
    if (!n.is_ok()) return n.status();
    return n.value() == kRead ? Status::ok()
                              : v::core::internal_error("short read");
  }

  v::core::Rng rng_;
  std::vector<std::vector<std::uint8_t>> expected_;
  std::vector<std::uint8_t> buf_;
  int pick_ = 0;
};

// ---- visapult ------------------------------------------------------------------

// Presents `frames` timesteps to the back end by cycling the DPSS series,
// and checks every loaded brick against the generator's bytes.
class CyclingSource final : public v::backend::DataSource {
 public:
  CyclingSource(v::backend::DpssSource& inner,
                const std::vector<std::uint8_t>& expected, int frames,
                std::int64_t first_frame)
      : inner_(inner), expected_(expected), frames_(frames),
        first_(first_frame), load_ok_(static_cast<std::size_t>(frames), 0),
        traced_(static_cast<std::size_t>(frames), 0) {}

  v::vol::Dims dims() const override { return inner_.dims(); }
  int timesteps() const override { return frames_; }

  Status load_brick(int t, const v::vol::Brick& brick, float* dst) override {
    const int step = static_cast<int>((first_ + t) % inner_.timesteps());
    Status st;
    {
      OpScope span("backend.load", static_cast<std::uint64_t>(first_ + t),
                   now_s());
      traced_[static_cast<std::size_t>(t)] = span.traced() ? 1 : 0;
      st = inner_.load_brick(step, brick, dst);
    }
    if (!st.is_ok()) return st;
    const std::size_t base =
        static_cast<std::size_t>(step) * inner_.dims().byte_size();
    const auto* got = reinterpret_cast<const std::uint8_t*>(dst);
    bool ok = true;
    for (const auto& r : v::vol::brick_byte_ranges(inner_.dims(), brick)) {
      ok = ok && std::memcmp(got, expected_.data() + base + r.offset,
                             r.length) == 0;
      got += r.length;
    }
    load_ok_[static_cast<std::size_t>(t)] = ok ? 1 : 0;
    return Status::ok();
  }

  bool frame_ok(std::int64_t t) const {
    return t >= 0 && t < frames_ && load_ok_[static_cast<std::size_t>(t)];
  }
  // Whether frame t's load ran traced.
  bool frame_traced(std::int64_t t) const {
    return t >= 0 && t < frames_ && traced_[static_cast<std::size_t>(t)];
  }

 private:
  v::backend::DpssSource& inner_;
  const std::vector<std::uint8_t>& expected_;
  int frames_;
  std::int64_t first_;
  // Written by the reader, read after the join.
  std::vector<char> load_ok_;
  std::vector<char> traced_;
};

// Overlapped back-end PE sessions loading through DpssSource over loopback
// into a viewer.  Load (throttled disks behind a memory tier smaller than
// the series; ~85 ms a frame) is the longer stage and render (128^3, step
// 4; 35-70 ms as the host's speed drifts) the shorter, within 2x: frames
// then follow the data path, which is where a DPSS gain shows, and not the
// host's CPU speed.
class VisapultWorkload final : public ClusterWorkload {
 public:
  static constexpr int kTimesteps = 6;        // 48 MiB series
  static constexpr int kSessionFrames = 20;   // frames per back-end session

  explicit VisapultWorkload(std::uint64_t seed)
      : ClusterWorkload(seed), desc_(series(kTimesteps, seed)),
        tf_(v::render::TransferFunction::fire()),
        expected_(dataset_bytes(desc_)) {}

  Status setup() override {
    source_.reset();
    v::dpss::ServerCacheConfig cache;
    cache.capacity_bytes = 4 * kMiB;  // 16 MiB aggregate < 48 MiB series
    // 1.2 ms seek, 50 MB/s per spindle: ~2.5 ms per 64 KiB block, which
    // puts a frame's load near 85 ms.
    if (auto st = start_cluster(v::dpss::DiskModel{4, 0.0012, 50e6}, true, cache);
        !st.is_ok()) {
      return st;
    }
    if (auto st = dep_->ingest(desc_); !st.is_ok()) return st;
    if (auto st = connect_client(); !st.is_ok()) return st;
    auto file = client_->open(desc_.name);
    if (!file.is_ok()) return file.status();
    source_ = std::make_unique<v::backend::DpssSource>(
        std::move(file).take(), desc_.dims, desc_.timesteps);
    next_frame_ = 0;
    std::vector<OpRecord> warm;
    if (auto st = session(4, &warm); !st.is_ok()) return st;
    for (const auto& r : warm) {
      if (!r.ok) return v::core::internal_error("warm-up frame mismatched");
    }
    report_ = {};
    return Status::ok();
  }

  // Back-to-back sessions until `seconds` have passed.
  void run(double seconds, std::vector<OpRecord>* ops) override {
    const double deadline = now_s() + seconds;
    while (now_s() < deadline) {
      if (!session(kSessionFrames, ops).is_ok()) {
        OpRecord failed;
        failed.start = now_s();
        ops->push_back(failed);
        return;
      }
    }
  }

  FrameReport frame_report() const override { return report_; }
  bool on_lan() const override { return false; }
  double op_bytes() const override {
    return static_cast<double>(desc_.bytes_per_step());
  }

 protected:
  void release() override {
    source_.reset();
    ClusterWorkload::release();
  }

 private:
  // Run one back-end PE for `frames` frames into a viewer; one record per
  // frame, its latency the interval between frames at the viewer.
  Status session(int frames, std::vector<OpRecord>* ops) {
    CyclingSource source(*source_, expected_, frames, next_frame_);
    next_frame_ += frames;

    std::mutex mu;
    std::vector<std::pair<double, std::int64_t>> shown;  // (time, frame)
    v::viewer::ViewerOptions vopts;
    vopts.on_frame = [&](std::int64_t frame, const v::core::ImageRGBA&) {
      std::lock_guard lk(mu);
      shown.emplace_back(now_s(), frame);
    };
    auto sink = std::make_shared<v::netlog::MemorySink>(4096);
    v::core::RealClock& clock = v::core::global_real_clock();
    v::viewer::ViewerSession viewer(
        v::netlog::NetLogger(clock, "viewer-host", "viewer", sink), vopts);
    const auto pipe = v::net::make_pipe(4u << 20);

    v::backend::BackendOptions bopts;
    bopts.overlapped = true;
    bopts.render.step = kRenderStep;
    bopts.transfer = &tf_;
    v::backend::FixedAxisProvider axis(v::vol::Axis::kZ);

    v::core::Result<v::backend::PeReport> pe =
        v::core::internal_error("back end did not run");
    const double t0 = now_s();
    v::mpp::Runtime runtime(1);
    std::thread backend([&] {
      runtime.run([&](v::mpp::Comm& comm) {
        v::netlog::NetLogger logger(clock, "backend-host", "backend", sink);
        pe = v::backend::run_backend_pe(comm, source, pipe.first, axis, logger,
                                        bopts);
        if (!pe.is_ok()) pipe.first->close();
      });
    });
    auto vr = viewer.run({pipe.second});
    backend.join();
    if (!pe.is_ok()) return pe.status();
    if (!vr.is_ok()) return vr.status();

    report_.load_s += pe.value().load_seconds_total;
    report_.render_s += pe.value().render_seconds_total;
    report_.send_s += pe.value().send_seconds_total;
    report_.frames += static_cast<double>(pe.value().frames);
    report_.renders += static_cast<double>(vr.value().renders);

    // A viewer render may cover several completed frames (its mailbox
    // coalesces); split such an interval evenly among them.
    double prev_t = t0;
    std::int64_t prev_f = -1;
    for (const auto& [t, f] : shown) {
      if (f <= prev_f) continue;
      const double each = (t - prev_t) / static_cast<double>(f - prev_f);
      for (std::int64_t k = prev_f + 1; k <= f; ++k) {
        OpRecord r;
        r.start = prev_t + each * static_cast<double>(k - prev_f - 1);
        r.latency = each;
        r.ok = source.frame_ok(k);
        r.traced = source.frame_traced(k);
        ops->push_back(r);
      }
      prev_t = t;
      prev_f = f;
    }
    if (prev_f + 1 != frames) {
      return v::core::internal_error("viewer showed " +
                                     std::to_string(prev_f + 1) + " of " +
                                     std::to_string(frames) + " frames");
    }
    return Status::ok();
  }

  v::vol::DatasetDesc desc_;
  v::render::TransferFunction tf_;
  std::vector<std::uint8_t> expected_;
  std::unique_ptr<v::backend::DpssSource> source_;
  std::int64_t next_frame_ = 0;
  FrameReport report_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "scan_warm", "scan_cold", "ec_degraded", "write_rf3", "open_browse",
      "visapult"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  using K = ScanWorkload::Kind;
  if (name == "scan_warm") return std::make_unique<ScanWorkload>(K::kWarm, seed);
  if (name == "scan_cold") return std::make_unique<ScanWorkload>(K::kCold, seed);
  if (name == "ec_degraded") {
    return std::make_unique<ScanWorkload>(K::kDegraded, seed);
  }
  if (name == "write_rf3") return std::make_unique<WriteWorkload>(seed);
  if (name == "open_browse") return std::make_unique<BrowseWorkload>(seed);
  if (name == "visapult") return std::make_unique<VisapultWorkload>(seed);
  return nullptr;
}

}  // namespace e2e
