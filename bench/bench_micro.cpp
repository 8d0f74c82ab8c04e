// Microbenchmarks (google-benchmark) for the hot paths of the library:
// software volume rendering, Porter-Duff compositing, DPSS client reads,
// striped-socket transfers, the netsim engine, and the scene-graph
// rasterizer.
#include <benchmark/benchmark.h>

#include <cctype>
#include <thread>

#include "bench_json.h"
#include "core/image.h"
#include "core/thread_pool.h"
#include "dpss/deployment.h"
#include "ibravr/ibravr.h"
#include "net/striped.h"
#include "netsim/topology.h"
#include "render/parallel.h"
#include "scenegraph/rasterizer.h"
#include "sim/campaign.h"
#include "vol/generate.h"

using namespace visapult;

namespace {

const vol::Volume& bench_volume() {
  static const vol::Volume v = vol::generate_combustion({64, 48, 48}, 1);
  return v;
}

void BM_VolumeRenderSlab(benchmark::State& state) {
  const auto& v = bench_volume();
  const render::TransferFunction tf = render::TransferFunction::fire();
  auto bricks = vol::slab_decompose(v.dims(), 8, vol::Axis::kZ);
  for (auto _ : state) {
    auto img = render::render_brick_along_axis(v, bricks.value()[3],
                                               vol::Axis::kZ, tf);
    benchmark::DoNotOptimize(img);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bricks.value()[3].cell_count()));
}
BENCHMARK(BM_VolumeRenderSlab);

void BM_ObjectOrderParallel(benchmark::State& state) {
  const auto& v = bench_volume();
  const render::TransferFunction tf = render::TransferFunction::fire();
  core::ThreadPool pool(static_cast<int>(state.range(0)));
  auto bricks = vol::slab_decompose(v.dims(), static_cast<int>(state.range(0)),
                                    vol::Axis::kZ);
  for (auto _ : state) {
    auto report = render::render_object_order(v, bricks.value(), vol::Axis::kZ,
                                              tf, pool);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_ObjectOrderParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_CompositeOver(benchmark::State& state) {
  core::ImageRGBA back(256, 256, core::Pixel{0.1f, 0.2f, 0.3f, 0.4f});
  core::ImageRGBA front(256, 256, core::Pixel{0.3f, 0.2f, 0.1f, 0.5f});
  for (auto _ : state) {
    benchmark::DoNotOptimize(back.composite_over(front));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(back.byte_size()));
}
BENCHMARK(BM_CompositeOver);

void BM_DpssRead(benchmark::State& state) {
  static dpss::PipeDeployment* deployment = [] {
    auto* d = new dpss::PipeDeployment(4);
    // Four 256 KiB timesteps: 1 MiB, enough for the largest read below.
    (void)d->ingest(vol::small_combustion_dataset());
    return d;
  }();
  auto client = deployment->make_client();
  auto file = client.open("combustion-64");
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto n = file.value()->pread(buf.data(), buf.size(), 0);
    if (!n.is_ok() || n.value() != buf.size()) {
      state.SkipWithError("short read");
      break;
    }
    benchmark::DoNotOptimize(n);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
// Real time: the client's I/O workers and the servers' doors do the work,
// not the calling thread.
BENCHMARK(BM_DpssRead)
    ->Arg(64 * 1024)
    ->Arg(256 * 1024)
    ->Arg(1024 * 1024)
    ->UseRealTime();

void BM_StripedTransfer(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  std::vector<net::StreamPtr> left, right;
  for (int i = 0; i < lanes; ++i) {
    auto [a, b] = net::make_pipe(8u << 20);
    left.push_back(a);
    right.push_back(b);
  }
  net::StripedStream tx(std::move(left));
  net::StripedStream rx(std::move(right));
  std::vector<std::uint8_t> payload(1 << 20, 0x5A);
  for (auto _ : state) {
    std::thread sender([&] { (void)tx.send(payload); });
    auto got = rx.recv();
    sender.join();
    benchmark::DoNotOptimize(got);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload.size()));
}
// Real time: each lane sends and receives on threads of its own, so the
// calling thread's CPU time misses most of the work.
BENCHMARK(BM_StripedTransfer)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_NetsimCampaignFrame(benchmark::State& state) {
  for (auto _ : state) {
    sim::CampaignConfig cfg;
    cfg.timesteps = 2;
    cfg.platform = sim::e4500_platform(8);
    auto result = sim::run_campaign(netsim::make_lan_gige(), cfg);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_NetsimCampaignFrame);

void BM_RasterizeIbravrModel(benchmark::State& state) {
  const auto& v = bench_volume();
  ibravr::ModelOptions opts;
  opts.slab_count = 8;
  auto model = ibravr::build_model(v, render::TransferFunction::fire(), opts);
  auto root = std::make_shared<scenegraph::GroupNode>("root");
  root->add_child(model.value());
  scenegraph::Rasterizer raster(
      ibravr::make_rotated_camera(v.dims(), vol::Axis::kZ, 0.2f));
  for (auto _ : state) {
    auto img = raster.render_node(*root);
    benchmark::DoNotOptimize(img);
  }
}
BENCHMARK(BM_RasterizeIbravrModel);

// 32^3 fills its planes on the calling thread; 128^3, one 8 MiB timestep
// of the bench_e2e series, fills them on one worker per hardware thread,
// so the rate is taken over real time, not the calling thread's CPU time.
void BM_CombustionGeneration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const vol::Dims dims{n, n, n};
  int t = 0;
  for (auto _ : state) {
    auto v = vol::generate_combustion(dims, t++);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dims.cell_count()));
}
BENCHMARK(BM_CombustionGeneration)->Arg(32)->Arg(128)->UseRealTime();

// Console reporter that also records each run's per-iteration real time
// (seconds) into the bench::Summary, so this binary emits the same
// BENCH_<name>.json as the table-style benches.
class RecordingReporter : public ::benchmark::ConsoleReporter {
 public:
  explicit RecordingReporter(bench::Summary* summary) : summary_(summary) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      std::string key = run.benchmark_name();
      for (char& c : key) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      summary_->metric(key + "_real_s", run.real_accumulated_time / iters);
    }
  }

 private:
  bench::Summary* summary_;
};

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::Summary summary("micro");
  RecordingReporter reporter(&summary);
  ::benchmark::RunSpecifiedBenchmarks(&reporter);
  ::benchmark::Shutdown();
  return summary.write();
}
