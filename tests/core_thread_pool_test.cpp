#include "core/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "support/test_support.h"

namespace visapult::core {
namespace {

TEST(ThreadPool, RunsSubmittedWork) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  // Bounded gets: a stuck worker fails here in seconds instead of wedging
  // the ctest job until its timeout.
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(10)), std::future_status::ready);
    f.get();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SizeClampedToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  auto fut = pool.submit([] {});
  fut.get();
}

class ParallelForRanges
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(ParallelForRanges, CoversEveryIndexExactlyOnce) {
  const auto [begin, end] = GetParam();
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(end > begin ? end : 1);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(begin, end, [&](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), (i >= begin && i < end) ? 1 : 0) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, ParallelForRanges,
    ::testing::Values(std::make_pair<std::size_t, std::size_t>(0, 0),
                      std::make_pair<std::size_t, std::size_t>(0, 1),
                      std::make_pair<std::size_t, std::size_t>(0, 7),
                      std::make_pair<std::size_t, std::size_t>(3, 64),
                      std::make_pair<std::size_t, std::size_t>(0, 1000)));

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 10,
                        [&](std::size_t i) {
                          if (i == 5) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForComputesCorrectSum) {
  ThreadPool pool(4);
  std::vector<long> values(1000);
  pool.parallel_for(0, values.size(), [&](std::size_t i) {
    values[i] = static_cast<long>(i) * 2;
  });
  const long sum = std::accumulate(values.begin(), values.end(), 0L);
  EXPECT_EQ(sum, 999L * 1000L);  // 2 * sum(0..999)
}

TEST(ThreadPool, DestructionDrainsCleanly) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&] { done.fetch_add(1); });
    }
    // Destructor joins after queue drains or stop; submitted work may or
    // may not all run, but destruction must not hang or crash.
  }
  SUCCEED();
}

TEST(ThreadPool, BurstAccountingWithInjectedClock) {
  // Two workers parked on a gate, eight tasks queued behind them, the
  // virtual clock advanced 5 s while they wait: every queued task must
  // observe exactly 5.0 s of wait, and the queue-depth gauges must see the
  // burst.
  VirtualClock clock;
  ThreadPool pool(2);
  pool.set_clock(&clock);

  std::mutex obs_mu;
  std::vector<std::pair<double, double>> observed;  // (wait, run)
  pool.set_task_observer([&](double wait_s, double run_s) {
    std::lock_guard lk(obs_mu);
    observed.emplace_back(wait_s, run_s);
  });

  std::promise<void> gate;
  auto open = gate.get_future().share();
  std::atomic<int> blocked{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 2; ++i) {
    futs.push_back(pool.submit([&, open] {
      blocked.fetch_add(1);
      open.wait();
    }));
  }
  ASSERT_TRUE(test_support::wait_until([&] { return blocked.load() == 2; },
                                       10.0));
  for (int i = 0; i < 8; ++i) {
    futs.push_back(pool.submit([] {}));
  }

  auto mid = pool.stats();
  EXPECT_EQ(mid.submitted, 10u);
  EXPECT_EQ(mid.queue_depth, 8u);
  EXPECT_GE(mid.queue_peak, 8u);
  EXPECT_EQ(mid.threads, 2);
  EXPECT_GT(mid.saturation(), 1.0);  // 8 queued / 2 workers

  clock.advance_by(5.0);
  gate.set_value();
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(10)), std::future_status::ready);
    f.get();
  }
  // A task's future resolves before its worker counts it complete and
  // calls the observer, so wait for the last observation before reading
  // either (and before `observed` goes out of scope).
  ASSERT_TRUE(test_support::wait_until([&] {
    std::lock_guard lk(obs_mu);
    return observed.size() == 10u;
  }));

  auto done = pool.stats();
  EXPECT_EQ(done.completed, 10u);
  EXPECT_EQ(done.queue_depth, 0u);
  EXPECT_GE(done.queue_peak, 8u);

  std::lock_guard lk(obs_mu);
  int waited_five = 0;
  for (const auto& [wait_s, run_s] : observed) {
    if (wait_s == 5.0) ++waited_five;
    EXPECT_GE(wait_s, 0.0);
    EXPECT_GE(run_s, 0.0);
  }
  // The eight queued tasks waited out the full advance; the two gate
  // blockers were picked up at t=0.
  EXPECT_EQ(waited_five, 8);
}

TEST(ThreadPool, ElasticPoolGrowsPastBlockedWorkers) {
  // One worker, elastic: the first task blocks until the SECOND task runs.
  // A fixed-size pool would deadlock here; the elastic pool must spawn an
  // extra worker because none is idle at the second submit.
  ThreadPool pool(1, /*elastic=*/true);
  std::promise<void> second_ran;
  auto second = second_ran.get_future().share();
  auto first = pool.submit([second] { second.wait(); });
  auto fut2 = pool.submit([&] { second_ran.set_value(); });
  ASSERT_EQ(first.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  ASSERT_EQ(fut2.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_GE(pool.size(), 2);
}

TEST(ThreadPool, SizeIsSafeWhileElasticSubmitsGrowThePool) {
  // Every task blocks on a gate, so each submit finds its task without an
  // idle worker and grows the pool, while another thread keeps reading
  // size().  Under TSan an unlocked read of the worker vector is a
  // reported race.
  ThreadPool pool(1, /*elastic=*/true);
  std::promise<void> gate;
  auto open = gate.get_future().share();
  std::atomic<bool> growing{true};
  int seen_max = 0;
  std::thread reader([&] {
    while (growing.load()) seen_max = std::max(seen_max, pool.size());
  });
  constexpr int kTasks = 16;
  std::vector<std::future<void>> futs;
  for (int i = 0; i < kTasks; ++i) {
    futs.push_back(pool.submit([open] { open.wait(); }));
  }
  growing.store(false);
  reader.join();
  gate.set_value();
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  }
  EXPECT_GE(pool.size(), 2);
  EXPECT_LE(seen_max, pool.size());
}

TEST(ThreadPool, NonElasticPoolKeepsFixedSize) {
  ThreadPool pool(2);
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 50; ++i) futs.push_back(pool.submit([] {}));
  for (auto& f : futs) f.get();
  EXPECT_EQ(pool.size(), 2);
}

TEST(ThreadPool, SubmitFromManyThreadsAllRuns) {
  // Hammer submit() from several producer threads; completion is observed
  // via wait_until rather than a fixed sleep.
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        pool.submit([&] { ran.fetch_add(1); });
      }
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(test_support::wait_until(
      [&] { return ran.load() == kProducers * kPerProducer; }, 10.0));
  EXPECT_EQ(ran.load(), kProducers * kPerProducer);
}

}  // namespace
}  // namespace visapult::core
