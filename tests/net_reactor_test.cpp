// Reactor net layer: timer-wheel semantics, readiness dispatch, and the
// ReactorServer connection state machine (the per-connection dispatch
// window with in-order replies, back-pressure, per-request read timeouts,
// and equivalence with the blocking shim).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "dpss/protocol.h"
#include "dpss/server.h"
#include "net/message.h"
#include "net/reactor.h"
#include "net/reactor_server.h"
#include "net/tcp.h"
#include "net/timer_wheel.h"
#include "support/test_support.h"

namespace visapult::net {
namespace {

// ---- TimerWheel (clock-free: the caller supplies absolute time) ----

TEST(TimerWheel, FiresInDeadlineOrder) {
  TimerWheel wheel(0.001);
  std::vector<int> fired;
  wheel.schedule(0.030, [&] { fired.push_back(3); });
  wheel.schedule(0.010, [&] { fired.push_back(1); });
  wheel.schedule(0.020, [&] { fired.push_back(2); });
  EXPECT_EQ(wheel.pending(), 3u);
  EXPECT_DOUBLE_EQ(wheel.next_deadline(), 0.010);

  EXPECT_EQ(wheel.advance(0.005), 0u);
  EXPECT_EQ(wheel.advance(0.015), 1u);
  EXPECT_EQ(wheel.advance(0.100), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, SameTickFiresInScheduleOrder) {
  TimerWheel wheel(0.010);
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    wheel.schedule(0.015, [&fired, i] { fired.push_back(i); });
  }
  wheel.advance(0.050);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TimerWheel, CancelPreventsFire) {
  TimerWheel wheel(0.001);
  bool fired = false;
  const auto id = wheel.schedule(0.010, [&] { fired = true; });
  EXPECT_TRUE(wheel.cancel(id));
  EXPECT_FALSE(wheel.cancel(id));  // second cancel is a no-op
  EXPECT_EQ(wheel.advance(1.0), 0u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, CursorJumpsLongEmptyStretches) {
  TimerWheel wheel(0.001, /*buckets=*/64);
  // Far beyond one wheel revolution: the tick lands in a reused bucket and
  // must not fire on earlier laps.
  bool fired = false;
  wheel.schedule(10.0, [&] { fired = true; });
  EXPECT_EQ(wheel.advance(9.999), 0u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(wheel.advance(10.5), 1u);
  EXPECT_TRUE(fired);
}

TEST(TimerWheel, CallbackMayRescheduleAndCancel) {
  TimerWheel wheel(0.001);
  int chained = 0;
  TimerWheel::TimerId victim = wheel.schedule(0.050, [&] { chained = -99; });
  wheel.schedule(0.010, [&] {
    wheel.cancel(victim);
    wheel.schedule(0.020, [&] { chained = 2; });
    chained = 1;
  });
  wheel.advance(0.015);
  EXPECT_EQ(chained, 1);
  wheel.advance(0.100);
  EXPECT_EQ(chained, 2);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, PastDeadlineFiresOnNextAdvance) {
  TimerWheel wheel(0.001);
  wheel.advance(1.0);
  bool fired = false;
  wheel.schedule(0.5, [&] { fired = true; });  // already in the past
  // The deadline is clamped one tick past the cursor; any advance that
  // crosses a full tick must fire it.
  wheel.advance(1.01);
  EXPECT_TRUE(fired);
}

// ---- Reactor ----

TEST(Reactor, PostRunsOnLoopThread) {
  Reactor reactor;
  std::promise<bool> on_loop;
  reactor.post([&] { on_loop.set_value(reactor.on_loop_thread()); });
  EXPECT_TRUE(on_loop.get_future().get());
  EXPECT_FALSE(reactor.on_loop_thread());
}

TEST(Reactor, TimerFiresAndCancelledTimerDoesNot) {
  Reactor reactor;
  std::atomic<int> fired{0};
  reactor.schedule_after(0.01, [&] { fired.fetch_add(1); });
  const auto cancelled = reactor.schedule_after(0.02, [&] { fired.fetch_add(100); });
  reactor.cancel_timer(cancelled);
  EXPECT_TRUE(test_support::wait_until([&] { return fired.load() == 1; }));
  // Give the cancelled timer's deadline time to pass, then confirm silence.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_EQ(fired.load(), 1);
}

TEST(Reactor, SubMillisecondTimersFireOnTime) {
  Reactor reactor;
  constexpr double kDelay = 300e-6;
  constexpr int kTimers = 50;
  std::vector<double> lateness;
  for (int i = 0; i < kTimers; ++i) {
    std::promise<double> fired;
    const double armed = reactor.now();
    reactor.schedule_after(kDelay, [&] { fired.set_value(reactor.now()); });
    lateness.push_back(fired.get_future().get() - armed - kDelay);
  }
  EXPECT_GE(*std::min_element(lateness.begin(), lateness.end()), 0.0)
      << "a timer fired before its deadline";
  std::nth_element(lateness.begin(), lateness.begin() + kTimers / 2,
                   lateness.end());
  EXPECT_LT(lateness[kTimers / 2], 0.3e-3) << "median lateness";
}

TEST(Reactor, DispatchesReadableFd) {
  Reactor reactor;
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::atomic<int> got{0};
  std::promise<core::Status> added;
  reactor.post([&] {
    added.set_value(reactor.add_fd(sv[0], Reactor::kReadable, [&](std::uint32_t ev) {
      if (ev & Reactor::kReadable) {
        char c;
        if (::read(sv[0], &c, 1) == 1) got.fetch_add(1);
      }
    }));
  });
  ASSERT_TRUE(added.get_future().get().is_ok());

  ASSERT_EQ(::write(sv[1], "x", 1), 1);
  EXPECT_TRUE(test_support::wait_until([&] { return got.load() == 1; }));

  std::promise<void> removed;
  reactor.post([&] {
    reactor.del_fd(sv[0]);
    removed.set_value();
  });
  removed.get_future().wait();
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(Reactor, IdleLoopReportsNearZeroBusyFraction) {
  Reactor reactor;
  // Let the loop settle into epoll_wait, then watch it do nothing.
  std::promise<void> started;
  reactor.post([&] { started.set_value(); });
  started.get_future().wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto stats = reactor.stats();
  EXPECT_GT(stats.idle_seconds, 0.1);
  EXPECT_LT(stats.busy_fraction(), 0.1);
}

TEST(Reactor, SpinningLoopReportsNearFullBusyFraction) {
  Reactor reactor;
  // A self-reposting task that burns ~1 ms per turn keeps the loop out of
  // epoll_wait (the repost makes the wake fd hot, so the loop never parks).
  std::atomic<bool> stop{false};
  std::function<void()> spin = [&] {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
    while (std::chrono::steady_clock::now() < until) {
    }
    if (!stop.load()) reactor.post(spin);
  };
  reactor.post(spin);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  const auto stats = reactor.stats();
  EXPECT_GT(stats.busy_seconds, 0.1);
  EXPECT_GT(stats.busy_fraction(), 0.8);
  // Stop before the captured `spin` lambda goes out of scope: the loop may
  // still be about to run a queued repost.
  reactor.stop();
}

TEST(Reactor, DispatchWaitHistogramSeesPostedTasks) {
  Reactor reactor;
  ASSERT_EQ(reactor.dispatch_wait().count, 0u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    reactor.post([&] { ran.fetch_add(1); });
  }
  EXPECT_TRUE(test_support::wait_until([&] { return ran.load() == 32; }));
  const auto wait = reactor.dispatch_wait();
  EXPECT_EQ(wait.count, 32u);
  EXPECT_GE(wait.min, 0.0);
  // Post-to-run latency on an idle loop is far below a second.
  EXPECT_LT(wait.p99(), 1.0);
}

TEST(ReactorPool, RoundRobinCoversEveryLoop) {
  ReactorPool pool(3);
  ASSERT_EQ(pool.size(), 3);
  std::set<Reactor*> seen;
  for (int i = 0; i < 6; ++i) seen.insert(&pool.next());
  EXPECT_EQ(seen.size(), 3u);
}

// ---- ReactorServer ----

Message seq_message(std::uint32_t seq, std::size_t payload = 8) {
  Message m;
  m.type = 100;
  m.payload = std::vector<std::uint8_t>(std::max(payload, sizeof seq), 0);
  std::memcpy(m.payload.data(), &seq, sizeof seq);
  return m;
}

std::uint32_t seq_of(const Message& m) {
  std::uint32_t seq = 0;
  std::memcpy(&seq, m.payload.data(), sizeof seq);
  return seq;
}

// Window tests mark type 100 (seq_message) independent; any other type is
// a barrier.
constexpr std::uint32_t kBarrierType = 200;

ReactorServerOptions overlap_type_100(std::size_t window) {
  ReactorServerOptions opts;
  opts.overlappable = [](std::uint32_t type) { return type == 100; };
  opts.window = window;
  return opts;
}

TEST(ReactorServer, EchoRoundTrip) {
  ReactorPool pool(2);
  ReactorServer server(pool, [](Message&& m, std::uint64_t) {
    Message r;
    r.type = m.type + 1;
    r.payload = std::move(m.payload);
    return r;
  });
  ASSERT_TRUE(server.listen(0).is_ok());

  auto client = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.is_ok());
  const Message req = seq_message(7, 1024);
  ASSERT_TRUE(send_message(*client.value(), req).is_ok());
  auto reply = recv_message(*client.value());
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value().type, 101u);
  EXPECT_EQ(reply.value().payload, req.payload);

  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.requests, 1u);
  server.close();
}

TEST(ReactorServer, PipelinedRepliesComeBackInOrder) {
  ReactorPool pool(2);
  ReactorServer server(pool, [](Message&& m, std::uint64_t) { return m; });
  ASSERT_TRUE(server.listen(0).is_ok());

  auto client = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.is_ok());
  constexpr std::uint32_t kN = 64;
  // Burst all requests before reading any reply: however the server
  // dispatches them, replies must come back in request order (DpssFile
  // matches replies to requests positionally).
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(send_message(*client.value(), seq_message(i)).is_ok());
  }
  for (std::uint32_t i = 0; i < kN; ++i) {
    auto reply = recv_message(*client.value());
    ASSERT_TRUE(reply.is_ok());
    std::uint32_t seq;
    std::memcpy(&seq, reply.value().payload.data(), sizeof seq);
    EXPECT_EQ(seq, i);
  }
  server.close();
}

TEST(ReactorServer, ConcurrentConnectionsAreIndependent) {
  ReactorPool pool(2);
  std::atomic<std::uint64_t> distinct_conns{0};
  ReactorServer server(pool, [&](Message&& m, std::uint64_t conn_id) {
    distinct_conns.fetch_or(1ull << (conn_id % 64));
    return m;
  });
  ASSERT_TRUE(server.listen(0).is_ok());

  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = TcpStream::connect("127.0.0.1", server.port());
      if (!client.is_ok()) {
        failures.fetch_add(1);
        return;
      }
      for (std::uint32_t i = 0; i < 32; ++i) {
        const auto req = seq_message(i + static_cast<std::uint32_t>(c) * 1000);
        if (!send_message(*client.value(), req).is_ok() ||
            !recv_message(*client.value()).is_ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kClients) * 32);
  server.close();
}

TEST(ReactorServer, WriteQueueCapShedsSlowConsumer) {
  ReactorPool pool(2);
  ReactorServerOptions opts;
  opts.write_queue_cap_bytes = 64 * 1024;
  // Every request produces a 16 KiB reply the client never drains.
  ReactorServer server(
      pool,
      [](Message&& m, std::uint64_t) {
        Message r;
        r.type = m.type;
        r.payload.resize(16 * 1024);
        return r;
      },
      opts);
  ASSERT_TRUE(server.listen(0).is_ok());

  auto client = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.is_ok());
  // Keep feeding requests without ever reading a reply; once the client's
  // receive window and the server's 64 KiB queue cap fill, the server must
  // close the connection rather than queue without bound.
  for (int i = 0; i < 1000; ++i) {
    if (!send_message(*client.value(), seq_message(0)).is_ok()) break;
    if (server.stats().overflow_closes > 0) break;
  }
  EXPECT_TRUE(test_support::wait_until(
      [&] { return server.stats().overflow_closes >= 1; }));
  // The overflow counter ticks just before the connection is torn down, so
  // the teardown itself is awaited separately.
  EXPECT_TRUE(
      test_support::wait_until([&] { return server.stats().active_conns == 0; }));
  server.close();
}

TEST(ReactorServer, ReadTimeoutShedsStalledRequest) {
  ReactorPool pool(2);
  ReactorServerOptions opts;
  opts.request_read_timeout_seconds = 0.05;
  ReactorServer server(pool, [](Message&& m, std::uint64_t) { return m; },
                       opts);
  std::atomic<int> observed{0};
  server.set_read_timeout_observer([&] { observed.fetch_add(1); });
  ASSERT_TRUE(server.listen(0).is_ok());

  auto client = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.is_ok());
  // Half a frame header, then silence: the per-request timer must fire.
  const std::uint8_t partial[6] = {0x31, 0x50, 0x53, 0x56, 0x01, 0x00};
  ASSERT_TRUE(client.value()->send_all(partial, sizeof partial).is_ok());
  EXPECT_TRUE(test_support::wait_until(
      [&] { return server.stats().read_timeouts >= 1; }));
  EXPECT_EQ(observed.load(), 1);
  // The stalled connection was closed; an idle one would still be up.
  EXPECT_TRUE(
      test_support::wait_until([&] { return server.stats().active_conns == 0; }));
  server.close();
}

TEST(ReactorServer, IdleConnectionNeverTimesOut) {
  ReactorPool pool(2);
  ReactorServerOptions opts;
  opts.request_read_timeout_seconds = 0.05;
  ReactorServer server(pool, [](Message&& m, std::uint64_t) { return m; },
                       opts);
  ASSERT_TRUE(server.listen(0).is_ok());

  auto client = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.is_ok());
  // Complete a request, then sit idle well past the timeout: only partial
  // requests are on the clock, so the connection must survive.
  ASSERT_TRUE(send_message(*client.value(), seq_message(1)).is_ok());
  ASSERT_TRUE(recv_message(*client.value()).is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(server.stats().read_timeouts, 0u);
  ASSERT_TRUE(send_message(*client.value(), seq_message(2)).is_ok());
  EXPECT_TRUE(recv_message(*client.value()).is_ok());
  server.close();
}

TEST(ReactorServer, MalformedMagicClosesConnection) {
  ReactorPool pool(2);
  ReactorServer server(pool, [](Message&& m, std::uint64_t) { return m; });
  ASSERT_TRUE(server.listen(0).is_ok());

  auto client = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.is_ok());
  std::vector<std::uint8_t> junk(32, 0xAB);
  ASSERT_TRUE(client.value()->send_bytes(junk).is_ok());
  EXPECT_TRUE(
      test_support::wait_until([&] { return server.stats().active_conns == 0; }));
  EXPECT_EQ(server.stats().requests, 0u);
  server.close();
}

// The blocking serve(StreamPtr) shim and the reactor front door feed the
// same BlockServer::handle_request, so a given request must produce
// byte-identical replies on both paths.
TEST(ReactorServer, ShimAndReactorServeIdenticalBlockReads) {
  dpss::ServerCacheConfig no_cache;
  no_cache.enabled = false;
  dpss::BlockServer srv("equivalence", dpss::DiskModel{}, /*throttle=*/false,
                        no_cache);
  std::vector<std::uint8_t> block(4096);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<std::uint8_t>(i * 13 + 1);
  }
  ASSERT_TRUE(srv.put_block("ds", 0, block).is_ok());

  dpss::BlockReadRequest req;
  req.dataset = "ds";
  req.block = 0;
  const Message wire_req = dpss::encode(req);

  // Path 1: blocking shim over an in-memory pipe.
  auto [client_end, server_end] = make_pipe();
  srv.serve(server_end);
  ASSERT_TRUE(send_message(*client_end, wire_req).is_ok());
  auto shim_reply = recv_message(*client_end);
  ASSERT_TRUE(shim_reply.is_ok());
  client_end->close();

  // Path 2: reactor front door over TCP.
  ReactorPool pool(2);
  core::ThreadPool workers(2);
  ReactorServer front(
      pool,
      [&srv](Message&& m, std::uint64_t conn_id) {
        return srv.handle_request(std::move(m), conn_id);
      },
      ReactorServerOptions{}, &workers);
  ASSERT_TRUE(front.listen(0).is_ok());
  auto tcp_client = TcpStream::connect("127.0.0.1", front.port());
  ASSERT_TRUE(tcp_client.is_ok());
  ASSERT_TRUE(send_message(*tcp_client.value(), wire_req).is_ok());
  auto reactor_reply = recv_message(*tcp_client.value());
  ASSERT_TRUE(reactor_reply.is_ok());
  front.close();

  EXPECT_EQ(shim_reply.value().type, reactor_reply.value().type);
  EXPECT_EQ(shim_reply.value().payload, reactor_reply.value().payload);
  auto decoded = dpss::decode<dpss::BlockReadReply>(reactor_reply.value());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().data, block);
}

TEST(ReactorServer, CloseDrainsInFlightHandlers) {
  ReactorPool pool(2);
  core::ThreadPool workers(2);
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<bool> handler_done{false};
  ReactorServer server(
      pool,
      [&](Message&& m, std::uint64_t) {
        entered.store(true);
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        handler_done.store(true);
        return m;
      },
      ReactorServerOptions{}, &workers);
  ASSERT_TRUE(server.listen(0).is_ok());

  auto client = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE(send_message(*client.value(), seq_message(0)).is_ok());
  ASSERT_TRUE(test_support::wait_until([&] { return entered.load(); }));

  std::thread closer([&] { server.close(); });
  // close() must not return while the handler is still running.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(handler_done.load());
  release.store(true);
  closer.join();
  EXPECT_TRUE(handler_done.load());
}

// ---- ReactorServer dispatch window ----

TEST(ReactorServerWindow, OverlappedRequestsShareTheHandlerAndKeepReplyOrder) {
  ReactorPool pool(2);
  core::ThreadPool workers(2);
  std::atomic<int> inside{0};
  std::atomic<bool> both_inside{false};
  std::atomic<bool> second_returned{false};
  std::atomic<bool> second_finished_first{false};
  ReactorServer server(
      pool,
      [&](Message&& m, std::uint64_t) {
        inside.fetch_add(1);
        // Latch: neither request leaves until both are in the handler.
        if (test_support::wait_until([&] { return inside.load() == 2; })) {
          both_inside.store(true);
        }
        if (seq_of(m) == 0) {
          // Hold the first reply until the second has left the handler,
          // and give its reply time to reach the connection ahead of ours.
          second_finished_first.store(
              test_support::wait_until([&] { return second_returned.load(); }));
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        } else {
          second_returned.store(true);
        }
        return m;
      },
      overlap_type_100(2), &workers);
  ASSERT_TRUE(server.listen(0).is_ok());

  auto client = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE(send_message(*client.value(), seq_message(0)).is_ok());
  ASSERT_TRUE(send_message(*client.value(), seq_message(1)).is_ok());
  for (std::uint32_t i = 0; i < 2; ++i) {
    auto reply = recv_message(*client.value());
    ASSERT_TRUE(reply.is_ok());
    EXPECT_EQ(seq_of(reply.value()), i);
  }
  EXPECT_TRUE(both_inside.load());
  EXPECT_TRUE(second_finished_first.load());
  EXPECT_EQ(server.stats().overlapped_requests, 1u);
  server.close();
}

TEST(ReactorServerWindow, UnmarkedRequestRunsAloneAfterEveryEarlierOne) {
  ReactorPool pool(2);
  core::ThreadPool workers(4);
  std::atomic<int> active{0};
  std::atomic<int> completed{0};
  std::atomic<int> max_active{0};
  std::atomic<bool> barrier_active{false};
  std::atomic<bool> barrier_overlapped{false};
  std::atomic<int> completed_before_barrier{-1};
  ReactorServer server(
      pool,
      [&](Message&& m, std::uint64_t) {
        const int now = active.fetch_add(1) + 1;
        int seen = max_active.load();
        while (now > seen && !max_active.compare_exchange_weak(seen, now)) {
        }
        if (m.type == kBarrierType) {
          barrier_active.store(true);
          if (now != 1) barrier_overlapped.store(true);
          completed_before_barrier.store(completed.load());
        } else if (barrier_active.load()) {
          barrier_overlapped.store(true);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (m.type == kBarrierType) barrier_active.store(false);
        completed.fetch_add(1);
        active.fetch_sub(1);
        return m;
      },
      overlap_type_100(4), &workers);
  ASSERT_TRUE(server.listen(0).is_ok());

  auto client = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.is_ok());
  // Three reads, a barrier, three more reads, all in one burst.
  for (std::uint32_t i = 0; i < 7; ++i) {
    Message req = seq_message(i);
    if (i == 3) req.type = kBarrierType;
    ASSERT_TRUE(send_message(*client.value(), req).is_ok());
  }
  for (std::uint32_t i = 0; i < 7; ++i) {
    auto reply = recv_message(*client.value());
    ASSERT_TRUE(reply.is_ok());
    EXPECT_EQ(seq_of(reply.value()), i);
    EXPECT_EQ(reply.value().type, i == 3 ? kBarrierType : 100u);
  }
  EXPECT_FALSE(barrier_overlapped.load());
  EXPECT_EQ(completed_before_barrier.load(), 3);
  EXPECT_GE(max_active.load(), 2);  // the reads on either side overlapped
  EXPECT_GE(server.stats().overlapped_requests, 2u);
  server.close();
}

TEST(ReactorServerWindow, WindowOfOneStaysSerial) {
  ReactorPool pool(2);
  std::atomic<int> active{0};
  std::atomic<int> max_active{0};
  // Marked independent, but a window of one request: dispatch must stay
  // one at a time.
  ReactorServer server(
      pool,
      [&](Message&& m, std::uint64_t) {
        const int now = active.fetch_add(1) + 1;
        int seen = max_active.load();
        while (now > seen && !max_active.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        active.fetch_sub(1);
        return m;
      },
      overlap_type_100(1));
  ASSERT_TRUE(server.listen(0).is_ok());

  auto client = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.is_ok());
  constexpr std::uint32_t kN = 16;
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(send_message(*client.value(), seq_message(i)).is_ok());
  }
  for (std::uint32_t i = 0; i < kN; ++i) {
    auto reply = recv_message(*client.value());
    ASSERT_TRUE(reply.is_ok());
    EXPECT_EQ(seq_of(reply.value()), i);
  }
  EXPECT_EQ(max_active.load(), 1);
  EXPECT_EQ(server.stats().overlapped_requests, 0u);
  server.close();
}

TEST(ReactorServerWindow, CloseDrainsWhileRepliesAreHeldOutOfOrder) {
  ReactorPool pool(2);
  core::ThreadPool workers(2);
  std::atomic<bool> release{false};
  std::atomic<bool> first_done{false};
  std::atomic<bool> second_returned{false};
  ReactorServer server(
      pool,
      [&](Message&& m, std::uint64_t) {
        if (seq_of(m) == 0) {
          while (!release.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          first_done.store(true);
        } else {
          second_returned.store(true);
        }
        return m;
      },
      overlap_type_100(2), &workers);
  ASSERT_TRUE(server.listen(0).is_ok());

  auto client = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE(send_message(*client.value(), seq_message(0)).is_ok());
  ASSERT_TRUE(send_message(*client.value(), seq_message(1)).is_ok());
  // The second reply is finished and held behind the first, still running.
  ASSERT_TRUE(test_support::wait_until([&] { return second_returned.load(); }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  std::thread closer([&] { server.close(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(first_done.load());  // close() is still waiting on it
  release.store(true);
  closer.join();
  EXPECT_TRUE(first_done.load());
  // The held reply died with the connection: the peer sees a close, never
  // the second reply on its own.
  EXPECT_FALSE(recv_message(*client.value()).is_ok());
}

TEST(ReactorServerWindow, WriteQueueCapStillShedsSlowConsumer) {
  ReactorPool pool(2);
  core::ThreadPool workers(2);
  ReactorServerOptions opts = overlap_type_100(2);
  opts.write_queue_cap_bytes = 64 * 1024;
  ReactorServer server(
      pool,
      [](Message&& m, std::uint64_t) {
        Message r;
        r.type = m.type;
        r.payload.resize(16 * 1024);
        return r;
      },
      opts, &workers);
  ASSERT_TRUE(server.listen(0).is_ok());

  auto client = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.is_ok());
  for (int i = 0; i < 1000; ++i) {
    if (!send_message(*client.value(), seq_message(0)).is_ok()) break;
    if (server.stats().overflow_closes > 0) break;
  }
  EXPECT_TRUE(test_support::wait_until(
      [&] { return server.stats().overflow_closes >= 1; }));
  EXPECT_TRUE(
      test_support::wait_until([&] { return server.stats().active_conns == 0; }));
  EXPECT_GT(server.stats().overlapped_requests, 0u);
  server.close();
}

// ---- deferred replies ----

TEST(ReactorServerDeferral, RepliesLeaveInRequestOrderAfterTheLongestDelay) {
  ReactorPool pool(2);
  // Delays 30, 20, 10, 0 ms: each reply is ready before its predecessor.
  // The handler runs inline on the loop and returns at once; the waits are
  // loop timers, so they overlap.
  ReactorServer server(
      pool,
      [](Message&& m, std::uint64_t) {
        const double delay = 0.010 * (3 - seq_of(m));
        return Reply(std::move(m), delay);
      },
      overlap_type_100(4));
  ASSERT_TRUE(server.listen(0).is_ok());

  auto client = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.is_ok());
  const auto start = std::chrono::steady_clock::now();
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(send_message(*client.value(), seq_message(i)).is_ok());
  }
  for (std::uint32_t i = 0; i < 4; ++i) {
    auto reply = recv_message(*client.value());
    ASSERT_TRUE(reply.is_ok());
    EXPECT_EQ(seq_of(reply.value()), i);
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_GE(elapsed, 0.030);
  EXPECT_LT(elapsed, 0.055) << "the delays ran one after another";
  EXPECT_EQ(server.stats().overlapped_requests, 3u);
  server.close();
}

TEST(ReactorServerDeferral, BarrierWaitsForDeferredPredecessors) {
  ReactorPool pool(2);
  core::ThreadPool workers(2);
  std::atomic<double> read_ran{0.0};
  std::atomic<double> barrier_ran{0.0};
  ReactorServer server(
      pool,
      [&](Message&& m, std::uint64_t) {
        const double now = pool.at(0).now();
        if (m.type == kBarrierType) {
          barrier_ran.store(now);
          return Reply(std::move(m));
        }
        read_ran.store(now);
        return Reply(std::move(m), 0.020);
      },
      overlap_type_100(4), &workers);
  ASSERT_TRUE(server.listen(0).is_ok());

  auto client = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.is_ok());
  Message barrier = seq_message(1);
  barrier.type = kBarrierType;
  ASSERT_TRUE(send_message(*client.value(), seq_message(0)).is_ok());
  ASSERT_TRUE(send_message(*client.value(), barrier).is_ok());
  for (std::uint32_t i = 0; i < 2; ++i) {
    auto reply = recv_message(*client.value());
    ASSERT_TRUE(reply.is_ok());
    EXPECT_EQ(seq_of(reply.value()), i);
  }
  // The barrier's handler ran only once the deferred read had been
  // written, i.e. not before its delay had passed.
  EXPECT_GE(barrier_ran.load() - read_ran.load(), 0.020);
  server.close();
}

TEST(ReactorServerDeferral, CloseWithArmedDeferralsDrainsCleanly) {
  ReactorPool pool(2);
  core::ThreadPool workers(2);
  std::atomic<int> handled{0};
  ReactorServer server(
      pool,
      [&](Message&& m, std::uint64_t) {
        handled.fetch_add(1);
        return Reply(std::move(m), 10.0);  // far beyond the test
      },
      overlap_type_100(2), &workers);
  ASSERT_TRUE(server.listen(0).is_ok());

  auto client = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE(send_message(*client.value(), seq_message(0)).is_ok());
  ASSERT_TRUE(send_message(*client.value(), seq_message(1)).is_ok());
  ASSERT_TRUE(test_support::wait_until([&] { return handled.load() == 2; }));

  // close() cancels the armed timers instead of waiting them out, and the
  // deferred replies die with the connection.
  const auto start = std::chrono::steady_clock::now();
  server.close();
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            5.0);
  EXPECT_FALSE(recv_message(*client.value()).is_ok());
}

}  // namespace
}  // namespace visapult::net
