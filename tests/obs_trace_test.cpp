// End-to-end request tracing: one traced DpssFile write against a
// replicated chain must reconstruct into a single ordered lifeline --
// client span, primary, every chain hop, and the acks back out -- exactly
// the paper's NLV per-request plot, and a sampling rate of zero must keep
// the hot path silent.  A server joined after trace collection starts
// exports its spans like the founding ones.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/clock.h"
#include "dpss/deployment.h"
#include "netlog/event.h"
#include "netlog/logger.h"
#include "obs/trace.h"
#include "support/test_support.h"

namespace visapult::dpss {
namespace {

constexpr std::uint32_t kBlock = 8192;

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((i * 131 + salt) & 0xff);
  }
  return out;
}

std::string field(const netlog::Event& e, const std::string& key) {
  for (const auto& [k, v] : e.fields) {
    if (k == key) return v;
  }
  return "";
}

// The sink's append order IS the causal order here: the pipe transport
// services each hop synchronously, so a forwarded write's downstream
// events land between the forwarder's SERV_IN and SERV_OUT.
std::vector<netlog::Event> trace_events(const netlog::MemorySink& sink,
                                        const std::string& trace) {
  std::vector<netlog::Event> out;
  for (const auto& e : sink.events()) {
    if (field(e, "TRACE") == trace) out.push_back(e);
  }
  return out;
}

// Deployment with every server and the client logging into one sink.
struct TracedDeployment {
  std::shared_ptr<netlog::MemorySink> sink;
  std::unique_ptr<PipeDeployment> deployment;
  std::shared_ptr<netlog::NetLogger> client_log;

  explicit TracedDeployment(int servers)
      : sink(std::make_shared<netlog::MemorySink>()),
        deployment(std::make_unique<PipeDeployment>(servers)) {
    for (int i = 0; i < servers; ++i) {
      deployment->server(i).set_logger(std::make_shared<netlog::NetLogger>(
          core::global_real_clock(), "server-" + std::to_string(i),
          "dpss_server", sink));
    }
    deployment->master().set_logger(std::make_shared<netlog::NetLogger>(
        core::global_real_clock(), "master", "dpss_master", sink));
    client_log = std::make_shared<netlog::NetLogger>(
        core::global_real_clock(), "client", "dpss_client", sink);
  }
};

TEST(ObsTrace, WriteAgainstRf3ChainYieldsOrderedLifeline) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  TracedDeployment td(3);
  ASSERT_TRUE(
      td.deployment->ingest(desc, kBlock, 1, /*replication_factor=*/3)
          .is_ok());

  auto client = td.deployment->make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  file.value()->enable_tracing(td.client_log, /*sample_rate=*/1.0);

  td.sink->clear();  // drop open/ingest noise; the lifeline starts clean
  const auto fresh = pattern_bytes(kBlock, 7);  // exactly one block
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());

  // Find the write's trace id from its START event.
  std::string trace;
  for (const auto& e : td.sink->events()) {
    if (e.tag == netlog::tags::kDpssWriteStart) {
      trace = field(e, "TRACE");
      break;
    }
  }
  ASSERT_FALSE(trace.empty());

  const auto lifeline = trace_events(*td.sink, trace);
  std::vector<std::string> tags;
  tags.reserve(lifeline.size());
  for (const auto& e : lifeline) tags.push_back(e.tag);

  // Client span wraps the whole chain: primary in, two forwards each
  // bracketing the downstream hop, acks unwinding in reverse.
  const std::vector<std::string> expected = {
      netlog::tags::kDpssWriteStart,
      netlog::tags::kDpssServIn,        // primary
      netlog::tags::kDpssChainForward,  // primary -> hop 1
      netlog::tags::kDpssServIn,        // hop 1
      netlog::tags::kDpssChainForward,  // hop 1 -> hop 2
      netlog::tags::kDpssServIn,        // hop 2
      netlog::tags::kDpssServOut,       // hop 2 ack
      netlog::tags::kDpssServOut,       // hop 1 ack
      netlog::tags::kDpssServOut,       // primary ack
      netlog::tags::kDpssWriteEnd,
  };
  EXPECT_EQ(tags, expected);

  // Three distinct hosts served the chain (primary + 2 forwards).
  std::set<std::string> hosts;
  for (const auto& e : lifeline) {
    if (e.tag == netlog::tags::kDpssServIn) hosts.insert(e.host);
  }
  EXPECT_EQ(hosts.size(), 3u);

  // Every hop minted its own span under the shared trace.
  std::set<std::string> spans;
  for (const auto& e : lifeline) spans.insert(field(e, "SPAN"));
  EXPECT_GE(spans.size(), 4u);
}

TEST(ObsTrace, TracedReadBracketsServerEvents) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  TracedDeployment td(3);
  ASSERT_TRUE(td.deployment->ingest(desc, kBlock, 1, 3).is_ok());

  auto client = td.deployment->make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  file.value()->enable_tracing(td.client_log, 1.0,
                               /*slow_threshold_seconds=*/1e-9);

  td.sink->clear();
  std::vector<std::uint8_t> buf(kBlock);
  auto n = file.value()->pread(buf.data(), buf.size(), 0);
  ASSERT_TRUE(n.is_ok());
  ASSERT_EQ(n.value(), buf.size());

  std::string trace;
  for (const auto& e : td.sink->events()) {
    if (e.tag == netlog::tags::kDpssReadStart) trace = field(e, "TRACE");
  }
  ASSERT_FALSE(trace.empty());
  const auto lifeline = trace_events(*td.sink, trace);
  ASSERT_GE(lifeline.size(), 4u);
  EXPECT_EQ(lifeline.front().tag, netlog::tags::kDpssReadStart);
  EXPECT_EQ(lifeline[1].tag, netlog::tags::kDpssServIn);
  // Any real read takes longer than a nanosecond: the threshold fires.
  bool slow_logged = false;
  for (const auto& e : lifeline) {
    if (e.tag == netlog::tags::kDpssSlowRequest) slow_logged = true;
  }
  EXPECT_TRUE(slow_logged);
}

TEST(ObsTrace, SamplingZeroEmitsNothingOnTheHotPath) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  TracedDeployment td(3);
  ASSERT_TRUE(td.deployment->ingest(desc, kBlock, 1, 3).is_ok());

  auto client = td.deployment->make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  file.value()->enable_tracing(td.client_log, /*sample_rate=*/0.0);

  td.sink->clear();
  const auto fresh = pattern_bytes(kBlock, 3);
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());
  std::vector<std::uint8_t> buf(kBlock);
  ASSERT_TRUE(file.value()->pread(buf.data(), buf.size(), 0).is_ok());

  // Sampled out: no lifeline events anywhere -- not at the client, not at
  // any server (untraced messages carry zero ids down the chain).
  const std::vector<std::string> trace_tags = {
      netlog::tags::kDpssReadStart,    netlog::tags::kDpssReadEnd,
      netlog::tags::kDpssWriteStart,   netlog::tags::kDpssWriteEnd,
      netlog::tags::kDpssServIn,       netlog::tags::kDpssServOut,
      netlog::tags::kDpssChainForward, netlog::tags::kDpssParityDelta,
      netlog::tags::kDpssSlowRequest,
  };
  for (const auto& e : td.sink->events()) {
    for (const auto& t : trace_tags) {
      EXPECT_NE(e.tag, t);
    }
  }
}

TEST(ObsTrace, BoundedSinkDropsOldestAndCounts) {
  netlog::MemorySink sink(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    sink.consume(netlog::Event{static_cast<double>(i), "h", "p",
                               "TAG" + std::to_string(i), -1, -1, {}});
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().tag, "TAG6");  // oldest retained
  EXPECT_EQ(events.back().tag, "TAG9");
  sink.clear();
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(ObsTrace, ServerJoinedAfterCollectionStartsExportsItsSpans) {
  PipeDeployment deployment(2);
  deployment.enable_trace_collection();
  const int joined = deployment.add_server();
  BlockServer& server = deployment.server(joined);
  server.put_block("joiner", 0, pattern_bytes(kBlock, 5));

  // One traced request to the joined server.
  BlockReadRequest req;
  req.dataset = "joiner";
  req.block = 0;
  net::Message msg = encode(req);
  msg.trace_id = obs::new_trace_id();
  msg.span_id = obs::new_span_id();
  const net::Message reply =
      server.dispatch(std::move(msg), server.allocate_conn_id()).message;
  ASSERT_EQ(reply.type, kBlockReadReply);

  EXPECT_GT(deployment.export_spans(), 0u);
  auto& collector = deployment.master().span_collector();
  collector.finalize_all();
  bool joined_span = false;
  for (const auto& tree : collector.trees()) {
    for (const auto& span : tree.spans) {
      if (span.host == server.name()) joined_span = true;
    }
  }
  EXPECT_TRUE(joined_span);
}

}  // namespace
}  // namespace visapult::dpss
