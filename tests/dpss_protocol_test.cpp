#include "dpss/protocol.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

namespace visapult::dpss {
namespace {

TEST(Layout, BlockCountRoundsUp) {
  DatasetLayout layout;
  layout.total_bytes = 100;
  layout.block_bytes = 64;
  EXPECT_EQ(layout.block_count(), 2u);
  layout.total_bytes = 128;
  EXPECT_EQ(layout.block_count(), 2u);
  layout.total_bytes = 129;
  EXPECT_EQ(layout.block_count(), 3u);
}

TEST(Layout, StripingRoundRobin) {
  DatasetLayout layout;
  layout.total_bytes = 1000;
  layout.block_bytes = 10;
  layout.stripe_blocks = 1;
  layout.server_count = 4;
  EXPECT_EQ(layout.server_for_block(0), 0u);
  EXPECT_EQ(layout.server_for_block(1), 1u);
  EXPECT_EQ(layout.server_for_block(4), 0u);
}

TEST(Layout, StripeRunsOfBlocks) {
  DatasetLayout layout;
  layout.stripe_blocks = 4;
  layout.server_count = 2;
  EXPECT_EQ(layout.server_for_block(0), 0u);
  EXPECT_EQ(layout.server_for_block(3), 0u);
  EXPECT_EQ(layout.server_for_block(4), 1u);
  EXPECT_EQ(layout.server_for_block(8), 0u);
}

TEST(Layout, FinalBlockIsShort) {
  DatasetLayout layout;
  layout.total_bytes = 100;
  layout.block_bytes = 64;
  EXPECT_EQ(layout.block_length(0), 64u);
  EXPECT_EQ(layout.block_length(1), 36u);
  EXPECT_EQ(layout.block_length(2), 0u);
}

TEST(Protocol, OpenRequestRoundTrip) {
  OpenRequest req;
  req.dataset = "combustion-640";
  req.auth_token = "secret";
  auto msg = encode(req);
  auto back = decode<OpenRequest>(msg);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().dataset, "combustion-640");
  EXPECT_EQ(back.value().auth_token, "secret");
}

TEST(Protocol, OpenReplyRoundTrip) {
  OpenReply reply;
  reply.handle = 77;
  reply.layout.total_bytes = 41943040;
  reply.layout.block_bytes = 65536;
  reply.layout.stripe_blocks = 2;
  reply.layout.server_count = 2;
  reply.servers = {{"127.0.0.1", 1234}, {"127.0.0.1", 5678}};
  auto back = decode<OpenReply>(encode(reply));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().handle, 77u);
  EXPECT_EQ(back.value().layout.total_bytes, 41943040u);
  ASSERT_EQ(back.value().servers.size(), 2u);
  EXPECT_EQ(back.value().servers[1].port, 5678);
}

TEST(Protocol, OpenReplyCarriesEcProfile) {
  OpenReply reply;
  reply.layout.total_bytes = 1 << 20;
  reply.layout.server_count = 6;
  reply.servers.assign(6, {"h", 1});
  reply.ring_vnodes = 64;
  reply.ec = codec::EcProfile{4, 2};
  auto back = decode<OpenReply>(encode(reply));
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(back.value().ec.enabled());
  EXPECT_EQ(back.value().ec, (codec::EcProfile{4, 2}));
  EXPECT_DOUBLE_EQ(back.value().ec.capacity_ratio(), 1.5);

  // And the default profile round-trips as disabled.
  OpenReply plain;
  plain.servers = {{"h", 1}};
  plain.layout.server_count = 1;
  auto plain_back = decode<OpenReply>(encode(plain));
  ASSERT_TRUE(plain_back.is_ok());
  EXPECT_FALSE(plain_back.value().ec.enabled());
}

TEST(Protocol, FieldImpossibleEcProfileRejected) {
  // The client builds GF(2^8) machinery straight from the decoded
  // profile; geometries the field cannot host must die at the decoder.
  OpenReply reply;
  reply.servers = {{"h", 1}};
  reply.layout.server_count = 1;
  reply.ec = codec::EcProfile{300, 17};  // k + m > 255
  EXPECT_FALSE(decode<OpenReply>(encode(reply)).is_ok());
  reply.ec = codec::EcProfile{0, 2};  // zero data slices
  EXPECT_FALSE(decode<OpenReply>(encode(reply)).is_ok());
}

TEST(Protocol, BlockReadRoundTrip) {
  BlockReadRequest req{"ds", 42, {}};
  auto back = decode<BlockReadRequest>(encode(req));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().dataset, "ds");
  EXPECT_EQ(back.value().block, 42u);

  BlockReadReply reply;
  reply.block = 42;
  reply.data = {1, 2, 3};
  auto r2 = decode<BlockReadReply>(encode(reply));
  ASSERT_TRUE(r2.is_ok());
  EXPECT_EQ(r2.value().data, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Protocol, BlockWriteRoundTrip) {
  BlockWriteRequest req;
  req.dataset = "ds";
  req.block = 9;
  req.data = {9, 9, 9, 9};
  auto back = decode<BlockWriteRequest>(encode(req));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().data.size(), 4u);
  auto ack = decode<BlockWriteReply>(encode(BlockWriteReply{9}));
  ASSERT_TRUE(ack.is_ok());
  EXPECT_EQ(ack.value().block, 9u);
}

TEST(Protocol, ErrorReplyCarriesStatus) {
  const auto status = core::permission_denied("bad token");
  auto msg = encode_error_reply(status);
  const auto back = decode_error_reply(msg);
  EXPECT_EQ(back.code(), core::StatusCode::kPermissionDenied);
  EXPECT_EQ(back.message(), "bad token");
}

TEST(Protocol, ErrorReplySurfacesThroughTypedDecoders) {
  auto msg = encode_error_reply(core::not_found("no dataset"));
  auto open = decode<OpenReply>(msg);
  EXPECT_FALSE(open.is_ok());
  EXPECT_EQ(open.status().code(), core::StatusCode::kNotFound);
  auto read = decode<BlockReadReply>(msg);
  EXPECT_FALSE(read.is_ok());
}

TEST(Protocol, WrongTypeRejected) {
  OpenRequest req;
  auto msg = encode(req);
  EXPECT_FALSE(decode<BlockReadRequest>(msg).is_ok());
}

TEST(Protocol, TruncatedPayloadRejected) {
  OpenReply reply;
  reply.servers = {{"h", 1}};
  reply.layout.server_count = 1;
  auto msg = encode(reply);
  msg.payload.resize(msg.payload.size() / 2);
  EXPECT_FALSE(decode<OpenReply>(msg).is_ok());
}

TEST(Protocol, PortWiderThan16BitsRejected) {
  // Ports travel as u32; 70000 must not decode as 70000 mod 65536.
  FailureReport report;
  report.server = ServerAddress{"srv", 1};
  auto msg = encode(report);
  const std::uint32_t wide = 70000;
  std::memcpy(msg.payload.data() + 4 + 3, &wide, 4);  // after "srv"
  EXPECT_EQ(decode<FailureReport>(msg).status().code(),
            core::StatusCode::kDataLoss);
}

TEST(Protocol, ErrorReplyWithOkCodeIsMalformed) {
  // An error frame must carry an error: code 0 would read as a failed
  // Result whose status says OK.
  auto msg = encode_error_reply(core::not_found("no dataset"));
  std::memset(msg.payload.data(), 0, 4);
  EXPECT_EQ(decode_error_reply(msg).code(), core::StatusCode::kDataLoss);
  EXPECT_EQ(decode<OpenReply>(msg).status().code(),
            core::StatusCode::kDataLoss);
}

TEST(Protocol, ErrorReplyCarriesEveryNamedCode) {
  // Every code status_code_name() knows must survive the wire; the first
  // one it does not know is the one past core::kLastStatusCode.
  int code = 1;
  for (; std::string(core::status_code_name(
             static_cast<core::StatusCode>(code))) != "UNKNOWN";
       ++code) {
    const core::Status status(static_cast<core::StatusCode>(code), "why");
    const auto back = decode_error_reply(encode_error_reply(status));
    EXPECT_EQ(back.code(), status.code()) << status.to_string();
    EXPECT_EQ(back.message(), "why");
  }
  EXPECT_EQ(code, static_cast<int>(core::kLastStatusCode) + 1);
}

TEST(Protocol, LogEntryWithHalfSetEcProfileDecodes) {
  // Catalogs apply {0, m} as classic striping, but the log keeps the entry
  // as registered; only OpenReply holds the profile to GF(2^8) limits.
  MetaAppendRequest append;
  append.entry.dataset = "half-set";
  append.entry.placement.ec = codec::EcProfile{0, 2};
  auto back = decode<MetaAppendRequest>(encode(append));
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value().entry.placement.ec, (codec::EcProfile{0, 2}));
}

TEST(Protocol, EcProfileWhoseSliceSumWrapsRejected) {
  // k + m wraps a u32 to 1, which a sum-first check would accept.
  OpenReply reply;
  reply.servers = {{"h", 1}};
  reply.layout.server_count = 1;
  reply.ec = codec::EcProfile{0xffffffffu, 2};
  EXPECT_FALSE(decode<OpenReply>(encode(reply)).is_ok());
}

// ---- sharded metadata plane (PR 9) -----------------------------------------

TEST(Protocol, OpenCarriesEpochAndDeltaFields) {
  OpenRequest req;
  req.dataset = "ds";
  req.known_epoch = 41;
  auto back = decode<OpenRequest>(encode(req));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().known_epoch, 41u);

  OpenReply reply;
  reply.servers = {{"h", 1}};
  reply.layout.server_count = 1;
  reply.catalog_epoch = 41;
  reply.not_modified = true;
  reply.max_generation = 7;
  reply.cache_hint = meta::CacheHint::kHot;
  auto r = decode<OpenReply>(encode(reply));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().catalog_epoch, 41u);
  EXPECT_TRUE(r.value().not_modified);
  EXPECT_EQ(r.value().max_generation, 7u);
  EXPECT_EQ(r.value().cache_hint, meta::CacheHint::kHot);
}

TEST(Protocol, HeartbeatFloorsRoundTripBothWays) {
  HeartbeatRequest req;
  req.server = {"srv", 9};
  req.requests_served = 123;
  req.floors = {{"a", 3}, {"b", 9}};
  auto back = decode<HeartbeatRequest>(encode(req));
  ASSERT_TRUE(back.is_ok());
  ASSERT_EQ(back.value().floors.size(), 2u);
  EXPECT_EQ(back.value().floors[1].dataset, "b");
  EXPECT_EQ(back.value().floors[1].generation, 9u);

  auto down = decode<HeartbeatReply>(
      encode(HeartbeatReply{{{"a", 3}, {"c", 12}}}));
  ASSERT_TRUE(down.is_ok());
  ASSERT_EQ(down.value().floors.size(), 2u);
  EXPECT_EQ(down.value().floors[1].dataset, "c");
  EXPECT_EQ(down.value().floors[1].generation, 12u);
}

TEST(Protocol, PlacementDeltaRoundTrip) {
  PlacementDeltaRequest req;
  req.dataset = "ds";
  req.since_epoch = 5;
  auto back = decode<PlacementDeltaRequest>(encode(req));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().dataset, "ds");
  EXPECT_EQ(back.value().since_epoch, 5u);

  PlacementDeltaReply reply;
  reply.snapshot = true;
  reply.epoch = 9;
  meta::LogEntry e;
  e.epoch = 9;
  e.kind = meta::EntryKind::kUpdate;
  e.dataset = "ds";
  e.layout.total_bytes = 8192;
  e.layout.block_bytes = 4096;
  e.layout.server_count = 2;
  e.placement.replication_factor = 2;
  e.servers = {{"s0", 1}, {"s1", 2}};
  reply.entries = {e};
  auto r = decode<PlacementDeltaReply>(encode(reply));
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r.value().snapshot);
  EXPECT_EQ(r.value().epoch, 9u);
  ASSERT_EQ(r.value().entries.size(), 1u);
  EXPECT_EQ(r.value().entries[0].kind, meta::EntryKind::kUpdate);
  EXPECT_EQ(r.value().entries[0].dataset, "ds");
  EXPECT_EQ(r.value().entries[0].placement.replication_factor, 2u);
  ASSERT_EQ(r.value().entries[0].servers.size(), 2u);
  EXPECT_EQ(r.value().entries[0].servers[1].port, 2);
}

TEST(Protocol, MetaAppendRoundTrip) {
  MetaAppendRequest req;
  req.entry.epoch = 4;
  req.entry.kind = meta::EntryKind::kRegister;
  req.entry.dataset = "ds";
  req.entry.layout.total_bytes = 4096;
  req.entry.layout.block_bytes = 4096;
  req.entry.layout.server_count = 1;
  req.entry.servers = {{"s", 7}};
  auto back = decode<MetaAppendRequest>(encode(req));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().entry.epoch, 4u);
  EXPECT_EQ(back.value().entry.dataset, "ds");

  MetaAppendReply reply{false, 3};
  auto r = decode<MetaAppendReply>(encode(reply));
  ASSERT_TRUE(r.is_ok());
  EXPECT_FALSE(r.value().accepted);
  EXPECT_EQ(r.value().follower_epoch, 3u);
}

TEST(Protocol, MetaStatusRoundTrip) {
  MetaStatus s;
  s.shard_id = 2;
  s.shard_count = 4;
  s.is_leader = false;
  s.epoch = 99;
  s.address = {"meta-s2-r1", 5};
  s.datasets = 12;
  s.delta_opens = 30;
  s.snapshot_opens = 4;
  s.forwarded_opens = 2;
  s.leader_elections = 1;
  auto back = decode<MetaStatus>(encode(s));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().shard_id, 2u);
  EXPECT_EQ(back.value().shard_count, 4u);
  EXPECT_FALSE(back.value().is_leader);
  EXPECT_EQ(back.value().epoch, 99u);
  EXPECT_EQ(back.value().address.key(), "meta-s2-r1:5");
  EXPECT_EQ(back.value().datasets, 12u);
  EXPECT_EQ(back.value().delta_opens, 30u);
  EXPECT_EQ(back.value().forwarded_opens, 2u);
  EXPECT_EQ(back.value().leader_elections, 1u);
}


// ---- golden frames ----------------------------------------------------------

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out += digits[b >> 4];
    out += digits[b & 15];
  }
  return out;
}

meta::LogEntry golden_log_entry() {
  meta::LogEntry e;
  e.epoch = 9;
  e.kind = meta::EntryKind::kUpdate;
  e.dataset = "ds";
  e.layout.total_bytes = 8192;
  e.layout.block_bytes = 4096;
  e.layout.stripe_blocks = 2;
  e.layout.server_count = 2;
  e.placement.replication_factor = 2;
  e.placement.ring_vnodes = 64;
  e.placement.ec = codec::EcProfile{4, 2};
  e.servers = {{"s0", 1}, {"s1", 2}};
  return e;
}

// Pins the type and payload bytes of a fixed instance of every message, so
// a codec change cannot move a byte on the wire unnoticed.
TEST(Protocol, GoldenFrames) {
  OpenReply open;
  open.handle = 77;
  open.layout.total_bytes = 41943040;
  open.layout.block_bytes = 65536;
  open.layout.stripe_blocks = 2;
  open.layout.server_count = 3;
  open.servers = {{"10.0.0.1", 7001}, {"10.0.0.2", 7002}, {"h3", 65535}};
  open.replication_factor = 2;
  open.ring_vnodes = 64;
  open.ec = codec::EcProfile{4, 2};
  // Shorter than `servers`: the encoder pads with (kUp, 0).
  open.server_health = {placement::HealthState::kSuspect};
  open.server_load = {5, 9};
  open.catalog_epoch = 41;
  open.max_generation = 7;
  open.cache_hint = meta::CacheHint::kHot;

  BlockReadReply read_reply;
  read_reply.block = 42;
  read_reply.compressed = true;
  read_reply.data = {1, 2, 3};
  read_reply.generation = 5;

  const ServerAddress srv{"srv", 9};
  const ServerAddress s1{"s1", 1};
  const ServerAddress s2{"s2", 2};
  HeartbeatRequest beat;
  beat.server = srv;
  beat.requests_served = 123;
  beat.floors = {{"a", 3}, {"b", 9}};
  FailureReport failure;
  failure.server = srv;
  failure.dataset = "ds";
  failure.block = 4;
  failure.reason = "timeout";

  IngestWriteRequest ingest;
  ingest.dataset = "ds";
  ingest.block = 6;
  ingest.generation = 2;
  ingest.ack_policy = ingest::AckPolicy::kQuorum;
  ingest.data = {7, 8};
  ingest.chain = {s1, s2};
  IngestWriteRequest::DeltaTarget parity;
  parity.server = ServerAddress{"p0", 3};
  parity.dataset = "ds#parity";
  parity.block = 1;
  parity.coefficient = 0x1d;
  ingest.deltas = {parity};
  IngestWriteReply ingest_reply;
  ingest_reply.block = 6;
  ingest_reply.generation = 2;
  ingest_reply.acks = 3;
  ingest_reply.missed = {s2};
  FixupReport fixup;
  fixup.dataset = "ds";
  fixup.block = 6;
  fixup.generation = 2;
  fixup.target = s2;

  obs::SpanRecord span;
  span.trace_id = 0x1111;
  span.span_id = 0x2222;
  span.parent_span_id = 0x3333;
  span.host = "srv";
  span.stage = "serv.read";
  span.start = 1.25;
  span.duration = 0.5;
  span.queue_seconds = 0.125;
  span.bytes = 65536;
  obs::SpanRecord child = span;
  child.span_id = 0x4444;
  child.parent_span_id = 0x2222;
  child.stage = "serv.disk";
  SpanExportBatch batch{"client", 1.5, {span, child}};

  PlacementDeltaReply delta;
  delta.snapshot = true;
  delta.epoch = 9;
  delta.entries = {golden_log_entry()};

  MetaStatus status;
  status.shard_id = 2;
  status.shard_count = 4;
  status.is_leader = false;
  status.epoch = 99;
  status.address = {"meta-s2-r1", 5};
  status.datasets = 12;
  status.delta_opens = 30;
  status.snapshot_opens = 4;
  status.forwarded_opens = 2;
  status.leader_elections = 1;

  const struct {
    const char* name;
    net::Message frame;
    std::uint32_t type;
    std::string payload;
  } golden[] = {
      {"OpenRequest",
       encode(OpenRequest{"combustion-640", "secret", 41}), 0x4450531,
       "0e000000636f6d62757374696f6e2d3634300600000073656372657429000000"
       "00000000"},
      {"OpenReply", encode(open), 0x4450532,
       "4d00000000000000000080020000000000000100020000000300000003000000"
       "0800000031302e302e302e31591b00000800000031302e302e302e325a1b0000"
       "020000006833ffff000002000000400000000400000002000000010500000000"
       "0000000009000000000000000000000000000000002900000000000000000700"
       "00000000000001"},
      {"BlockReadRequest",
       encode(BlockReadRequest{"ds", 42, {Codec::kLossyQuant, 16}}), 0x4450533,
       "0200000064732a000000000000000210"},
      {"BlockReadReply", encode(read_reply), 0x4450534,
       "2a000000000000000105000000000000000300000000000000010203"},
      {"BlockWriteRequest",
       encode(BlockWriteRequest{"ds", 9, {9, 9, 9, 9}, 3}), 0x4450535,
       "0200000064730900000000000000030000000000000004000000000000000909"
       "0909"},
      {"BlockWriteReply", encode(BlockWriteReply{9}), 0x4450536,
       "0900000000000000"},
      {"ErrorReply",
       encode_error_reply(core::permission_denied("bad token")), 0x4450539,
       "070000000900000062616420746f6b656e"},
      {"Heartbeat", encode(beat), 0x445053a,
       "03000000737276090000007b0000000000000002000000010000006103000000"
       "0000000001000000620900000000000000"},
      {"HeartbeatReply",
       encode(HeartbeatReply{{{"a", 3}, {"c", 12}}}), 0x445053b,
       "020000000100000061030000000000000001000000630c00000000000000"},
      {"FailureReport", encode(failure), 0x445053c,
       "030000007372760900000002000000647304000000000000000700000074696d"
       "656f7574"},
      {"IngestWriteRequest", encode(ingest), 0x445053e,
       "0200000064730600000000000000020000000000000001020000000000000007"
       "0802000000020000007331010000000200000073320200000001000000020000"
       "007030030000000900000064732370617269747901000000000000001d"},
      {"IngestWriteReply", encode(ingest_reply), 0x445053f,
       "0600000000000000020000000000000003000000010000000200000073320200"
       "0000"},
      {"ParityDeltaRequest",
       encode(ParityDeltaRequest{"ds#parity", 1, 0x1d, {0xaa, 0x55}}),
       0x4450540,
       "0900000064732370617269747901000000000000001d0200000000000000aa55"},
      {"ParityDeltaReply", encode(ParityDeltaReply{1, 4}), 0x4450541,
       "01000000000000000400000000000000"},
      {"FixupReport", encode(fixup), 0x4450542,
       "0200000064730600000000000000020000000000000002000000733202000000"},
      {"IntrospectRequest",
       encode(IntrospectRequest{IntrospectKind::kProfile}), 0x4450544,
       "02"},
      {"IntrospectReply", encode(IntrospectReply{"a;b 3\n"}), 0x4450545,
       "06000000613b6220330a"},
      {"SpanExportRequest", encode(batch), 0x4450546,
       "06000000636c69656e74000000000000f83f0200000011110000000000002222"
       "00000000000033330000000000000300000073727609000000736572762e7265"
       "6164000000000000f43f000000000000e03f000000000000c03f000001000000"
       "0000111100000000000044440000000000002222000000000000030000007372"
       "7609000000736572762e6469736b000000000000f43f000000000000e03f0000"
       "00000000c03f0000010000000000"},
      {"SpanExportReply", encode(SpanExportReply{2}), 0x4450547,
       "0200000000000000"},
      {"PlacementDeltaRequest",
       encode(PlacementDeltaRequest{"ds", 5}), 0x445054a,
       "0200000064730500000000000000"},
      {"PlacementDeltaReply", encode(delta), 0x445054b,
       "0109000000000000000100000009000000000000000102000000647300200000"
       "0000000000100000020000000200000002000000400000000400000002000000"
       "020000000200000073300100000002000000733102000000"},
      {"MetaAppendRequest",
       encode(MetaAppendRequest{golden_log_entry()}), 0x445054c,
       "0900000000000000010200000064730020000000000000001000000200000002"
       "0000000200000040000000040000000200000002000000020000007330010000"
       "0002000000733102000000"},
      {"MetaAppendReply", encode(MetaAppendReply{false, 3}), 0x445054d,
       "000300000000000000"},
      {"MetaStatusRequest", encode(MetaStatusRequest{}), 0x445054e,
       ""},
      {"MetaStatusReply", encode(status), 0x445054f,
       "02000000040000000063000000000000000a0000006d6574612d73322d723105"
       "0000000c000000000000001e0000000000000004000000000000000200000000"
       "0000000100000000000000"},

  };
  for (const auto& g : golden) {
    SCOPED_TRACE(g.name);
    EXPECT_EQ(g.frame.type, g.type);
    EXPECT_EQ(hex(g.frame.payload), g.payload);
  }
}

}  // namespace
}  // namespace visapult::dpss
