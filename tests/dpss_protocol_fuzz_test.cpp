// Wire-codec fuzz: every DPSS message round-trips from randomized
// instances.  Truncated, bit-flipped, count-inflated and retyped frames get
// a typed status or a value from every decoder -- never a throw, and never
// an allocation out of proportion to the frame -- and a well-formed reply
// from the master and from a block server.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <exception>
#include <new>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/rng.h"
#include "dpss/deployment.h"
#include "dpss/protocol.h"
#include "support/test_support.h"

// ---- allocation tracking ----------------------------------------------------

// The replaced global allocation functions record the largest single
// request made on this thread while tracking is on.
namespace {
thread_local bool t_tracking = false;
thread_local std::size_t t_largest = 0;
}  // namespace

// Neither is inlined, so the compiler does not pair the malloc() in one
// with a caller's delete (or the free() in the other with a caller's new)
// and warn of a mismatch.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (t_tracking && n > t_largest) t_largest = n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

namespace visapult::dpss {
namespace {

// ---- random instances -------------------------------------------------------

class Gen {
 public:
  explicit Gen(std::uint64_t seed) : rng_(seed) {}

  // Mostly small values, sometimes a type's extremes.
  std::uint64_t u64() {
    switch (rng_.next_below(4)) {
      case 0: return rng_.next_below(16);
      case 1: return ~std::uint64_t{0} - rng_.next_below(4);
      default: return rng_.next_u64();
    }
  }
  std::uint32_t u32() { return static_cast<std::uint32_t>(u64()); }
  std::uint8_t u8() { return static_cast<std::uint8_t>(rng_.next_u64()); }
  bool flag() { return rng_.chance(0.5); }
  double f64() {
    const std::uint64_t bits = rng_.next_u64();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof d);
    return d;
  }
  template <typename E>
  E pick(E last) {
    const auto n = static_cast<std::uint64_t>(last) + 1;
    return static_cast<E>(rng_.next_below(n));
  }
  std::string str() {
    std::string s(rng_.next_below(9), '\0');
    for (char& c : s) c = static_cast<char>(u8());
    return s;
  }
  std::vector<std::uint8_t> bytes() {
    std::vector<std::uint8_t> b(rng_.next_below(33));
    for (auto& x : b) x = u8();
    return b;
  }
  template <typename Make>
  auto list(Make make) {
    std::vector<decltype(make())> v(rng_.next_below(4));
    for (auto& e : v) e = make();
    return v;
  }

  ServerAddress addr() { return {str(), static_cast<std::uint16_t>(u64())}; }
  auto addrs() {
    return list([&] { return addr(); });
  }
  DatasetLayout layout() { return {u64(), u32(), u32(), u32()}; }
  // A profile an OpenReply may carry: inside GF(2^8) limits.
  codec::EcProfile ec() {
    const auto k = static_cast<std::uint32_t>(1 + rng_.next_below(255));
    return {k, static_cast<std::uint32_t>(rng_.next_below(256 - k))};
  }
  // A log entry carries any profile, including a half-set {0, m} that the
  // catalog applies as classic striping.
  codec::EcProfile any_ec() {
    switch (rng_.next_below(3)) {
      case 0: return {0, u32()};
      case 1: return {u32(), u32()};
      default: return ec();
    }
  }
  meta::LogEntry entry() {
    meta::LogEntry e;
    e.epoch = u64();
    e.kind = pick(meta::EntryKind::kUpdate);
    e.dataset = str();
    e.layout = layout();
    e.placement = {u32(), u32(), any_ec()};
    e.servers = addrs();
    return e;
  }
  meta::GenerationFloor floor() { return {str(), u64()}; }
  obs::SpanRecord span() {
    return {u64(), u64(), u64(), str(), str(), f64(), f64(), f64(), u64()};
  }

  void fill(OpenRequest& m) { m = {str(), str(), u64()}; }
  void fill(OpenReply& m) {
    m.handle = u64();
    m.layout = layout();
    m.servers = addrs();
    m.replication_factor = u32();
    m.ring_vnodes = u32();
    m.ec = ec();
    // As long as `servers` or shorter: the encoder pads.
    for (std::size_t i = 0; i < m.servers.size(); ++i) {
      if (flag()) {
        m.server_health.push_back(pick(placement::HealthState::kDown));
      }
      if (flag()) m.server_load.push_back(u64());
    }
    m.catalog_epoch = u64();
    m.not_modified = flag();
    m.max_generation = u64();
    m.cache_hint = pick(meta::CacheHint::kCold);
  }
  void fill(BlockReadRequest& m) {
    m.dataset = str();
    m.block = u64();
    m.compression = {pick(Codec::kLossyQuant), u8()};
  }
  void fill(BlockReadReply& m) { m = {u64(), flag(), bytes(), u64()}; }
  void fill(BlockWriteRequest& m) { m = {str(), u64(), bytes(), u64()}; }
  void fill(BlockWriteReply& m) { m.block = u64(); }
  void fill(HeartbeatRequest& m) {
    m.server = addr();
    m.requests_served = u64();
    m.floors = list([&] { return floor(); });
  }
  void fill(HeartbeatReply& m) { m.floors = list([&] { return floor(); }); }
  void fill(FailureReport& m) {
    m.server = addr();
    m.dataset = str();
    m.block = u64();
    m.reason = str();
  }
  void fill(IngestWriteRequest& m) {
    m.dataset = str();
    m.block = u64();
    m.generation = u64();
    m.ack_policy = pick(ingest::AckPolicy::kPrimary);
    m.data = bytes();
    m.chain = addrs();
    m.deltas = list([&] {
      IngestWriteRequest::DeltaTarget d;
      d.server = addr();
      d.dataset = str();
      d.block = u64();
      d.coefficient = u8();
      return d;
    });
  }
  void fill(IngestWriteReply& m) {
    m.block = u64();
    m.generation = u64();
    m.acks = u32();
    m.missed = addrs();
  }
  void fill(ParityDeltaRequest& m) { m = {str(), u64(), u8(), bytes()}; }
  void fill(ParityDeltaReply& m) { m = {u64(), u64()}; }
  void fill(FixupReport& m) {
    m.dataset = str();
    m.block = u64();
    m.generation = u64();
    m.target = addr();
  }
  void fill(PlacementDeltaRequest& m) { m = {str(), u64()}; }
  void fill(PlacementDeltaReply& m) {
    m.snapshot = flag();
    m.epoch = u64();
    m.entries = list([&] { return entry(); });
  }
  void fill(MetaAppendRequest& m) { m.entry = entry(); }
  void fill(MetaAppendReply& m) { m = {flag(), u64()}; }
  void fill(MetaStatusRequest&) {}
  void fill(MetaStatus& m) {
    m.shard_id = u32();
    m.shard_count = u32();
    m.is_leader = flag();
    m.epoch = u64();
    m.address = addr();
    m.datasets = u64();
    m.delta_opens = u64();
    m.snapshot_opens = u64();
    m.forwarded_opens = u64();
    m.leader_elections = u64();
  }
  void fill(SpanExportBatch& m) {
    m.host = str();
    m.sent_at = f64();
    m.spans = list([&] { return span(); });
  }
  void fill(SpanExportReply& m) { m.accepted = u64(); }
  void fill(IntrospectRequest& m) { m.kind = pick(IntrospectKind::kProfile); }
  void fill(IntrospectReply& m) { m.text = str(); }

  template <typename T>
  T make() {
    T m;
    fill(m);
    return m;
  }

  core::Rng& rng() { return rng_; }

 private:
  core::Rng rng_;
};

// ---- messages, mutations and probes -----------------------------------------

template <typename... Ts>
struct TypeList {};

// Calls f with a null T* for each T in the list.
template <typename... Ts, typename F>
void for_each_type(TypeList<Ts...>, F&& f) {
  (f(static_cast<Ts*>(nullptr)), ...);
}

using Requests =
    TypeList<OpenRequest, BlockReadRequest, BlockWriteRequest, HeartbeatRequest,
             FailureReport, IngestWriteRequest, ParityDeltaRequest, FixupReport,
             PlacementDeltaRequest, MetaAppendRequest, MetaStatusRequest,
             SpanExportBatch, IntrospectRequest>;
using Replies =
    TypeList<OpenReply, BlockReadReply, BlockWriteReply, HeartbeatReply,
             IngestWriteReply, ParityDeltaReply, PlacementDeltaReply,
             MetaAppendReply, MetaStatus, SpanExportReply, IntrospectReply>;

// Every number a frame can carry here: each message, each retired number,
// and two that were never assigned.
std::vector<std::uint32_t> all_types() {
  std::vector<std::uint32_t> types = {0, 0x4450552};
  for (std::uint32_t t = kOpenRequest; t <= 0x4450551; ++t) types.push_back(t);
  return types;
}

// Every truncation, single-bit flips, u32 and u64 prefixes inflated at
// every offset, and every frame type.
std::vector<net::Message> mutations(const net::Message& m, core::Rng& rng) {
  std::vector<net::Message> out;
  const std::size_t n = m.payload.size();
  for (std::size_t len = 0; len < n; ++len) {
    out.push_back(m);
    out.back().payload.resize(len);
  }
  const std::size_t bits = n * 8;
  for (std::size_t i = 0; i < std::min<std::size_t>(bits, 256); ++i) {
    const std::size_t bit = bits <= 256 ? i : rng.next_below(bits);
    out.push_back(m);
    out.back().payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  for (const std::uint32_t v : {0xffffffffu, 1u << 31, 1u << 16}) {
    for (std::size_t at = 0; at + 4 <= n; ++at) {
      out.push_back(m);
      std::memcpy(out.back().payload.data() + at, &v, 4);
    }
  }
  for (const std::uint64_t v : {~std::uint64_t{0}, std::uint64_t{1} << 63,
                                std::uint64_t{1} << 32}) {
    for (std::size_t at = 0; at + 8 <= n; ++at) {
      out.push_back(m);
      std::memcpy(out.back().payload.data() + at, &v, 8);
    }
  }
  for (std::uint32_t type : all_types()) {
    out.push_back(m);
    out.back().type = type;
  }
  return out;
}

// Runs `decode_it` with allocation tracking on.  It must not throw, and no
// single allocation may exceed 16x the payload plus 4 KiB.
template <typename Decode>
auto tracked(const net::Message& m, Decode decode_it) {
  t_largest = 0;
  t_tracking = true;
  std::optional<decltype(decode_it())> got;
  try {
    got.emplace(decode_it());
  } catch (const std::exception& e) {
    ADD_FAILURE() << "decoder threw: " << e.what();
  }
  t_tracking = false;
  EXPECT_LE(t_largest, 16 * m.payload.size() + 4096)
      << "payload of " << m.payload.size() << " bytes";
  return got;
}

// A decoder's answer to any frame: a typed (non-OK) status, or a value
// whose encoding is a fixed point of decode-then-encode.
template <typename T>
void probe(const net::Message& m) {
  auto got = tracked(m, [&] { return decode<T>(m); });
  if (!got) return;
  if (!got->is_ok()) {
    EXPECT_NE(got->status().code(), core::StatusCode::kOk);
    return;
  }
  const net::Message once = encode(got->value());
  auto again = decode<T>(once);
  ASSERT_TRUE(again.is_ok()) << again.status().to_string();
  const net::Message twice = encode(again.value());
  EXPECT_EQ(twice.type, once.type);
  EXPECT_EQ(twice.payload, once.payload);
}

void probe_every_decoder(const net::Message& m) {
  auto one = [&](auto* tag) {
    probe<std::remove_pointer_t<decltype(tag)>>(m);
  };
  for_each_type(Requests{}, one);
  for_each_type(Replies{}, one);
  (void)tracked(m, [&] { return decode_error_reply(m); });
}

// A component's reply to any request is one its own decoder accepts.
bool well_formed(const net::Message& r) {
  switch (r.type) {
    case kErrorReply: {
      const core::Status st = decode_error_reply(r);
      return !st.is_ok() && encode_error_reply(st).payload == r.payload;
    }
    case kFailureReportReply:
    case kFixupReportReply: return r.payload.empty();
    case kOpenReply: return decode<OpenReply>(r).is_ok();
    case kBlockReadReply: return decode<BlockReadReply>(r).is_ok();
    case kBlockWriteReply: return decode<BlockWriteReply>(r).is_ok();
    case kHeartbeatReply: return decode<HeartbeatReply>(r).is_ok();
    case kIngestWriteReply: return decode<IngestWriteReply>(r).is_ok();
    case kParityDeltaReply: return decode<ParityDeltaReply>(r).is_ok();
    case kPlacementDeltaReply: return decode<PlacementDeltaReply>(r).is_ok();
    case kMetaAppendReply: return decode<MetaAppendReply>(r).is_ok();
    case kMetaStatusReply: return decode<MetaStatus>(r).is_ok();
    case kSpanExportReply: return decode<SpanExportReply>(r).is_ok();
    case kIntrospectReply: return decode<IntrospectReply>(r).is_ok();
    default: return false;
  }
}

// ---- tests ------------------------------------------------------------------

TEST(ProtocolFuzz, RandomInstancesRoundTrip) {
  Gen gen(test_support::deterministic_seed());
  auto check = [&](auto* tag) {
    using T = std::remove_pointer_t<decltype(tag)>;
    for (int i = 0; i < 200; ++i) {
      const net::Message m = encode(gen.make<T>());
      auto back = decode<T>(m);
      ASSERT_TRUE(back.is_ok()) << back.status().to_string();
      const net::Message again = encode(back.value());
      ASSERT_EQ(again.type, m.type);
      ASSERT_EQ(again.payload, m.payload);
    }
  };
  for_each_type(Requests{}, check);
  for_each_type(Replies{}, check);
}

TEST(ProtocolFuzz, EveryDecoderAnswersEveryMutation) {
  Gen gen(test_support::deterministic_seed());
  auto fuzz = [&](auto* tag) {
    using T = std::remove_pointer_t<decltype(tag)>;
    for (int i = 0; i < 3; ++i) {
      const net::Message m = encode(gen.make<T>());
      SCOPED_TRACE(testing::Message() << "frame type " << m.type);
      for (const net::Message& bad : mutations(m, gen.rng())) {
        probe_every_decoder(bad);
      }
    }
  };
  for_each_type(Requests{}, fuzz);
  for_each_type(Replies{}, fuzz);
  // Error frames, including ones with no valid code.
  for (const net::Message& bad :
       mutations(encode_error_reply(core::not_found("x")), gen.rng())) {
    probe_every_decoder(bad);
  }
}

TEST(ProtocolFuzz, MasterAndServerAnswerEveryMutatedRequest) {
  PipeDeployment deployment(4);
  Master& master = deployment.master();
  BlockServer& server = deployment.server(0);
  Gen gen(test_support::deterministic_seed());
  auto fuzz = [&](auto* tag) {
    using T = std::remove_pointer_t<decltype(tag)>;
    for (int i = 0; i < 4; ++i) {
      const net::Message m = encode(gen.make<T>());
      SCOPED_TRACE(testing::Message() << "frame type " << m.type);
      for (const net::Message& bad : mutations(m, gen.rng())) {
        try {
          EXPECT_TRUE(well_formed(master.handle_request(net::Message(bad))));
          EXPECT_TRUE(
              well_formed(server.handle_request(net::Message(bad), 1)));
        } catch (const std::exception& e) {
          ADD_FAILURE() << "handler threw: " << e.what();
        }
      }
    }
  };
  for_each_type(Requests{}, fuzz);
}

}  // namespace
}  // namespace visapult::dpss
