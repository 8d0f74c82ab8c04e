#include "dpss/protocol.h"

#include <limits>
#include <type_traits>

namespace visapult::dpss {

namespace {

// How each field type travels, little-endian:
//   bool                  u8; any non-zero byte reads as true
//   arithmetic            its own width (u8, u32, u64, f64)
//   enum                  its underlying width; at most last(E)
//   std::string           u32 length + bytes
//   vector<u8>            u64 length + bytes
//   vector<T>             u32 count + each element
//   as<W>(field)          W, which must fit the field's own type
//   any other struct      its field list, below

// The last value of each enum on the wire; the reader rejects larger ones.
constexpr Codec last(Codec) { return Codec::kLossyQuant; }
constexpr placement::HealthState last(placement::HealthState) {
  return placement::HealthState::kDown;
}
constexpr meta::CacheHint last(meta::CacheHint) {
  return meta::CacheHint::kCold;
}
constexpr ingest::AckPolicy last(ingest::AckPolicy) {
  return ingest::AckPolicy::kPrimary;
}
constexpr meta::EntryKind last(meta::EntryKind) {
  return meta::EntryKind::kUpdate;
}
constexpr IntrospectKind last(IntrospectKind) {
  return IntrospectKind::kProfile;
}
constexpr core::StatusCode last(core::StatusCode) {
  return core::kLastStatusCode;
}

// A field that travels as the integer type W.
template <typename W, typename T>
struct As {
  using Wire = W;
  T& field;
};
template <typename W, typename T>
As<W, T> as(T& field) {
  return {field};
}

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};
template <typename T>
struct IsAs : std::false_type {};
template <typename W, typename T>
struct IsAs<As<W, T>> : std::true_type {};

// The kErrorReply payload.
struct ErrorFrame {
  core::StatusCode code = core::StatusCode::kOk;
  std::string message;
};

// Encodes a value's fields in order.
class Writer {
 public:
  template <typename... Fs>
  void frame(MessageType type, Fs&&... fields) {
    type_ = type;
    (write(fields), ...);
  }
  template <typename... Fs>
  void reply(MessageType type, Fs&&... fields) {
    frame(type, fields...);
  }
  template <typename... Fs>
  void operator()(Fs&&... fields) {
    (write(fields), ...);
  }
  void check(bool, const char*) {}

  // n rows of (a[i], b[i]) with no count prefix; entries missing from a
  // short vector go out value-initialised.
  template <typename A, typename B>
  void rows(std::size_t n, const std::vector<A>& a, const std::vector<B>& b) {
    for (std::size_t i = 0; i < n; ++i) {
      write(i < a.size() ? a[i] : A{});
      write(i < b.size() ? b[i] : B{});
    }
  }

  template <typename T>
  void write(const T& x) {
    if constexpr (std::is_same_v<T, bool>) {
      out_.u8(x ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
      write(static_cast<std::make_unsigned_t<std::underlying_type_t<T>>>(x));
    } else if constexpr (std::is_arithmetic_v<T>) {
      out_.raw(&x, sizeof x);
    } else if constexpr (std::is_same_v<T, std::string>) {
      out_.str(x);
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      out_.bytes(x);
    } else if constexpr (IsVector<T>::value) {
      out_.u32(static_cast<std::uint32_t>(x.size()));
      for (const auto& e : x) write(e);
    } else if constexpr (IsAs<T>::value) {
      write(static_cast<typename T::Wire>(x.field));
    } else {
      // The field lists take mutable references so the reader can share
      // them; the writer only reads through them.
      fields(*this, const_cast<T&>(x));
    }
  }

  std::size_t size() const { return out_.data().size(); }
  net::Message take() {
    net::Message m;
    m.type = type_;
    m.payload = out_.take();
    return m;
  }

 private:
  std::uint32_t type_ = 0;
  net::Writer out_;
};

// Wire bytes of the smallest T: every string and vector empty.
template <typename T>
std::size_t min_wire_size() {
  static const std::size_t size = [] {
    Writer w;
    w.write(T{});
    return w.size();
  }();
  return size;
}

// Decodes into a value's fields, stopping at the first violation.
class Reader {
 public:
  explicit Reader(const net::Message& m) : m_(m), in_(m.payload) {}

  const core::Status& status() const { return status_; }

  template <typename... Fs>
  void frame(MessageType type, Fs&&... fields) {
    if (m_.type != type) {
      return fail("unexpected message type " + std::to_string(m_.type));
    }
    (read(fields), ...);
  }
  template <typename... Fs>
  void reply(MessageType type, Fs&&... fields) {
    if (m_.type == kErrorReply) {
      status_ = decode_error_reply(m_);
      return;
    }
    frame(type, fields...);
  }
  template <typename... Fs>
  void operator()(Fs&&... fields) {
    (read(fields), ...);
  }
  void check(bool ok, const char* what) {
    if (!ok) fail(what);
  }

  template <typename A, typename B>
  void rows(std::size_t n, std::vector<A>& a, std::vector<B>& b) {
    if (!fits(n, min_wire_size<A>() + min_wire_size<B>())) return;
    for (std::size_t i = 0; i < n && status_.is_ok(); ++i) {
      read(a.emplace_back());
      read(b.emplace_back());
    }
  }

  template <typename T>
  void read(T& x) {
    if (!status_.is_ok()) return;
    if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t b = 0;
      read(b);
      x = b != 0;
    } else if constexpr (std::is_enum_v<T>) {
      std::make_unsigned_t<std::underlying_type_t<T>> v = 0;
      read(v);
      if (v > static_cast<decltype(v)>(last(T{}))) {
        return fail("enum value out of range");
      }
      x = static_cast<T>(v);
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
      take(in_.u8(), x);
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
      take(in_.u32(), x);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      take(in_.u64(), x);
    } else if constexpr (std::is_same_v<T, double>) {
      take(in_.f64(), x);
    } else if constexpr (std::is_same_v<T, std::string>) {
      take(in_.str(), x);
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      take(in_.bytes(), x);
    } else if constexpr (IsVector<T>::value) {
      std::uint32_t n = 0;
      read(n);
      if (!fits(n, min_wire_size<typename T::value_type>())) return;
      for (std::uint32_t i = 0; i < n && status_.is_ok(); ++i) {
        read(x.emplace_back());
      }
    } else if constexpr (IsAs<T>::value) {
      using Field = std::remove_reference_t<decltype(x.field)>;
      typename T::Wire v = 0;
      read(v);
      if (static_cast<std::uint64_t>(v) >
          static_cast<std::uint64_t>(std::numeric_limits<Field>::max())) {
        return fail("value too wide for its field");
      }
      x.field = static_cast<Field>(v);
    } else {
      fields(*this, x);
    }
  }

 private:
  // net::Reader checks each length against the bytes left before copying.
  template <typename V, typename T>
  void take(core::Result<V> got, T& x) {
    if (!got.is_ok()) {
      status_ = got.status();
    } else {
      x = std::move(got).take();
    }
  }
  // A count is checked before anything is allocated for it: each element
  // takes at least `each` bytes of what is left.
  bool fits(std::uint64_t n, std::size_t each) {
    if (!status_.is_ok()) return false;
    if (n <= in_.remaining() / each) return true;
    fail("element count " + std::to_string(n) + " exceeds the payload");
    return false;
  }
  void fail(const std::string& what) {
    if (status_.is_ok()) status_ = core::data_loss(what);
  }

  const net::Message& m_;
  net::Reader in_;
  core::Status status_;
};

// ---- field lists, in wire order ----------------------------------------------
//
// A message's list starts with frame(type, ...), which decodes only that
// type, or reply(type, ...), whose decoder also turns a kErrorReply frame
// into its status.  check() rejects a decoded value the wire cannot carry.

template <typename V> void fields(V& v, ServerAddress& m) {
  v(m.host, as<std::uint32_t>(m.port));
}
template <typename V> void fields(V& v, DatasetLayout& m) {
  v(m.total_bytes, m.block_bytes, m.stripe_blocks, m.server_count);
}
template <typename V> void fields(V& v, codec::EcProfile& m) {
  v(m.data_slices, m.parity_slices);
}
template <typename V> void fields(V& v, meta::PlacementOptions& m) {
  v(m.replication_factor, m.ring_vnodes, m.ec);
}
template <typename V> void fields(V& v, meta::LogEntry& m) {
  v(m.epoch, m.kind, m.dataset, m.layout, m.placement, m.servers);
}
template <typename V> void fields(V& v, meta::GenerationFloor& m) {
  v(m.dataset, m.generation);
}
template <typename V> void fields(V& v, obs::SpanRecord& m) {
  v(m.trace_id, m.span_id, m.parent_span_id, m.host, m.stage, m.start,
    m.duration, m.queue_seconds, m.bytes);
}
template <typename V> void fields(V& v, CompressionConfig& m) {
  v(m.codec, as<std::uint8_t>(m.quant_bits));
}
template <typename V> void fields(V& v, IngestWriteRequest::DeltaTarget& m) {
  v(m.server, m.dataset, m.block, m.coefficient);
}
template <typename V> void fields(V& v, ErrorFrame& m) {
  v.frame(kErrorReply, m.code, m.message);
  // Code 0 would make a failed Result whose status reads OK.
  v.check(m.code != core::StatusCode::kOk, "error reply without an error");
}

template <typename V> void fields(V& v, OpenRequest& m) {
  v.frame(kOpenRequest, m.dataset, m.auth_token, m.known_epoch);
}
template <typename V> void fields(V& v, OpenReply& m) {
  v.reply(kOpenReply, m.handle, m.layout, m.servers, m.replication_factor,
          m.ring_vnodes, m.ec);
  // The client builds a ReedSolomon straight from this profile; reject
  // field-impossible geometries before they reach GF(2^8) math.  Log
  // entries may carry a half-set profile such as {0, m}, which the
  // catalog applies as classic striping, so only OpenReply checks.
  v.check(m.ec.data_slices != 0 && m.ec.data_slices <= 255 &&
              m.ec.parity_slices <= 255 - m.ec.data_slices,
          "EC profile outside GF(2^8) limits");
  // One (health, load) pair per server, with no count of its own; a short
  // snapshot goes out padded with (kUp, 0).
  v.rows(m.servers.size(), m.server_health, m.server_load);
  v(m.catalog_epoch, m.not_modified, m.max_generation, m.cache_hint);
}
template <typename V> void fields(V& v, BlockReadRequest& m) {
  v.frame(kBlockReadRequest, m.dataset, m.block, m.compression);
}
template <typename V> void fields(V& v, BlockReadReply& m) {
  v.reply(kBlockReadReply, m.block, m.compressed, m.generation, m.data);
}
template <typename V> void fields(V& v, BlockWriteRequest& m) {
  v.frame(kBlockWriteRequest, m.dataset, m.block, m.generation, m.data);
}
template <typename V> void fields(V& v, BlockWriteReply& m) {
  v.reply(kBlockWriteReply, m.block);
}
template <typename V> void fields(V& v, HeartbeatRequest& m) {
  v.frame(kHeartbeat, m.server, m.requests_served, m.floors);
}
template <typename V> void fields(V& v, HeartbeatReply& m) {
  v.reply(kHeartbeatReply, m.floors);
}
template <typename V> void fields(V& v, FailureReport& m) {
  v.frame(kFailureReport, m.server, m.dataset, m.block, m.reason);
}
template <typename V> void fields(V& v, IngestWriteRequest& m) {
  v.frame(kIngestWriteRequest, m.dataset, m.block, m.generation,
          m.ack_policy, m.data, m.chain, m.deltas);
}
template <typename V> void fields(V& v, IngestWriteReply& m) {
  v.reply(kIngestWriteReply, m.block, m.generation, m.acks, m.missed);
}
template <typename V> void fields(V& v, ParityDeltaRequest& m) {
  v.frame(kParityDeltaRequest, m.dataset, m.block, m.coefficient, m.delta);
}
template <typename V> void fields(V& v, ParityDeltaReply& m) {
  v.reply(kParityDeltaReply, m.block, m.generation);
}
template <typename V> void fields(V& v, FixupReport& m) {
  v.frame(kFixupReport, m.dataset, m.block, m.generation, m.target);
}
template <typename V> void fields(V& v, PlacementDeltaRequest& m) {
  v.frame(kPlacementDeltaRequest, m.dataset, m.since_epoch);
}
template <typename V> void fields(V& v, PlacementDeltaReply& m) {
  v.reply(kPlacementDeltaReply, m.snapshot, m.epoch, m.entries);
}
template <typename V> void fields(V& v, MetaAppendRequest& m) {
  v.frame(kMetaAppendRequest, m.entry);
}
template <typename V> void fields(V& v, MetaAppendReply& m) {
  v.reply(kMetaAppendReply, m.accepted, m.follower_epoch);
}
template <typename V> void fields(V& v, MetaStatusRequest&) {
  v.frame(kMetaStatusRequest);
}
template <typename V> void fields(V& v, MetaStatus& m) {
  v.reply(kMetaStatusReply, m.shard_id, m.shard_count, m.is_leader, m.epoch,
          m.address, m.datasets, m.delta_opens, m.snapshot_opens,
          m.forwarded_opens, m.leader_elections);
}
template <typename V> void fields(V& v, SpanExportBatch& m) {
  v.frame(kSpanExportRequest, m.host, m.sent_at, m.spans);
}
template <typename V> void fields(V& v, SpanExportReply& m) {
  v.reply(kSpanExportReply, m.accepted);
}
template <typename V> void fields(V& v, IntrospectRequest& m) {
  v.frame(kIntrospectRequest, m.kind);
}
template <typename V> void fields(V& v, IntrospectReply& m) {
  v.reply(kIntrospectReply, m.text);
}

}  // namespace

template <typename T>
net::Message encode(const T& message) {
  Writer w;
  w.write(message);
  return w.take();
}

template <typename T>
core::Result<T> decode(const net::Message& m) {
  Reader r(m);
  T out;
  r.read(out);
  if (!r.status().is_ok()) return r.status();
  return out;
}

net::Message encode_error_reply(const core::Status& status) {
  return encode(ErrorFrame{status.code(), status.message()});
}

core::Status decode_error_reply(const net::Message& m) {
  if (m.type != kErrorReply) return core::Status::ok();
  auto e = decode<ErrorFrame>(m);
  if (!e.is_ok()) return core::data_loss("malformed error reply");
  return core::Status(e.value().code, e.value().message);
}

// encode() and decode<T>() exist for exactly these messages.
#define DPSS_MESSAGE(T)                   \
  template net::Message encode(const T&); \
  template core::Result<T> decode(const net::Message&);
DPSS_MESSAGE(OpenRequest)
DPSS_MESSAGE(OpenReply)
DPSS_MESSAGE(BlockReadRequest)
DPSS_MESSAGE(BlockReadReply)
DPSS_MESSAGE(BlockWriteRequest)
DPSS_MESSAGE(BlockWriteReply)
DPSS_MESSAGE(HeartbeatRequest)
DPSS_MESSAGE(HeartbeatReply)
DPSS_MESSAGE(FailureReport)
DPSS_MESSAGE(IngestWriteRequest)
DPSS_MESSAGE(IngestWriteReply)
DPSS_MESSAGE(ParityDeltaRequest)
DPSS_MESSAGE(ParityDeltaReply)
DPSS_MESSAGE(FixupReport)
DPSS_MESSAGE(PlacementDeltaRequest)
DPSS_MESSAGE(PlacementDeltaReply)
DPSS_MESSAGE(MetaAppendRequest)
DPSS_MESSAGE(MetaAppendReply)
DPSS_MESSAGE(MetaStatusRequest)
DPSS_MESSAGE(MetaStatus)
DPSS_MESSAGE(SpanExportBatch)
DPSS_MESSAGE(SpanExportReply)
DPSS_MESSAGE(IntrospectRequest)
DPSS_MESSAGE(IntrospectReply)
#undef DPSS_MESSAGE

}  // namespace visapult::dpss
