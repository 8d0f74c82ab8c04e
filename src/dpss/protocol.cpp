#include "dpss/protocol.h"

namespace visapult::dpss {

namespace {
core::Status wrong_type(const char* what) {
  return core::data_loss(std::string("unexpected message type for ") + what);
}
}  // namespace

net::Message encode_open_request(const OpenRequest& r) {
  net::Message m;
  m.type = kOpenRequest;
  net::Writer w;
  w.str(r.dataset);
  w.str(r.auth_token);
  w.u64(r.known_epoch);
  m.payload = w.take();
  return m;
}

core::Result<OpenRequest> decode_open_request(const net::Message& m) {
  if (m.type != kOpenRequest) return wrong_type("OpenRequest");
  net::Reader r(m.payload);
  OpenRequest out;
  auto dataset = r.str();
  if (!dataset.is_ok()) return dataset.status();
  auto token = r.str();
  if (!token.is_ok()) return token.status();
  out.dataset = dataset.value();
  out.auth_token = token.value();
  auto known = r.u64();
  if (!known.is_ok()) return known.status();
  out.known_epoch = known.value();
  return out;
}

net::Message encode_open_reply(const OpenReply& r) {
  net::Message m;
  m.type = kOpenReply;
  net::Writer w;
  w.u64(r.handle);
  w.u64(r.layout.total_bytes);
  w.u32(r.layout.block_bytes);
  w.u32(r.layout.stripe_blocks);
  w.u32(r.layout.server_count);
  w.u32(static_cast<std::uint32_t>(r.servers.size()));
  for (const auto& s : r.servers) {
    w.str(s.host);
    w.u32(s.port);
  }
  w.u32(r.replication_factor);
  w.u32(r.ring_vnodes);
  w.u32(r.ec.data_slices);
  w.u32(r.ec.parity_slices);
  // Health/load snapshots are padded to the server count so the decoder
  // always gets parallel vectors.
  for (std::size_t i = 0; i < r.servers.size(); ++i) {
    w.u8(i < r.server_health.size()
             ? static_cast<std::uint8_t>(r.server_health[i])
             : static_cast<std::uint8_t>(placement::HealthState::kUp));
    w.u64(i < r.server_load.size() ? r.server_load[i] : 0);
  }
  // Sharded-metadata fields (appended, both ends updated together).
  w.u64(r.catalog_epoch);
  w.u8(r.not_modified ? 1 : 0);
  w.u64(r.max_generation);
  w.u8(static_cast<std::uint8_t>(r.cache_hint));
  m.payload = w.take();
  return m;
}

core::Result<OpenReply> decode_open_reply(const net::Message& m) {
  if (m.type == kErrorReply) return decode_error_reply(m);
  if (m.type != kOpenReply) return wrong_type("OpenReply");
  net::Reader r(m.payload);
  OpenReply out;
  auto handle = r.u64();
  if (!handle.is_ok()) return handle.status();
  out.handle = handle.value();
  auto total = r.u64();
  if (!total.is_ok()) return total.status();
  out.layout.total_bytes = total.value();
  auto bb = r.u32();
  if (!bb.is_ok()) return bb.status();
  out.layout.block_bytes = bb.value();
  auto sb = r.u32();
  if (!sb.is_ok()) return sb.status();
  out.layout.stripe_blocks = sb.value();
  auto sc = r.u32();
  if (!sc.is_ok()) return sc.status();
  out.layout.server_count = sc.value();
  auto n = r.u32();
  if (!n.is_ok()) return n.status();
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    ServerAddress addr;
    auto host = r.str();
    if (!host.is_ok()) return host.status();
    addr.host = host.value();
    auto port = r.u32();
    if (!port.is_ok()) return port.status();
    addr.port = static_cast<std::uint16_t>(port.value());
    out.servers.push_back(std::move(addr));
  }
  auto rf = r.u32();
  if (!rf.is_ok()) return rf.status();
  out.replication_factor = rf.value();
  auto vnodes = r.u32();
  if (!vnodes.is_ok()) return vnodes.status();
  out.ring_vnodes = vnodes.value();
  auto ec_k = r.u32();
  if (!ec_k.is_ok()) return ec_k.status();
  out.ec.data_slices = ec_k.value();
  auto ec_m = r.u32();
  if (!ec_m.is_ok()) return ec_m.status();
  out.ec.parity_slices = ec_m.value();
  // The client builds a ReedSolomon straight from this profile; reject
  // field-impossible geometries before they reach GF(2^8) math.
  if (out.ec.data_slices == 0 || out.ec.total_slices() > 255) {
    return core::data_loss("EC profile outside GF(2^8) limits");
  }
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    auto health = r.u8();
    if (!health.is_ok()) return health.status();
    if (health.value() > 2) return core::data_loss("unknown health state");
    out.server_health.push_back(
        static_cast<placement::HealthState>(health.value()));
    auto load = r.u64();
    if (!load.is_ok()) return load.status();
    out.server_load.push_back(load.value());
  }
  auto epoch = r.u64();
  if (!epoch.is_ok()) return epoch.status();
  out.catalog_epoch = epoch.value();
  auto not_modified = r.u8();
  if (!not_modified.is_ok()) return not_modified.status();
  out.not_modified = not_modified.value() != 0;
  auto max_gen = r.u64();
  if (!max_gen.is_ok()) return max_gen.status();
  out.max_generation = max_gen.value();
  auto hint = r.u8();
  if (!hint.is_ok()) return hint.status();
  if (hint.value() > 2) return core::data_loss("unknown cache hint");
  out.cache_hint = static_cast<meta::CacheHint>(hint.value());
  return out;
}

net::Message encode_block_read_request(const BlockReadRequest& r) {
  net::Message m;
  m.type = kBlockReadRequest;
  net::Writer w;
  w.str(r.dataset);
  w.u64(r.block);
  w.u8(static_cast<std::uint8_t>(r.compression.codec));
  w.u8(static_cast<std::uint8_t>(r.compression.quant_bits));
  m.payload = w.take();
  return m;
}

core::Result<BlockReadRequest> decode_block_read_request(const net::Message& m) {
  if (m.type != kBlockReadRequest) return wrong_type("BlockReadRequest");
  net::Reader r(m.payload);
  BlockReadRequest out;
  auto dataset = r.str();
  if (!dataset.is_ok()) return dataset.status();
  out.dataset = dataset.value();
  auto block = r.u64();
  if (!block.is_ok()) return block.status();
  out.block = block.value();
  auto codec = r.u8();
  if (!codec.is_ok()) return codec.status();
  if (codec.value() > 2) return core::data_loss("unknown compression codec");
  out.compression.codec = static_cast<Codec>(codec.value());
  auto bits = r.u8();
  if (!bits.is_ok()) return bits.status();
  out.compression.quant_bits = bits.value();
  return out;
}

net::Message encode_block_read_reply(const BlockReadReply& r) {
  net::Message m;
  m.type = kBlockReadReply;
  net::Writer w;
  w.u64(r.block);
  w.u8(r.compressed ? 1 : 0);
  w.u64(r.generation);
  w.bytes(r.data);
  m.payload = w.take();
  return m;
}

core::Result<BlockReadReply> decode_block_read_reply(const net::Message& m) {
  if (m.type == kErrorReply) return decode_error_reply(m);
  if (m.type != kBlockReadReply) return wrong_type("BlockReadReply");
  net::Reader r(m.payload);
  BlockReadReply out;
  auto block = r.u64();
  if (!block.is_ok()) return block.status();
  out.block = block.value();
  auto compressed = r.u8();
  if (!compressed.is_ok()) return compressed.status();
  out.compressed = compressed.value() != 0;
  auto gen = r.u64();
  if (!gen.is_ok()) return gen.status();
  out.generation = gen.value();
  auto data = r.bytes();
  if (!data.is_ok()) return data.status();
  out.data = std::move(data).take();
  return out;
}

net::Message encode_block_write_request(const BlockWriteRequest& r) {
  net::Message m;
  m.type = kBlockWriteRequest;
  net::Writer w;
  w.str(r.dataset);
  w.u64(r.block);
  w.u64(r.generation);
  w.bytes(r.data);
  m.payload = w.take();
  return m;
}

core::Result<BlockWriteRequest> decode_block_write_request(const net::Message& m) {
  if (m.type != kBlockWriteRequest) return wrong_type("BlockWriteRequest");
  net::Reader r(m.payload);
  BlockWriteRequest out;
  auto dataset = r.str();
  if (!dataset.is_ok()) return dataset.status();
  out.dataset = dataset.value();
  auto block = r.u64();
  if (!block.is_ok()) return block.status();
  out.block = block.value();
  auto gen = r.u64();
  if (!gen.is_ok()) return gen.status();
  out.generation = gen.value();
  auto data = r.bytes();
  if (!data.is_ok()) return data.status();
  out.data = std::move(data).take();
  return out;
}

net::Message encode_block_write_reply(std::uint64_t block) {
  net::Message m;
  m.type = kBlockWriteReply;
  net::Writer w;
  w.u64(block);
  m.payload = w.take();
  return m;
}

core::Result<std::uint64_t> decode_block_write_reply(const net::Message& m) {
  if (m.type == kErrorReply) return decode_error_reply(m);
  if (m.type != kBlockWriteReply) return wrong_type("BlockWriteReply");
  net::Reader r(m.payload);
  auto block = r.u64();
  if (!block.is_ok()) return block.status();
  return block.value();
}

net::Message encode_error_reply(const core::Status& status) {
  net::Message m;
  m.type = kErrorReply;
  net::Writer w;
  w.u32(static_cast<std::uint32_t>(status.code()));
  w.str(status.message());
  m.payload = w.take();
  return m;
}

namespace {

void write_floors(net::Writer& w,
                  const std::vector<meta::GenerationFloor>& floors) {
  w.u32(static_cast<std::uint32_t>(floors.size()));
  for (const auto& f : floors) {
    w.str(f.dataset);
    w.u64(f.generation);
  }
}

core::Result<std::vector<meta::GenerationFloor>> read_floors(net::Reader& r) {
  auto n = r.u32();
  if (!n.is_ok()) return n.status();
  std::vector<meta::GenerationFloor> out;
  out.reserve(n.value());
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    meta::GenerationFloor f;
    auto dataset = r.str();
    if (!dataset.is_ok()) return dataset.status();
    f.dataset = dataset.value();
    auto gen = r.u64();
    if (!gen.is_ok()) return gen.status();
    f.generation = gen.value();
    out.push_back(std::move(f));
  }
  return out;
}

}  // namespace

net::Message encode_heartbeat(const HeartbeatRequest& r) {
  net::Message m;
  m.type = kHeartbeat;
  net::Writer w;
  w.str(r.server.host);
  w.u32(r.server.port);
  w.u64(r.requests_served);
  write_floors(w, r.floors);
  m.payload = w.take();
  return m;
}

core::Result<HeartbeatRequest> decode_heartbeat(const net::Message& m) {
  if (m.type != kHeartbeat) return wrong_type("Heartbeat");
  net::Reader r(m.payload);
  HeartbeatRequest out;
  auto host = r.str();
  if (!host.is_ok()) return host.status();
  out.server.host = host.value();
  auto port = r.u32();
  if (!port.is_ok()) return port.status();
  out.server.port = static_cast<std::uint16_t>(port.value());
  auto served = r.u64();
  if (!served.is_ok()) return served.status();
  out.requests_served = served.value();
  auto floors = read_floors(r);
  if (!floors.is_ok()) return floors.status();
  out.floors = std::move(floors).take();
  return out;
}

net::Message encode_heartbeat_reply(
    const std::vector<meta::GenerationFloor>& floors) {
  net::Message m;
  m.type = kHeartbeatReply;
  net::Writer w;
  write_floors(w, floors);
  m.payload = w.take();
  return m;
}

core::Result<std::vector<meta::GenerationFloor>> decode_heartbeat_reply(
    const net::Message& m) {
  if (m.type == kErrorReply) return decode_error_reply(m);
  if (m.type != kHeartbeatReply) return wrong_type("HeartbeatReply");
  // A pre-gossip master replies with an empty payload: no floors.
  if (m.payload.empty()) return std::vector<meta::GenerationFloor>{};
  net::Reader r(m.payload);
  return read_floors(r);
}

net::Message encode_failure_report(const FailureReport& r) {
  net::Message m;
  m.type = kFailureReport;
  net::Writer w;
  w.str(r.server.host);
  w.u32(r.server.port);
  w.str(r.dataset);
  w.u64(r.block);
  w.str(r.reason);
  m.payload = w.take();
  return m;
}

core::Result<FailureReport> decode_failure_report(const net::Message& m) {
  if (m.type != kFailureReport) return wrong_type("FailureReport");
  net::Reader r(m.payload);
  FailureReport out;
  auto host = r.str();
  if (!host.is_ok()) return host.status();
  out.server.host = host.value();
  auto port = r.u32();
  if (!port.is_ok()) return port.status();
  out.server.port = static_cast<std::uint16_t>(port.value());
  auto dataset = r.str();
  if (!dataset.is_ok()) return dataset.status();
  out.dataset = dataset.value();
  auto block = r.u64();
  if (!block.is_ok()) return block.status();
  out.block = block.value();
  auto reason = r.str();
  if (!reason.is_ok()) return reason.status();
  out.reason = reason.value();
  return out;
}

namespace {

void write_address(net::Writer& w, const ServerAddress& a) {
  w.str(a.host);
  w.u32(a.port);
}

core::Result<ServerAddress> read_address(net::Reader& r) {
  ServerAddress out;
  auto host = r.str();
  if (!host.is_ok()) return host.status();
  out.host = host.value();
  auto port = r.u32();
  if (!port.is_ok()) return port.status();
  out.port = static_cast<std::uint16_t>(port.value());
  return out;
}

}  // namespace

net::Message encode_ingest_write_request(const IngestWriteRequest& r) {
  net::Message m;
  m.type = kIngestWriteRequest;
  net::Writer w;
  w.str(r.dataset);
  w.u64(r.block);
  w.u64(r.generation);
  w.u8(static_cast<std::uint8_t>(r.ack_policy));
  w.bytes(r.data);
  w.u32(static_cast<std::uint32_t>(r.chain.size()));
  for (const auto& a : r.chain) write_address(w, a);
  w.u32(static_cast<std::uint32_t>(r.deltas.size()));
  for (const auto& d : r.deltas) {
    write_address(w, d.server);
    w.str(d.dataset);
    w.u64(d.block);
    w.u8(d.coefficient);
  }
  m.payload = w.take();
  return m;
}

core::Result<IngestWriteRequest> decode_ingest_write_request(
    const net::Message& m) {
  if (m.type != kIngestWriteRequest) return wrong_type("IngestWriteRequest");
  net::Reader r(m.payload);
  IngestWriteRequest out;
  auto dataset = r.str();
  if (!dataset.is_ok()) return dataset.status();
  out.dataset = dataset.value();
  auto block = r.u64();
  if (!block.is_ok()) return block.status();
  out.block = block.value();
  auto gen = r.u64();
  if (!gen.is_ok()) return gen.status();
  out.generation = gen.value();
  auto policy = r.u8();
  if (!policy.is_ok()) return policy.status();
  if (policy.value() > 2) return core::data_loss("unknown ack policy");
  out.ack_policy = static_cast<ingest::AckPolicy>(policy.value());
  auto data = r.bytes();
  if (!data.is_ok()) return data.status();
  out.data = std::move(data).take();
  auto chain_n = r.u32();
  if (!chain_n.is_ok()) return chain_n.status();
  for (std::uint32_t i = 0; i < chain_n.value(); ++i) {
    auto addr = read_address(r);
    if (!addr.is_ok()) return addr.status();
    out.chain.push_back(std::move(addr).take());
  }
  auto delta_n = r.u32();
  if (!delta_n.is_ok()) return delta_n.status();
  for (std::uint32_t i = 0; i < delta_n.value(); ++i) {
    IngestWriteRequest::DeltaTarget d;
    auto addr = read_address(r);
    if (!addr.is_ok()) return addr.status();
    d.server = std::move(addr).take();
    auto ds = r.str();
    if (!ds.is_ok()) return ds.status();
    d.dataset = ds.value();
    auto b = r.u64();
    if (!b.is_ok()) return b.status();
    d.block = b.value();
    auto coef = r.u8();
    if (!coef.is_ok()) return coef.status();
    d.coefficient = coef.value();
    out.deltas.push_back(std::move(d));
  }
  return out;
}

net::Message encode_ingest_write_reply(const IngestWriteReply& r) {
  net::Message m;
  m.type = kIngestWriteReply;
  net::Writer w;
  w.u64(r.block);
  w.u64(r.generation);
  w.u32(r.acks);
  w.u32(static_cast<std::uint32_t>(r.missed.size()));
  for (const auto& a : r.missed) write_address(w, a);
  m.payload = w.take();
  return m;
}

core::Result<IngestWriteReply> decode_ingest_write_reply(
    const net::Message& m) {
  if (m.type == kErrorReply) return decode_error_reply(m);
  if (m.type != kIngestWriteReply) return wrong_type("IngestWriteReply");
  net::Reader r(m.payload);
  IngestWriteReply out;
  auto block = r.u64();
  if (!block.is_ok()) return block.status();
  out.block = block.value();
  auto gen = r.u64();
  if (!gen.is_ok()) return gen.status();
  out.generation = gen.value();
  auto acks = r.u32();
  if (!acks.is_ok()) return acks.status();
  out.acks = acks.value();
  auto n = r.u32();
  if (!n.is_ok()) return n.status();
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    auto addr = read_address(r);
    if (!addr.is_ok()) return addr.status();
    out.missed.push_back(std::move(addr).take());
  }
  return out;
}

net::Message encode_parity_delta_request(const ParityDeltaRequest& r) {
  net::Message m;
  m.type = kParityDeltaRequest;
  net::Writer w;
  w.str(r.dataset);
  w.u64(r.block);
  w.u8(r.coefficient);
  w.bytes(r.delta);
  m.payload = w.take();
  return m;
}

core::Result<ParityDeltaRequest> decode_parity_delta_request(
    const net::Message& m) {
  if (m.type != kParityDeltaRequest) return wrong_type("ParityDeltaRequest");
  net::Reader r(m.payload);
  ParityDeltaRequest out;
  auto dataset = r.str();
  if (!dataset.is_ok()) return dataset.status();
  out.dataset = dataset.value();
  auto block = r.u64();
  if (!block.is_ok()) return block.status();
  out.block = block.value();
  auto coef = r.u8();
  if (!coef.is_ok()) return coef.status();
  out.coefficient = coef.value();
  auto delta = r.bytes();
  if (!delta.is_ok()) return delta.status();
  out.delta = std::move(delta).take();
  return out;
}

net::Message encode_parity_delta_reply(const ParityDeltaReply& r) {
  net::Message m;
  m.type = kParityDeltaReply;
  net::Writer w;
  w.u64(r.block);
  w.u64(r.generation);
  m.payload = w.take();
  return m;
}

core::Result<ParityDeltaReply> decode_parity_delta_reply(
    const net::Message& m) {
  if (m.type == kErrorReply) return decode_error_reply(m);
  if (m.type != kParityDeltaReply) return wrong_type("ParityDeltaReply");
  net::Reader r(m.payload);
  ParityDeltaReply out;
  auto block = r.u64();
  if (!block.is_ok()) return block.status();
  out.block = block.value();
  auto gen = r.u64();
  if (!gen.is_ok()) return gen.status();
  out.generation = gen.value();
  return out;
}

net::Message encode_fixup_report(const FixupReport& r) {
  net::Message m;
  m.type = kFixupReport;
  net::Writer w;
  w.str(r.dataset);
  w.u64(r.block);
  w.u64(r.generation);
  write_address(w, r.target);
  m.payload = w.take();
  return m;
}

core::Result<FixupReport> decode_fixup_report(const net::Message& m) {
  if (m.type != kFixupReport) return wrong_type("FixupReport");
  net::Reader r(m.payload);
  FixupReport out;
  auto dataset = r.str();
  if (!dataset.is_ok()) return dataset.status();
  out.dataset = dataset.value();
  auto block = r.u64();
  if (!block.is_ok()) return block.status();
  out.block = block.value();
  auto gen = r.u64();
  if (!gen.is_ok()) return gen.status();
  out.generation = gen.value();
  auto addr = read_address(r);
  if (!addr.is_ok()) return addr.status();
  out.target = std::move(addr).take();
  return out;
}

net::Message encode_stats_request() {
  net::Message m;
  m.type = kStatsRequest;
  return m;
}

net::Message encode_stats_reply(const std::string& text) {
  net::Message m;
  m.type = kStatsReply;
  net::Writer w;
  w.str(text);
  m.payload = w.take();
  return m;
}

core::Result<std::string> decode_stats_reply(const net::Message& m) {
  if (m.type == kErrorReply) return decode_error_reply(m);
  if (m.type != kStatsReply) return wrong_type("StatsReply");
  net::Reader r(m.payload);
  auto text = r.str();
  if (!text.is_ok()) return text.status();
  return text.value();
}

net::Message encode_span_export_request(const SpanExportBatch& b) {
  net::Message m;
  m.type = kSpanExportRequest;
  net::Writer w;
  w.str(b.host);
  w.f64(b.sent_at);
  w.u32(static_cast<std::uint32_t>(b.spans.size()));
  for (const obs::SpanRecord& s : b.spans) {
    w.u64(s.trace_id);
    w.u64(s.span_id);
    w.u64(s.parent_span_id);
    w.str(s.host);
    w.str(s.stage);
    w.f64(s.start);
    w.f64(s.duration);
    w.f64(s.queue_seconds);
    w.u64(s.bytes);
  }
  m.payload = w.take();
  return m;
}

core::Result<SpanExportBatch> decode_span_export_request(
    const net::Message& m) {
  if (m.type != kSpanExportRequest) return wrong_type("SpanExportRequest");
  net::Reader r(m.payload);
  SpanExportBatch out;
  auto host = r.str();
  if (!host.is_ok()) return host.status();
  out.host = host.value();
  auto sent_at = r.f64();
  if (!sent_at.is_ok()) return sent_at.status();
  out.sent_at = sent_at.value();
  auto count = r.u32();
  if (!count.is_ok()) return count.status();
  out.spans.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    obs::SpanRecord s;
    auto trace = r.u64();
    if (!trace.is_ok()) return trace.status();
    s.trace_id = trace.value();
    auto span = r.u64();
    if (!span.is_ok()) return span.status();
    s.span_id = span.value();
    auto parent = r.u64();
    if (!parent.is_ok()) return parent.status();
    s.parent_span_id = parent.value();
    auto shost = r.str();
    if (!shost.is_ok()) return shost.status();
    s.host = shost.value();
    auto stage = r.str();
    if (!stage.is_ok()) return stage.status();
    s.stage = stage.value();
    auto start = r.f64();
    if (!start.is_ok()) return start.status();
    s.start = start.value();
    auto duration = r.f64();
    if (!duration.is_ok()) return duration.status();
    s.duration = duration.value();
    auto queue = r.f64();
    if (!queue.is_ok()) return queue.status();
    s.queue_seconds = queue.value();
    auto bytes = r.u64();
    if (!bytes.is_ok()) return bytes.status();
    s.bytes = bytes.value();
    out.spans.push_back(std::move(s));
  }
  return out;
}

net::Message encode_span_export_reply(std::uint64_t accepted) {
  net::Message m;
  m.type = kSpanExportReply;
  net::Writer w;
  w.u64(accepted);
  m.payload = w.take();
  return m;
}

core::Result<std::uint64_t> decode_span_export_reply(const net::Message& m) {
  if (m.type == kErrorReply) return decode_error_reply(m);
  if (m.type != kSpanExportReply) return wrong_type("SpanExportReply");
  net::Reader r(m.payload);
  auto accepted = r.u64();
  if (!accepted.is_ok()) return accepted.status();
  return accepted.value();
}

net::Message encode_profile_request() {
  net::Message m;
  m.type = kProfileRequest;
  return m;
}

net::Message encode_profile_reply(const std::string& text) {
  net::Message m;
  m.type = kProfileReply;
  net::Writer w;
  w.str(text);
  m.payload = w.take();
  return m;
}

core::Result<std::string> decode_profile_reply(const net::Message& m) {
  if (m.type == kErrorReply) return decode_error_reply(m);
  if (m.type != kProfileReply) return wrong_type("ProfileReply");
  net::Reader r(m.payload);
  auto text = r.str();
  if (!text.is_ok()) return text.status();
  return text.value();
}

net::Message encode_trace_report_request() {
  net::Message m;
  m.type = kTraceReportRequest;
  return m;
}

net::Message encode_trace_report_reply(const std::string& text) {
  net::Message m;
  m.type = kTraceReportReply;
  net::Writer w;
  w.str(text);
  m.payload = w.take();
  return m;
}

core::Result<std::string> decode_trace_report_reply(const net::Message& m) {
  if (m.type == kErrorReply) return decode_error_reply(m);
  if (m.type != kTraceReportReply) return wrong_type("TraceReportReply");
  net::Reader r(m.payload);
  auto text = r.str();
  if (!text.is_ok()) return text.status();
  return text.value();
}

core::Status decode_error_reply(const net::Message& m) {
  if (m.type != kErrorReply) return core::Status::ok();
  net::Reader r(m.payload);
  auto code = r.u32();
  auto msg = r.str();
  if (!code.is_ok() || !msg.is_ok()) {
    return core::data_loss("malformed error reply");
  }
  return core::Status(static_cast<core::StatusCode>(code.value()), msg.value());
}

// ---- sharded metadata plane -------------------------------------------------

namespace {

void write_log_entry(net::Writer& w, const meta::LogEntry& e) {
  w.u64(e.epoch);
  w.u8(static_cast<std::uint8_t>(e.kind));
  w.str(e.dataset);
  w.u64(e.layout.total_bytes);
  w.u32(e.layout.block_bytes);
  w.u32(e.layout.stripe_blocks);
  w.u32(e.layout.server_count);
  w.u32(e.placement.replication_factor);
  w.u32(e.placement.ring_vnodes);
  w.u32(e.placement.ec.data_slices);
  w.u32(e.placement.ec.parity_slices);
  w.u32(static_cast<std::uint32_t>(e.servers.size()));
  for (const auto& s : e.servers) {
    w.str(s.host);
    w.u32(s.port);
  }
}

core::Result<meta::LogEntry> read_log_entry(net::Reader& r) {
  meta::LogEntry e;
  auto epoch = r.u64();
  if (!epoch.is_ok()) return epoch.status();
  e.epoch = epoch.value();
  auto kind = r.u8();
  if (!kind.is_ok()) return kind.status();
  if (kind.value() > 1) return core::data_loss("unknown log entry kind");
  e.kind = static_cast<meta::EntryKind>(kind.value());
  auto dataset = r.str();
  if (!dataset.is_ok()) return dataset.status();
  e.dataset = dataset.value();
  auto total = r.u64();
  if (!total.is_ok()) return total.status();
  e.layout.total_bytes = total.value();
  auto bb = r.u32();
  if (!bb.is_ok()) return bb.status();
  e.layout.block_bytes = bb.value();
  auto sb = r.u32();
  if (!sb.is_ok()) return sb.status();
  e.layout.stripe_blocks = sb.value();
  auto sc = r.u32();
  if (!sc.is_ok()) return sc.status();
  e.layout.server_count = sc.value();
  auto rf = r.u32();
  if (!rf.is_ok()) return rf.status();
  e.placement.replication_factor = rf.value();
  auto vnodes = r.u32();
  if (!vnodes.is_ok()) return vnodes.status();
  e.placement.ring_vnodes = vnodes.value();
  auto ec_k = r.u32();
  if (!ec_k.is_ok()) return ec_k.status();
  e.placement.ec.data_slices = ec_k.value();
  auto ec_m = r.u32();
  if (!ec_m.is_ok()) return ec_m.status();
  e.placement.ec.parity_slices = ec_m.value();
  auto n = r.u32();
  if (!n.is_ok()) return n.status();
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    auto addr = read_address(r);
    if (!addr.is_ok()) return addr.status();
    e.servers.push_back(std::move(addr).take());
  }
  return e;
}

}  // namespace

net::Message encode_placement_delta_request(const PlacementDeltaRequest& r) {
  net::Message m;
  m.type = kPlacementDeltaRequest;
  net::Writer w;
  w.str(r.dataset);
  w.u64(r.since_epoch);
  m.payload = w.take();
  return m;
}

core::Result<PlacementDeltaRequest> decode_placement_delta_request(
    const net::Message& m) {
  if (m.type != kPlacementDeltaRequest) {
    return wrong_type("PlacementDeltaRequest");
  }
  net::Reader r(m.payload);
  PlacementDeltaRequest out;
  auto dataset = r.str();
  if (!dataset.is_ok()) return dataset.status();
  out.dataset = dataset.value();
  auto since = r.u64();
  if (!since.is_ok()) return since.status();
  out.since_epoch = since.value();
  return out;
}

net::Message encode_placement_delta_reply(const PlacementDeltaReply& r) {
  net::Message m;
  m.type = kPlacementDeltaReply;
  net::Writer w;
  w.u8(r.snapshot ? 1 : 0);
  w.u64(r.epoch);
  w.u32(static_cast<std::uint32_t>(r.entries.size()));
  for (const auto& e : r.entries) write_log_entry(w, e);
  m.payload = w.take();
  return m;
}

core::Result<PlacementDeltaReply> decode_placement_delta_reply(
    const net::Message& m) {
  if (m.type == kErrorReply) return decode_error_reply(m);
  if (m.type != kPlacementDeltaReply) return wrong_type("PlacementDeltaReply");
  net::Reader r(m.payload);
  PlacementDeltaReply out;
  auto snapshot = r.u8();
  if (!snapshot.is_ok()) return snapshot.status();
  out.snapshot = snapshot.value() != 0;
  auto epoch = r.u64();
  if (!epoch.is_ok()) return epoch.status();
  out.epoch = epoch.value();
  auto n = r.u32();
  if (!n.is_ok()) return n.status();
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    auto entry = read_log_entry(r);
    if (!entry.is_ok()) return entry.status();
    out.entries.push_back(std::move(entry).take());
  }
  return out;
}

net::Message encode_meta_append_request(const MetaAppendRequest& r) {
  net::Message m;
  m.type = kMetaAppendRequest;
  net::Writer w;
  write_log_entry(w, r.entry);
  m.payload = w.take();
  return m;
}

core::Result<MetaAppendRequest> decode_meta_append_request(
    const net::Message& m) {
  if (m.type != kMetaAppendRequest) return wrong_type("MetaAppendRequest");
  net::Reader r(m.payload);
  auto entry = read_log_entry(r);
  if (!entry.is_ok()) return entry.status();
  MetaAppendRequest out;
  out.entry = std::move(entry).take();
  return out;
}

net::Message encode_meta_append_reply(const MetaAppendReply& r) {
  net::Message m;
  m.type = kMetaAppendReply;
  net::Writer w;
  w.u8(r.accepted ? 1 : 0);
  w.u64(r.follower_epoch);
  m.payload = w.take();
  return m;
}

core::Result<MetaAppendReply> decode_meta_append_reply(const net::Message& m) {
  if (m.type == kErrorReply) return decode_error_reply(m);
  if (m.type != kMetaAppendReply) return wrong_type("MetaAppendReply");
  net::Reader r(m.payload);
  MetaAppendReply out;
  auto accepted = r.u8();
  if (!accepted.is_ok()) return accepted.status();
  out.accepted = accepted.value() != 0;
  auto epoch = r.u64();
  if (!epoch.is_ok()) return epoch.status();
  out.follower_epoch = epoch.value();
  return out;
}

net::Message encode_meta_status_request() {
  net::Message m;
  m.type = kMetaStatusRequest;
  return m;
}

net::Message encode_meta_status_reply(const MetaStatus& s) {
  net::Message m;
  m.type = kMetaStatusReply;
  net::Writer w;
  w.u32(s.shard_id);
  w.u32(s.shard_count);
  w.u8(s.is_leader ? 1 : 0);
  w.u64(s.epoch);
  write_address(w, s.address);
  w.u64(s.datasets);
  w.u64(s.delta_opens);
  w.u64(s.snapshot_opens);
  w.u64(s.forwarded_opens);
  w.u64(s.leader_elections);
  m.payload = w.take();
  return m;
}

core::Result<MetaStatus> decode_meta_status_reply(const net::Message& m) {
  if (m.type == kErrorReply) return decode_error_reply(m);
  if (m.type != kMetaStatusReply) return wrong_type("MetaStatusReply");
  net::Reader r(m.payload);
  MetaStatus out;
  auto shard = r.u32();
  if (!shard.is_ok()) return shard.status();
  out.shard_id = shard.value();
  auto count = r.u32();
  if (!count.is_ok()) return count.status();
  out.shard_count = count.value();
  auto leader = r.u8();
  if (!leader.is_ok()) return leader.status();
  out.is_leader = leader.value() != 0;
  auto epoch = r.u64();
  if (!epoch.is_ok()) return epoch.status();
  out.epoch = epoch.value();
  auto addr = read_address(r);
  if (!addr.is_ok()) return addr.status();
  out.address = std::move(addr).take();
  auto datasets = r.u64();
  if (!datasets.is_ok()) return datasets.status();
  out.datasets = datasets.value();
  auto delta = r.u64();
  if (!delta.is_ok()) return delta.status();
  out.delta_opens = delta.value();
  auto snapshot = r.u64();
  if (!snapshot.is_ok()) return snapshot.status();
  out.snapshot_opens = snapshot.value();
  auto forwarded = r.u64();
  if (!forwarded.is_ok()) return forwarded.status();
  out.forwarded_opens = forwarded.value();
  auto elections = r.u64();
  if (!elections.is_ok()) return elections.status();
  out.leader_elections = elections.value();
  return out;
}

}  // namespace visapult::dpss
