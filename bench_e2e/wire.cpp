// The client's connector: loopback TCP, optionally behind the emulated LAN
// NIC, each stream wrapped so that its sends and receives feed the
// "net.wire" union.
#include <chrono>
#include <thread>

#include "e2e.h"
#include "net/tcp.h"

namespace e2e {

namespace net = visapult::net;
using visapult::core::Result;
using visapult::core::Status;

namespace {

// Accepts and drops every byte: what a NIC budget's ShapedStream sends into.
class DropStream final : public net::ByteStream {
 public:
  Status send_all(const std::uint8_t*, std::size_t) override { return Status::ok(); }
  Status recv_all(std::uint8_t*, std::size_t) override {
    return visapult::core::unavailable("drop stream has nothing to read");
  }
  void close() override {}
};

std::shared_ptr<net::ShapedStream> budget(double rate, double latency) {
  net::ShaperConfig cfg;
  cfg.rate_bytes_per_sec = rate;
  cfg.latency_sec = latency;
  return std::make_shared<net::ShapedStream>(std::make_shared<DropStream>(), cfg);
}

}  // namespace

std::shared_ptr<Nic> make_lan_nic() {
  auto nic = std::make_shared<Nic>();
  nic->up = budget(kLanBytesPerSec, kLanOneWaySec);
  nic->down = budget(kLanBytesPerSec, 0.0);
  return nic;
}

Status WireStream::send_all(const std::uint8_t* data, std::size_t len) {
  const bool counted = tracer().io_enter();
  Status st = nic_ ? nic_->up->send_all(data, len) : Status::ok();
  if (st.is_ok()) st = inner_->send_all(data, len);
  tracer().io_exit(counted);
  return st;
}

Status WireStream::recv_all(std::uint8_t* data, std::size_t len) {
  const bool counted = tracer().io_enter();
  Status st = inner_->recv_all(data, len);
  if (st.is_ok() && nic_) st = nic_->down->send_all(data, len);
  tracer().io_exit(counted);
  return st;
}

visapult::dpss::Connector wire_connector(std::shared_ptr<Nic> nic) {
  return [nic](const visapult::dpss::ServerAddress& addr) -> Result<net::StreamPtr> {
    SpanScope span("net.connect");
    // The TCP handshake costs one LAN round trip before the first byte.
    if (nic) std::this_thread::sleep_for(std::chrono::duration<double>(2 * kLanOneWaySec));
    auto stream =
        net::TcpStream::connect(addr.host, addr.port, net::ConnectOptions{5.0});
    if (!stream.is_ok()) return stream.status();
    return net::StreamPtr(
        std::make_shared<WireStream>(std::move(stream).take(), nic));
  };
}

}  // namespace e2e
