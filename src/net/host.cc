#include "src/net/host.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <ostream>

#include "src/net/stacks/tcp_stack.h"
#include "src/obs/context.h"
#include "src/obs/export.h"
#include "src/obs/obs.h"
#include "src/rt/panic.h"

namespace spin {
namespace net {
namespace {

// Demultiplexing guards, expressed as micro-programs so the dispatcher can
// inline them into the generated dispatch routine.
micro::Program EtherTypeGuard(uint16_t ether_type) {
  return micro::GuardArgFieldEq(/*num_args=*/1, /*arg=*/0, kEtherTypeOff,
                                /*width=*/2, ~0ull,
                                PortFieldValue(ether_type));
}

micro::Program IpProtoGuard(uint8_t proto) {
  return micro::GuardArgFieldEq(/*num_args=*/1, /*arg=*/0, kIpProtoOff,
                                /*width=*/1, ~0ull, proto);
}

micro::Program DstPortGuard(uint16_t port) {
  return micro::GuardArgFieldEq(/*num_args=*/1, /*arg=*/0, kDstPortOff,
                                /*width=*/2, ~0ull, PortFieldValue(port));
}

}  // namespace

void Wire::Attach(Host& a, Host& b) {
  a_ = &a;
  b_ = &b;
  a.AttachWire(this);
  b.AttachWire(this);
}

void Wire::SetRandomLoss(double probability, uint64_t seed) {
  random_loss_ = probability;
  // xorshift64* needs nonzero state; fold the seed through a fixed odd
  // constant so seed 0 still produces a valid stream.
  rng_state_ = seed ^ 0x9e3779b97f4a7c15ull;
  if (rng_state_ == 0) {
    rng_state_ = 1;
  }
}

bool Wire::ShouldDrop(const Packet& packet) {
  if (loss_pattern_ != 0 && frame_count_ % loss_pattern_ == 0) {
    return true;
  }
  if (random_loss_ > 0) {
    // xorshift64* (Vigna): consumed once per frame regardless of the other
    // mechanisms, so the drop pattern depends only on seed + frame index.
    uint64_t x = rng_state_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    rng_state_ = x;
    uint64_t r = x * 0x2545f4914f6cdd1dull;
    if (static_cast<double>(r >> 11) * (1.0 / 9007199254740992.0) <
        random_loss_) {
      return true;
    }
  }
  uint64_t now = sim_->now_ns();
  if (partition_to_ns_ > partition_from_ns_ && now >= partition_from_ns_ &&
      now < partition_to_ns_) {
    return true;
  }
  if (drop_hook_ && drop_hook_(packet, now, frame_count_)) {
    return true;
  }
  return false;
}

void Wire::Send(Host& from, const Packet& packet) {
  SPIN_ASSERT(a_ != nullptr && b_ != nullptr);
  SPIN_ASSERT(packet.len <= kMaxFrame);
  Host* to = &from == a_ ? b_ : a_;
  bytes_ += packet.len;
  uint64_t start = std::max(sim_->now_ns(), busy_until_ns_);
  uint64_t done = start + model_.SerializationNs(packet.len);
  busy_until_ns_ = done;
  ++frame_count_;
  if (ShouldDrop(packet)) {
    ++lost_;
    return;  // the frame burned airtime but never arrives
  }
  // Two pointers: std::function keeps the closure inline, off the heap.
  Frame* frame = TakeFrame(packet);
  sim_->At(done + model_.propagation_ns,
           [to, frame] { Deliver(to, frame); });
}

Wire::Frame* Wire::TakeFrame(const Packet& packet) {
  Frame* frame;
  if (idle_frames_.empty()) {
    frames_.push_back(std::make_unique<Frame>(Frame{.wire = this}));
    frame = frames_.back().get();
  } else {
    frame = idle_frames_.back();
    idle_frames_.pop_back();
  }
  std::memcpy(frame->packet.data, packet.data, packet.len);
  if (frame->dirty > packet.len) {
    std::memset(frame->packet.data + packet.len, 0,
                frame->dirty - packet.len);
  }
  frame->packet.len = packet.len;
  frame->dirty = packet.len;
  return frame;
}

void Wire::Deliver(Host* to, Frame* frame) {
  // Back to the idle list when the raise chain returns or throws. A handler
  // may have rewritten the frame in place, up to its final len.
  struct Reclaim {
    Frame* frame;
    ~Reclaim() {
      frame->dirty = std::min<uint32_t>(
          std::max(frame->dirty, frame->packet.len), kMaxFrame);
      frame->wire->idle_frames_.push_back(frame);
    }
  } reclaim{frame};
  to->Deliver(&frame->packet);
}

Host::Host(std::string name, uint32_t ip, Dispatcher* dispatcher)
    : EtherPacketArrived("Ether.PacketArrived", &module_, nullptr,
                         dispatcher),
      IpPacketArrived("Ip.PacketArrived", &module_, nullptr, dispatcher),
      UdpPacketArrived("Udp.PacketArrived", &module_, nullptr, dispatcher),
      TcpPacketArrived("Tcp.PacketArrived", &module_, nullptr, dispatcher),
      EtherPacketSend("Ether.PacketSend", &module_, nullptr, dispatcher),
      TcpSegmentOut("Tcp.SegmentOut", &module_, nullptr, dispatcher),
      TcpAckIn("Tcp.AckIn", &module_, nullptr, dispatcher),
      TcpTimer("Tcp.Timer", &module_, nullptr, dispatcher),
      name_(std::move(name)),
      ip_(ip),
      dispatcher_(dispatcher),
      module_("Net." + name_) {
  trace_host_id_ = obs::RegisterTraceHost(name_);
  for (EventBase* event : std::initializer_list<EventBase*>{
           &EtherPacketArrived, &IpPacketArrived, &UdpPacketArrived,
           &TcpPacketArrived}) {
    dispatcher_->SetResultPolicy(*event, ResultPolicy::kOr, &module_);
  }
  // Unconsumed packets are dropped (the default handler fires when no
  // guard admits the packet).
  dispatcher_->InstallDefaultHandler(EtherPacketArrived, &Host::Drop, this,
                                     {.module = &module_});
  dispatcher_->InstallDefaultHandler(IpPacketArrived, &Host::Drop, this,
                                     {.module = &module_});
  dispatcher_->InstallDefaultHandler(UdpPacketArrived, &Host::Drop, this,
                                     {.module = &module_});
  dispatcher_->InstallDefaultHandler(TcpPacketArrived, &Host::Drop, this,
                                     {.module = &module_});

  // The stack events fire into whatever stack bindings connections have
  // installed; with none bound (or a guard mismatch) the raise must still
  // be legal, hence no-op defaults.
  dispatcher_->InstallDefaultHandler(TcpSegmentOut, &Host::TcpStackIdle,
                                     this, {.module = &module_});
  dispatcher_->InstallDefaultHandler(TcpAckIn, &Host::TcpStackIdleAck, this,
                                     {.module = &module_});
  dispatcher_->InstallDefaultHandler(TcpTimer, &Host::TcpStackIdle, this,
                                     {.module = &module_});

  // The outbound path: the wire-transmit handler plays the intrinsic role
  // (ordered Last so interposed transforms run before it). If a guard
  // imposed on the transmit binding rejects the frame (an outbound
  // firewall) nothing fires and the default handler counts the drop.
  dispatcher_->SetResultPolicy(EtherPacketSend, ResultPolicy::kAnd,
                               &module_);
  dispatcher_->InstallDefaultHandler(EtherPacketSend, &Host::DropOutbound,
                                     this, {.module = &module_});
  transmit_binding_ = dispatcher_->InstallHandler(
      EtherPacketSend, &Host::WireTransmit, this,
      {.order = {OrderKind::kLast}, .module = &module_});

  // The protocol layers attach as guarded extensions.
  dispatcher_->InstallHandler(
      EtherPacketArrived, &Host::IpInput, this,
      {.guards = {MakeMicroGuard(EtherTypeGuard(kEtherTypeIp))},
       .module = &module_});
  dispatcher_->InstallHandler(
      IpPacketArrived, &Host::UdpInput, this,
      {.guards = {MakeMicroGuard(IpProtoGuard(kIpProtoUdp))},
       .module = &module_});
  dispatcher_->InstallHandler(
      IpPacketArrived, &Host::TcpInput, this,
      {.guards = {MakeMicroGuard(IpProtoGuard(kIpProtoTcp))},
       .module = &module_});

  obs::RegisterSource(this, &Host::ExportMetricsSource);
}

Host::~Host() { obs::UnregisterSource(this); }

void Host::ExportMetricsSource(void* ctx, std::ostream& os) {
  auto* self = static_cast<Host*>(ctx);
  auto line = [&os, self](const char* name, uint64_t value) {
    os << name << "{host=\"";
    obs::WriteLabelValue(os, self->name_);
    os << "\"} " << value << "\n";
  };
  line("spin_net_rx_packets_total", self->rx_);
  line("spin_net_tx_packets_total", self->tx_);
  line("spin_net_rx_dropped_total", self->dropped_);
  line("spin_net_tx_dropped_total", self->tx_dropped_);
  line("spin_net_ip_checksum_drops_total", self->checksum_drops_);
  line("spin_net_udp_checksum_drops_total", self->udp_checksum_drops_);
}

bool Host::IpInput(Host* host, Packet* packet) {
  if (!VerifyIpChecksum(*packet)) {
    ++host->checksum_drops_;
    return false;
  }
  return host->IpPacketArrived.Raise(packet);
}

bool Host::UdpInput(Host* host, Packet* packet) {
  if (!VerifyUdpChecksum(*packet)) {
    ++host->udp_checksum_drops_;
    return false;
  }
  return host->UdpPacketArrived.Raise(packet);
}

bool Host::TcpInput(Host* host, Packet* packet) {
  return host->TcpPacketArrived.Raise(packet);
}

bool Host::Drop(Host* host, Packet* packet) {
  (void)packet;
  ++host->dropped_;
  return false;
}

bool Host::DropOutbound(Host* host, Packet* packet) {
  (void)packet;
  ++host->tx_dropped_;
  return false;
}

void Host::TcpStackIdle(Host* host, TcpConn* conn) {
  (void)host;
  (void)conn;
}

void Host::TcpStackIdleAck(Host* host, TcpConn* conn, uint64_t ack) {
  (void)host;
  (void)conn;
  (void)ack;
}

bool Host::WireTransmit(Host* host, Packet* packet) {
  SPIN_ASSERT_MSG(host->wire_ != nullptr, "host %s has no wire",
                  host->name_.c_str());
  ++host->tx_;
  host->wire_->Send(*host, *packet);
  return true;
}

void Host::Transmit(const Packet& packet) { Transmit(Packet(packet)); }

void Host::Transmit(Packet&& packet) {
  (void)EtherPacketSend.Raise(&packet);
}

void Host::Receive(Packet packet) { Deliver(&packet); }

void Host::Deliver(Packet* packet) {
  ++rx_;
  // Everything the delivery triggers — the packet-event chain, socket
  // callbacks, an Exporter dispatch — is this host's work; stamp its trace
  // records with the host identity so each sim host gets its own process
  // row in the exported trace.
  std::optional<obs::HostScope> host_scope;
  if (obs::Enabled()) {
    host_scope.emplace(trace_host_id_);
  }
  (void)EtherPacketArrived.Raise(packet);
}

UdpSocket::UdpSocket(Host& host, uint16_t port, ReceiveFn on_receive)
    : host_(host), port_(port), on_receive_(std::move(on_receive)) {
  binding_.Add(host_.dispatcher().InstallHandler(
      host_.UdpPacketArrived, &UdpSocket::Input, this,
      {.guards = {MakeMicroGuard(DstPortGuard(port_))},
       .module = &host_.module()}));
}

bool UdpSocket::Input(UdpSocket* socket, Packet* packet) {
  ++socket->received_;
  if (socket->on_receive_) {
    socket->on_receive_(*packet);
  }
  return true;
}

void UdpSocket::SendTo(uint32_t dst_ip, uint16_t dst_port,
                       const std::string& payload) {
  host_.Transmit(
      MakeUdpPacket(host_.ip(), dst_ip, port_, dst_port, payload));
}

}  // namespace net
}  // namespace spin
