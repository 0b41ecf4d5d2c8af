// Event-driven protocol stack (Fiuczynski & Bershad 96 analogue, §3.2).
//
// Each host owns the packet events of Table 3 — Ether.PacketArrived,
// Ip.PacketArrived, Udp.PacketArrived, Tcp.PacketArrived — and the protocol
// layers are *extensions*: IP attaches to the Ethernet event with a guard
// on the ethertype; UDP and TCP attach to the IP event with guards on the
// protocol field; sockets attach to the UDP/TCP events with guards on the
// destination port. All demultiplexing guards are micro-programs, so the
// generated dispatch routine inlines them exactly as SPIN inlined its
// packet guards.
#ifndef SRC_NET_HOST_H_
#define SRC_NET_HOST_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>

#include "src/core/dispatcher.h"
#include "src/net/packet.h"
#include "src/sim/simulator.h"

namespace spin {
namespace net {

class Host;
struct TcpConn;  // src/net/stacks/tcp_stack.h

// A point-to-point link between two hosts, timed by the simulator.
//
// Failure injection: four independent mechanisms decide whether a frame
// that has already burned its airtime actually arrives — a deterministic
// every-nth pattern, a seeded pseudo-random loss rate, a partition window
// in virtual time, and an arbitrary per-frame hook. All are deterministic
// given the same seed and send sequence, so retry/backoff behavior above
// the wire (TCP retransmit, remote dispatch) replays exactly.
class Wire {
 public:
  // Drop decision hook: return true to drop the frame. `frame_index` is
  // the 1-based count of frames offered to the wire.
  using DropHook = std::function<bool(const Packet& packet, uint64_t now_ns,
                                      uint64_t frame_index)>;

  Wire(sim::Simulator* sim, sim::LinkModel model)
      : sim_(sim), model_(model) {}

  void Attach(Host& a, Host& b);
  void Send(Host& from, const Packet& packet);

  // Deterministic loss injection: drops every nth frame (0 = lossless).
  // The frame still occupies the wire (collisions lost airtime too).
  void SetLossPattern(uint32_t drop_every_nth) {
    loss_pattern_ = drop_every_nth;
  }

  // Seeded pseudo-random loss: each frame is dropped with `probability`
  // (xorshift64*, so the drop pattern is a pure function of the seed and
  // the frame sequence). probability <= 0 disables.
  void SetRandomLoss(double probability, uint64_t seed);

  // Partition window: every frame sent at virtual time t in
  // [from_ns, to_ns) vanishes. SetPartition(0, 0) heals the partition.
  void SetPartition(uint64_t from_ns, uint64_t to_ns) {
    partition_from_ns_ = from_ns;
    partition_to_ns_ = to_ns;
  }

  // Arbitrary injection (consulted last; nullptr disables).
  void SetDropHook(DropHook hook) { drop_hook_ = std::move(hook); }

  uint64_t frames_lost() const { return lost_; }
  uint64_t frames_offered() const { return frame_count_; }

  uint64_t bytes_carried() const { return bytes_; }
  const sim::LinkModel& model() const { return model_; }

 private:
  bool ShouldDrop(const Packet& packet);

  sim::Simulator* sim_;
  sim::LinkModel model_;
  Host* a_ = nullptr;
  Host* b_ = nullptr;
  uint64_t bytes_ = 0;
  uint32_t loss_pattern_ = 0;
  double random_loss_ = 0;
  uint64_t rng_state_ = 0;
  uint64_t partition_from_ns_ = 0;
  uint64_t partition_to_ns_ = 0;
  DropHook drop_hook_;
  uint64_t frame_count_ = 0;
  uint64_t lost_ = 0;
  // The medium serializes one frame at a time; transmission of frame n+1
  // cannot begin before frame n has left the wire (keeps delivery in FIFO
  // order, as on the paper's shared 10 Mb/s Ethernet).
  uint64_t busy_until_ns_ = 0;
};

class Host {
 public:
  Host(std::string name, uint32_t ip, Dispatcher* dispatcher);
  ~Host();
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  const std::string& host_name() const { return name_; }
  uint32_t ip() const { return ip_; }
  // This host's identity in flight-recorder traces (obs::RegisterTraceHost):
  // records emitted while the host processes traffic carry it, and
  // WriteChromeTrace renders one process row per host id.
  uint32_t trace_host_id() const { return trace_host_id_; }
  Dispatcher& dispatcher() { return *dispatcher_; }
  const Module& module() const { return module_; }
  Module& module() { return module_; }

  // Credential this host presents when binding to remote events (§2.5
  // across the wire). The blob is opaque here: remote proxies carry it in
  // their BindRequest unless ProxyOptions overrides it per proxy, and only
  // the exporter-side authorizer interprets it.
  void SetCredential(std::string credential) {
    credential_ = std::move(credential);
  }
  const std::string& credential() const { return credential_; }

  // The packet events (result: "did any handler consume the packet").
  Event<bool(Packet*)> EtherPacketArrived;
  Event<bool(Packet*)> IpPacketArrived;
  Event<bool(Packet*)> UdpPacketArrived;
  Event<bool(Packet*)> TcpPacketArrived;

  // Raised for every outbound frame before it reaches the wire. The
  // default handler transmits; extensions interpose to transform traffic —
  // the paper's motivating "add compression to network protocols" (§1).
  // Handlers may rewrite the packet in place; returning false drops it.
  Event<bool(Packet*)> EtherPacketSend;

  // Per-connection TCP stack events (src/net/stacks/): a bound stack is a
  // set of guarded handlers on these three, keyed on the TcpConn pointer,
  // so stack selection is a guarded install and hot-swap is an
  // uninstall/install pair gated by this host's §2.5 authorizer. The
  // no-op defaults keep an unbound raise legal. AckIn's second argument
  // is the cumulative acknowledgment number.
  Event<void(TcpConn*)> TcpSegmentOut;
  Event<void(TcpConn*, uint64_t)> TcpAckIn;
  Event<void(TcpConn*)> TcpTimer;

  void AttachWire(Wire* wire) { wire_ = wire; }
  Wire* wire() const { return wire_; }

  // Transmit onto the attached wire.
  void Transmit(const Packet& packet);

  // Wire delivery entry: raises the Ethernet event chain synchronously.
  void Receive(Packet packet);

  uint64_t rx_packets() const { return rx_; }
  uint64_t tx_packets() const { return tx_; }
  uint64_t dropped_packets() const { return dropped_; }
  uint64_t tx_dropped_packets() const { return tx_dropped_; }
  uint64_t checksum_drops() const { return checksum_drops_; }
  uint64_t udp_checksum_drops() const { return udp_checksum_drops_; }

  // The wire-transmit binding: the target for imposed outbound-policy
  // guards (firewalling, rate limiting).
  const BindingHandle& transmit_binding() const { return transmit_binding_; }

 private:
  static bool IpInput(Host* host, Packet* packet);
  static bool UdpInput(Host* host, Packet* packet);
  static bool TcpInput(Host* host, Packet* packet);
  static bool Drop(Host* host, Packet* packet);
  static bool DropOutbound(Host* host, Packet* packet);
  static void TcpStackIdle(Host* host, TcpConn* conn);
  static void TcpStackIdleAck(Host* host, TcpConn* conn, uint64_t ack);
  static bool WireTransmit(Host* host, Packet* packet);
  static void ExportMetricsSource(void* ctx, std::ostream& os);

  std::string name_;
  uint32_t ip_;
  uint32_t trace_host_id_ = 0;
  Dispatcher* dispatcher_;
  Module module_;
  std::string credential_;
  Wire* wire_ = nullptr;
  BindingHandle transmit_binding_;
  uint64_t rx_ = 0;
  uint64_t tx_ = 0;
  uint64_t dropped_ = 0;
  uint64_t tx_dropped_ = 0;
  uint64_t checksum_drops_ = 0;
  uint64_t udp_checksum_drops_ = 0;
};

// A bound UDP endpoint: installs a port-guarded handler on the host's
// Udp.PacketArrived event (the Table 2 experimental subject).
class UdpSocket {
 public:
  using ReceiveFn = std::function<void(const Packet&)>;

  UdpSocket(Host& host, uint16_t port, ReceiveFn on_receive);
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  void SendTo(uint32_t dst_ip, uint16_t dst_port,
              const std::string& payload);

  uint16_t port() const { return port_; }
  uint64_t received() const { return received_; }

 private:
  static bool Input(UdpSocket* socket, Packet* packet);

  Host& host_;
  uint16_t port_;
  ReceiveFn on_receive_;
  uint64_t received_ = 0;
  BindingSet binding_;  // last: uninstalls before what Input uses goes
};

}  // namespace net
}  // namespace spin

#endif  // SRC_NET_HOST_H_
