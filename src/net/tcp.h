// A lightweight TCP endpoint over the event-driven stack.
//
// Enough machinery to carry the Table 3 workload (a multi-megabyte stream
// of page images between the ghostview client and the X11 server): 3-way
// handshake, sequenced data segments, cumulative pure ACKs, FIN teardown.
//
// Loss recovery is not part of the endpoint: it is a pluggable *stack*
// (src/net/stacks/) bound through the dispatcher. UseStack() installs the
// named stack's handlers on the owning Host's per-connection events
// (Tcp.SegmentOut, Tcp.AckIn, Tcp.Timer), guarded on this connection, and
// from then on every send/ack/timer decision is delegated to the stack.
// Calling UseStack() again hot-swaps the policy mid-flight — the install
// runs through the host's §2.5 authorizer, and a denial leaves the old
// stack bound. EnableRetransmit() survives as a shim that binds
// "stop_and_wait", the original go-back-N behavior.
#ifndef SRC_NET_TCP_H_
#define SRC_NET_TCP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/net/host.h"
#include "src/net/stacks/tcp_stack.h"
#include "src/sim/simulator.h"

namespace spin {
namespace net {

class TcpEndpoint : private TcpStackDriver {
 public:
  using DataFn = std::function<void(const std::string&)>;

  TcpEndpoint(Host& host, uint16_t local_port);
  ~TcpEndpoint() override;
  TcpEndpoint(const TcpEndpoint&) = delete;
  TcpEndpoint& operator=(const TcpEndpoint&) = delete;

  enum class State : uint8_t {
    kClosed,
    kListen,
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinWait,
    kCloseWait,
    kDead,  // retry budget exhausted; the connection failed
  };

  // Passive open.
  void Listen(DataFn on_data);
  // Active open: emits SYN; the connection establishes as the simulator
  // delivers the handshake. With a stack bound, the SYN itself is
  // retransmitted on the shared backoff schedule until answered.
  void Connect(uint32_t dst_ip, uint16_t dst_port, DataFn on_data);
  // Hands `data` to the bound stack (which segments it subject to its
  // window) or, with no stack bound, blasts MSS-sized segments
  // immediately with no recovery (the paper's idle-LAN assumption).
  void Send(const std::string& data);
  void Close();

  State state() const { return state_; }
  bool established() const { return state_ == State::kEstablished; }
  bool dead() const { return state_ == State::kDead; }
  uint64_t bytes_received() const { return bytes_received_; }
  uint64_t segments_sent() const { return segments_sent_; }
  uint64_t segments_received() const { return segments_received_; }
  uint64_t retransmissions() const { return retransmissions_; }

  // Binds the named stack (stop_and_wait / reno / rack_lite / anything
  // registered) to this connection, replacing the current one. The
  // installs carry `credentials` and a module identity of
  // "TcpStack.<name>#<conn id>" through the host's §2.5 authorizer; on
  // denial (or
  // an unknown name) returns false and the incumbent stack keeps serving
  // — in-flight data is never dropped either way, because all transfer
  // state lives in the swap-stable TcpConn block. `rto_ns` seeds the
  // retransmission timer on the simulator's virtual clock.
  bool UseStack(sim::Simulator* sim, const std::string& name,
                uint64_t rto_ns, void* credentials = nullptr);
  const std::string& stack_name() const { return stack_name_; }

  // The per-connection state block (raise-source id, flight, window).
  const TcpConn& conn() const { return conn_; }
  uint64_t conn_id() const { return conn_.id; }

  // Caps the consecutive unanswered retransmission rounds before the
  // connection aborts to kDead.
  void SetMaxRetries(uint32_t max_retries) {
    conn_.max_retries = max_retries;
  }

  // Legacy spelling: binds the stop_and_wait stack (go-back-N on RTO,
  // now with exponential backoff and a retry budget).
  void EnableRetransmit(sim::Simulator* sim, uint64_t timeout_ns);

 private:
  static bool Input(TcpEndpoint* endpoint, Packet* packet);

  // Stack-event handlers, installed per bound stack together with their
  // ConnGuard on conn_.
  static void StackSegmentOut(TcpEndpoint* endpoint, TcpConn* conn);
  static void StackAckIn(TcpEndpoint* endpoint, TcpConn* conn,
                         uint64_t ack);
  static void StackTimer(TcpEndpoint* endpoint, TcpConn* conn);
  static bool ConnGuard(TcpConn* mine, TcpConn* conn);
  static bool ConnGuardAck(TcpConn* mine, TcpConn* conn, uint64_t ack);

  // TcpStackDriver (the mechanics the bound stack drives).
  void SendNewSegment(TcpConn& conn, const std::string& payload) override;
  void Retransmit(TcpConn& conn, TcpSegment& segment) override;
  void Abort(TcpConn& conn) override;

  void Emit(uint8_t flags, const std::string& payload);
  void EmitRaw(uint32_t seq, uint8_t flags, const std::string& payload);
  void Established();
  void RaiseSegmentOut();
  void ScheduleTimer();
  void TimerFired();

  Host& host_;
  uint16_t local_port_;
  uint32_t remote_ip_ = 0;
  uint16_t remote_port_ = 0;
  State state_ = State::kClosed;
  uint32_t snd_next_ = 0;  // next sequence number to send
  uint32_t rcv_next_ = 0;  // next sequence number expected
  uint32_t iss_ = 0;       // initial send sequence (handshake retransmit)
  DataFn on_data_;
  uint64_t bytes_received_ = 0;
  uint64_t segments_sent_ = 0;
  uint64_t segments_received_ = 0;
  uint64_t retransmissions_ = 0;

  // Stack binding state.
  TcpConn conn_;
  std::unique_ptr<TcpStack> stack_;
  std::unique_ptr<Module> stack_module_;
  std::string stack_name_;

  // Retransmission timer: one deadline in conn_, lazily reprogrammed
  // against the simulator. The alive token parries callbacks that
  // outlive the endpoint.
  bool timer_pending_ = false;
  uint64_t timer_wake_ns_ = 0;
  std::shared_ptr<TcpEndpoint*> alive_;

  // Last, so they uninstall before anything their handlers, guards and
  // modules use: the port-guarded input handler, and the bound stack's
  // three handlers (owned by stack_module_).
  BindingSet input_binding_;
  BindingSet stack_bindings_;
};

}  // namespace net
}  // namespace spin

#endif  // SRC_NET_TCP_H_
