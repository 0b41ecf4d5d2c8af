// Pluggable TCP stacks bound through the dispatcher (ROADMAP: the paper's
// thesis at fleet scale).
//
// Congestion control and loss recovery are not hardwired into TcpEndpoint;
// they are a *stack* — an object implementing this interface — bound to the
// connection by installing guarded handlers on the owning Host's
// per-connection events (Tcp.SegmentOut, Tcp.AckIn, Tcp.Timer). Selecting
// a stack is a guarded install; swapping one at runtime is an
// uninstall/install pair that runs through the event owner's §2.5
// authorizer, so policy can pin a fleet to an allow-list of stacks and a
// denied swap leaves the old stack serving traffic. This is the shape
// FreeBSD ships as pluggable TCP stacks (tcp_stacks/rack.c, bbr.c),
// rebuilt on dynamic binding.
//
// The split of responsibilities:
//   - TcpEndpoint owns the protocol state machine (handshake, teardown,
//     sequence numbers, receive path) and the mechanics of emitting
//     segments. It keeps a TcpConn block and raises the three events.
//   - The bound TcpStack makes every send/ack/timer *decision*: when to
//     transmit pending data (window management), how to react to an ACK
//     (cwnd growth, duplicate-ACK counting, loss detection), and what a
//     retransmission timeout means (backoff, go-back-N, abort).
//   - All mutable decision state lives in TcpConn, not in the stack
//     object, so a hot-swap hands the successor the connection mid-flight:
//     in-flight segments stay tracked and the byte stream never skips.
#ifndef SRC_NET_STACKS_TCP_STACK_H_
#define SRC_NET_STACKS_TCP_STACK_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/net/host.h"
#include "src/sim/simulator.h"

namespace spin {
namespace net {

// One tracked data segment in flight.
struct TcpSegment {
  uint32_t seq = 0;
  std::string payload;
  uint64_t sent_at_ns = 0;     // virtual time of the latest (re)transmission
  uint32_t transmissions = 1;  // 1 = original send only
};

struct TcpConn;

// The endpoint-side mechanics a stack drives. TcpEndpoint implements this;
// tests implement it with a mock to unit-test stacks without a network.
class TcpStackDriver {
 public:
  virtual ~TcpStackDriver() = default;
  // Emit a brand-new segment carrying `payload` at the connection's next
  // sequence number and track it in conn.flight.
  virtual void SendNewSegment(TcpConn& conn, const std::string& payload) = 0;
  // Re-emit an already-tracked flight segment (counts a retransmission and
  // restamps sent_at_ns).
  virtual void Retransmit(TcpConn& conn, TcpSegment& segment) = 0;
  // Retry budget exhausted: the connection is dead.
  virtual void Abort(TcpConn& conn) = 0;
};

// Per-connection state shared between the endpoint and whichever stack is
// currently bound. Deliberately swap-stable: nothing in here belongs to a
// particular stack implementation, so replacing the stack object preserves
// the connection (flight, window, retry budget) exactly.
struct TcpConn {
  uint64_t id = 0;  // process-unique connection id (names stack modules)
  TcpStackDriver* driver = nullptr;
  sim::Simulator* sim = nullptr;

  // Send buffer: bytes accepted from the application but not yet
  // segmented onto the wire. pending_off marks the consumed prefix.
  std::string pending;
  size_t pending_off = 0;

  // Retransmission queue (send order == sequence order).
  std::deque<TcpSegment> flight;
  size_t flight_bytes = 0;
  uint32_t snd_una = 0;  // oldest unacknowledged sequence number

  // Window / recovery state, maintained by the bound stack.
  size_t cwnd_bytes = 0;  // 0 = unlimited (no congestion window)
  size_t ssthresh_bytes = ~size_t{0};
  uint32_t dup_acks = 0;
  bool in_recovery = false;
  uint32_t recover_seq = 0;        // recovery ends once snd_una passes this
  uint64_t rack_newest_ns = 0;     // newest delivered segment's send time

  // Timer / retry budget, shared by every stack and the handshake.
  uint64_t rto_ns = 0;
  uint32_t backoff = 0;     // consecutive unanswered RTO rounds
  uint32_t max_retries = 8;
  uint64_t timer_deadline_ns = 0;  // 0 = timer idle
};

// A congestion-control / loss-recovery policy. Instances are created per
// connection through TcpStackRegistry and own no connection state.
class TcpStack {
 public:
  virtual ~TcpStack() = default;
  virtual const char* name() const = 0;
  // The stack was just bound (fresh connection or hot-swap): initialize or
  // adopt the window state in `conn`.
  virtual void OnBind(TcpConn& conn) = 0;
  // Tcp.SegmentOut: the application appended data to conn.pending;
  // segment and transmit whatever the window allows.
  virtual void OnSendReady(TcpConn& conn) = 0;
  // Tcp.AckIn: a cumulative ACK for `ack` arrived.
  virtual void OnAck(TcpConn& conn, uint32_t ack) = 0;
  // Tcp.Timer: the retransmission deadline expired at `now_ns`.
  virtual void OnTimer(TcpConn& conn, uint64_t now_ns) = 0;
};

// --- Shared helpers (the mechanics every stack composes) -------------------

// Bytes the window still admits (SIZE_MAX when cwnd is unlimited).
size_t StackWindowAvail(const TcpConn& conn);

// Segment conn.pending into MSS-sized sends up to the window. An empty
// flight always admits one segment, so a tiny window cannot deadlock.
void PumpPending(TcpConn& conn);

// Cumulative-ACK bookkeeping: trims fully-acknowledged segments off the
// flight. On forward progress resets dup_acks and the retry backoff and
// restarts (or clears) the retransmission deadline.
struct AckResult {
  size_t acked_bytes = 0;
  uint64_t newest_sent_at_ns = 0;  // latest send time among acked segments
  bool progress = false;           // ack advanced snd_una
};
AckResult AckAdvance(TcpConn& conn, uint32_t ack);

// Restart the retransmission deadline from now, honoring the current
// exponential backoff. Clears it when nothing is in flight.
void RestartTimer(TcpConn& conn, uint64_t now_ns);

// --- Registry --------------------------------------------------------------

class TcpStackRegistry {
 public:
  using Factory = std::unique_ptr<TcpStack> (*)();

  static TcpStackRegistry& Global();

  void Register(const std::string& name, Factory factory);
  // nullptr when no stack registered under `name`.
  std::unique_ptr<TcpStack> Create(const std::string& name) const;
  std::vector<std::string> Names() const;

 private:
  std::vector<std::pair<std::string, Factory>> factories_;
};

// The built-in stack factories (also reachable through the registry).
std::unique_ptr<TcpStack> MakeStopAndWaitStack();
std::unique_ptr<TcpStack> MakeRenoStack();
std::unique_ptr<TcpStack> MakeRackLiteStack();

// Registers stop_and_wait, reno, and rack_lite (idempotent). Called from
// every entry point that resolves stacks by name, so a static-archive link
// cannot dead-strip the implementations.
void RegisterBuiltinTcpStacks();

// --- §2.5 policy over stack selection --------------------------------------

// An authorizer for a Host's three per-connection stack events: installs
// from a module named "TcpStack.<name>#<conn id>" are granted iff <name>
// is on the allow list. Everything else (uninstalls of the outgoing stack, the
// host's own defaults) passes, so a denied swap leaves the old stack
// bound and serving. Attach() requires authority over the events — the
// host's own module — exactly like any §2.5 authorizer install.
class StackAuthorizer {
 public:
  explicit StackAuthorizer(std::vector<std::string> allowed);

  void Attach(Host& host);

  void Allow(const std::string& name) { allowed_.push_back(name); }
  uint64_t denied() const { return denied_; }
  uint64_t granted() const { return granted_; }

 private:
  static bool Authorize(AuthRequest& request, void* ctx);

  std::vector<std::string> allowed_;
  uint64_t denied_ = 0;
  uint64_t granted_ = 0;
};

}  // namespace net
}  // namespace spin

#endif  // SRC_NET_STACKS_TCP_STACK_H_
