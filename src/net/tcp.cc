#include "src/net/tcp.h"

#include <algorithm>
#include <atomic>

#include "src/core/errors.h"
#include "src/micro/program.h"
#include "src/rt/panic.h"

namespace spin {
namespace net {
namespace {

// Connection ids: process-unique, so each connection's stack module gets
// its own name (and quota series).
std::atomic<uint64_t> g_next_conn_id{1};

uint64_t BackoffDeadline(const TcpConn& conn, uint64_t now_ns) {
  return now_ns + (conn.rto_ns << std::min(conn.backoff, 16u));
}

}  // namespace

TcpEndpoint::TcpEndpoint(Host& host, uint16_t local_port)
    : host_(host),
      local_port_(local_port),
      alive_(std::make_shared<TcpEndpoint*>(this)) {
  conn_.id = g_next_conn_id.fetch_add(1);
  conn_.driver = this;
  input_binding_.Add(host_.dispatcher().InstallHandler(
      host_.TcpPacketArrived, &TcpEndpoint::Input, this,
      {.guards = {MakeMicroGuard(micro::GuardArgFieldEq(
           /*num_args=*/1, /*arg=*/0, kDstPortOff, /*width=*/2, ~0ull,
           PortFieldValue(local_port_)))},
       .module = &host_.module()}));
}

TcpEndpoint::~TcpEndpoint() { *alive_ = nullptr; }

void TcpEndpoint::Listen(DataFn on_data) {
  on_data_ = std::move(on_data);
  state_ = State::kListen;
}

void TcpEndpoint::Connect(uint32_t dst_ip, uint16_t dst_port,
                          DataFn on_data) {
  on_data_ = std::move(on_data);
  remote_ip_ = dst_ip;
  remote_port_ = dst_port;
  state_ = State::kSynSent;
  iss_ = 1000;  // deterministic ISN keeps tests reproducible
  snd_next_ = iss_;
  Emit(kTcpSyn, "");
  ++snd_next_;  // SYN consumes one sequence number
  if (stack_ != nullptr && conn_.sim != nullptr) {
    conn_.timer_deadline_ns = BackoffDeadline(conn_, conn_.sim->now_ns());
    ScheduleTimer();
  }
}

void TcpEndpoint::Emit(uint8_t flags, const std::string& payload) {
  EmitRaw(snd_next_, flags, payload);
}

void TcpEndpoint::EmitRaw(uint32_t seq, uint8_t flags,
                          const std::string& payload) {
  ++segments_sent_;
  host_.Transmit(MakeTcpPacket(host_.ip(), remote_ip_, local_port_,
                               remote_port_, seq, rcv_next_, flags,
                               payload));
}

void TcpEndpoint::Send(const std::string& data) {
  SPIN_ASSERT_MSG(state_ == State::kEstablished,
                  "Send on a non-established connection");
  if (stack_ != nullptr) {
    conn_.pending.append(data);
    RaiseSegmentOut();
    ScheduleTimer();
    return;
  }
  // No stack bound: blast every segment immediately, untracked.
  size_t offset = 0;
  while (offset < data.size()) {
    size_t chunk = std::min(kTcpMss, data.size() - offset);
    Emit(kTcpAckFlag, data.substr(offset, chunk));
    snd_next_ += static_cast<uint32_t>(chunk);
    offset += chunk;
  }
}

void TcpEndpoint::EnableRetransmit(sim::Simulator* sim,
                                   uint64_t timeout_ns) {
  bool bound = UseStack(sim, "stop_and_wait", timeout_ns);
  SPIN_ASSERT_MSG(bound, "stop_and_wait install denied");
}

bool TcpEndpoint::UseStack(sim::Simulator* sim, const std::string& name,
                           uint64_t rto_ns, void* credentials) {
  RegisterBuiltinTcpStacks();
  if (state_ == State::kDead) {
    return false;
  }
  std::unique_ptr<TcpStack> next = TcpStackRegistry::Global().Create(name);
  if (next == nullptr) {
    return false;
  }
  // "#<conn id>" keeps the module name unique per connection so quota
  // accounting exports one series per module instance; authorizers parse
  // the stack name up to the '#'.
  auto module = std::make_unique<Module>("TcpStack." + name + "#" +
                                         std::to_string(conn_.id));
  Dispatcher& dispatcher = host_.dispatcher();
  BindingSet bindings;
  try {
    bindings.Add(dispatcher.InstallHandler(
        host_.TcpSegmentOut, &TcpEndpoint::StackSegmentOut, this,
        {.guards = {MakeGuard(&TcpEndpoint::ConnGuard, &conn_)},
         .module = module.get(), .credentials = credentials}));
    bindings.Add(dispatcher.InstallHandler(
        host_.TcpAckIn, &TcpEndpoint::StackAckIn, this,
        {.guards = {MakeGuard(&TcpEndpoint::ConnGuardAck, &conn_)},
         .module = module.get(), .credentials = credentials}));
    bindings.Add(dispatcher.InstallHandler(
        host_.TcpTimer, &TcpEndpoint::StackTimer, this,
        {.guards = {MakeGuard(&TcpEndpoint::ConnGuard, &conn_)},
         .module = module.get(), .credentials = credentials}));
  } catch (const InstallError&) {
    // §2.5 denial (or any install failure): `bindings` takes back whatever
    // landed, and the incumbent stack stays bound — the connection never
    // notices.
    return false;
  }
  // The swap is committed: the assignment retires the outgoing stack's
  // bindings, under its still-live module, and keeps the successor's.
  stack_bindings_ = std::move(bindings);
  stack_ = std::move(next);
  stack_module_ = std::move(module);
  stack_name_ = name;
  conn_.sim = sim;
  conn_.rto_ns = rto_ns;
  stack_->OnBind(conn_);
  // Mid-flight swap: the successor inherits pending/in-flight data and
  // continues from exactly where the predecessor stopped.
  if (state_ == State::kEstablished &&
      (conn_.pending_off < conn_.pending.size() || !conn_.flight.empty())) {
    RaiseSegmentOut();
  }
  if ((state_ == State::kSynSent || state_ == State::kSynReceived) &&
      conn_.timer_deadline_ns == 0 && conn_.sim != nullptr) {
    conn_.timer_deadline_ns = BackoffDeadline(conn_, conn_.sim->now_ns());
  }
  ScheduleTimer();
  return true;
}

void TcpEndpoint::RaiseSegmentOut() {
  host_.TcpSegmentOut.Raise(&conn_);
}

// The stack handlers need not check the connection: each was installed
// together with its ConnGuard, so it never runs for another one.
void TcpEndpoint::StackSegmentOut(TcpEndpoint* ep, TcpConn* conn) {
  if (ep->stack_ != nullptr) {
    ep->stack_->OnSendReady(*conn);
  }
}

void TcpEndpoint::StackAckIn(TcpEndpoint* ep, TcpConn* conn, uint64_t ack) {
  if (ep->stack_ != nullptr) {
    ep->stack_->OnAck(*conn, static_cast<uint32_t>(ack));
  }
}

void TcpEndpoint::StackTimer(TcpEndpoint* ep, TcpConn* conn) {
  if (ep->stack_ != nullptr && conn->sim != nullptr) {
    ep->stack_->OnTimer(*conn, conn->sim->now_ns());
  }
}

bool TcpEndpoint::ConnGuard(TcpConn* mine, TcpConn* conn) {
  return conn == mine;
}

bool TcpEndpoint::ConnGuardAck(TcpConn* mine, TcpConn* conn, uint64_t ack) {
  (void)ack;
  return conn == mine;
}

void TcpEndpoint::SendNewSegment(TcpConn& conn, const std::string& payload) {
  SPIN_ASSERT(conn.sim != nullptr);
  uint64_t now = conn.sim->now_ns();
  Emit(kTcpAckFlag, payload);
  conn.flight.push_back(TcpSegment{snd_next_, payload, now, 1});
  conn.flight_bytes += payload.size();
  snd_next_ += static_cast<uint32_t>(payload.size());
  if (conn.timer_deadline_ns == 0) {
    conn.timer_deadline_ns = BackoffDeadline(conn, now);
  }
}

void TcpEndpoint::Retransmit(TcpConn& conn, TcpSegment& segment) {
  ++retransmissions_;
  EmitRaw(segment.seq, kTcpAckFlag, segment.payload);
  segment.sent_at_ns = conn.sim != nullptr ? conn.sim->now_ns() : 0;
  ++segment.transmissions;
}

void TcpEndpoint::Abort(TcpConn& conn) {
  state_ = State::kDead;
  conn.pending.clear();
  conn.pending_off = 0;
  conn.flight.clear();
  conn.flight_bytes = 0;
  conn.timer_deadline_ns = 0;
}

void TcpEndpoint::ScheduleTimer() {
  if (conn_.sim == nullptr || conn_.timer_deadline_ns == 0) {
    return;
  }
  // Lazy reprogramming: a pending wake at or before the deadline will
  // re-check and re-arm; only a deadline earlier than every pending wake
  // needs a fresh callback.
  if (timer_pending_ && timer_wake_ns_ <= conn_.timer_deadline_ns) {
    return;
  }
  timer_pending_ = true;
  timer_wake_ns_ = conn_.timer_deadline_ns;
  std::shared_ptr<TcpEndpoint*> alive = alive_;
  conn_.sim->At(timer_wake_ns_, [alive] {
    if (*alive != nullptr) {
      (*alive)->TimerFired();
    }
  });
}

void TcpEndpoint::TimerFired() {
  timer_pending_ = false;
  if (conn_.sim == nullptr || conn_.timer_deadline_ns == 0) {
    return;
  }
  uint64_t now = conn_.sim->now_ns();
  if (now < conn_.timer_deadline_ns) {
    ScheduleTimer();  // the deadline moved since this wake was armed
    return;
  }
  conn_.timer_deadline_ns = 0;
  if (state_ == State::kSynSent || state_ == State::kSynReceived) {
    // Handshake retransmission rides the same backoff/abort budget as
    // data: an unanswered SYN (or SYN+ACK) is resent at its original
    // sequence number until the peer responds or the budget runs out.
    if (++conn_.backoff > conn_.max_retries) {
      Abort(conn_);
      return;
    }
    ++retransmissions_;
    EmitRaw(iss_, state_ == State::kSynSent ? kTcpSyn
                                            : (kTcpSyn | kTcpAckFlag),
            "");
    conn_.timer_deadline_ns = BackoffDeadline(conn_, now);
    ScheduleTimer();
    return;
  }
  if (stack_ != nullptr && state_ != State::kDead) {
    host_.TcpTimer.Raise(&conn_);
  }
  ScheduleTimer();
}

void TcpEndpoint::Established() {
  state_ = State::kEstablished;
  conn_.snd_una = snd_next_;
  conn_.backoff = 0;
  if (conn_.flight.empty()) {
    conn_.timer_deadline_ns = 0;
  }
}

void TcpEndpoint::Close() {
  if (state_ == State::kEstablished) {
    Emit(kTcpFin | kTcpAckFlag, "");
    ++snd_next_;
    state_ = State::kFinWait;
  }
}

bool TcpEndpoint::Input(TcpEndpoint* ep, Packet* packet) {
  ++ep->segments_received_;
  uint8_t flags = packet->tcp_flags();
  uint32_t seq = packet->tcp_seq();

  if ((flags & kTcpSyn) != 0 && (flags & kTcpAckFlag) == 0) {
    if (ep->state_ == State::kListen) {
      // Passive open: SYN -> SYN+ACK.
      ep->remote_ip_ = packet->ip_src();
      ep->remote_port_ = packet->src_port();
      ep->rcv_next_ = seq + 1;
      ep->iss_ = 5000;
      ep->snd_next_ = ep->iss_;
      ep->state_ = State::kSynReceived;
      ep->Emit(kTcpSyn | kTcpAckFlag, "");
      ++ep->snd_next_;
      if (ep->stack_ != nullptr && ep->conn_.sim != nullptr) {
        ep->conn_.timer_deadline_ns =
            BackoffDeadline(ep->conn_, ep->conn_.sim->now_ns());
        ep->ScheduleTimer();
      }
      return true;
    }
    if (ep->state_ == State::kSynReceived && seq + 1 == ep->rcv_next_) {
      // The client retransmitted its SYN — our SYN+ACK was lost. Answer
      // again at the original sequence number.
      ++ep->retransmissions_;
      ep->EmitRaw(ep->iss_, kTcpSyn | kTcpAckFlag, "");
      return true;
    }
    // A stray SYN in any other state must not re-corrupt the connection.
    return true;
  }
  if ((flags & kTcpSyn) != 0 && (flags & kTcpAckFlag) != 0) {
    if (ep->state_ != State::kSynSent) {
      // A SYN+ACK outside the active handshake (duplicate after our ACK
      // already established, or plain stray) is ignored.
      if (ep->state_ == State::kEstablished && seq + 1 == ep->rcv_next_) {
        ep->Emit(kTcpAckFlag, "");  // the peer missed our handshake ACK
      }
      return true;
    }
    ep->rcv_next_ = seq + 1;
    ep->Established();
    ep->Emit(kTcpAckFlag, "");
    return true;
  }
  if ((flags & kTcpFin) != 0) {
    if (seq != ep->rcv_next_) {
      // A reordered FIN must not advance rcv_next past undelivered data;
      // re-advertise where we are so the sender retransmits.
      ep->Emit(kTcpAckFlag, "");
      return true;
    }
    ep->rcv_next_ = seq + 1;
    ep->state_ = ep->state_ == State::kFinWait ? State::kClosed
                                               : State::kCloseWait;
    ep->Emit(kTcpAckFlag, "");
    return true;
  }

  // Plain ACK (or data) completes the passive handshake.
  if (ep->state_ == State::kSynReceived) {
    ep->Established();
  }
  if ((flags & kTcpAckFlag) != 0 && ep->stack_ != nullptr) {
    ep->host_.TcpAckIn.Raise(&ep->conn_, packet->tcp_ack());
    ep->ScheduleTimer();
  }

  std::string payload = packet->TcpPayload();
  if (payload.empty()) {
    return true;
  }
  if (seq == ep->rcv_next_) {
    ep->rcv_next_ += static_cast<uint32_t>(payload.size());
    ep->bytes_received_ += payload.size();
    if (ep->on_data_) {
      ep->on_data_(payload);
    }
    ep->Emit(kTcpAckFlag, "");  // cumulative pure ACK per data segment
  } else {
    // Out-of-order or duplicate data (a loss upstream): re-advertise
    // rcv_next so a retransmitting sender converges (duplicate ACK).
    ep->Emit(kTcpAckFlag, "");
  }
  return true;
}

}  // namespace net
}  // namespace spin
