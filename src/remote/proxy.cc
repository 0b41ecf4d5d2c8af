#include "src/remote/proxy.h"

#include <algorithm>
#include <optional>
#include <ostream>
#include <utility>

#include "src/core/errors.h"
#include "src/obs/context.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"
#include "src/rt/clock.h"

namespace spin {
namespace remote {

EventProxy::EventProxy(net::Host& host, sim::Simulator* sim,
                       EventBase& event, const ProxyOptions& opts)
    : host_(host),
      sim_(sim),
      event_(event),
      opts_(opts),
      plan_(PlanFor(event.sig(), event.name())),
      module_(opts.module_name.empty() ? "Remote.Proxy." + event.name()
                                       : opts.module_name),
      obs_name_(event.obs_name()),
      watch_name_(obs::Intern("proxy/" + event.name())) {
  if (opts_.kind == RaiseKind::kAsync) {
    // §2.6 across the wire: a detached raise can return nothing and must
    // not reference raiser memory after the raiser has moved on.
    if (plan_.has_result()) {
      throw RemoteError(RemoteStatus::kUnmarshalable,
                        event.name() +
                            ": fire-and-forget proxies cannot return "
                            "results");
    }
    if (plan_.num_byref != 0) {
      throw RemoteError(RemoteStatus::kUnmarshalable,
                        event.name() +
                            ": fire-and-forget proxies cannot take VAR "
                            "parameters");
    }
  }
  socket_ = std::make_unique<net::UdpSocket>(
      host_, opts_.local_port,
      [this](const net::Packet& packet) { OnDatagram(packet); });

  // Seed the id counter from virtual time so a proxy re-bound on the same
  // local port never reuses a predecessor's bind/request ids — the
  // exporter's replay cache would otherwise serve it the old incarnation's
  // cached replies. Deterministic: virtual time is a pure function of the
  // simulation schedule.
  next_id_ = sim_->now_ns() + 1;

  // Bind before installing anything: a denied handshake throws out of the
  // constructor and leaves no local binding behind.
  std::vector<micro::Program> imposed = BindHandshake();
  request_.kind = RaiseKind::kSync;
  request_.token = token_;
  request_.event_name = event_.name();
  request_.params = plan_.params;
  request_.args.resize(plan_.params.size());

  // The exporter's imposed guards arrive with the binding, in its install.
  InstallOptions install;
  install.order = opts_.order;
  install.module = &module_;
  install.async = opts_.kind == RaiseKind::kAsync;
  for (micro::Program& prog : imposed) {
    install.guards.push_back(MakeImposedMicroGuard(std::move(prog)));
  }
  binding_.Add(host_.dispatcher().InstallErasedHandler(
      event_, this, &EventProxy::Invoke, install));
  obs::RegisterSource(this, &EventProxy::ExportMetricsSource);
  obs::Watchdog::Global().RegisterProbe(this, &EventProxy::WatchdogProbeSource);
}

EventProxy::~EventProxy() {
  obs::Watchdog::Global().UnregisterProbe(this);
  obs::UnregisterSource(this);
}

std::vector<micro::Program> EventProxy::BindHandshake() {
  BindRequestMsg request;
  request.bind_id = next_id_++;
  request.event_name = event_.name();
  request.module_name = module_.name();
  request.credential =
      opts_.credential.empty() ? host_.credential() : opts_.credential;
  request.params = plan_.params;
  const uint64_t id = request.bind_id;

  bind_id_ = id;
  if (!TransmitAwait(EncodeBindRequest(request), id,
                     [this] { return bind_reply_.has_value(); })) {
    ++timeouts_;
    obs::FlightRecorder::Global().Emit(obs::TraceKind::kRemoteTimeout,
                                       obs_name_, id);
    throw RemoteError(RemoteStatus::kTimeout,
                      event_.name() + ": bind handshake got no reply after " +
                          std::to_string(opts_.max_attempts) + " attempts");
  }
  BindReplyMsg reply = std::move(*bind_reply_);
  bind_reply_.reset();
  bind_id_ = 0;

  switch (reply.status) {
    case WireStatus::kOk:
      break;
    case WireStatus::kDenied:
      obs::FlightRecorder::Global().Emit(obs::TraceKind::kRemoteBind,
                                         obs_name_, 0);
      throw RemoteError(RemoteStatus::kDenied, reply.error);
    case WireStatus::kUnbound:
    case WireStatus::kNoSuchEvent:
      throw RemoteError(RemoteStatus::kDead, event_.name());
    default:
      throw RemoteError(RemoteStatus::kProtocol,
                        event_.name() + ": unexpected bind reply status");
  }
  // Admission refusal: the decoder verified every wire-received guard and
  // found one it will not admit (out-of-bounds access, backward jump,
  // store, unknown opcode, ...). The bind fails with a typed error — the
  // hostile program never reached an evaluator and costs nothing per
  // raise.
  if (reply.guard_verify != micro::VerifyStatus::kOk) {
    throw RemoteError(
        RemoteStatus::kBadGuard,
        event_.name() + ": imposed guard #" +
            std::to_string(reply.guard_verify_index) +
            " refused by the admission verifier: " +
            micro::VerifyStatusName(reply.guard_verify));
  }
  // Imposed guards evaluate over the same argument slots locally as they
  // would exporter-side, so a mismatched arity is a protocol violation,
  // not something to paper over.
  for (const micro::Program& prog : reply.guards) {
    if (prog.num_args() != static_cast<int>(plan_.params.size())) {
      throw RemoteError(RemoteStatus::kProtocol,
                        event_.name() + ": imposed guard arity mismatch");
    }
  }
  token_ = reply.token;
  obs::FlightRecorder::Global().Emit(obs::TraceKind::kRemoteBind, obs_name_,
                                     token_);
  return std::move(reply.guards);
}

bool EventProxy::TransmitAwait(const std::string& encoded,
                               uint64_t trace_arg,
                               const std::function<bool()>& arrived) {
  uint64_t attempt_timeout = opts_.timeout_ns;
  uint64_t prev_send_v = 0;
  for (uint32_t attempt = 1; attempt <= opts_.max_attempts; ++attempt) {
    if (attempt > 1) {
      ++retries_;
      obs::FlightRecorder::Global().Emit(obs::TraceKind::kRemoteRetry,
                                         obs_name_, attempt - 1);
      // The backoff phase is the virtual time burned waiting out the
      // previous attempt before this resend — the retry policy's share of
      // the roundtrip, separable from first-attempt transit.
      obs::EmitVirtualPhase(obs::Phase::kBackoff, obs_name_,
                            sim_->now_ns() - prev_send_v);
    }
    socket_->SendTo(opts_.remote_ip, opts_.remote_port, encoded);
    prev_send_v = sim_->now_ns();
    obs::FlightRecorder::Global().Emit(obs::TraceKind::kRemoteSend,
                                       obs_name_, trace_arg);
    // Pump the simulator up to this attempt's deadline. The sentinel no-op
    // guarantees the queue holds an entry at the deadline, so RunOne always
    // advances virtual time — a lost reply cannot stall the loop.
    const uint64_t deadline = sim_->now_ns() + attempt_timeout;
    sim_->At(deadline, [] {});
    while (!arrived() && sim_->now_ns() < deadline && sim_->RunOne()) {
    }
    if (arrived()) {
      return true;
    }
    attempt_timeout = std::min(attempt_timeout * 2, opts_.max_backoff_ns);
  }
  return false;
}

uint64_t EventProxy::Invoke(void* fn, void* closure, uint64_t* slots) {
  (void)closure;
  auto* self = static_cast<EventProxy*>(fn);
  if (self->opts_.kind == RaiseKind::kAsync) {
    self->EnqueueAsync(slots);
    return 0;
  }
  return self->RaiseSync(slots);
}

uint64_t EventProxy::RaiseSync(uint64_t* slots) {
  ++raises_;
  if (dead_) {
    ++dead_raises_;
    throw RemoteError(
        revoked_ ? RemoteStatus::kRevoked : RemoteStatus::kDead,
        event_.name());
  }

  // The whole roundtrip — marshal, sends, retries, the reply join — runs
  // under one wire span, a child of the raising span, attributed to this
  // host. The span id travels in the request trailer so the exporter-side
  // records join the same tree. An unsampled raise sends no trailer at
  // all — trailer presence IS the wire's sampled bit — so the exporter
  // skips its side of the tree too.
  std::optional<obs::HostScope> host_scope;
  std::optional<obs::SpanScope> wire_scope;
  if (obs::Capturing()) {
    host_scope.emplace(host_.trace_host_id());
    wire_scope.emplace();
  }

  const bool tracing = wire_scope.has_value();

  // This raise's call, by nesting depth. It goes idle again on every exit
  // path, so no reply is kept for a raise that has returned.
  if (depth_ == calls_.size()) {
    calls_.push_back(std::make_unique<Call>());
  }
  Call& call = *calls_[depth_++];
  struct Leave {
    EventProxy* self;
    Call* call;
    ~Leave() {
      call->id = 0;
      call->replied = false;
      --self->depth_;
    }
  } leave{this, &call};

  {
    obs::PhaseScope marshal_phase(obs::Phase::kMarshal, obs_name_, tracing);
    request_.request_id = next_id_++;
    for (size_t i = 0; i < plan_.params.size(); ++i) {
      const WireParam& p = plan_.params[i];
      if (p.by_ref) {
        const void* ptr =
            reinterpret_cast<const void*>(static_cast<uintptr_t>(slots[i]));
        request_.args[i] = LoadScalar(static_cast<TypeClass>(p.cls), ptr);
      } else {
        request_.args[i] = slots[i];
      }
    }
    request_.span_id = tracing ? wire_scope->span() : 0;
    request_.origin_host = tracing ? host_.trace_host_id() : 0;
    EncodeRequest(request_, &call.encoded);
    obs::FlightRecorder::Global().Emit(obs::TraceKind::kRemoteMarshal,
                                       obs_name_, call.encoded.size());
  }

  const uint64_t id = request_.request_id;
  call.id = id;
  const uint64_t start_ns = sim_->now_ns();
  bool got_reply;
  {
    // Real-time wire phase: this thread pumping the simulated network for
    // the reply. The exporter's dispatch runs inline inside this pump (and
    // subtracts itself from the wire self-time through the nesting chain);
    // the virtual-clock transit is reported separately below.
    obs::PhaseScope wire_phase(obs::Phase::kWire, obs_name_, tracing);
    got_reply = TransmitAwait(call.encoded, id, [this, &call] {
      return dead_ || call.replied;
    });
  }
  if (tracing) {
    // What the caller would observe on the simulated cluster's clock:
    // send to reply join, retries and backoff included (DESIGN.md §15).
    obs::EmitVirtualPhase(obs::Phase::kWireVirtual, obs_name_,
                          sim_->now_ns() - start_ns);
  }
  if (!got_reply) {
    ++timeouts_;
    obs::FlightRecorder::Global().Emit(obs::TraceKind::kRemoteTimeout,
                                       obs_name_, id);
    throw RemoteError(RemoteStatus::kTimeout,
                      event_.name() + " after " +
                          std::to_string(opts_.max_attempts) + " attempts");
  }
  if (!call.replied) {
    // A revocation notice arrived while we pumped for the reply.
    ++dead_raises_;
    throw RemoteError(
        revoked_ ? RemoteStatus::kRevoked : RemoteStatus::kDead,
        event_.name());
  }

  // Reply unmarshal covers everything after the join: status decode,
  // exception mapping, VAR copy-out. RAII: an error path still closes it.
  obs::PhaseScope unmarshal_phase(obs::Phase::kUnmarshal, obs_name_, tracing);
  const ReplyMsg& reply = call.reply;
  obs::FlightRecorder::Global().Emit(obs::TraceKind::kRemoteReply,
                                     obs_name_, id);
  roundtrip_.Record(sim_->now_ns() - start_ns);

  switch (reply.status) {
    case WireStatus::kOk:
      break;
    case WireStatus::kException:
      throw RemoteError(RemoteStatus::kRemoteException, reply.error);
    case WireStatus::kUnbound:
    case WireStatus::kNoSuchEvent:
      dead_ = true;
      throw RemoteError(RemoteStatus::kDead, event_.name());
    case WireStatus::kRevoked:
      dead_ = true;
      revoked_ = true;
      obs::FlightRecorder::Global().Emit(obs::TraceKind::kRemoteRevoke,
                                         obs_name_, token_);
      throw RemoteError(RemoteStatus::kRevoked, reply.error);
    case WireStatus::kBadRequest:
    case WireStatus::kDenied:
    case WireStatus::kGuardRejected:
      // kGuardRejected here means the exporter's view of the imposed
      // guards disagreed with ours — proxy-side evaluation should have
      // skipped the raise before any datagram left.
      throw RemoteError(RemoteStatus::kProtocol, reply.error);
  }

  if (reply.byref.size() != plan_.num_byref) {
    throw RemoteError(RemoteStatus::kProtocol,
                      event_.name() + ": VAR copy-out count mismatch");
  }
  size_t out = 0;
  for (size_t i = 0; i < plan_.params.size(); ++i) {
    const WireParam& p = plan_.params[i];
    if (p.by_ref) {
      void* ptr = reinterpret_cast<void*>(static_cast<uintptr_t>(slots[i]));
      StoreScalar(static_cast<TypeClass>(p.cls), ptr, reply.byref[out++]);
    }
  }
  return reply.result;
}

void EventProxy::EnqueueAsync(const uint64_t* slots) {
  RequestMsg request;
  request.kind = RaiseKind::kAsync;
  request.token = token_;
  request.event_name = event_.name();
  request.params = plan_.params;
  request.args.assign(slots, slots + plan_.params.size());
  // Fire-and-forget still gets a wire span: a child of the raising (pool
  // thread's) span, announced by the marshal record here, flow-started by
  // Flush()'s kRemoteSend, and joined exporter-side via the trailer. An
  // unsampled raise gets no span and ships no trailer.
  std::optional<obs::SpanScope> wire_scope;
  if (obs::Capturing()) {
    wire_scope.emplace();
    request.span_id = wire_scope->span();
    request.origin_host = host_.trace_host_id();
  }
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    request.request_id = next_id_++;
    ++raises_;
    std::string encoded;
    {
      obs::PhaseScope marshal_phase(obs::Phase::kMarshal, obs_name_,
                                    wire_scope.has_value());
      encoded = EncodeRequest(request);
      obs::FlightRecorder::Global().Emit(obs::TraceKind::kRemoteMarshal,
                                         obs_name_, encoded.size());
    }
    outbox_.push_back(OutboxEntry{std::move(encoded), request.span_id});
  }
}

size_t EventProxy::Flush() {
  std::deque<OutboxEntry> drained;
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    drained.swap(outbox_);
    // Drain progress for the watchdog's stall rule: entries leaving the
    // outbox count whether they are transmitted below or dropped because
    // the proxy is dead — either way the queue is moving, not stalled.
    flushed_ += drained.size();
  }
  if (dead_) {
    // Fail fast like the sync path: a revoked/dead proxy generates no
    // traffic; queued datagrams are dropped, not transmitted.
    return 0;
  }
  std::optional<obs::HostScope> host_scope;
  if (obs::Enabled()) {
    host_scope.emplace(host_.trace_host_id());
  }
  for (const OutboxEntry& entry : drained) {
    socket_->SendTo(opts_.remote_ip, opts_.remote_port, entry.encoded);
    // The send belongs to the entry's wire span (allocated on the pool
    // thread at marshal time), not to whatever span this simulation-thread
    // caller happens to be under. Entries marshaled under a sampled-out
    // raise carry span 0 and emit nothing.
    if (obs::Enabled() && entry.span != 0) {
      obs::FlightRecorder::Global().EmitWith(obs::TraceKind::kRemoteSend,
                                             obs_name_, NowNs(), 0,
                                             entry.span, 0);
    }
  }
  return drained.size();
}

size_t EventProxy::queued_replies() const {
  size_t queued = 0;
  for (size_t d = 0; d < depth_; ++d) {
    queued += calls_[d]->replied ? 1 : 0;
  }
  return queued + (bind_reply_.has_value() ? 1 : 0);
}

void EventProxy::OnDatagram(const net::Packet& packet) {
  const std::string_view payload = packet.UdpPayloadView();
  MsgType type;
  if (!PeekType(payload, &type)) {
    return;  // not ours; ignore
  }
  switch (type) {
    case MsgType::kReply: {
      // Runs inline inside RaiseSync's wire pump on the same thread, so
      // this decode nests under (and subtracts from) the kWire scope.
      obs::PhaseScope decode_phase(obs::Phase::kUnmarshal, obs_name_);
      if (!DecodeReply(payload, &incoming_)) {
        return;
      }
      // Only a raise still awaiting the reply takes it. A reply that
      // arrives after its raise timed out, or a replayed duplicate of one
      // already taken, is dropped here.
      for (size_t d = 0; d < depth_; ++d) {
        Call& call = *calls_[d];
        if (call.id == incoming_.request_id && !call.replied) {
          std::swap(call.reply, incoming_);
          call.replied = true;
          return;
        }
      }
      return;
    }
    case MsgType::kBindReply: {
      BindReplyMsg reply;
      if (DecodeBindReply(payload, &reply) && bind_id_ != 0 &&
          reply.bind_id == bind_id_ && !bind_reply_.has_value()) {
        bind_reply_ = std::move(reply);
      }
      return;
    }
    case MsgType::kRevoke: {
      RevokeMsg notice;
      if (DecodeRevoke(payload, &notice) && token_ != 0 &&
          notice.token == token_) {
        ++revoke_notices_;
        dead_ = true;
        revoked_ = true;
        obs::FlightRecorder::Global().Emit(obs::TraceKind::kRemoteRevoke,
                                           obs_name_, token_);
      }
      return;
    }
    default:
      return;  // requests/bind-requests are the exporter's business
  }
}

void EventProxy::WatchdogProbeSource(void* ctx,
                                     std::vector<obs::WatchSample>& out) {
  auto* self = static_cast<EventProxy*>(ctx);
  obs::WatchSample retry;
  retry.kind = obs::AnomalyKind::kRetryStorm;
  retry.name = self->watch_name_;
  retry.shard = 0;
  retry.depth = self->timeouts_;
  retry.progress = self->retries_;
  out.push_back(retry);
  obs::WatchSample backlog;
  backlog.kind = obs::AnomalyKind::kQueueStall;
  backlog.name = self->watch_name_;
  backlog.shard = 0;
  {
    std::lock_guard<std::mutex> lock(self->outbox_mu_);
    backlog.depth = self->outbox_.size();
    // Progress is what Flush() has drained, not what raisers enqueued: a
    // wedged Flush under a steady raise stream must still read as a
    // stall, and a draining outbox under an idle raiser must not.
    backlog.progress = self->flushed_;
  }
  out.push_back(backlog);
}

void EventProxy::ExportMetricsSource(void* ctx, std::ostream& os) {
  auto* self = static_cast<EventProxy*>(ctx);
  auto label = [self](std::ostream& o) {
    o << "{host=\"";
    obs::WriteLabelValue(o, self->host_.host_name());
    o << "\",event=\"";
    obs::WriteLabelValue(o, self->event_.name());
    o << "\"}";
  };
  auto line = [&os, &label](const char* name, uint64_t value) {
    os << name;
    label(os);
    os << " " << value << "\n";
  };
  line("spin_remote_client_raises_total", self->raises_);
  line("spin_remote_client_retries_total", self->retries_);
  line("spin_remote_client_timeouts_total", self->timeouts_);
  line("spin_remote_client_dead_raises_total", self->dead_raises_);
  line("spin_remote_client_revoke_notices_total", self->revoke_notices_);
  obs::HistogramSnapshot snap = self->roundtrip_.Snapshot();
  if (snap.count != 0) {
    for (double q : {0.5, 0.9, 0.99}) {
      os << "spin_remote_roundtrip_ns{host=\"";
      obs::WriteLabelValue(os, self->host_.host_name());
      os << "\",event=\"";
      obs::WriteLabelValue(os, self->event_.name());
      os << "\",quantile=\"" << q << "\"} " << snap.Percentile(q) << "\n";
    }
  }
}

}  // namespace remote
}  // namespace spin
