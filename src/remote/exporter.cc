#include "src/remote/exporter.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <ostream>
#include <utility>

#include "src/codegen/frame.h"
#include "src/core/dispatch_state.h"
#include "src/core/dispatcher.h"
#include "src/obs/context.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"

namespace spin {
namespace remote {

Exporter::Exporter(net::Host& host, uint16_t port)
    : host_(host),
      port_(port),
      // Deterministic per (host, port): chaos tests replay token streams.
      token_rng_(0x53504541ull ^ (static_cast<uint64_t>(host.ip()) << 16) ^
                 port),
      replay_ring_(kDedupWindow) {
  socket_ = std::make_unique<net::UdpSocket>(
      host_, port_,
      [this](const net::Packet& packet) { OnDatagram(packet); });
  obs::RegisterSource(this, &Exporter::ExportMetricsSource);
}

Exporter::~Exporter() { obs::UnregisterSource(this); }

void Exporter::Export(EventBase& event) {
  MarshalPlan plan = PlanFor(event.sig(), event.name());
  exports_[event.name()] = Entry{&event, std::move(plan)};
  withdrawn_.erase(event.name());
}

void Exporter::Unexport(EventBase& event) {
  if (exports_.erase(event.name()) != 0) {
    withdrawn_.insert(event.name());
  }
  // The export is gone; every capability minted against it dies with it.
  for (auto it = bound_.begin(); it != bound_.end();) {
    if (it->second.event_name == event.name()) {
      RevokeClient(it->first, it->second);
      it = bound_.erase(it);
    } else {
      ++it;
    }
  }
}

bool Exporter::Revoke(uint64_t token) {
  auto it = bound_.find(token);
  if (it == bound_.end()) {
    return false;
  }
  RevokeClient(token, it->second);
  bound_.erase(it);
  return true;
}

void Exporter::RevokeClient(uint64_t token, const BoundClient& client) {
  ++revoked_tokens_;
  obs::FlightRecorder::Global().Emit(obs::TraceKind::kRemoteRevoke,
                                     obs::Intern(client.event_name), token);
  RevokeMsg notice;
  notice.token = token;
  notice.event_name = client.event_name;
  socket_->SendTo(client.ip, client.port, EncodeRevoke(notice));
}

uint64_t Exporter::MintToken() {
  uint64_t token;
  do {
    // splitmix64: uniform 64-bit stream, pure function of the seed.
    token_rng_ += 0x9e3779b97f4a7c15ull;
    uint64_t z = token_rng_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    token = z ^ (z >> 31);
  } while (token == 0 || bound_.count(token) != 0);
  return token;
}

void Exporter::OnDatagram(const net::Packet& packet) {
  const std::string_view payload = packet.UdpPayloadView();
  MsgType type;
  if (!PeekType(payload, &type) ||
      (type != MsgType::kRequest && type != MsgType::kBindRequest)) {
    ++bad_requests_;
    return;  // not ours, or torn; nothing sane to reply to
  }
  if (type == MsgType::kBindRequest) {
    OnBindRequest(packet, payload);
    return;
  }

  if (depth_ == work_.size()) {
    work_.push_back(std::make_unique<Work>());
  }
  Work& work = *work_[depth_++];
  struct Leave {
    size_t* depth;
    ~Leave() { --*depth; }
  } leave{&depth_};
  RequestMsg& request = work.request;
  if (!DecodeRequest(payload, &request)) {
    ++bad_requests_;
    return;
  }
  ++requests_;

  // Join the raiser's span: while this request is deduped or dispatched —
  // including every raise the dispatch triggers — records carry the wire
  // span from the request trailer, so the exporter side of the roundtrip
  // lands in the originating span tree. Adoption does not complete the
  // span; it belongs to the raiser. The trailer doubles as the sampled
  // bit: its presence means the raiser captured its side of the tree, so
  // adopt with an explicit kTrace. Its absence under sampled mode means
  // the raiser sampled the tree out — pin kSkip so this host's half emits
  // nothing either and a sampled capture never holds half a roundtrip.
  // Under full mode a trailer-less request (an old-format client) keeps
  // today's behavior: the dispatch opens its own fresh root.
  std::optional<obs::SpanScope> span_scope;
  std::optional<obs::SampleScope> sample_scope;
  if (obs::Enabled() && request.span_id != 0) {
    span_scope.emplace(
        obs::TraceContext{request.span_id, 0, host_.trace_host_id(),
                          obs::SampleDecision::kTrace},
        /*complete_on_exit=*/false);
  } else if (obs::GetTraceConfig().mode == obs::TraceMode::kSampled) {
    sample_scope.emplace(obs::SampleDecision::kSkip);
  }

  DedupKey key{packet.ip_src(), packet.src_port(),
               static_cast<uint8_t>(MsgType::kRequest), request.token,
               request.request_id};
  const std::string* cached = Cached(key);
  // A copy of a request that is still dispatching gets no reply of its
  // own: the original's reply answers it once the dispatch returns.
  const bool in_flight =
      std::find(in_flight_.begin(), in_flight_.end(), key) != in_flight_.end();
  if (cached != nullptr || in_flight) {
    ++dedup_hits_;
    obs::FlightRecorder::Global().Emit(obs::TraceKind::kRemoteDedup,
                                       obs::Intern(request.event_name),
                                       request.request_id);
    if (cached != nullptr && request.kind == RaiseKind::kSync) {
      socket_->SendTo(packet.ip_src(), packet.src_port(), *cached);
    }
    return;  // at-most-once: the event does not raise again
  }

  if (span_scope) {
    obs::FlightRecorder::Global().Emit(obs::TraceKind::kRemoteDispatch,
                                       obs::Intern(request.event_name),
                                       request.request_id);
    if (request.origin_host != host_.trace_host_id()) {
      obs::CountCrossHostSpan();
    }
  }
  std::string* encoded;
  {
    // Exporter-side dispatch phase: frame materialization, guard
    // enforcement, the local raise, and the reply encode into its cache
    // entry. Nested under the proxy's kWire scope when the sim pump runs
    // this inline on the raising thread, so wire self-time excludes it.
    obs::PhaseScope dispatch_phase(
        obs::Phase::kDispatch,
        span_scope ? obs::Intern(request.event_name) : nullptr,
        span_scope.has_value());
    {
      in_flight_.push_back(key);
      struct Landed {
        std::vector<DedupKey>* in_flight;
        ~Landed() { in_flight->pop_back(); }
      } landed{&in_flight_};
      Dispatch(request, &work.reply);
    }
    // Take the cache entry only now: traffic nested in the dispatch could
    // evict an entry taken before it.
    encoded = &CacheEntry(key);
    EncodeReply(work.reply, encoded);
  }
  if (request.kind == RaiseKind::kSync) {
    socket_->SendTo(packet.ip_src(), packet.src_port(), *encoded);
  }
}

void Exporter::OnBindRequest(const net::Packet& packet,
                             std::string_view payload) {
  BindRequestMsg request;
  if (!DecodeBindRequest(payload, &request)) {
    ++bad_requests_;
    return;
  }
  DedupKey key{packet.ip_src(), packet.src_port(),
               static_cast<uint8_t>(MsgType::kBindRequest), 0,
               request.bind_id};
  if (const std::string* cached = Cached(key)) {
    // A retransmitted bind replays the original grant: at-most-once
    // token minting, same as at-most-once dispatch.
    ++dedup_hits_;
    obs::FlightRecorder::Global().Emit(obs::TraceKind::kRemoteDedup,
                                       obs::Intern(request.event_name),
                                       request.bind_id);
    socket_->SendTo(packet.ip_src(), packet.src_port(), *cached);
    return;
  }
  BindReplyMsg reply = Bind(request, packet.ip_src(), packet.src_port());
  std::string& encoded = CacheEntry(key);
  EncodeBindReply(reply, &encoded);
  socket_->SendTo(packet.ip_src(), packet.src_port(), encoded);
}

const std::string* Exporter::Cached(const DedupKey& key) const {
  auto it = replay_.find(key);
  return it != replay_.end() ? &it->second : nullptr;
}

std::string& Exporter::CacheEntry(const DedupKey& key) {
  DedupKey& slot = replay_ring_[replay_next_];
  replay_next_ = (replay_next_ + 1) % kDedupWindow;
  if (replay_.size() < kDedupWindow) {
    slot = key;
    return replay_.try_emplace(key).first->second;
  }
  // Full: the oldest entry leaves, and its node and buffer hold the new
  // reply, so a full window allocates nothing.
  ReplayCache::node_type node = replay_.extract(slot);
  node.key() = key;
  slot = key;
  return replay_.insert(std::move(node)).position->second;
}

BindReplyMsg Exporter::Bind(const BindRequestMsg& request,
                            uint32_t source_ip, uint16_t source_port) {
  BindReplyMsg reply;
  reply.bind_id = request.bind_id;

  auto it = exports_.find(request.event_name);
  if (it == exports_.end()) {
    if (withdrawn_.count(request.event_name) != 0) {
      ++unbound_;
      reply.status = WireStatus::kUnbound;
    } else {
      reply.status = WireStatus::kNoSuchEvent;
    }
    return reply;
  }
  const Entry& entry = it->second;
  if (request.params != entry.plan.params) {
    ++bad_requests_;
    reply.status = WireStatus::kBadRequest;
    reply.error = "signature mismatch for " + request.event_name;
    return reply;
  }

  auto deny = [&](const std::string& why) {
    ++auth_denied_;
    obs::FlightRecorder::Global().Emit(obs::TraceKind::kRemoteBind,
                                       obs::Intern(request.event_name), 0);
    reply.status = WireStatus::kDenied;
    reply.error = why;
    reply.guards.clear();
    return reply;
  };

  // The candidate binding the authorizer sees. It is never installed in a
  // dispatcher — it exists so AuthRequest::ImposeGuard has its usual
  // target and so raise-time enforcement has a guard list to evaluate.
  BoundClient client;
  client.event_name = request.event_name;
  client.ip = source_ip;
  client.port = source_port;
  client.module = std::make_unique<Module>(request.module_name);
  client.binding = std::make_shared<Binding>();
  client.binding->event = entry.event;
  client.binding->owner = client.module.get();
  client.binding->erased = true;
  client.binding->sig = entry.event->sig();

  RemoteBindInfo info;
  info.source_ip = source_ip;
  info.source_port = source_port;
  info.module_name = request.module_name;
  info.credential = request.credential;

  AuthRequest auth;
  auth.op = AuthOp::kInstall;
  auth.event = entry.event;
  auth.binding = client.binding.get();
  auth.requestor = client.module.get();
  auth.credentials = &info;
  try {
    if (!entry.event->owner().Authorize(auth)) {
      return deny("bind denied by authorizer for " + request.event_name);
    }
  } catch (const InstallError& e) {
    // An imposed guard failed its admission check: the bind fails closed.
    return deny(e.what());
  }

  // Serialize the imposed guards for proxy-side evaluation. A guard that
  // cannot cross the wire fails the bind closed: granting without it would
  // silently weaken what the authorizer demanded.
  const size_t num_guards = client.binding->guard_count();
  if (num_guards > kMaxWireGuards) {
    return deny("too many imposed guards for " + request.event_name);
  }
  for (size_t g = 0; g < num_guards; ++g) {
    const GuardClause& guard = (*client.binding->guards())[g];
    if (!guard.prog.has_value() || guard.closure_form ||
        guard.prog->num_args() !=
            static_cast<int>(entry.plan.params.size())) {
      return deny("imposed guard is not wireable for " + request.event_name);
    }
    // Run the same admission pass the peer's decoder will: a program this
    // verifier refuses would be refused on arrival anyway, so fail the
    // bind here with the precise refusal instead of shipping it.
    micro::VerifyResult v =
        micro::Verify(*guard.prog, micro::WireGuardLimits());
    if (!v.ok()) {
      return deny("imposed guard is not wireable for " + request.event_name +
                  " (" + micro::VerifyStatusName(v.status) + ")");
    }
    reply.guards.push_back(*guard.prog);
  }

  uint64_t token = MintToken();
  ++binds_;
  obs::FlightRecorder::Global().Emit(obs::TraceKind::kRemoteBind,
                                     obs::Intern(request.event_name), token);
  client.entry = &entry;
  bound_.emplace(token, std::move(client));
  reply.status = WireStatus::kOk;
  reply.token = token;
  return reply;
}

void Exporter::Dispatch(const RequestMsg& request, ReplyMsg* reply) {
  reply->status = WireStatus::kOk;
  reply->request_id = request.request_id;
  reply->result = 0;
  reply->byref.clear();
  reply->error.clear();

  // Capability first: a withdrawn or revoked binding fails fast with
  // kRevoked no matter what else the request claims. A live token reaches
  // a live export: Unexport revokes every token before the export goes.
  auto bit = bound_.find(request.token);
  if (bit == bound_.end() ||
      bit->second.event_name != request.event_name) {
    ++revoked_raises_;
    reply->status = WireStatus::kRevoked;
    reply->error = "stale or unknown capability for " + request.event_name;
    return;
  }
  const BoundClient& client = bit->second;
  const Entry& entry = *client.entry;
  if (request.params != entry.plan.params ||
      request.args.size() != entry.plan.params.size()) {
    ++bad_requests_;
    reply->status = WireStatus::kBadRequest;
    reply->error = "signature mismatch for " + request.event_name;
    return;
  }

  // Materialize the frame. VAR parameters point into local copy-in/out
  // storage; the exporter's handlers mutate that storage, and the final
  // values travel back in the reply.
  RaiseFrame frame;
  uint64_t var_storage[kMaxEventArgs] = {};
  for (size_t i = 0; i < entry.plan.params.size(); ++i) {
    const WireParam& p = entry.plan.params[i];
    if (p.by_ref) {
      StoreScalar(static_cast<TypeClass>(p.cls), &var_storage[i],
                  request.args[i]);
      frame.args[i] = reinterpret_cast<uintptr_t>(&var_storage[i]);
    } else {
      frame.args[i] = request.args[i];
    }
  }

  // Enforce the bind's imposed guards. The proxy evaluates the same
  // programs before marshaling (saving this roundtrip on rejection), but
  // the exporter is the trust boundary — raw-wire callers do not get to
  // skip what the authorizer imposed.
  if (!EvalGuards(client.binding->guards(),
                  static_cast<int>(entry.plan.params.size()), frame.args)) {
    ++guard_rejected_;
    reply->status = WireStatus::kGuardRejected;
    reply->error = "imposed guard rejected raise of " + request.event_name;
    return;
  }

  try {
    entry.event->RaiseErased(frame);
  } catch (const std::exception& e) {
    ++exceptions_;
    reply->status = WireStatus::kException;
    reply->error = e.what();
    return;
  }

  if (entry.plan.has_result()) {
    reply->result = frame.result;
  }
  for (size_t i = 0; i < entry.plan.params.size(); ++i) {
    const WireParam& p = entry.plan.params[i];
    if (p.by_ref) {
      reply->byref.push_back(
          LoadScalar(static_cast<TypeClass>(p.cls), &var_storage[i]));
    }
  }
}

void Exporter::ExportMetricsSource(void* ctx, std::ostream& os) {
  auto* self = static_cast<Exporter*>(ctx);
  auto line = [&os, self](const char* name, uint64_t value) {
    os << name << "{host=\"";
    obs::WriteLabelValue(os, self->host_.host_name());
    os << "\"} " << value << "\n";
  };
  line("spin_remote_server_requests_total", self->requests_);
  line("spin_remote_server_dedup_hits_total", self->dedup_hits_);
  line("spin_remote_server_exceptions_total", self->exceptions_);
  line("spin_remote_server_bad_requests_total", self->bad_requests_);
  line("spin_remote_server_unbound_total", self->unbound_);
  line("spin_remote_server_binds_total", self->binds_);
  line("spin_remote_server_auth_denied_total", self->auth_denied_);
  line("spin_remote_server_revoked_tokens_total", self->revoked_tokens_);
  line("spin_remote_server_revoked_raises_total", self->revoked_raises_);
  line("spin_remote_server_guard_rejected_total", self->guard_rejected_);
}

}  // namespace remote
}  // namespace spin
