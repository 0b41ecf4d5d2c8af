#include "rpc_part.h"

#include <string>
#include <utility>

#include "inputs.h"
#include "measure.h"
#include "spans.h"
#include "src/core/errors.h"
#include "src/micro/program.h"
#include "src/micro/verify.h"
#include "src/obs/obs.h"
#include "src/remote/wire_format.h"
#include "src/types/signature.h"

namespace perfbench {
namespace {

using ScalarEv = spin::Event<uint64_t(uint64_t, uint64_t)>;
using VarEv = spin::Event<uint64_t(uint64_t, uint64_t&)>;
using WideEv = spin::Event<uint64_t(uint64_t, uint64_t, uint64_t, uint64_t)>;

enum ShapeKind : uint8_t { kScalar, kVar, kWide };

constexpr size_t kTargets = 32;
constexpr size_t kWindow = 192;
constexpr size_t kTraceLength = 4096;
constexpr uint64_t kRejected = 0xdeadbeefull;
constexpr uint64_t kAdmitMask = 63;  // the imposed guard admits (a & 63) != 0
constexpr uint32_t kClientIp = 0x0a000101;
constexpr uint32_t kServerIp = 0x0a000102;
constexpr uint16_t kFirstProxyPort = 9000;

uint64_t ServeScalar(uint64_t a, uint64_t b) {
  Span span("remote.handler");
  return a * 31 + b;
}
uint64_t ServeVar(uint64_t a, uint64_t& v) {
  Span span("remote.handler");
  v = v * 3 + a;
  return v ^ a;
}
uint64_t ServeWide(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
  Span span("remote.handler");
  return (a ^ b) + c * d;
}
uint64_t RejectScalar(uint64_t, uint64_t) { return kRejected; }
uint64_t RejectVar(uint64_t, uint64_t&) { return kRejected; }
uint64_t RejectWide(uint64_t, uint64_t, uint64_t, uint64_t) {
  return kRejected;
}

// The guard the exporter imposes on every bind: FUNCTIONAL and
// address-free, so it crosses the wire and passes the proxy's admission
// check.
spin::micro::Program AdmitGuard(int num_args) {
  return std::move(spin::micro::ProgramBuilder(num_args, /*functional=*/true)
                       .LoadArg(0, 0)
                       .LoadImm(1, kAdmitMask)
                       .And(2, 0, 1)
                       .LoadImm(3, 0)
                       .CmpNe(4, 2, 3)
                       .Ret(4))
      .Build();
}

bool ImposeAdmitGuard(spin::AuthRequest& request, void* ctx) {
  if (request.op == spin::AuthOp::kInstall) {
    int num_args = static_cast<int>(reinterpret_cast<intptr_t>(ctx));
    request.ImposeGuard(spin::MakeImposedMicroGuard(AdmitGuard(num_args)));
  }
  return true;
}

std::vector<spin::remote::WireParam> Params(ShapeKind shape) {
  uint8_t u64 = static_cast<uint8_t>(spin::TypeClass::kUInt64);
  switch (shape) {
    case kScalar:
      return {{u64, false}, {u64, false}};
    case kVar:
      return {{u64, false}, {u64, true}};
    case kWide:
      break;
  }
  return {{u64, false}, {u64, false}, {u64, false}, {u64, false}};
}

}  // namespace

struct RpcPart::Target {
  ShapeKind shape = kScalar;
  std::string name;
  std::unique_ptr<ScalarEv> server_scalar, client_scalar;
  std::unique_ptr<VarEv> server_var, client_var;
  std::unique_ptr<WideEv> server_wide, client_wide;
  std::unique_ptr<spin::remote::EventProxy> proxy;

  spin::EventBase& server() {
    return shape == kScalar ? static_cast<spin::EventBase&>(*server_scalar)
           : shape == kVar  ? static_cast<spin::EventBase&>(*server_var)
                            : static_cast<spin::EventBase&>(*server_wide);
  }
  spin::EventBase& client() {
    return shape == kScalar ? static_cast<spin::EventBase&>(*client_scalar)
           : shape == kVar  ? static_cast<spin::EventBase&>(*client_var)
                            : static_cast<spin::EventBase&>(*client_wide);
  }
};

namespace {

spin::Dispatcher::Config MakeConfig(const RpcOptions& options) {
  spin::Dispatcher::Config config;
  config.enable_jit = options.enable_jit;
  config.pool = options.pool;
  return config;
}

}  // namespace

RpcPart::RpcPart(const RpcOptions& options)
    : server_dispatcher_(MakeConfig(options)),
      client_dispatcher_(MakeConfig(options)) {
  wire_ = std::make_unique<spin::net::Wire>(&sim_, spin::sim::LinkModel{});
  server_ = std::make_unique<spin::net::Host>("rpc-server", kServerIp,
                                              &server_dispatcher_);
  client_ = std::make_unique<spin::net::Host>("rpc-client", kClientIp,
                                              &client_dispatcher_);
  wire_->Attach(*client_, *server_);
  exporter_ = std::make_unique<spin::remote::Exporter>(*server_);

  spin::InstallOptions server_opts{.module = &server_module_};
  spin::InstallOptions client_opts{.module = &client_module_};
  for (size_t i = 0; i < kTargets; ++i) {
    auto t = std::make_unique<Target>();
    t->shape = static_cast<ShapeKind>(i % 3);
    t->name = "Perfbench.Rpc" + std::to_string(i);
    int num_args = 2;
    switch (t->shape) {
      case kScalar:
        t->server_scalar = std::make_unique<ScalarEv>(
            t->name, &server_module_, nullptr, &server_dispatcher_);
        server_dispatcher_.InstallHandler(*t->server_scalar, &ServeScalar,
                                          server_opts);
        t->client_scalar = std::make_unique<ScalarEv>(
            t->name, &client_module_, nullptr, &client_dispatcher_);
        client_dispatcher_.InstallDefaultHandler(*t->client_scalar,
                                                 &RejectScalar, client_opts);
        break;
      case kVar:
        t->server_var = std::make_unique<VarEv>(t->name, &server_module_,
                                                nullptr, &server_dispatcher_);
        server_dispatcher_.InstallHandler(*t->server_var, &ServeVar,
                                          server_opts);
        t->client_var = std::make_unique<VarEv>(t->name, &client_module_,
                                                nullptr, &client_dispatcher_);
        client_dispatcher_.InstallDefaultHandler(*t->client_var, &RejectVar,
                                                 client_opts);
        break;
      case kWide:
        num_args = 4;
        t->server_wide = std::make_unique<WideEv>(
            t->name, &server_module_, nullptr, &server_dispatcher_);
        server_dispatcher_.InstallHandler(*t->server_wide, &ServeWide,
                                          server_opts);
        t->client_wide = std::make_unique<WideEv>(
            t->name, &client_module_, nullptr, &client_dispatcher_);
        client_dispatcher_.InstallDefaultHandler(*t->client_wide, &RejectWide,
                                                 client_opts);
        break;
    }
    server_dispatcher_.InstallAuthorizer(
        t->server(), &ImposeAdmitGuard,
        reinterpret_cast<void*>(static_cast<intptr_t>(num_args)),
        server_module_);
    exporter_->Export(t->server());

    spin::remote::ProxyOptions proxy_opts;
    proxy_opts.remote_ip = kServerIp;
    proxy_opts.local_port = static_cast<uint16_t>(kFirstProxyPort + i);
    uint64_t start = WallNs();
    {
      Span span("remote.bind");
      t->proxy = std::make_unique<spin::remote::EventProxy>(
          *client_, &sim_, t->client(), proxy_opts);
    }
    bind_ns_.push_back(static_cast<double>(WallNs() - start));
    targets_.push_back(std::move(t));
  }

  // The request trace: round-robin across the proxies, or Zipf-skewed
  // toward the first ones.
  uint64_t rng = options.seed * 0x9e3779b97f4a7c15ull + 7;
  std::vector<uint32_t> zipf;
  if (options.zipf) {
    zipf = Schedule(ZipfWeights(kTargets), kTraceLength, rng);
  }
  for (size_t n = 0; n < kTraceLength; ++n) {
    Request r{};
    r.target = options.zipf ? zipf[n] : static_cast<uint32_t>(n % kTargets);
    r.a = NextRandom(rng);
    r.b = NextRandom(rng);
    r.c = NextRandom(rng);
    r.d = NextRandom(rng);
    r.expect_var = r.d;
    if ((r.a & kAdmitMask) == 0) {
      r.expect_result = kRejected;
    } else {
      switch (targets_[r.target]->shape) {
        case kScalar:
          r.expect_result = r.a * 31 + r.b;
          break;
        case kVar:
          r.expect_var = r.d * 3 + r.a;
          r.expect_result = r.expect_var ^ r.a;
          break;
        case kWide:
          r.expect_result = (r.a ^ r.b) + r.c * r.d;
          break;
      }
    }
    trace_.push_back(r);
  }
}

RpcPart::~RpcPart() {
  for (auto& t : targets_) {
    t->proxy.reset();
  }
  exporter_.reset();
  targets_.clear();
  client_.reset();
  server_.reset();
  wire_.reset();
}

void RpcPart::SetSampledTracing(bool on) {
  spin::obs::SetTraceConfig(
      on ? spin::obs::TraceConfig{spin::obs::TraceMode::kSampled,
                                  kTraceSampleRate}
         : spin::obs::TraceConfig{spin::obs::TraceMode::kOff, 1});
}

size_t RpcPart::Window() {
  for (size_t n = 0; n < kWindow; ++n) {
    const Request& r = trace_[pos_];
    pos_ = pos_ + 1 == trace_.size() ? 0 : pos_ + 1;
    Target& t = *targets_[r.target];
    uint64_t virtual_start = sim_.now_ns();
    try {
      uint64_t var = r.d;
      uint64_t result = 0;
      switch (t.shape) {
        case kScalar:
          result = t.client_scalar->Raise(r.a, r.b);
          break;
        case kVar:
          result = t.client_var->Raise(r.a, var);
          break;
        case kWide:
          result = t.client_wide->Raise(r.a, r.b, r.c, r.d);
          break;
      }
      if (result != r.expect_result || var != r.expect_var) {
        ++wrong_;
      }
    } catch (const spin::RemoteError&) {
      ++remote_errors_;
    }
    virtual_ns_ += sim_.now_ns() - virtual_start;
    remote_raises_ += r.expect_result != kRejected ? 1 : 0;
  }
  raises_ += kWindow;
  return kWindow;
}

double RpcPart::CodecProbe(size_t n) {
  std::vector<spin::remote::RequestMsg> requests;
  std::vector<spin::remote::ReplyMsg> replies;
  for (size_t i = 0; i < 3; ++i) {
    const Target& t = *targets_[i];
    spin::remote::RequestMsg req;
    req.request_id = 1000 + i;
    req.token = 0x5eed0000 + i;
    req.event_name = t.name;
    req.params = Params(t.shape);
    for (size_t a = 0; a < req.params.size(); ++a) {
      req.args.push_back(0x1234567 * (a + 1));
    }
    spin::remote::ReplyMsg rep;
    rep.request_id = req.request_id;
    rep.result = 0xabcdef;
    if (t.shape == kVar) {
      rep.byref.push_back(42);
    }
    requests.push_back(std::move(req));
    replies.push_back(std::move(rep));
  }
  spin::remote::RequestMsg req_out;
  spin::remote::ReplyMsg rep_out;
  uint64_t start = WallNs();
  for (size_t i = 0; i < n; ++i) {
    Span span("remote.codec");
    const auto& req = requests[i % 3];
    const auto& rep = replies[i % 3];
    bool ok = spin::remote::DecodeRequest(spin::remote::EncodeRequest(req),
                                          &req_out) &&
              spin::remote::DecodeReply(spin::remote::EncodeReply(rep),
                                        &rep_out);
    if (!ok || req_out.args != req.args || rep_out.byref != rep.byref ||
        rep_out.result != rep.result) {
      ++wrong_;
    }
  }
  return static_cast<double>(WallNs() - start) / static_cast<double>(n);
}

double RpcPart::ServerDispatchProbe(size_t n) {
  uint64_t start = WallNs();
  for (size_t i = 0; i < n; ++i) {
    const Request& r = trace_[i % trace_.size()];
    Target& t = *targets_[r.target];
    uint64_t var = r.d;
    uint64_t result = 0;
    uint64_t expect = 0;
    switch (t.shape) {
      case kScalar:
        result = t.server_scalar->Raise(r.a, r.b);
        expect = r.a * 31 + r.b;
        break;
      case kVar:
        result = t.server_var->Raise(r.a, var);
        expect = (r.d * 3 + r.a) ^ r.a;
        break;
      case kWide:
        result = t.server_wide->Raise(r.a, r.b, r.c, r.d);
        expect = (r.a ^ r.b) + r.c * r.d;
        break;
    }
    if (result != expect) {
      ++wrong_;
    }
  }
  return static_cast<double>(WallNs() - start) / static_cast<double>(n);
}

double RpcPart::VerifyProbe(size_t n) {
  const spin::micro::Program guards[2] = {AdmitGuard(2), AdmitGuard(4)};
  const spin::micro::VerifyLimits limits = spin::micro::WireGuardLimits();
  uint64_t start = WallNs();
  for (size_t i = 0; i < n; ++i) {
    if (!spin::micro::Verify(guards[i % 2], limits).ok()) {
      ++wrong_;
    }
  }
  return static_cast<double>(WallNs() - start) / static_cast<double>(n);
}

double RpcPart::roundtrip_virtual_ns() const {
  return remote_raises_ == 0 ? 0
                             : static_cast<double>(virtual_ns_) /
                                   static_cast<double>(remote_raises_);
}

void RpcPart::Verify(Checks& checks) {
  checks.attempted += raises_;
  if (wrong_ != 0) {
    checks.Fail(std::to_string(wrong_) +
                    " remote results or VAR copy-outs differ from the local "
                    "computation",
                wrong_);
  }
  if (remote_errors_ != 0) {
    checks.Fail(std::to_string(remote_errors_) + " remote raises threw "
                                                  "RemoteError",
                remote_errors_);
  }
}

}  // namespace perfbench
