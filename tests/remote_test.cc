// Remote event dispatch tests: proxies, the exporter, marshaling, and the
// failure model (retries, at-most-once, timeouts, dead proxies).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>

#include "src/net/host.h"
#include "src/obs/export.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/remote/exporter.h"
#include "src/remote/proxy.h"
#include "src/sim/simulator.h"
#include "tests/eager_config.h"

namespace spin {
namespace remote {
namespace {

class RemoteTest : public ::testing::Test {
 protected:
  RemoteTest() { wire_.Attach(client_host_, server_host_); }

  ProxyOptions Opts(uint16_t local_port) {
    ProxyOptions opts;
    opts.remote_ip = server_host_.ip();
    opts.local_port = local_port;
    return opts;
  }

  Dispatcher dispatcher_{EagerConfig()};
  sim::Simulator sim_;
  net::Wire wire_{&sim_, sim::LinkModel{}};
  net::Host client_host_{"client", 0x0a000001, &dispatcher_};
  net::Host server_host_{"server", 0x0a000002, &dispatcher_};
  Exporter exporter_{server_host_};
};

// --- Marshaling --------------------------------------------------------------

TEST(RemoteWireFormat, RequestRoundTrip) {
  RequestMsg msg;
  msg.kind = RaiseKind::kSync;
  msg.request_id = 0x0123456789abcdefull;
  msg.token = 0xfeedfacecafebeefull;
  msg.event_name = "Fs.Read";
  msg.params = {WireParam{static_cast<uint8_t>(TypeClass::kInt32), false},
                WireParam{static_cast<uint8_t>(TypeClass::kUInt64), true}};
  msg.args = {static_cast<uint64_t>(-7), 0xdeadbeefcafef00dull};

  RequestMsg decoded;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(msg), &decoded));
  EXPECT_EQ(decoded.kind, msg.kind);
  EXPECT_EQ(decoded.request_id, msg.request_id);
  EXPECT_EQ(decoded.token, msg.token);
  EXPECT_EQ(decoded.event_name, msg.event_name);
  EXPECT_EQ(decoded.params, msg.params);
  EXPECT_EQ(decoded.args, msg.args);
}

TEST(RemoteWireFormat, BindMessagesRoundTrip) {
  BindRequestMsg req;
  req.bind_id = 77;
  req.event_name = "Vault.Op";
  req.module_name = "Remote.Proxy.Vault.Op";
  req.credential = "open sesame";
  req.params = {WireParam{static_cast<uint8_t>(TypeClass::kUInt64), false}};
  BindRequestMsg req_out;
  ASSERT_TRUE(DecodeBindRequest(EncodeBindRequest(req), &req_out));
  EXPECT_EQ(req_out.bind_id, req.bind_id);
  EXPECT_EQ(req_out.event_name, req.event_name);
  EXPECT_EQ(req_out.module_name, req.module_name);
  EXPECT_EQ(req_out.credential, req.credential);
  EXPECT_EQ(req_out.params, req.params);

  BindReplyMsg rep;
  rep.status = WireStatus::kOk;
  rep.bind_id = 77;
  rep.token = 0x1122334455667788ull;
  rep.guards.push_back(std::move(micro::ProgramBuilder(1, /*functional=*/true)
                                     .LoadArg(0, 0)
                                     .LoadImm(1, 100)
                                     .CmpLtU(2, 0, 1)
                                     .Ret(2))
                           .Build());
  BindReplyMsg rep_out;
  ASSERT_TRUE(DecodeBindReply(EncodeBindReply(rep), &rep_out));
  EXPECT_EQ(rep_out.status, rep.status);
  EXPECT_EQ(rep_out.bind_id, rep.bind_id);
  EXPECT_EQ(rep_out.token, rep.token);
  ASSERT_EQ(rep_out.guards.size(), 1u);
  EXPECT_EQ(rep_out.guards[0].num_args(), 1);
  EXPECT_TRUE(rep_out.guards[0].functional());
  ASSERT_EQ(rep_out.guards[0].code().size(), rep.guards[0].code().size());
  for (size_t i = 0; i < rep.guards[0].code().size(); ++i) {
    const micro::Insn& a = rep.guards[0].code()[i];
    const micro::Insn& b = rep_out.guards[0].code()[i];
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.a, b.a);
    EXPECT_EQ(a.b, b.b);
    EXPECT_EQ(a.imm, b.imm);
  }

  RevokeMsg rev;
  rev.token = 0xdeadbeefull;
  rev.event_name = "Vault.Op";
  RevokeMsg rev_out;
  ASSERT_TRUE(DecodeRevoke(EncodeRevoke(rev), &rev_out));
  EXPECT_EQ(rev_out.token, rev.token);
  EXPECT_EQ(rev_out.event_name, rev.event_name);
}

TEST(RemoteWireFormat, AddressedGuardsDoNotCrossTheWire) {
  // A guard that dereferences exporter memory is meaningless in the
  // proxy's address space: WireableGuard refuses it, and the bind-reply
  // decoder's admission verifier is the matching trust boundary on the
  // receiving side. The reply is well-framed, so the decode itself
  // succeeds and the refusal is typed — the program never reaches an
  // evaluator (guards cleared) and the proxy can report kBadGuard
  // instead of timing out on a silently dropped datagram.
  static uint64_t global = 7;
  micro::Program addressed = micro::GuardGlobalEq(&global, 7);
  EXPECT_FALSE(WireableGuard(addressed));
  EXPECT_TRUE(WireableGuard(micro::ReturnConst(1, 1, /*functional=*/true)));

  BindReplyMsg rep;
  rep.status = WireStatus::kOk;
  rep.token = 1;
  rep.guards.push_back(addressed);
  BindReplyMsg out;
  ASSERT_TRUE(DecodeBindReply(EncodeBindReply(rep), &out));
  EXPECT_EQ(out.guard_verify, micro::VerifyStatus::kAddressOp);
  EXPECT_EQ(out.guard_verify_index, 0);
  EXPECT_TRUE(out.guards.empty());
}

TEST(RemoteWireFormat, ReplyRoundTrip) {
  ReplyMsg msg;
  msg.status = WireStatus::kException;
  msg.request_id = 42;
  msg.result = 99;
  msg.byref = {1, 2, 3};
  msg.error = "handler threw";

  ReplyMsg decoded;
  ASSERT_TRUE(DecodeReply(EncodeReply(msg), &decoded));
  EXPECT_EQ(decoded.status, msg.status);
  EXPECT_EQ(decoded.request_id, msg.request_id);
  EXPECT_EQ(decoded.result, msg.result);
  EXPECT_EQ(decoded.byref, msg.byref);
  EXPECT_EQ(decoded.error, msg.error);
}

TEST(RemoteWireFormat, MalformedDatagramsRejected) {
  RequestMsg req;
  req.event_name = "X";
  std::string wire = EncodeRequest(req);
  RequestMsg out;
  EXPECT_TRUE(DecodeRequest(wire, &out));
  // Truncations at every length are rejected, never mis-read.
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(DecodeRequest(wire.substr(0, cut), &out));
  }
  // Trailing garbage is rejected too.
  EXPECT_FALSE(DecodeRequest(wire + "z", &out));
  std::string bad_magic = wire;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeRequest(bad_magic, &out));
  ReplyMsg reply_out;
  EXPECT_FALSE(DecodeReply(wire, &reply_out));  // wrong message type
}

static int64_t MixHandler(int32_t a, uint32_t b, int64_t c, uint64_t d,
                          bool e, double f) {
  return static_cast<int64_t>(a) + b + c + static_cast<int64_t>(d & 0xff) +
         (e ? 1000 : 0) + static_cast<int64_t>(f);
}

TEST_F(RemoteTest, SyncRaiseCarriesAllScalarShapes) {
  Event<int64_t(int32_t, uint32_t, int64_t, uint64_t, bool, double)>
      server_ev("Math.Mix", nullptr, nullptr, &dispatcher_);
  dispatcher_.InstallHandler(server_ev, &MixHandler);
  exporter_.Export(server_ev);

  Event<int64_t(int32_t, uint32_t, int64_t, uint64_t, bool, double)>
      client_ev("Math.Mix", nullptr, nullptr, &dispatcher_);
  EventProxy proxy(client_host_, &sim_, client_ev, Opts(9001));

  int64_t got = client_ev.Raise(-5, 7u, -1'000'000'000'000ll,
                                0xffffffffffffff42ull, true, 2.5);
  EXPECT_EQ(got, MixHandler(-5, 7u, -1'000'000'000'000ll,
                            0xffffffffffffff42ull, true, 2.5));
  EXPECT_EQ(proxy.retries(), 0u);
  EXPECT_GT(proxy.roundtrip_hist().Count(), 0u);
}

static void DoubleVarHandler(uint64_t& v) { v = v * 2 + 1; }
static bool ScaleVarHandler(int32_t n, double& x) {
  x *= n;
  return x > 10.0;
}

TEST_F(RemoteTest, VarParametersCopyInAndOut) {
  Event<void(uint64_t&)> server_ev("Var.Bump", nullptr, nullptr,
                                   &dispatcher_);
  dispatcher_.InstallHandler(server_ev, &DoubleVarHandler);
  exporter_.Export(server_ev);

  Event<void(uint64_t&)> client_ev("Var.Bump", nullptr, nullptr,
                                   &dispatcher_);
  EventProxy proxy(client_host_, &sim_, client_ev, Opts(9002));

  uint64_t v = 20;
  client_ev.Raise(v);
  EXPECT_EQ(v, 41u);  // mutated on the server, copied back out

  Event<bool(int32_t, double&)> server_scale("Var.Scale", nullptr, nullptr,
                                             &dispatcher_);
  dispatcher_.InstallHandler(server_scale, &ScaleVarHandler);
  exporter_.Export(server_scale);
  Event<bool(int32_t, double&)> client_scale("Var.Scale", nullptr, nullptr,
                                             &dispatcher_);
  EventProxy scale_proxy(client_host_, &sim_, client_scale, Opts(9003));

  double x = 3.25;
  EXPECT_TRUE(client_scale.Raise(4, x));
  EXPECT_DOUBLE_EQ(x, 13.0);
}

TEST_F(RemoteTest, UnmarshalableSignaturesRejectedAtInstall) {
  // Pointer parameter: no address space crosses the wire.
  Event<bool(net::Packet*)> ptr_ev("Bad.Pointer", nullptr, nullptr,
                                   &dispatcher_);
  EXPECT_THROW(
      { EventProxy p(client_host_, &sim_, ptr_ev, Opts(9004)); },
      RemoteError);
  EXPECT_THROW(exporter_.Export(ptr_ev), RemoteError);

  // VAR parameter whose pointee is not a wire scalar.
  Event<void(net::Packet&)> ref_ev("Bad.Ref", nullptr, nullptr,
                                   &dispatcher_);
  try {
    EventProxy p(client_host_, &sim_, ref_ev, Opts(9004));
    FAIL() << "struct VAR parameter must not marshal";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.status(), RemoteStatus::kUnmarshalable);
  }

  // Fire-and-forget cannot return results or take VAR parameters.
  Event<int32_t(int32_t)> result_ev("Bad.AsyncResult", nullptr, nullptr,
                                    &dispatcher_);
  ProxyOptions async_opts = Opts(9004);
  async_opts.kind = RaiseKind::kAsync;
  EXPECT_THROW(
      { EventProxy p(client_host_, &sim_, result_ev, async_opts); },
      RemoteError);
  Event<void(uint64_t&)> var_ev("Bad.AsyncVar", nullptr, nullptr,
                                &dispatcher_);
  EXPECT_THROW(
      { EventProxy p(client_host_, &sim_, var_ev, async_opts); },
      RemoteError);

  // A rejected install leaves no binding behind.
  EXPECT_EQ(ptr_ev.handler_count(), 0u);
  EXPECT_EQ(ref_ev.handler_count(), 0u);
}

// --- Failure model -----------------------------------------------------------

struct ThrowCtx {
  int calls = 0;
};
static int32_t ThrowingHandler(ThrowCtx* ctx, int32_t v) {
  ++ctx->calls;
  if (v < 0) {
    throw std::runtime_error("negative input");
  }
  return v * 2;
}

TEST_F(RemoteTest, RemoteExceptionsPropagateToTheRaiser) {
  Event<int32_t(int32_t)> server_ev("Throwing.Op", nullptr, nullptr,
                                    &dispatcher_);
  ThrowCtx ctx;
  dispatcher_.InstallHandler(server_ev, &ThrowingHandler, &ctx,
                             {.may_throw = true});
  exporter_.Export(server_ev);
  Event<int32_t(int32_t)> client_ev("Throwing.Op", nullptr, nullptr,
                                    &dispatcher_);
  EventProxy proxy(client_host_, &sim_, client_ev, Opts(9005));

  EXPECT_EQ(client_ev.Raise(21), 42);
  try {
    client_ev.Raise(-1);
    FAIL() << "remote exception must propagate";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.status(), RemoteStatus::kRemoteException);
    EXPECT_NE(std::string(e.what()).find("negative input"),
              std::string::npos);
  }
  EXPECT_EQ(ctx.calls, 2);
  EXPECT_EQ(exporter_.exceptions(), 1u);
}

struct CountCtx {
  int calls = 0;
};
static uint64_t CountingHandler(CountCtx* ctx, uint64_t v) {
  ++ctx->calls;
  return v + 1;
}

TEST_F(RemoteTest, AtMostOnceUnderDuplicatedDelivery) {
  Event<uint64_t(uint64_t)> server_ev("Once.Op", nullptr, nullptr,
                                      &dispatcher_);
  CountCtx ctx;
  dispatcher_.InstallHandler(server_ev, &CountingHandler, &ctx);
  exporter_.Export(server_ev);
  Event<uint64_t(uint64_t)> client_ev("Once.Op", nullptr, nullptr,
                                      &dispatcher_);
  EventProxy proxy(client_host_, &sim_, client_ev, Opts(9006));

  // Drop the first two replies (frames whose UDP source port is the
  // exporter's). The request arrives each time; only retransmissions of it
  // are duplicates, and the cached reply must serve them.
  int replies_seen = 0;
  wire_.SetDropHook([&](const net::Packet& p, uint64_t, uint64_t) {
    if (p.ip_proto() == net::kIpProtoUdp &&
        p.src_port() == kDefaultRemotePort) {
      return ++replies_seen <= 2;
    }
    return false;
  });

  EXPECT_EQ(client_ev.Raise(10), 11u);
  EXPECT_EQ(ctx.calls, 1) << "at-most-once: the handler ran exactly once";
  EXPECT_EQ(proxy.retries(), 2u);
  EXPECT_EQ(exporter_.dedup_hits(), 2u);
  EXPECT_EQ(exporter_.requests(), 3u);
}

TEST_F(RemoteTest, RetriesRecoverFromSeededRandomLoss) {
  Event<uint64_t(uint64_t)> server_ev("Lossy.Op", nullptr, nullptr,
                                      &dispatcher_);
  CountCtx ctx;
  dispatcher_.InstallHandler(server_ev, &CountingHandler, &ctx);
  exporter_.Export(server_ev);
  Event<uint64_t(uint64_t)> client_ev("Lossy.Op", nullptr, nullptr,
                                      &dispatcher_);
  ProxyOptions opts = Opts(9007);
  opts.max_attempts = 10;
  EventProxy proxy(client_host_, &sim_, client_ev, opts);

  wire_.SetRandomLoss(0.3, /*seed=*/1234);
  for (uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(client_ev.Raise(i), i + 1);
  }
  EXPECT_GT(proxy.retries(), 0u) << "30% loss must force retransmissions";
  EXPECT_GT(wire_.frames_lost(), 0u);
  EXPECT_EQ(proxy.timeouts(), 0u);
}

TEST_F(RemoteTest, TimeoutThrowsTypedErrorInsteadOfHanging) {
  Event<uint64_t(uint64_t)> server_ev("Gone.Op", nullptr, nullptr,
                                      &dispatcher_);
  CountCtx ctx;
  dispatcher_.InstallHandler(server_ev, &CountingHandler, &ctx);
  exporter_.Export(server_ev);
  Event<uint64_t(uint64_t)> client_ev("Gone.Op", nullptr, nullptr,
                                      &dispatcher_);
  ProxyOptions opts = Opts(9008);
  opts.max_attempts = 3;
  opts.timeout_ns = 1'000'000;
  EventProxy proxy(client_host_, &sim_, client_ev, opts);

  wire_.SetPartition(0, ~0ull);  // nothing crosses, ever
  uint64_t before_ns = sim_.now_ns();
  try {
    client_ev.Raise(1);
    FAIL() << "a partitioned raise must time out";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.status(), RemoteStatus::kTimeout);
  }
  // Backoff doubled per attempt: 1ms + 2ms + 4ms of virtual time.
  EXPECT_GE(sim_.now_ns() - before_ns, 7'000'000u);
  EXPECT_EQ(proxy.timeouts(), 1u);
  EXPECT_EQ(ctx.calls, 0);

  // The partition heals; the same proxy serves again.
  wire_.SetPartition(0, 0);
  EXPECT_EQ(client_ev.Raise(5), 6u);
}

TEST_F(RemoteTest, DeadProxyFailsFastAfterRemoteUninstall) {
  Event<uint64_t(uint64_t)> server_ev("Mortal.Op", nullptr, nullptr,
                                      &dispatcher_);
  CountCtx ctx;
  dispatcher_.InstallHandler(server_ev, &CountingHandler, &ctx);
  exporter_.Export(server_ev);
  Event<uint64_t(uint64_t)> client_ev("Mortal.Op", nullptr, nullptr,
                                      &dispatcher_);
  EventProxy proxy(client_host_, &sim_, client_ev, Opts(9009));

  EXPECT_EQ(client_ev.Raise(1), 2u);
  exporter_.Unexport(server_ev);
  EXPECT_EQ(exporter_.revoked_tokens(), 1u);
  EXPECT_EQ(exporter_.bound_clients(), 0u);

  // Unexport revoked the proxy's capability and pushed a notice; the next
  // raise pumps the simulator, the notice lands, and the raise fails with
  // the typed kRevoked error — not a hang or a retry storm.
  try {
    client_ev.Raise(2);
    FAIL() << "raising through a revoked proxy must throw";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.status(), RemoteStatus::kRevoked);
  }
  EXPECT_TRUE(proxy.dead());
  EXPECT_TRUE(proxy.revoked());
  EXPECT_EQ(proxy.retries(), 0u);
  EXPECT_EQ(proxy.revoke_notices(), 1u);

  // Subsequent raises fail fast without generating traffic.
  uint64_t frames_before = wire_.frames_offered();
  try {
    client_ev.Raise(3);
    FAIL() << "revoked proxies must stay revoked";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.status(), RemoteStatus::kRevoked);
  }
  EXPECT_EQ(wire_.frames_offered(), frames_before);
  EXPECT_EQ(proxy.dead_raises(), 2u);
  EXPECT_EQ(ctx.calls, 1);
}

// --- Asynchronous raises -----------------------------------------------------

struct SumCtx {
  std::atomic<uint64_t> sum{0};
  std::atomic<int> calls{0};
};
static void SumHandler(SumCtx* ctx, uint64_t v) {
  ctx->sum += v;
  ++ctx->calls;
}

TEST_F(RemoteTest, AsyncRaisesAreFireAndForget) {
  Event<void(uint64_t)> server_ev("Async.Op", nullptr, nullptr,
                                  &dispatcher_);
  SumCtx ctx;
  dispatcher_.InstallHandler(server_ev, &SumHandler, &ctx);
  exporter_.Export(server_ev);
  Event<void(uint64_t)> client_ev("Async.Op", nullptr, nullptr,
                                  &dispatcher_);
  ProxyOptions opts = Opts(9010);
  opts.kind = RaiseKind::kAsync;
  EventProxy proxy(client_host_, &sim_, client_ev, opts);
  // The handshake's BindReply is the only packet the client ever receives.
  const uint64_t rx_after_bind = client_host_.rx_packets();

  for (uint64_t i = 1; i <= 10; ++i) {
    client_ev.Raise(i);  // marshal runs detached on the pool
  }
  dispatcher_.pool().Drain();
  EXPECT_EQ(proxy.Flush(), 10u);
  sim_.Run();

  EXPECT_EQ(ctx.calls.load(), 10);
  EXPECT_EQ(ctx.sum.load(), 55u);
  EXPECT_EQ(exporter_.requests(), 10u);
  EXPECT_EQ(exporter_.binds(), 1u);
  // Fire-and-forget: the exporter never replied to a raise.
  EXPECT_EQ(client_host_.rx_packets(), rx_after_bind);
}

TEST(RemoteAsyncTeardown, DestroyedProxyWaitsForItsQueuedMarshals) {
  // An async proxy's marshals run on pool workers. Destroying the proxy
  // while its raises wait behind busy workers must not leave them to call
  // into the freed proxy: the destructor returns once they have run.
  ThreadPool pool(2);
  Dispatcher::Config config;
  config.pool = &pool;
  Dispatcher dispatcher(EagerConfig(config));
  sim::Simulator sim;
  net::Wire wire{&sim, sim::LinkModel{}};
  net::Host client_host{"client", 0x0a000001, &dispatcher};
  net::Host server_host{"server", 0x0a000002, &dispatcher};
  wire.Attach(client_host, server_host);
  Exporter exporter{server_host};
  Event<void(uint64_t)> server_ev("Async.Teardown", nullptr, nullptr,
                                  &dispatcher);
  SumCtx ctx;
  dispatcher.InstallHandler(server_ev, &SumHandler, &ctx);
  exporter.Export(server_ev);
  Event<void(uint64_t)> client_ev("Async.Teardown", nullptr, nullptr,
                                  &dispatcher);

  std::atomic<int> parked{0};
  std::atomic<bool> release{false};
  std::thread releaser;
  size_t queued = 0;
  {
    ProxyOptions opts;
    opts.remote_ip = server_host.ip();
    opts.local_port = 9011;
    opts.kind = RaiseKind::kAsync;
    EventProxy proxy(client_host, &sim, client_ev, opts);
    // Park both workers, so every marshal stays queued.
    for (int w = 0; w < 2; ++w) {
      pool.Submit([&parked, &release] {
        ++parked;
        while (!release.load()) {
          std::this_thread::yield();
        }
      });
    }
    while (parked.load() != 2) {
      std::this_thread::yield();
    }
    for (uint64_t i = 1; i <= 5; ++i) {
      client_ev.Raise(i);
    }
    queued = pool.queue_depth();
    // The destructor drains the pool, so the workers are released from
    // another thread while it waits.
    releaser = std::thread([&release] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      release = true;
    });
  }
  const bool released = release.load();
  const size_t pending = pool.pending();
  releaser.join();
  pool.Drain();
  EXPECT_EQ(queued, 5u);
  EXPECT_TRUE(released) << "the destructor returned with marshals queued";
  EXPECT_EQ(pending, 0u);
  EXPECT_EQ(client_ev.handler_count(), 0u);
}

// --- Ordering across local handlers and the proxy (§2.3) ---------------------

struct OrderLog {
  std::vector<std::string> entries;
};
static void LogA(OrderLog* log, uint64_t) { log->entries.push_back("a"); }
static void LogB(OrderLog* log, uint64_t) { log->entries.push_back("b"); }
static void LogRemote(OrderLog* log, uint64_t) {
  log->entries.push_back("remote");
}

TEST_F(RemoteTest, ProxyHonorsAfterConstraintAmongLocalHandlers) {
  Event<void(uint64_t)> server_ev("Order.Op", nullptr, nullptr,
                                  &dispatcher_);
  OrderLog log;
  dispatcher_.InstallHandler(server_ev, &LogRemote, &log);
  exporter_.Export(server_ev);

  Event<void(uint64_t)> client_ev("Order.Op", nullptr, nullptr,
                                  &dispatcher_);
  BindingHandle a = dispatcher_.InstallHandler(client_ev, &LogA, &log);
  dispatcher_.InstallHandler(client_ev, &LogB, &log);
  ProxyOptions opts = Opts(9030);
  opts.order = Order{OrderKind::kAfter, a};
  EventProxy proxy(client_host_, &sim_, client_ev, opts);

  // The proxy is an ordinary binding in the event's order list: placed
  // after `a`, its (synchronous) remote dispatch runs between the locals.
  client_ev.Raise(1);
  EXPECT_EQ(log.entries,
            (std::vector<std::string>{"a", "remote", "b"}));
}

TEST_F(RemoteTest, ProxyOrderedFirstRunsBeforeLocalHandlers) {
  Event<void(uint64_t)> server_ev("Order.First.Op", nullptr, nullptr,
                                  &dispatcher_);
  OrderLog log;
  dispatcher_.InstallHandler(server_ev, &LogRemote, &log);
  exporter_.Export(server_ev);

  Event<void(uint64_t)> client_ev("Order.First.Op", nullptr, nullptr,
                                  &dispatcher_);
  dispatcher_.InstallHandler(client_ev, &LogA, &log);
  dispatcher_.InstallHandler(client_ev, &LogB, &log);
  ProxyOptions opts = Opts(9031);
  opts.order = Order{OrderKind::kFirst};
  EventProxy proxy(client_host_, &sim_, client_ev, opts);

  client_ev.Raise(1);
  EXPECT_EQ(log.entries,
            (std::vector<std::string>{"remote", "a", "b"}));
}

// --- Install-time authorization over the wire (§2.5) -------------------------

// Exporter-side authorizer: checks the wire credential, records the caller
// identity, and optionally imposes a wireable guard on the grant.
struct RemoteAuthState {
  std::string expect_credential;
  bool impose = false;
  micro::Program guard;
  int install_requests = 0;
  std::string last_module;
};

bool RemoteAuthorizer(AuthRequest& request, void* ctx) {
  auto* state = static_cast<RemoteAuthState*>(ctx);
  if (request.op != AuthOp::kInstall) {
    return true;
  }
  ++state->install_requests;
  auto* info = static_cast<const RemoteBindInfo*>(request.credentials);
  if (info == nullptr) {
    return false;
  }
  state->last_module = info->module_name;
  if (info->credential != state->expect_credential) {
    return false;
  }
  if (state->impose) {
    request.ImposeGuard(MakeImposedMicroGuard(state->guard));
  }
  return true;
}

// Guard over one by-value argument: arg0 < 100.
micro::Program ArgBelow100() {
  return std::move(micro::ProgramBuilder(/*num_args=*/1, /*functional=*/true)
                       .LoadArg(0, 0)
                       .LoadImm(1, 100)
                       .CmpLtU(2, 0, 1)
                       .Ret(2))
      .Build();
}

TEST_F(RemoteTest, DeniedBindSurfacesTypedErrorAtProxy) {
  Module authority{"Vault"};
  Event<uint64_t(uint64_t)> server_ev("Vault.Op", &authority, nullptr,
                                      &dispatcher_);
  CountCtx ctx;
  dispatcher_.InstallHandler(server_ev, &CountingHandler, &ctx);
  RemoteAuthState auth;
  auth.expect_credential = "sesame";
  dispatcher_.InstallAuthorizer(server_ev, &RemoteAuthorizer, &auth,
                                authority);
  exporter_.Export(server_ev);

  Event<uint64_t(uint64_t)> client_ev("Vault.Op", nullptr, nullptr,
                                      &dispatcher_);
  ProxyOptions bad = Opts(9101);
  bad.credential = "wrong";
  try {
    EventProxy proxy(client_host_, &sim_, client_ev, bad);
    FAIL() << "a bind the authorizer refuses must throw at the proxy";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.status(), RemoteStatus::kDenied);
  }
  // A denied install leaves nothing behind on either side.
  EXPECT_EQ(client_ev.handler_count(), 0u);
  EXPECT_EQ(exporter_.auth_denied(), 1u);
  EXPECT_EQ(exporter_.bound_clients(), 0u);
  EXPECT_EQ(ctx.calls, 0);

  // The host's default credential is picked up when the options leave it
  // empty, and the grant carries a nonzero capability token.
  client_host_.SetCredential("sesame");
  EventProxy proxy(client_host_, &sim_, client_ev, Opts(9102));
  EXPECT_NE(proxy.token(), 0u);
  EXPECT_EQ(client_ev.Raise(1), 2u);
  EXPECT_EQ(auth.install_requests, 2);
  EXPECT_EQ(auth.last_module, "Remote.Proxy.Vault.Op");
  EXPECT_EQ(exporter_.binds(), 1u);
  EXPECT_EQ(exporter_.bound_clients(), 1u);
}

TEST_F(RemoteTest, ImposedGuardIsEvaluatedProxySide) {
  Module authority{"Guarded"};
  Event<uint64_t(uint64_t)> server_ev("Guarded.Op", &authority, nullptr,
                                      &dispatcher_);
  CountCtx ctx;
  dispatcher_.InstallHandler(server_ev, &CountingHandler, &ctx);
  RemoteAuthState auth;
  auth.impose = true;
  auth.guard = ArgBelow100();
  dispatcher_.InstallAuthorizer(server_ev, &RemoteAuthorizer, &auth,
                                authority);
  exporter_.Export(server_ev);

  Event<uint64_t(uint64_t)> client_ev("Guarded.Op", nullptr, nullptr,
                                      &dispatcher_);
  EventProxy proxy(client_host_, &sim_, client_ev, Opts(9103));
  // The imposed guard traveled back in the BindReply and sits on the
  // proxy's local binding.
  EXPECT_EQ(dispatcher_.GuardCount(proxy.binding()), 1u);

  EXPECT_EQ(client_ev.Raise(5), 6u);  // passes the guard

  // A raise the imposed guard rejects is skipped before marshaling: same
  // observable outcome as a guarded local binding, and zero wire traffic.
  const uint64_t frames_before = wire_.frames_offered();
  EXPECT_THROW(client_ev.Raise(500), NoHandlerError);
  EXPECT_EQ(wire_.frames_offered(), frames_before)
      << "guard rejection must not cost a roundtrip";
  EXPECT_EQ(ctx.calls, 1);
  EXPECT_EQ(exporter_.guard_rejected(), 0u);
}

TEST_F(RemoteTest, ExporterEnforcesImposedGuardsOnRawWireTraffic) {
  Module authority{"Guarded"};
  Event<uint64_t(uint64_t)> server_ev("Guarded.Op", &authority, nullptr,
                                      &dispatcher_);
  CountCtx ctx;
  dispatcher_.InstallHandler(server_ev, &CountingHandler, &ctx);
  RemoteAuthState auth;
  auth.impose = true;
  auth.guard = ArgBelow100();
  dispatcher_.InstallAuthorizer(server_ev, &RemoteAuthorizer, &auth,
                                authority);
  exporter_.Export(server_ev);

  Event<uint64_t(uint64_t)> client_ev("Guarded.Op", nullptr, nullptr,
                                      &dispatcher_);
  EventProxy proxy(client_host_, &sim_, client_ev, Opts(9104));

  // A caller speaking the wire protocol directly (skipping the proxy and
  // its local guard copy) still cannot get past the authorizer's guard:
  // the exporter re-evaluates it on every raise.
  std::string reply_wire;
  net::UdpSocket raw(client_host_, 9105,
                     [&](const net::Packet& p) { reply_wire = p.UdpPayload(); });
  RequestMsg req;
  req.kind = RaiseKind::kSync;
  req.request_id = 0x4242;
  req.token = proxy.token();
  req.event_name = "Guarded.Op";
  req.params = {WireParam{static_cast<uint8_t>(TypeClass::kUInt64), false}};
  req.args = {500};  // the guard says no
  raw.SendTo(server_host_.ip(), kDefaultRemotePort, EncodeRequest(req));
  sim_.Run();

  ReplyMsg reply;
  ASSERT_TRUE(DecodeReply(reply_wire, &reply));
  EXPECT_EQ(reply.status, WireStatus::kGuardRejected);
  EXPECT_EQ(exporter_.guard_rejected(), 1u);
  EXPECT_EQ(ctx.calls, 0);
}

TEST_F(RemoteTest, RevokedTokenFailsFastWithTypedError) {
  Module authority{"Mortal"};
  Event<uint64_t(uint64_t)> server_ev("Mortal.Op", &authority, nullptr,
                                      &dispatcher_);
  CountCtx ctx;
  dispatcher_.InstallHandler(server_ev, &CountingHandler, &ctx);
  exporter_.Export(server_ev);
  Event<uint64_t(uint64_t)> client_ev("Mortal.Op", nullptr, nullptr,
                                      &dispatcher_);
  auto proxy = std::make_unique<EventProxy>(client_host_, &sim_, client_ev,
                                            Opts(9106));
  EXPECT_EQ(client_ev.Raise(1), 2u);
  const uint64_t token = proxy->token();

  // Drop the revocation notice: the proxy keeps believing it is bound, so
  // the stale token must be caught exporter-side.
  wire_.SetDropHook([](const net::Packet& p, uint64_t, uint64_t) {
    return p.ip_proto() == net::kIpProtoUdp &&
           p.src_port() == kDefaultRemotePort;
  });
  EXPECT_TRUE(exporter_.Revoke(token));
  EXPECT_FALSE(exporter_.Revoke(token)) << "a token revokes once";
  sim_.Run();
  EXPECT_FALSE(proxy->revoked()) << "the notice was lost";
  wire_.SetDropHook(nullptr);

  try {
    client_ev.Raise(2);
    FAIL() << "a raise bearing a revoked token must throw";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.status(), RemoteStatus::kRevoked);
  }
  EXPECT_TRUE(proxy->revoked());
  EXPECT_EQ(exporter_.revoked_raises(), 1u);
  EXPECT_EQ(ctx.calls, 1);

  // Fail-fast from now on: no traffic for raises through the dead proxy.
  const uint64_t frames_before = wire_.frames_offered();
  EXPECT_THROW(client_ev.Raise(3), RemoteError);
  EXPECT_EQ(wire_.frames_offered(), frames_before);

  // Re-binding mints a fresh capability and serves again.
  proxy.reset();
  EventProxy fresh(client_host_, &sim_, client_ev, Opts(9107));
  EXPECT_NE(fresh.token(), 0u);
  EXPECT_NE(fresh.token(), token);
  EXPECT_EQ(client_ev.Raise(10), 11u);
  EXPECT_EQ(ctx.calls, 2);
}

TEST_F(RemoteTest, RevokedAsyncProxyDropsQueuedDatagrams) {
  Event<void(uint64_t)> server_ev("Async.Mortal", nullptr, nullptr,
                                  &dispatcher_);
  SumCtx ctx;
  dispatcher_.InstallHandler(server_ev, &SumHandler, &ctx);
  exporter_.Export(server_ev);
  Event<void(uint64_t)> client_ev("Async.Mortal", nullptr, nullptr,
                                  &dispatcher_);
  ProxyOptions opts = Opts(9108);
  opts.kind = RaiseKind::kAsync;
  EventProxy proxy(client_host_, &sim_, client_ev, opts);

  for (uint64_t i = 1; i <= 3; ++i) {
    client_ev.Raise(i);
  }
  dispatcher_.pool().Drain();
  EXPECT_TRUE(exporter_.Revoke(proxy.token()));
  sim_.Run();  // the revocation notice lands before anything is flushed
  EXPECT_TRUE(proxy.revoked());
  EXPECT_EQ(proxy.Flush(), 0u) << "a revoked proxy generates no traffic";
  sim_.Run();
  EXPECT_EQ(ctx.calls.load(), 0);
}

// --- Determinism and observability -------------------------------------------

TEST(RemoteDeterminism, SeededLossReplaysExactly) {
  auto run = [](uint64_t seed) {
    Dispatcher dispatcher(EagerConfig());
    sim::Simulator sim;
    net::Wire wire(&sim, sim::LinkModel{});
    net::Host client("client", 0x0a000001, &dispatcher);
    net::Host server("server", 0x0a000002, &dispatcher);
    wire.Attach(client, server);
    Exporter exporter(server);

    Event<uint64_t(uint64_t)> server_ev("Det.Op", nullptr, nullptr,
                                        &dispatcher);
    auto ctx = std::make_unique<CountCtx>();
    dispatcher.InstallHandler(server_ev, &CountingHandler, ctx.get());
    exporter.Export(server_ev);
    Event<uint64_t(uint64_t)> client_ev("Det.Op", nullptr, nullptr,
                                        &dispatcher);
    ProxyOptions opts;
    opts.remote_ip = server.ip();
    opts.local_port = 9011;
    opts.max_attempts = 10;
    EventProxy proxy(client, &sim, client_ev, opts);

    wire.SetRandomLoss(0.3, seed);
    uint64_t ok = 0;
    uint64_t timed_out = 0;
    for (uint64_t i = 0; i < 10; ++i) {
      try {
        client_ev.Raise(i);
        ++ok;
      } catch (const RemoteError&) {
        ++timed_out;  // a deterministic outcome too: it must replay
      }
    }
    return std::tuple{ok, timed_out, proxy.retries(), wire.frames_lost(),
                      sim.now_ns()};
  };
  EXPECT_EQ(run(7), run(7)) << "same seed, same schedule, same outcome";
  EXPECT_NE(run(7), run(8)) << "the seed must actually steer the pattern";
}

// --- The reply inbox and nested pumps --------------------------------------

TEST_F(RemoteTest, LateAndDuplicateRepliesAreNotQueued) {
  Event<uint64_t(uint64_t)> server_ev("Late.Op", nullptr, nullptr,
                                      &dispatcher_);
  CountCtx ctx;
  dispatcher_.InstallHandler(server_ev, &CountingHandler, &ctx);
  exporter_.Export(server_ev);
  Event<uint64_t(uint64_t)> client_ev("Late.Op", nullptr, nullptr,
                                      &dispatcher_);
  // Below the ~168 us round trip: every raise times out once, so the reply
  // to its first copy arrives after the retransmission left, and the
  // replayed reply to the retransmission arrives after the raise returned.
  ProxyOptions opts = Opts(9013);
  opts.timeout_ns = 150'000;
  EventProxy proxy(client_host_, &sim_, client_ev, opts);

  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(client_ev.Raise(i), i + 1);
  }
  sim_.Run();
  EXPECT_GE(proxy.retries(), 100u);
  EXPECT_EQ(ctx.calls, 100);
  EXPECT_EQ(proxy.queued_replies(), 0u)
      << "a reply no raise awaits must not stay queued";
}

// An exporter on each host: the server's handler raises an event that the
// client host exports, so its sync raise pumps the simulator from inside
// the server exporter's dispatch.
struct NestedCtx {
  Event<uint64_t(uint64_t)>* inner = nullptr;  // proxied to the client host
  Event<uint64_t(uint64_t)>* outer = nullptr;  // proxied to the server host
  int outer_calls = 0;
  int inner_calls = 0;
};

uint64_t NestedOuter(NestedCtx* ctx, uint64_t a, uint64_t b) {
  ++ctx->outer_calls;
  return a + ctx->inner->Raise(b);
}

uint64_t NestedInner(NestedCtx* ctx, uint64_t b) {
  ++ctx->inner_calls;
  return b * 2;
}

TEST_F(RemoteTest, NestedPumpDoesNotRerunARetransmittedRequest) {
  NestedCtx ctx;
  Exporter client_exporter(client_host_);
  Event<uint64_t(uint64_t)> inner_at_client("Nested.Inner", nullptr, nullptr,
                                            &dispatcher_);
  dispatcher_.InstallHandler(inner_at_client, &NestedInner, &ctx);
  client_exporter.Export(inner_at_client);
  Event<uint64_t(uint64_t)> inner_at_server("Nested.Inner", nullptr, nullptr,
                                            &dispatcher_);
  ProxyOptions inner_opts;
  inner_opts.remote_ip = client_host_.ip();
  inner_opts.local_port = 9014;
  EventProxy inner_proxy(server_host_, &sim_, inner_at_server, inner_opts);
  ctx.inner = &inner_at_server;

  Event<uint64_t(uint64_t, uint64_t)> outer_at_server(
      "Nested.Outer.Operation", nullptr, nullptr, &dispatcher_);
  dispatcher_.InstallHandler(outer_at_server, &NestedOuter, &ctx);
  exporter_.Export(outer_at_server);
  Event<uint64_t(uint64_t, uint64_t)> outer_at_client(
      "Nested.Outer.Operation", nullptr, nullptr, &dispatcher_);
  // The outer request's frame takes ~110 us to cross, longer than this
  // first timeout, so its retransmission is already on the wire while the
  // first copy dispatches, and arrives inside the handler's nested pump.
  ProxyOptions opts = Opts(9015);
  opts.timeout_ns = 100'000;
  EventProxy outer_proxy(client_host_, &sim_, outer_at_client, opts);
  const uint64_t dedup_before = exporter_.dedup_hits();
  const uint64_t retries_before = outer_proxy.retries();

  EXPECT_EQ(outer_at_client.Raise(3, 4), 3u + 8u);
  EXPECT_EQ(ctx.outer_calls, 1) << "at-most-once under a nested pump";
  EXPECT_EQ(ctx.inner_calls, 1);
  EXPECT_GT(outer_proxy.retries(), retries_before);
  EXPECT_GT(exporter_.dedup_hits(), dedup_before);
  sim_.Run();
  EXPECT_EQ(ctx.outer_calls, 1);
  EXPECT_EQ(outer_proxy.queued_replies(), 0u);
}

uint64_t RecursiveOuter(NestedCtx* ctx, uint64_t v) {
  ++ctx->outer_calls;
  return v == 0 ? 100 : ctx->inner->Raise(v) + 1;
}

uint64_t RecursiveInner(NestedCtx* ctx, uint64_t v) {
  ++ctx->inner_calls;
  return ctx->outer->Raise(v - 1) + 10;
}

// Outer(1) runs on the server and raises Inner(1) on the client, which
// raises Outer(0) back through the client's proxy: a raise through a proxy
// nested inside that proxy's own pump. The outer reply is lost, so the
// outer raise recovers only by re-sending its own request after the nested
// raise has used the proxy.
TEST_F(RemoteTest, NestedRaiseThroughTheSameProxyResendsItsOwnRequest) {
  NestedCtx ctx;
  Exporter client_exporter(client_host_);
  Event<uint64_t(uint64_t)> inner_at_client("Recursive.Inner", nullptr,
                                            nullptr, &dispatcher_);
  dispatcher_.InstallHandler(inner_at_client, &RecursiveInner, &ctx);
  client_exporter.Export(inner_at_client);
  Event<uint64_t(uint64_t)> inner_at_server("Recursive.Inner", nullptr,
                                            nullptr, &dispatcher_);
  ProxyOptions inner_opts;
  inner_opts.remote_ip = client_host_.ip();
  inner_opts.local_port = 9016;
  EventProxy inner_proxy(server_host_, &sim_, inner_at_server, inner_opts);
  ctx.inner = &inner_at_server;

  Event<uint64_t(uint64_t)> outer_at_server("Recursive.Outer", nullptr,
                                            nullptr, &dispatcher_);
  dispatcher_.InstallHandler(outer_at_server, &RecursiveOuter, &ctx);
  exporter_.Export(outer_at_server);
  Event<uint64_t(uint64_t)> outer_at_client("Recursive.Outer", nullptr,
                                            nullptr, &dispatcher_);
  EventProxy outer_proxy(client_host_, &sim_, outer_at_client, Opts(9017));
  ctx.outer = &outer_at_client;

  bool dropped = false;
  wire_.SetDropHook([&](const net::Packet& p, uint64_t, uint64_t) {
    ReplyMsg reply;
    if (dropped || p.ip_proto() != net::kIpProtoUdp ||
        p.dst_port() != 9017 || !DecodeReply(p.UdpPayload(), &reply) ||
        reply.result != 111) {
      return false;
    }
    dropped = true;
    return true;
  });

  EXPECT_EQ(outer_at_client.Raise(1), 111u);
  EXPECT_TRUE(dropped);
  EXPECT_EQ(ctx.outer_calls, 2);
  EXPECT_EQ(ctx.inner_calls, 1);
  EXPECT_GE(outer_proxy.retries(), 1u);
  EXPECT_EQ(outer_proxy.timeouts(), 0u);
}

TEST_F(RemoteTest, FlightRecorderAndMetricsObserveTheRetryPath) {
  Event<uint64_t(uint64_t)> server_ev("Traced.Op", nullptr, nullptr,
                                      &dispatcher_);
  CountCtx ctx;
  dispatcher_.InstallHandler(server_ev, &CountingHandler, &ctx);
  exporter_.Export(server_ev);
  Event<uint64_t(uint64_t)> client_ev("Traced.Op", nullptr, nullptr,
                                      &dispatcher_);
  EventProxy proxy(client_host_, &sim_, client_ev, Opts(9012));

  int replies_seen = 0;
  wire_.SetDropHook([&](const net::Packet& p, uint64_t, uint64_t) {
    return p.ip_proto() == net::kIpProtoUdp &&
           p.src_port() == kDefaultRemotePort && ++replies_seen <= 1;
  });

  obs::EnableScope scope;
  obs::FlightRecorder::Global().Reset();
  EXPECT_EQ(client_ev.Raise(10), 11u);

  bool saw_marshal = false, saw_send = false, saw_retry = false,
       saw_reply = false, saw_dedup = false;
  for (const obs::MergedRecord& m : obs::FlightRecorder::Global().Snapshot()) {
    switch (m.rec.kind) {
      case obs::TraceKind::kRemoteMarshal: saw_marshal = true; break;
      case obs::TraceKind::kRemoteSend: saw_send = true; break;
      case obs::TraceKind::kRemoteRetry: saw_retry = true; break;
      case obs::TraceKind::kRemoteReply: saw_reply = true; break;
      case obs::TraceKind::kRemoteDedup: saw_dedup = true; break;
      default: break;
    }
  }
  EXPECT_TRUE(saw_marshal);
  EXPECT_TRUE(saw_send);
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_reply);
  EXPECT_TRUE(saw_dedup);

  std::ostringstream os;
  obs::ExportMetrics(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("spin_remote_client_retries_total{host=\"client\","
                      "event=\"Traced.Op\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("spin_remote_server_dedup_hits_total{host=\"server\"}"
                      " 1"),
            std::string::npos);
  EXPECT_NE(text.find("spin_remote_roundtrip_ns"), std::string::npos);
}

}  // namespace
}  // namespace remote
}  // namespace spin
