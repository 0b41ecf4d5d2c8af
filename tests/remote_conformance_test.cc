// Local/remote conformance: a raise through an EventProxy must be
// observationally identical to the same raise against a local binding.
//
// One table of scenarios runs twice — once against a plain local event,
// once across the simulated wire (proxy -> exporter -> dispatcher) — and
// the observable outcomes are compared field by field: the folded result,
// the final VAR copy-out values, which handlers fired and in what order,
// thrown exceptions (a remote handler exception arrives as
// RemoteError(kRemoteException) carrying the original what()), guard
// rejections (NoHandlerError both sides — the imposed guard travels to the
// proxy and is evaluated before marshaling), and install-time denials
// (InstallError(kNotAuthorized) locally, RemoteError(kDenied) at the
// proxy: the same §2.5 authorizer produced both).
//
// The ctest registration runs this suite twice, the second time with
// SPIN_DISABLE_JIT=1, so conformance also holds on the interpreter-only
// dispatch path.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/dispatcher.h"
#include "src/net/host.h"
#include "src/remote/exporter.h"
#include "src/remote/proxy.h"
#include "src/sim/simulator.h"
#include "tests/eager_config.h"

namespace spin {
namespace remote {
namespace {

// --- The scenario table ------------------------------------------------------

struct Scenario {
  const char* name;
  int handlers;        // 1 or 2 handlers installed, in id order
  uint64_t throw_on;   // handler 1 throws when the raise arg equals this
  bool impose_guard;   // authorizer imposes "arg0 < 100" on every install
  bool untrusted;      // the install/bind comes from an untrusted module
  uint64_t arg;
  uint64_t var_in;
};

constexpr Scenario kScenarios[] = {
    {"single-handler", 1, 0, false, false, 7, 5},
    {"two-handlers-ordered", 2, 0, false, false, 3, 1},
    {"handler-throws", 1, 9, false, false, 9, 2},
    {"imposed-guard-passes", 1, 0, true, false, 42, 4},
    {"imposed-guard-rejects", 1, 0, true, false, 500, 4},
    {"untrusted-denied", 1, 0, false, true, 1, 1},
};

// --- Everything observable about one run -------------------------------------

struct Observed {
  std::string error;        // canonical tag; empty = the raise succeeded
  bool error_has_detail = false;  // the message carried the handler's what()
  uint64_t result = 0;
  uint64_t var_out = 0;
  std::vector<int> fired;   // handler ids in dispatch order

  friend bool operator==(const Observed&, const Observed&) = default;
};

struct ConfCtx {
  int id;
  uint64_t throw_on;
  std::vector<int>* fired;
};

uint64_t ConfHandler(ConfCtx* ctx, uint64_t a, uint64_t& v) {
  if (ctx->id == 1 && ctx->throw_on != 0 && a == ctx->throw_on) {
    throw std::runtime_error("conformance boom");
  }
  ctx->fired->push_back(ctx->id);
  v = v * 2 + static_cast<uint64_t>(ctx->id);
  return a + 10 * static_cast<uint64_t>(ctx->id);
}

struct ConfAuth {
  bool impose = false;
  micro::Program guard;
};

bool ConfAuthorizer(AuthRequest& request, void* ctx) {
  auto* auth = static_cast<ConfAuth*>(ctx);
  if (request.op != AuthOp::kInstall) {
    return true;
  }
  if (request.requestor != nullptr &&
      request.requestor->name().find("Untrusted") != std::string::npos) {
    return false;
  }
  if (auth->impose) {
    request.ImposeGuard(MakeImposedMicroGuard(auth->guard));
  }
  return true;
}

// "arg0 < 100" over the event's two parameter slots (the VAR slot is never
// inspected: its slot holds an address, meaningless across hosts).
micro::Program ArgBelow100() {
  return std::move(micro::ProgramBuilder(/*num_args=*/2, /*functional=*/true)
                       .LoadArg(0, 0)
                       .LoadImm(1, 100)
                       .CmpLtU(2, 0, 1)
                       .Ret(2))
      .Build();
}

using ConfEvent = Event<uint64_t(uint64_t, uint64_t&)>;

// Installs the scenario's authorizer and handlers on `event`. Returns false
// when the (untrusted) install was denied — recorded, nothing installed.
bool SetUpEvent(Dispatcher& dispatcher, ConfEvent& event,
                const Module& authority, const Module& installer,
                ConfAuth& auth, std::vector<ConfCtx>& ctxs,
                const Scenario& s, Observed& obs) {
  auth.impose = s.impose_guard;
  if (s.impose_guard) {
    auth.guard = ArgBelow100();
  }
  dispatcher.InstallAuthorizer(event, &ConfAuthorizer, &auth, authority);
  for (int id = 1; id <= s.handlers; ++id) {
    InstallOptions opts;
    opts.module = &installer;
    opts.may_throw = true;
    try {
      dispatcher.InstallHandler(event, &ConfHandler, &ctxs[id - 1], opts);
    } catch (const InstallError& e) {
      EXPECT_EQ(e.status(), InstallStatus::kNotAuthorized);
      obs.error = "install-denied";
      return false;
    }
  }
  return true;
}

// Raises `event` and records everything observable.
void RaiseAndObserve(ConfEvent& event, const Scenario& s, Observed& obs) {
  uint64_t var = s.var_in;
  try {
    obs.result = event.Raise(s.arg, var);
    obs.var_out = var;
  } catch (const NoHandlerError&) {
    obs.error = "no-handler";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.status(), RemoteStatus::kRemoteException) << s.name;
    obs.error = "handler-exception";
    obs.error_has_detail =
        std::string(e.what()).find("conformance boom") != std::string::npos;
  } catch (const std::runtime_error& e) {
    obs.error = "handler-exception";
    obs.error_has_detail =
        std::string(e.what()).find("conformance boom") != std::string::npos;
  }
}

Observed RunLocal(const Scenario& s) {
  Observed obs;
  Dispatcher dispatcher(EagerConfig());
  Module authority{"Conf.Authority"};
  Module installer{s.untrusted ? "Untrusted.Local" : "Conf.Ext"};
  ConfEvent event("Conf.Op", &authority, nullptr, &dispatcher);
  ConfAuth auth;
  std::vector<ConfCtx> ctxs;
  for (int id = 1; id <= s.handlers; ++id) {
    ctxs.push_back(ConfCtx{id, s.throw_on, &obs.fired});
  }
  if (!SetUpEvent(dispatcher, event, authority, installer, auth, ctxs, s,
                  obs)) {
    return obs;
  }
  RaiseAndObserve(event, s, obs);
  return obs;
}

Observed RunRemote(const Scenario& s) {
  Observed obs;
  Dispatcher dispatcher(EagerConfig());
  sim::Simulator sim;
  net::Wire wire(&sim, sim::LinkModel{});
  net::Host client("client", 0x0a000001, &dispatcher);
  net::Host server("server", 0x0a000002, &dispatcher);
  wire.Attach(client, server);
  Exporter exporter(server);

  Module authority{"Conf.Authority"};
  Module installer{"Conf.Ext"};  // server-side handlers are always trusted
  ConfEvent server_ev("Conf.Op", &authority, nullptr, &dispatcher);
  ConfAuth auth;
  std::vector<ConfCtx> ctxs;
  for (int id = 1; id <= s.handlers; ++id) {
    ctxs.push_back(ConfCtx{id, s.throw_on, &obs.fired});
  }
  // The local counterpart of a remote bind denial is a handler-install
  // denial, so the untrusted identity moves to the proxy here.
  if (!SetUpEvent(dispatcher, server_ev, authority, installer, auth, ctxs, s,
                  obs)) {
    ADD_FAILURE() << s.name << ": server-side installs are trusted";
    return obs;
  }
  exporter.Export(server_ev);

  ConfEvent client_ev("Conf.Op", nullptr, nullptr, &dispatcher);
  ProxyOptions opts;
  opts.remote_ip = server.ip();
  opts.local_port = 9201;
  if (s.untrusted) {
    opts.module_name = "Untrusted.Remote";
  }
  std::unique_ptr<EventProxy> proxy;
  try {
    proxy = std::make_unique<EventProxy>(client, &sim, client_ev, opts);
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.status(), RemoteStatus::kDenied) << s.name;
    obs.error = "install-denied";
    return obs;
  }
  RaiseAndObserve(client_ev, s, obs);
  return obs;
}

// --- The matrix --------------------------------------------------------------

class RemoteConformance : public ::testing::TestWithParam<Scenario> {};

TEST_P(RemoteConformance, LocalAndRemoteRaisesAgree) {
  const Scenario& s = GetParam();
  Observed local = RunLocal(s);
  Observed remote = RunRemote(s);

  EXPECT_EQ(local.error, remote.error) << s.name;
  EXPECT_EQ(local.error_has_detail, remote.error_has_detail) << s.name;
  EXPECT_EQ(local.result, remote.result) << s.name;
  EXPECT_EQ(local.var_out, remote.var_out) << s.name;
  EXPECT_EQ(local.fired, remote.fired)
      << s.name << ": handler ordering must survive the wire";
}

INSTANTIATE_TEST_SUITE_P(Matrix, RemoteConformance,
                         ::testing::ValuesIn(kScenarios),
                         [](const ::testing::TestParamInfo<Scenario>& info) {
                           std::string n = info.param.name;
                           for (char& c : n) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return n;
                         });

// Spot-check the equivalences the matrix relies on, so a future behavior
// drift fails here with a readable message rather than as a diff of two
// Observed structs.
TEST(RemoteConformanceInvariants, GuardRejectionIsSilentLocally) {
  Scenario s = {"guard-reject", 1, 0, true, false, 500, 4};
  Observed local = RunLocal(s);
  EXPECT_EQ(local.error, "no-handler");
  EXPECT_TRUE(local.fired.empty());
}

TEST(RemoteConformanceInvariants, VarMutationsComposeAcrossHandlers) {
  Scenario s = {"two-handlers", 2, 0, false, false, 3, 1};
  Observed local = RunLocal(s);
  ASSERT_EQ(local.error, "");
  // v = ((1*2+1)*2+2) = 8: both handlers saw the running value, in order.
  EXPECT_EQ(local.var_out, 8u);
  EXPECT_EQ(local.fired, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace remote
}  // namespace spin
