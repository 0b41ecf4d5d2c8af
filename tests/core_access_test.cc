// Access control (§2.5), denial of service (§2.6), and quota tests.
#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "src/core/dispatcher.h"
#include "src/rt/clock.h"

namespace spin {
namespace {

struct SyscallState {
  int64_t space;  // the address space id the call came from
  int64_t handled_by = 0;
};

void Handler(int64_t /*strand*/, SyscallState& state) {
  state.handled_by = 1;
}
void OtherHandler(int64_t /*strand*/, SyscallState& state) {
  state.handled_by = 2;
}

// Imposed guard in Figure 3's shape: only system calls from the installing
// thread's address space are visible to the handler.
struct SpaceClosure {
  int64_t valid_space;
};

bool ImposedSpaceGuard(SpaceClosure* closure, int64_t /*strand*/,
                       SyscallState& state) {
  return state.space == closure->valid_space;
}

// Authorizer: approves installs but imposes the space guard; denies
// everything from a module named "Evil".
struct AuthState {
  SpaceClosure closure{7};
  int install_requests = 0;
  int uninstall_requests = 0;
  size_t guards_seen = 0;  // on the candidate binding, at kInstall
};

bool SyscallAuthorizer(AuthRequest& request, void* ctx) {
  auto* state = static_cast<AuthState*>(ctx);
  if (request.requestor != nullptr && request.requestor->name() == "Evil") {
    return false;
  }
  switch (request.op) {
    case AuthOp::kInstall:
      ++state->install_requests;
      state->guards_seen = request.binding->guard_count();
      request.ImposeGuard(
          MakeImposedGuard(&ImposedSpaceGuard, &state->closure));
      return true;
    case AuthOp::kUninstall:
      ++state->uninstall_requests;
      return true;
    default:
      return true;
  }
}

class AccessTest : public ::testing::Test {
 protected:
  Module machine_trap_{"MachineTrap"};
  Module extension_{"MachEmulator"};
  Module evil_{"Evil"};
  Dispatcher dispatcher_;
};

TEST_F(AccessTest, AuthorityProofRequiredForAuthorizer) {
  Event<void(int64_t, SyscallState&)> event("MachineTrap.Syscall",
                                            &machine_trap_, nullptr,
                                            &dispatcher_);
  AuthState auth;
  // A module other than the authority cannot install an authorizer.
  try {
    dispatcher_.InstallAuthorizer(event, &SyscallAuthorizer, &auth,
                                  extension_);
    FAIL() << "expected InstallError";
  } catch (const InstallError& e) {
    EXPECT_EQ(e.status(), InstallStatus::kNotAuthority);
  }
  // The authority can (THIS_MODULE-style proof).
  EXPECT_NO_THROW(dispatcher_.InstallAuthorizer(event, &SyscallAuthorizer,
                                                &auth, machine_trap_));
}

TEST_F(AccessTest, AuthorizerImposesGuardOnInstall) {
  Event<void(int64_t, SyscallState&)> event("MachineTrap.Syscall",
                                            &machine_trap_, nullptr,
                                            &dispatcher_);
  AuthState auth;
  dispatcher_.InstallAuthorizer(event, &SyscallAuthorizer, &auth,
                                machine_trap_);
  dispatcher_.InstallHandler(event, &Handler, {.module = &extension_});
  EXPECT_EQ(auth.install_requests, 1);

  SyscallState from_my_space{7, 0};
  event.Raise(1, from_my_space);
  EXPECT_EQ(from_my_space.handled_by, 1) << "own address space is visible";

  SyscallState from_other_space{8, 0};
  EXPECT_THROW(event.Raise(1, from_other_space), NoHandlerError);
  EXPECT_EQ(from_other_space.handled_by, 0)
      << "foreign address space must be filtered by the imposed guard";
}

bool PositiveStrand(int64_t strand, SyscallState&) { return strand > 0; }

TEST_F(AccessTest, GuardedInstallIsOneAuthorizationAndOneRebuild) {
  Event<void(int64_t, SyscallState&)> event("MachineTrap.Syscall",
                                            &machine_trap_, nullptr,
                                            &dispatcher_);
  AuthState auth;
  dispatcher_.InstallAuthorizer(event, &SyscallAuthorizer, &auth,
                                machine_trap_);
  const uint64_t rebuilds = dispatcher_.stats().rebuilds;
  auto binding = dispatcher_.InstallHandler(
      event, &Handler,
      {.guards = {MakeGuard(&PositiveStrand)}, .module = &extension_});
  EXPECT_EQ(auth.install_requests, 1);
  EXPECT_EQ(auth.guards_seen, 1u) << "the authorizer sees the guard";
  EXPECT_EQ(dispatcher_.stats().rebuilds - rebuilds, 1u);
  ASSERT_EQ(dispatcher_.GuardCount(binding), 2u);
  EXPECT_TRUE((*binding->guards())[0].imposed) << "imposed guards go first";

  SyscallState admitted{7, 0};
  event.Raise(1, admitted);
  EXPECT_EQ(admitted.handled_by, 1);
  SyscallState negative_strand{7, 0};
  EXPECT_THROW(event.Raise(-1, negative_strand), NoHandlerError);
}

TEST_F(AccessTest, AuthorizerDeniesUntrustedModule) {
  Event<void(int64_t, SyscallState&)> event("MachineTrap.Syscall",
                                            &machine_trap_, nullptr,
                                            &dispatcher_);
  AuthState auth;
  dispatcher_.InstallAuthorizer(event, &SyscallAuthorizer, &auth,
                                machine_trap_);
  try {
    dispatcher_.InstallHandler(event, &OtherHandler, {.module = &evil_});
    FAIL() << "expected InstallError";
  } catch (const InstallError& e) {
    EXPECT_EQ(e.status(), InstallStatus::kNotAuthorized);
  }
  EXPECT_EQ(event.handler_count(), 0u);
}

TEST_F(AccessTest, AuthorizerConsultedOnUninstall) {
  Event<void(int64_t, SyscallState&)> event("MachineTrap.Syscall",
                                            &machine_trap_, nullptr,
                                            &dispatcher_);
  AuthState auth;
  dispatcher_.InstallAuthorizer(event, &SyscallAuthorizer, &auth,
                                machine_trap_);
  auto binding = dispatcher_.InstallHandler(event, &Handler,
                                            {.module = &extension_});
  dispatcher_.Uninstall(binding, &extension_);
  EXPECT_EQ(auth.uninstall_requests, 1);
}

TEST_F(AccessTest, ImposedGuardAddedDynamically) {
  // §2.5: "Any number of guards can be imposed on a handler, and they can
  // be added and removed dynamically."
  Event<void(int64_t, SyscallState&)> event("MachineTrap.Syscall",
                                            &machine_trap_, nullptr,
                                            &dispatcher_);
  auto binding = dispatcher_.InstallHandler(event, &Handler,
                                            {.module = &extension_});
  SyscallState state{7, 0};
  event.Raise(1, state);
  EXPECT_EQ(state.handled_by, 1);

  SpaceClosure closure{9};
  dispatcher_.ImposeGuard(event, binding, &ImposedSpaceGuard, &closure);
  SyscallState blocked{7, 0};
  EXPECT_THROW(event.Raise(1, blocked), NoHandlerError);
  SyscallState allowed{9, 0};
  event.Raise(1, allowed);
  EXPECT_EQ(allowed.handled_by, 1);
}

// An authorizer's imposed guard passes the same admission check as every
// other guard; one that fails it fails the install, which leaves nothing.
bool WideImposedGuard(SpaceClosure* closure, int64_t, SyscallState& state,
                      int64_t /*one too many*/) {
  return state.space == closure->valid_space;
}

uint64_t g_guard_stores = 0;

struct BadImposition {
  enum Kind { kWideClosure, kImpureMicro, kBadRegister } kind;
  SpaceClosure closure{7};
};

bool ImposeBadGuard(AuthRequest& request, void* ctx) {
  auto* bad = static_cast<BadImposition*>(ctx);
  if (request.op != AuthOp::kInstall) {
    return true;
  }
  switch (bad->kind) {
    case BadImposition::kWideClosure:
      request.ImposeGuard(MakeImposedGuard(&WideImposedGuard, &bad->closure));
      break;
    case BadImposition::kImpureMicro:
      // Counts its runs in a global, then admits: not FUNCTIONAL.
      request.ImposeGuard(MakeImposedMicroGuard(
          std::move(micro::ProgramBuilder(2, /*functional=*/false)
                        .LoadGlobal(0, &g_guard_stores)
                        .LoadImm(1, 1)
                        .Add(0, 0, 1)
                        .StoreGlobal(&g_guard_stores, 0)
                        .RetImm(1))
              .Build()));
      break;
    case BadImposition::kBadRegister:
      request.ImposeGuard(MakeImposedMicroGuard(micro::Program(
          {micro::Insn{micro::Op::kLoadImm, micro::kNumRegs, 0, 0, 1},
           micro::Insn{micro::Op::kRet, 0, micro::kNumRegs, 0, 0}},
          2, /*functional=*/true)));
      break;
  }
  return true;
}

class ImposedGuardCheckTest : public AccessTest {
 protected:
  void ExpectInstallRefused(BadImposition::Kind kind, InstallStatus status,
                            TypecheckStatus typecheck) {
    Event<void(int64_t, SyscallState&)> event("MachineTrap.Syscall",
                                              &machine_trap_, nullptr,
                                              &dispatcher_);
    BadImposition bad{kind};
    dispatcher_.InstallAuthorizer(event, &ImposeBadGuard, &bad,
                                  machine_trap_);
    const size_t usage = dispatcher_.quota().Usage(&extension_);
    try {
      dispatcher_.InstallHandler(event, &Handler, {.module = &extension_});
      FAIL() << "expected InstallError";
    } catch (const InstallError& e) {
      EXPECT_EQ(e.status(), status);
      EXPECT_EQ(e.typecheck(), typecheck);
    }
    EXPECT_EQ(event.handler_count(), 0u);
    EXPECT_EQ(dispatcher_.quota().Usage(&extension_), usage);
    g_guard_stores = 0;
    SyscallState state{7, 0};
    EXPECT_THROW(event.Raise(1, state), NoHandlerError);
    EXPECT_EQ(state.handled_by, 0);
    EXPECT_EQ(g_guard_stores, 0u) << "no imposed program runs on a raise";
  }
};

TEST_F(ImposedGuardCheckTest, ClosureGuardWithAnExtraParameterIsRefused) {
  ExpectInstallRefused(BadImposition::kWideClosure,
                       InstallStatus::kTypecheckFailed,
                       TypecheckStatus::kArityMismatch);
}

TEST_F(ImposedGuardCheckTest, StoringMicroGuardIsRefused) {
  ExpectInstallRefused(BadImposition::kImpureMicro,
                       InstallStatus::kTypecheckFailed,
                       TypecheckStatus::kGuardNotFunctional);
}

TEST_F(ImposedGuardCheckTest, MicroGuardWithABadRegisterIsRefused) {
  ExpectInstallRefused(BadImposition::kBadRegister,
                       InstallStatus::kInvalidMicroProgram,
                       TypecheckStatus::kOk);
}

// --- Quotas (§2.6 "Too many handlers") ----------------------------------------

void Noop(int64_t, int64_t) {}

TEST_F(AccessTest, QuotaDeniesExcessiveInstalls) {
  Dispatcher::Config config;
  config.quota_bytes_per_module = 4096;  // tiny budget
  Dispatcher dispatcher(config);
  Event<void(int64_t, int64_t)> event("Test.Quota", &machine_trap_, nullptr,
                                      &dispatcher);
  bool denied = false;
  int installed = 0;
  for (int i = 0; i < 1000; ++i) {
    try {
      dispatcher.InstallHandler(event, &Noop, {.module = &extension_});
      ++installed;
    } catch (const InstallError& e) {
      EXPECT_EQ(e.status(), InstallStatus::kQuotaExceeded);
      denied = true;
      break;
    }
  }
  EXPECT_TRUE(denied) << "a 4 KiB budget cannot hold 1000 bindings";
  EXPECT_GT(installed, 0);
  EXPECT_GT(dispatcher.quota().Usage(&extension_), 0u);
}

TEST_F(AccessTest, UninstallReleasesQuota) {
  Dispatcher::Config config;
  config.quota_bytes_per_module = 4096;
  Dispatcher dispatcher(config);
  Event<void(int64_t, int64_t)> event("Test.Quota", &machine_trap_, nullptr,
                                      &dispatcher);
  auto binding = dispatcher.InstallHandler(event, &Noop,
                                           {.module = &extension_});
  size_t used = dispatcher.quota().Usage(&extension_);
  EXPECT_GT(used, 0u);
  dispatcher.Uninstall(binding, &extension_);
  EXPECT_EQ(dispatcher.quota().Usage(&extension_), 0u);
}


TEST_F(AccessTest, GuardAdditionsCountAgainstQuota) {
  // §2.6: guard storage is charged to the installing module; piling guards
  // onto one binding cannot bypass the budget.
  Dispatcher::Config config;
  config.quota_bytes_per_module = 8192;
  Dispatcher dispatcher(config);
  Event<void(int64_t, int64_t)> event("Test.GuardQuota", &machine_trap_,
                                      nullptr, &dispatcher);
  auto binding = dispatcher.InstallHandler(event, &Noop,
                                           {.module = &extension_});
  static uint64_t cell = 1;
  bool denied = false;
  for (int i = 0; i < 1000; ++i) {
    try {
      dispatcher.AddMicroGuard(binding, micro::GuardGlobalEq(&cell, 1));
    } catch (const InstallError& e) {
      EXPECT_EQ(e.status(), InstallStatus::kQuotaExceeded);
      denied = true;
      break;
    }
  }
  EXPECT_TRUE(denied) << "an 8 KiB budget cannot hold 1000 guards";
  // Removing guards releases the charge and unblocks further additions.
  size_t usage_before = dispatcher.quota().Usage(&extension_);
  dispatcher.RemoveGuard(binding, 0, &extension_);
  EXPECT_LT(dispatcher.quota().Usage(&extension_), usage_before);
  EXPECT_NO_THROW(
      dispatcher.AddMicroGuard(binding, micro::GuardGlobalEq(&cell, 1)));
}

bool PassGuard(int64_t, int64_t) { return true; }

TEST_F(AccessTest, GuardedInstallOverQuotaInstallsNothing) {
  // The binding and its guards are charged once, together: a budget that
  // holds the bare binding but not its guard refuses the whole install.
  Dispatcher dispatcher;
  Event<void(int64_t, int64_t)> event("Test.GuardedQuota", &machine_trap_,
                                      nullptr, &dispatcher);
  auto probe = dispatcher.InstallHandler(event, &Noop,
                                         {.module = &extension_});
  const size_t binding_bytes = dispatcher.quota().Usage(&extension_);
  dispatcher.Uninstall(probe, &extension_);
  dispatcher.quota().SetLimit(binding_bytes);
  static uint64_t cell = 1;
  for (bool micro_guard : {false, true}) {
    SCOPED_TRACE(micro_guard ? "micro guard" : "native guard");
    const uint64_t rebuilds = dispatcher.stats().rebuilds;
    try {
      dispatcher.InstallHandler(
          event, &Noop,
          {.guards = {micro_guard
                          ? MakeMicroGuard(micro::GuardGlobalEq(&cell, 1))
                          : MakeGuard(&PassGuard)},
           .module = &extension_});
      FAIL() << "expected InstallError";
    } catch (const InstallError& e) {
      EXPECT_EQ(e.status(), InstallStatus::kQuotaExceeded);
    }
    EXPECT_EQ(event.handler_count(), 0u);
    EXPECT_EQ(dispatcher.quota().Usage(&extension_), 0u);
    EXPECT_EQ(dispatcher.stats().rebuilds, rebuilds);
  }
  EXPECT_NO_THROW(
      dispatcher.InstallHandler(event, &Noop, {.module = &extension_}));
}

TEST_F(AccessTest, RemoveGuardPastTheEndThrows) {
  // Two modules can each read GuardCount == 1 and then remove guard 0; the
  // second removal names a guard that is gone. It must fail as a reported
  // install error that changes nothing, not end the process.
  Dispatcher::Config config;
  config.quota_bytes_per_module = 8192;
  Dispatcher dispatcher(config);
  Event<void(int64_t, int64_t)> event("Test.RemoveGuard", &machine_trap_,
                                      nullptr, &dispatcher);
  auto binding = dispatcher.InstallHandler(event, &Noop,
                                           {.module = &extension_});
  static uint64_t cell = 1;
  dispatcher.AddMicroGuard(binding, micro::GuardGlobalEq(&cell, 1));
  const size_t guards = dispatcher.GuardCount(binding);
  const size_t usage = dispatcher.quota().Usage(&extension_);
  try {
    dispatcher.RemoveGuard(binding, guards, &extension_);
    FAIL() << "expected InstallError";
  } catch (const InstallError& e) {
    EXPECT_EQ(e.status(), InstallStatus::kNoSuchGuard);
  }
  EXPECT_EQ(dispatcher.GuardCount(binding), guards);
  EXPECT_EQ(dispatcher.quota().Usage(&extension_), usage);
  event.Raise(0, 0);  // the remaining guard still admits the handler
}

// --- EPHEMERAL handlers (§2.6 "Runaway handlers") -------------------------------

void WellBehavedEphemeral(int64_t, int64_t) { CheckTermination(); }

void RunawayEphemeral(int64_t, int64_t) {
  // Spins until terminated; polls as compiler-inserted checks would.
  while (true) {
    CheckTermination();
  }
}

std::atomic<int> g_after_count{0};
void AfterHandler(int64_t, int64_t) { g_after_count.fetch_add(1); }

TEST_F(AccessTest, EphemeralRequiredEnforced) {
  Event<void(int64_t, int64_t)> event("Net.PacketArrived", &machine_trap_,
                                      nullptr, &dispatcher_);
  dispatcher_.RequireEphemeralHandlers(event, 1000000, &machine_trap_);
  try {
    dispatcher_.InstallHandler(event, &Noop, {.module = &extension_});
    FAIL() << "expected InstallError";
  } catch (const InstallError& e) {
    EXPECT_EQ(e.status(), InstallStatus::kEphemeralRequired);
  }
  EXPECT_NO_THROW(dispatcher_.InstallHandler(
      event, &WellBehavedEphemeral,
      {.ephemeral = true, .module = &extension_}));
  event.Raise(0, 0);
}

TEST_F(AccessTest, RunawayEphemeralHandlerTerminated) {
  Event<void(int64_t, int64_t)> event("Net.PacketArrived", &machine_trap_,
                                      nullptr, &dispatcher_);
  dispatcher_.RequireEphemeralHandlers(event, /*budget_ns=*/2000000,
                                       &machine_trap_);
  g_after_count = 0;
  dispatcher_.InstallHandler(event, &RunawayEphemeral,
                             {.ephemeral = true, .module = &extension_});
  dispatcher_.InstallHandler(event, &AfterHandler,
                             {.ephemeral = true, .module = &extension_});
  uint64_t start = NowNs();
  event.Raise(0, 0);  // must return despite the runaway handler
  uint64_t elapsed = NowNs() - start;
  EXPECT_LT(elapsed, 1000000000ull) << "termination must bound the runaway";
  EXPECT_EQ(g_after_count.load(), 1)
      << "termination is localized: later handlers still run";
}

TEST_F(AccessTest, TerminationDoesNotLeakOutsideEphemeralScope) {
  EXPECT_FALSE(InEphemeralScope());
  EXPECT_NO_THROW(CheckTermination());
}

}  // namespace
}  // namespace spin
