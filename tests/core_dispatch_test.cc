// Dispatch semantics tests, parameterized over the execution engine
// (generated code, generated code without micro-inlining, interpreter, and
// the default configuration, which interprets an event until it proves
// hot). Every behaviour must be identical across engines — the paper's
// stub is a specialization of the interpreter's semantics.
#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/dispatcher.h"

namespace spin {
namespace {

enum class Engine { kJit, kJitNoInline, kInterp, kDefault };

std::string EngineName(const ::testing::TestParamInfo<Engine>& info) {
  switch (info.param) {
    case Engine::kJit:
      return "Jit";
    case Engine::kJitNoInline:
      return "JitNoInline";
    case Engine::kInterp:
      return "Interp";
    case Engine::kDefault:
      return "Default";
  }
  return "Bad";
}

class DispatchTest : public ::testing::TestWithParam<Engine> {
 protected:
  DispatchTest() : dispatcher_(MakeConfig()) {}

  static Dispatcher::Config MakeConfig() {
    Dispatcher::Config config;
    switch (GetParam()) {
      case Engine::kJit:
        // Every table generation compiles its stub, so a case that raises
        // a few times still runs generated code.
        config.lazy_compile = false;
        break;
      case Engine::kJitNoInline:
        config.lazy_compile = false;
        config.inline_micro = false;
        break;
      case Engine::kInterp:
        config.enable_jit = false;
        break;
      case Engine::kDefault:
        break;
    }
    return config;
  }

  Module module_{"TestModule"};
  Dispatcher dispatcher_;
};

// --- Shared handler state ---------------------------------------------------

struct Log {
  std::vector<int> order;
  int calls = 0;
  int64_t last_a = 0;
  int64_t last_b = 0;
};
Log g_log;

void Reset() { g_log = Log{}; }

int64_t Add(int64_t a, int64_t b) {
  ++g_log.calls;
  g_log.last_a = a;
  g_log.last_b = b;
  return a + b;
}
int64_t Mul(int64_t a, int64_t b) {
  ++g_log.calls;
  return a * b;
}
bool GuardAlwaysTrue(int64_t, int64_t) { return true; }
bool GuardAlwaysFalse(int64_t, int64_t) { return false; }
bool GuardAPositive(int64_t a, int64_t) { return a > 0; }

void H1(int64_t, int64_t) { g_log.order.push_back(1); }
void H2(int64_t, int64_t) { g_log.order.push_back(2); }
void H3(int64_t, int64_t) { g_log.order.push_back(3); }

// --- Figure 1: procedure call vs event --------------------------------------

TEST_P(DispatchTest, IntrinsicOnlyEventIsAProcedureCall) {
  Reset();
  Event<int64_t(int64_t, int64_t)> event("Test.Add", &module_, &Add,
                                         &dispatcher_);
  // Single intrinsic handler, no guards: the direct-call bypass applies.
  EXPECT_NE(event.direct_fn(), nullptr);
  EXPECT_EQ(event.Raise(2, 3), 5);
  EXPECT_EQ(g_log.calls, 1);
}

TEST_P(DispatchTest, ReplacingTheIntrinsicHandler) {
  // §2.1: "deregister the intrinsic handler and then register an alternate
  // one" is the model for replacing a procedure's implementation.
  Reset();
  Event<int64_t(int64_t, int64_t)> event("Test.Add", &module_, &Add,
                                         &dispatcher_);
  EXPECT_EQ(event.Raise(2, 3), 5);
  dispatcher_.DeregisterIntrinsic(event, &module_);
  auto replacement = dispatcher_.InstallHandler(event, &Mul,
                                                {.module = &module_});
  EXPECT_EQ(event.Raise(2, 3), 6);
  (void)replacement;
}

TEST_P(DispatchTest, NoHandlerThrows) {
  Event<void(int64_t, int64_t)> event("Test.Empty", &module_, nullptr,
                                      &dispatcher_);
  EXPECT_THROW(event.Raise(1, 2), NoHandlerError);
}

TEST_P(DispatchTest, DeregisteredIntrinsicWithNoOtherHandlerThrows) {
  Event<int64_t(int64_t, int64_t)> event("Test.Add", &module_, &Add,
                                         &dispatcher_);
  dispatcher_.DeregisterIntrinsic(event, &module_);
  EXPECT_THROW(event.Raise(1, 2), NoHandlerError);
}

// --- Guards ------------------------------------------------------------------

TEST_P(DispatchTest, GuardGatesHandler) {
  Reset();
  Event<void(int64_t, int64_t)> event("Test.Guarded", &module_, nullptr,
                                      &dispatcher_);
  dispatcher_.InstallHandler(event, &GuardAPositive, &H1,
                             {.module = &module_});
  dispatcher_.InstallHandler(event, &GuardAlwaysTrue, &H2,
                             {.module = &module_});
  event.Raise(5, 0);
  EXPECT_EQ(g_log.order, (std::vector<int>{1, 2}));
  g_log.order.clear();
  event.Raise(-5, 0);
  EXPECT_EQ(g_log.order, (std::vector<int>{2}));
}

TEST_P(DispatchTest, AllGuardsFalseMeansNoHandler) {
  Event<void(int64_t, int64_t)> event("Test.Guarded", &module_, nullptr,
                                      &dispatcher_);
  dispatcher_.InstallHandler(event, &GuardAlwaysFalse, &H1,
                             {.module = &module_});
  EXPECT_THROW(event.Raise(1, 2), NoHandlerError);
}

TEST_P(DispatchTest, MicroGuardAndMicroHandler) {
  // The Table 1 shape: a micro guard comparing a global against a constant
  // and a micro handler.
  static uint64_t gate = 1;
  static uint64_t counter = 0;
  gate = 1;
  counter = 0;
  Event<void(int64_t, int64_t)> event("Test.Micro", &module_, nullptr,
                                      &dispatcher_);
  auto binding = dispatcher_.InstallMicroHandler(
      event, micro::IncrementGlobal(&counter, 2), {.module = &module_});
  dispatcher_.AddMicroGuard(binding, micro::GuardGlobalEq(&gate, 1));
  event.Raise(0, 0);
  EXPECT_EQ(counter, 1u);
  gate = 0;
  EXPECT_THROW(event.Raise(0, 0), NoHandlerError);
  EXPECT_EQ(counter, 1u);
}

// Admits raises whose first argument equals `value`.
micro::Program FirstArgEq(uint64_t value) {
  return std::move(micro::ProgramBuilder(/*num_args=*/2, /*functional=*/true)
                       .LoadArg(0, 0)
                       .LoadImm(1, value)
                       .CmpEq(2, 0, 1)
                       .Ret(2))
      .Build();
}

TEST_P(DispatchTest, MicroBodiesAreCompiledOnlyForOutOfLineStubs) {
  // A stub inlines micro guards and handlers, and the interpreter runs them
  // with micro::Run, so only a stub that calls them out of line needs a
  // compiled body. It is compiled when the guard or handler is admitted.
  static uint64_t gate = 1;
  static uint64_t counter = 0;
  gate = 1;
  counter = 0;
  Reset();
  Event<void(int64_t, int64_t)> event("Test.MicroBodies", &module_, nullptr,
                                      &dispatcher_);
  auto guarded = dispatcher_.InstallHandler(
      event, &H1,
      {.guards = {MakeMicroGuard(micro::GuardGlobalEq(&gate, 1))},
       .module = &module_});
  dispatcher_.AddMicroGuard(guarded, FirstArgEq(7));
  auto counting = dispatcher_.InstallMicroHandler(
      event, micro::IncrementGlobal(&counter, 2), {.module = &module_});

  const bool out_of_line =
      GetParam() == Engine::kJitNoInline && codegen::CodegenAvailable();
  ASSERT_EQ(dispatcher_.GuardCount(guarded), 2u);
  for (const GuardClause& guard : *guarded->guards()) {
    EXPECT_EQ(guard.compiled != nullptr, out_of_line);
  }
  EXPECT_EQ(counting->compiled != nullptr, out_of_line);
  if (out_of_line) {
    EXPECT_NE(dispatcher_.Describe(event).find("generated stub"),
              std::string::npos);
  }

  event.Raise(7, 0);
  EXPECT_EQ(g_log.order, (std::vector<int>{1}));
  event.Raise(8, 0);
  gate = 0;
  event.Raise(7, 0);
  EXPECT_EQ(g_log.order, (std::vector<int>{1}));
  EXPECT_EQ(counter, 3u);
}

TEST_P(DispatchTest, AddGuardAfterInstallRestrictsFurther) {
  // §2.1: "additional guards can be added to further restrict when the
  // handler can run."
  Reset();
  Event<void(int64_t, int64_t)> event("Test.AddGuard", &module_, nullptr,
                                      &dispatcher_);
  auto binding = dispatcher_.InstallHandler(event, &H1,
                                            {.module = &module_});
  dispatcher_.InstallHandler(event, &H2, {.module = &module_});
  event.Raise(-1, 0);
  EXPECT_EQ(g_log.order, (std::vector<int>{1, 2}));
  g_log.order.clear();
  dispatcher_.AddGuard(event, binding, &GuardAPositive);
  event.Raise(-1, 0);
  EXPECT_EQ(g_log.order, (std::vector<int>{2}));
}

// --- Closures ----------------------------------------------------------------

struct Closure {
  int64_t bias;
};

int64_t AddWithBias(Closure* closure, int64_t a, int64_t b) {
  return a + b + closure->bias;
}

TEST_P(DispatchTest, ClosurePassedAsFirstArgument) {
  Event<int64_t(int64_t, int64_t)> event("Test.Closure", &module_, nullptr,
                                         &dispatcher_);
  Closure closure{100};
  dispatcher_.InstallHandler(event, &AddWithBias, &closure,
                             {.module = &module_});
  EXPECT_EQ(event.Raise(2, 3), 105);
}

TEST_P(DispatchTest, SameHandlerManyInstallsDistinctClosures) {
  // §2.1: "The same handler can be installed many times on many events, and
  // is invoked independently for each of the installations."
  Event<int64_t(int64_t, int64_t)> event("Test.Multi", &module_, nullptr,
                                         &dispatcher_);
  dispatcher_.SetResultPolicy(event, ResultPolicy::kSum);
  Closure c1{10};
  Closure c2{20};
  dispatcher_.InstallHandler(event, &AddWithBias, &c1, {.module = &module_});
  dispatcher_.InstallHandler(event, &AddWithBias, &c2, {.module = &module_});
  EXPECT_EQ(event.Raise(1, 1), (1 + 1 + 10) + (1 + 1 + 20));
}

TEST_P(DispatchTest, LambdaHandler) {
  Event<int64_t(int64_t, int64_t)> event("Test.Lambda", &module_, nullptr,
                                         &dispatcher_);
  int64_t captured = 7;
  dispatcher_.InstallLambda(
      event, [captured](int64_t a, int64_t b) { return a * b + captured; },
      {.module = &module_});
  EXPECT_EQ(event.Raise(3, 4), 19);
}

// --- Results (§2.3 "Handling results") ---------------------------------------

bool BoolHandlerTrue(int64_t, int64_t) { return true; }
bool BoolHandlerFalse(int64_t, int64_t) { return false; }

TEST_P(DispatchTest, SingleHandlerResultPassedThrough) {
  Event<int64_t(int64_t, int64_t)> event("Test.Result", &module_, &Add,
                                         &dispatcher_);
  EXPECT_EQ(event.Raise(40, 2), 42);
}

TEST_P(DispatchTest, LogicalOrPolicy) {
  // The VM.PageFault shape: boolean result, logical-or fold.
  Event<bool(int64_t, int64_t)> event("Test.Or", &module_, nullptr,
                                      &dispatcher_);
  dispatcher_.SetResultPolicy(event, ResultPolicy::kOr);
  dispatcher_.InstallHandler(event, &BoolHandlerFalse, {.module = &module_});
  dispatcher_.InstallHandler(event, &BoolHandlerTrue, {.module = &module_});
  dispatcher_.InstallHandler(event, &BoolHandlerFalse, {.module = &module_});
  EXPECT_TRUE(event.Raise(0, 0));
}

TEST_P(DispatchTest, AndPolicy) {
  Event<bool(int64_t, int64_t)> event("Test.And", &module_, nullptr,
                                      &dispatcher_);
  dispatcher_.SetResultPolicy(event, ResultPolicy::kAnd);
  dispatcher_.InstallHandler(event, &BoolHandlerTrue, {.module = &module_});
  dispatcher_.InstallHandler(event, &BoolHandlerTrue, {.module = &module_});
  EXPECT_TRUE(event.Raise(0, 0));
  dispatcher_.InstallHandler(event, &BoolHandlerFalse, {.module = &module_});
  EXPECT_FALSE(event.Raise(0, 0));
}

TEST_P(DispatchTest, SumPolicyAndLastPolicy) {
  Event<int64_t(int64_t, int64_t)> event("Test.Sum", &module_, nullptr,
                                         &dispatcher_);
  dispatcher_.InstallHandler(event, &Add, {.module = &module_});
  dispatcher_.InstallHandler(event, &Mul, {.module = &module_});
  // Default policy is kLast.
  EXPECT_EQ(event.Raise(3, 4), 12);
  dispatcher_.SetResultPolicy(event, ResultPolicy::kSum);
  EXPECT_EQ(event.Raise(3, 4), 7 + 12);
}

int64_t MaxFold(int64_t result, int64_t current, uint32_t index) {
  if (index == 0) {
    return result;
  }
  return result > current ? result : current;
}

TEST_P(DispatchTest, CustomResultHandler) {
  Event<int64_t(int64_t, int64_t)> event("Test.Max", &module_, nullptr,
                                         &dispatcher_);
  dispatcher_.InstallHandler(event, &Add, {.module = &module_});  // 3+4=7
  dispatcher_.InstallHandler(event, &Mul, {.module = &module_});  // 12
  dispatcher_.SetResultHandler(event, &MaxFold);
  EXPECT_EQ(event.Raise(3, 4), 12);
  EXPECT_EQ(event.Raise(-3, -4), -3 + -4 > 12 ? -7 : 12);
}

int64_t DefaultFortyTwo(int64_t, int64_t) { return 42; }

TEST_P(DispatchTest, DefaultHandlerRunsWhenNothingFires) {
  Reset();
  Event<int64_t(int64_t, int64_t)> event("Test.Default", &module_, nullptr,
                                         &dispatcher_);
  dispatcher_.InstallDefaultHandler(event, &DefaultFortyTwo,
                                    {.module = &module_});
  EXPECT_EQ(event.Raise(1, 2), 42);
  // Once a real handler exists, the default no longer runs.
  dispatcher_.InstallHandler(event, &Add, {.module = &module_});
  EXPECT_EQ(event.Raise(1, 2), 3);
}

// --- Ordering (§2.3 "Ordering handlers") --------------------------------------

TEST_P(DispatchTest, FirstAndLastConstraints) {
  Reset();
  Event<void(int64_t, int64_t)> event("Test.Order", &module_, nullptr,
                                      &dispatcher_);
  dispatcher_.InstallHandler(event, &H2, {.module = &module_});
  dispatcher_.InstallHandler(event, &H1,
                             {.order = {OrderKind::kFirst}, .module = &module_});
  dispatcher_.InstallHandler(event, &H3,
                             {.order = {OrderKind::kLast}, .module = &module_});
  event.Raise(0, 0);
  EXPECT_EQ(g_log.order, (std::vector<int>{1, 2, 3}));
}

TEST_P(DispatchTest, BeforeAndAfterConstraints) {
  Reset();
  Event<void(int64_t, int64_t)> event("Test.Order", &module_, nullptr,
                                      &dispatcher_);
  auto b2 = dispatcher_.InstallHandler(event, &H2, {.module = &module_});
  dispatcher_.InstallHandler(
      event, &H1, {.order = {OrderKind::kBefore, b2}, .module = &module_});
  dispatcher_.InstallHandler(
      event, &H3, {.order = {OrderKind::kAfter, b2}, .module = &module_});
  event.Raise(0, 0);
  EXPECT_EQ(g_log.order, (std::vector<int>{1, 2, 3}));
}

TEST_P(DispatchTest, OrderingConstraintsAreQueryableAndChangeable) {
  Reset();
  Event<void(int64_t, int64_t)> event("Test.Order", &module_, nullptr,
                                      &dispatcher_);
  auto b1 = dispatcher_.InstallHandler(event, &H1, {.module = &module_});
  auto b2 = dispatcher_.InstallHandler(event, &H2, {.module = &module_});
  EXPECT_EQ(dispatcher_.GetOrder(b1).kind, OrderKind::kUnordered);
  dispatcher_.SetOrder(b1, {OrderKind::kLast});
  EXPECT_EQ(dispatcher_.GetOrder(b1).kind, OrderKind::kLast);
  dispatcher_.SetOrder(b1, {OrderKind::kAfter, b2});
  Order order = dispatcher_.GetOrder(b1);
  EXPECT_EQ(order.kind, OrderKind::kAfter);
  EXPECT_EQ(order.ref, b2);
  event.Raise(0, 0);
  EXPECT_EQ(g_log.order, (std::vector<int>{2, 1}));
}

// Two bindings ordered against each other must not keep each other alive
// once their event and every table that listed them are gone.
TEST_P(DispatchTest, BindingsOrderedAgainstEachOtherAreFreed) {
  std::weak_ptr<Binding> w1;
  std::weak_ptr<Binding> w2;
  {
    Event<void(int64_t, int64_t)> event("Test.Order", &module_, nullptr,
                                        &dispatcher_);
    auto b1 = dispatcher_.InstallHandler(event, &H1, {.module = &module_});
    auto b2 = dispatcher_.InstallHandler(
        event, &H2, {.order = {OrderKind::kAfter, b1}, .module = &module_});
    dispatcher_.SetOrder(b1, {OrderKind::kBefore, b2});
    w1 = b1;
    w2 = b2;
  }
  dispatcher_.epoch().Synchronize();
  EXPECT_TRUE(w1.expired());
  EXPECT_TRUE(w2.expired());
}

TEST_P(DispatchTest, BadOrderingReferenceRejected) {
  Event<void(int64_t, int64_t)> event_a("Test.A", &module_, nullptr,
                                        &dispatcher_);
  Event<void(int64_t, int64_t)> event_b("Test.B", &module_, nullptr,
                                        &dispatcher_);
  auto on_a = dispatcher_.InstallHandler(event_a, &H1, {.module = &module_});
  try {
    dispatcher_.InstallHandler(
        event_b, &H2, {.order = {OrderKind::kBefore, on_a},
                       .module = &module_});
    FAIL() << "expected InstallError";
  } catch (const InstallError& e) {
    EXPECT_EQ(e.status(), InstallStatus::kBadOrderingReference);
  }
}

// --- Filters (§2.3 "Passing arguments") ---------------------------------------

void DoubleFirstArg(int64_t& a, int64_t) { a *= 2; }

TEST_P(DispatchTest, FilterMutatesDownstreamNotRaiser) {
  Reset();
  Event<void(int64_t, int64_t)> event("Test.Filter", &module_, nullptr,
                                      &dispatcher_);
  dispatcher_.InstallFilter(event, &DoubleFirstArg, {.module = &module_});
  dispatcher_.InstallHandler(event, &GuardAlwaysTrue,
                             +[](int64_t a, int64_t b) {
                               ++g_log.calls;
                               g_log.last_a = a;
                               g_log.last_b = b;
                             },
                             {.module = &module_});
  int64_t a = 21;
  event.Raise(a, 5);
  EXPECT_EQ(g_log.last_a, 42) << "downstream handler sees the filtered value";
  EXPECT_EQ(a, 21) << "the raiser's argument is preserved (copy semantics)";
}

TEST_P(DispatchTest, FiltersStack) {
  Reset();
  Event<void(int64_t, int64_t)> event("Test.Filter2", &module_, nullptr,
                                      &dispatcher_);
  dispatcher_.InstallFilter(event, &DoubleFirstArg, {.module = &module_});
  dispatcher_.InstallFilter(event, &DoubleFirstArg, {.module = &module_});
  dispatcher_.InstallHandler(event, +[](int64_t a, int64_t) {
                               g_log.last_a = a;
                             },
                             {.module = &module_});
  event.Raise(10, 0);
  EXPECT_EQ(g_log.last_a, 40);
}

// --- VAR (event-level by-ref) parameters --------------------------------------

struct SavedState {
  int64_t v0;
  int64_t result;
};

void SyscallHandler(int64_t strand, SavedState& state) {
  (void)strand;
  state.result = state.v0 * 10;
}

TEST_P(DispatchTest, ByRefParameterSharedWithHandlers) {
  Event<void(int64_t, SavedState&)> event("Test.Syscall", &module_, nullptr,
                                          &dispatcher_);
  dispatcher_.InstallHandler(event, &SyscallHandler, {.module = &module_});
  SavedState state{7, 0};
  event.Raise(1, state);
  EXPECT_EQ(state.result, 70) << "VAR parameters mutate the raiser's object";
}

// --- Uninstall -----------------------------------------------------------------

TEST_P(DispatchTest, UninstallRemovesHandler) {
  Reset();
  Event<void(int64_t, int64_t)> event("Test.Uninstall", &module_, nullptr,
                                      &dispatcher_);
  auto b1 = dispatcher_.InstallHandler(event, &H1, {.module = &module_});
  dispatcher_.InstallHandler(event, &H2, {.module = &module_});
  event.Raise(0, 0);
  dispatcher_.Uninstall(b1, &module_);
  event.Raise(0, 0);
  EXPECT_EQ(g_log.order, (std::vector<int>{1, 2, 2}));
}

TEST_P(DispatchTest, DoubleUninstallRejected) {
  Event<void(int64_t, int64_t)> event("Test.Uninstall2", &module_, nullptr,
                                      &dispatcher_);
  auto binding = dispatcher_.InstallHandler(event, &H1, {.module = &module_});
  dispatcher_.Uninstall(binding, &module_);
  EXPECT_THROW(dispatcher_.Uninstall(binding, &module_), InstallError);
}

// --- Typechecking (§2.4) --------------------------------------------------------

TEST_P(DispatchTest, ClosureSubtypeEnforced) {
  struct BaseClosure {};
  struct Unrelated {};
  Event<int64_t(int64_t, int64_t)> event("Test.Sub", &module_, nullptr,
                                         &dispatcher_);
  int64_t (*handler)(BaseClosure*, int64_t, int64_t) =
      +[](BaseClosure*, int64_t a, int64_t b) { return a + b; };
  // Installing with an unrelated closure type must fail the subtype check.
  int64_t (*bad)(Unrelated*, int64_t, int64_t) =
      +[](Unrelated*, int64_t a, int64_t b) { return a + b; };
  (void)bad;
  BaseClosure base;
  EXPECT_NO_THROW(
      dispatcher_.InstallHandler(event, handler, &base, {.module = &module_}));
  // A mismatched closure pointer type would not compile against `handler`;
  // the runtime check matters for the subtype lattice, covered in
  // types_test. Here we check that the fast path still dispatches.
  EXPECT_EQ(event.Raise(1, 2), 3);
}

// --- Handler counts / stats -----------------------------------------------------

TEST_P(DispatchTest, HandlerAndGuardCounts) {
  Event<void(int64_t, int64_t)> event("Test.Counts", &module_, nullptr,
                                      &dispatcher_);
  dispatcher_.InstallHandler(event, &GuardAlwaysTrue, &H1,
                             {.module = &module_});
  dispatcher_.InstallHandler(event, &H2, {.module = &module_});
  EXPECT_EQ(event.handler_count(), 2u);
  EXPECT_EQ(event.guard_count(), 1u);
}

TEST_P(DispatchTest, StatsTrackTableKinds) {
  Dispatcher::Stats before = dispatcher_.stats();
  Event<int64_t(int64_t, int64_t)> event("Test.Stats", &module_, &Add,
                                         &dispatcher_);
  dispatcher_.InstallHandler(event, &GuardAlwaysTrue, &Mul,
                             {.module = &module_});
  Dispatcher::Stats after = dispatcher_.stats();
  EXPECT_GT(after.rebuilds, before.rebuilds);
  const bool eager_jit =
      (GetParam() == Engine::kJit || GetParam() == Engine::kJitNoInline) &&
      codegen::CodegenAvailable();
  if (eager_jit) {
    EXPECT_GT(after.stub_compiles, before.stub_compiles);
  } else {
    // The default configuration compiles nothing for an event that has
    // not been raised.
    EXPECT_EQ(after.stub_compiles, before.stub_compiles);
  }
}

// --- 50 handlers (Table 1 scale) -------------------------------------------------

TEST_P(DispatchTest, FiftyHandlersAllFireInOrder) {
  Reset();
  Event<int64_t(int64_t, int64_t)> event("Test.Fifty", &module_, nullptr,
                                         &dispatcher_);
  dispatcher_.SetResultPolicy(event, ResultPolicy::kSum);
  for (int i = 0; i < 50; ++i) {
    dispatcher_.InstallHandler(event, &Add, {.module = &module_});
  }
  EXPECT_EQ(event.handler_count(), 50u);
  EXPECT_EQ(event.Raise(1, 1), 100);
}


// --- Wide signatures (JIT register-argument limits) ---------------------------

int64_t Sum6(int64_t a, int64_t b, int64_t c, int64_t d, int64_t e,
             int64_t f) {
  return a + b + c + d + e + f;
}

struct Bias {
  int64_t bias;
};

int64_t Sum5WithClosure(Bias* bias, int64_t a, int64_t b, int64_t c,
                        int64_t d, int64_t e) {
  return bias->bias + a + b + c + d + e;
}

TEST_P(DispatchTest, SixArgEventDispatches) {
  // Six integer args: the JIT's register limit without closures.
  Event<int64_t(int64_t, int64_t, int64_t, int64_t, int64_t, int64_t)>
      event("Test.Six", &module_, nullptr, &dispatcher_);
  dispatcher_.InstallHandler(event, &Sum6, {.module = &module_});
  dispatcher_.InstallHandler(event, &Sum6, {.module = &module_});
  dispatcher_.SetResultPolicy(event, ResultPolicy::kSum);
  EXPECT_EQ(event.Raise(1, 2, 3, 4, 5, 6), 2 * 21);
}

TEST_P(DispatchTest, FiveArgsPlusClosureShiftsCorrectly) {
  // Five args + closure: every SysV argument register in use.
  Event<int64_t(int64_t, int64_t, int64_t, int64_t, int64_t)> event(
      "Test.FivePlus", &module_, nullptr, &dispatcher_);
  Bias bias{1000};
  dispatcher_.InstallHandler(event, &Sum5WithClosure, &bias,
                             {.module = &module_});
  EXPECT_EQ(event.Raise(1, 2, 3, 4, 5), 1015);
}

TEST_P(DispatchTest, SixArgsPlusClosureFallsBackToInterpreter) {
  // Seven register args would be needed: the planner must decline the JIT
  // and dispatch through the interpreter with identical semantics.
  Event<int64_t(int64_t, int64_t, int64_t, int64_t, int64_t, int64_t)>
      event("Test.SixPlus", &module_, nullptr, &dispatcher_);
  Bias bias{1};
  int64_t (*handler)(Bias*, int64_t, int64_t, int64_t, int64_t, int64_t,
                     int64_t) =
      +[](Bias* b, int64_t a1, int64_t a2, int64_t a3, int64_t a4,
          int64_t a5, int64_t a6) {
        return b->bias + a1 + a2 + a3 + a4 + a5 + a6;
      };
  dispatcher_.InstallHandler(event, handler, &bias, {.module = &module_});
  EXPECT_EQ(event.Raise(1, 2, 3, 4, 5, 6), 22);
}

TEST_P(DispatchTest, DoubleParametersDispatchViaInterpreter) {
  // kFloat64 parameters are JIT-ineligible (SSE registers); semantics must
  // be preserved through the fallback.
  Event<double(double, double)> event("Test.Doubles", &module_, nullptr,
                                      &dispatcher_);
  dispatcher_.InstallLambda(event, [](double a, double b) { return a * b; },
                            {.module = &module_});
  EXPECT_DOUBLE_EQ(event.Raise(2.5, 4.0), 10.0);
}

// --- Shape-shared stubs ------------------------------------------------------
// A stub reads its targets from its table's operands, so events of one
// shape share one compiled stub and each still runs its own handlers.

template <int K>
int64_t AddToFirst(int64_t& a, int64_t) {
  a += K;
  return 0;
}

bool AtLeast(Closure* floor, int64_t a, int64_t) { return a >= floor->bias; }

// A closure-form micro guard: admits when the (filtered) first argument
// equals the closure's bias.
GuardClause FirstArgIsClosureBias(Closure* closure) {
  GuardClause guard = MakeMicroGuard(
      std::move(micro::ProgramBuilder(/*num_args=*/3, /*functional=*/true)
                    .LoadArg(0, 0)
                    .LoadField(0, 0, offsetof(Closure, bias), 8)
                    .LoadArg(1, 1)
                    .CmpEq(2, 0, 1)
                    .Ret(2))
          .Build());
  guard.closure = closure;
  guard.closure_form = true;
  return guard;
}

struct PortHeader {
  uint64_t port;
};

int64_t PortHandler(Closure* closure, PortHeader*, int64_t b) {
  return closure->bias + b;
}

TEST_P(DispatchTest, EventsOfOneShapeShareOneStub) {
  const bool eager_jit =
      (GetParam() == Engine::kJit || GetParam() == Engine::kJitNoInline) &&
      codegen::CodegenAvailable();
  dispatcher_.epoch().Synchronize();
  const size_t mapped_at_start = codegen::CodeBuffer::TotalMappedBytes();
  {
    using Sig = int64_t(int64_t, int64_t);
    constexpr int kEvents = 3;
    std::vector<std::unique_ptr<Event<Sig>>> events;
    Closure floor[kEvents], bias[kEvents], want[kEvents], bias2[kEvents];
    for (int k = 0; k < kEvents; ++k) {
      events.push_back(std::make_unique<Event<Sig>>(
          "Test.Shape" + std::to_string(k), &module_, nullptr, &dispatcher_));
      dispatcher_.SetResultPolicy(*events[k], ResultPolicy::kSum, &module_);
      floor[k] = {k};
      bias[k] = {100 * (k + 1)};
      want[k] = {10 + k};
      bias2[k] = {1000 * (k + 1)};
    }
    int64_t (*const filters[kEvents])(int64_t&, int64_t) = {
        &AddToFirst<1>, &AddToFirst<2>, &AddToFirst<3>};
    // The events change in lockstep, so each generation's shape is live on
    // the first event when the others reach it: one compile per step.
    const std::vector<std::function<void(int)>> steps = {
        [&](int k) {
          dispatcher_.InstallFilter(*events[k], filters[k],
                                    {.module = &module_});
        },
        [&](int k) {
          dispatcher_.InstallHandler(
              *events[k], &AddWithBias, &bias[k],
              {.guards = {MakeGuard(&AtLeast, &floor[k])},
               .module = &module_});
        },
        [&](int k) {
          dispatcher_.InstallHandler(
              *events[k], &AddWithBias, &bias2[k],
              {.guards = {FirstArgIsClosureBias(&want[k])},
               .module = &module_});
        },
    };
    for (const auto& step : steps) {
      const uint64_t compiles = dispatcher_.stats().stub_compiles;
      for (int k = 0; k < kEvents; ++k) {
        step(k);
      }
      if (eager_jit) {
        EXPECT_EQ(dispatcher_.stats().stub_compiles, compiles + 1);
      }
    }
    for (int k = 0; k < kEvents; ++k) {
      if (eager_jit) {
        EXPECT_NE(dispatcher_.Describe(*events[k]).find("generated stub"),
                  std::string::npos);
      }
      for (int64_t a = -2; a <= 14; ++a) {
        const int64_t filtered = a + k + 1;
        int64_t expected = 0;
        if (filtered >= floor[k].bias) {
          expected += filtered + 5 + bias[k].bias;
        }
        if (filtered == want[k].bias) {
          expected += filtered + 5 + bias2[k].bias;
        }
        EXPECT_EQ(events[k]->Raise(a, 5), expected)
            << "event " << k << " a=" << a;
      }
    }

    // A shape no live table has compiles; the next event to reach it
    // shares the stub.
    const uint64_t compiles = dispatcher_.stats().stub_compiles;
    dispatcher_.InstallHandler(*events[0], &Mul, {.module = &module_});
    dispatcher_.InstallHandler(*events[1], &Add, {.module = &module_});
    if (eager_jit) {
      EXPECT_EQ(dispatcher_.stats().stub_compiles, compiles + 1);
    }
    EXPECT_EQ(events[0]->Raise(-10, 3), (-10 + 1) * 3);
    EXPECT_EQ(events[1]->Raise(-10, 3), (-10 + 2) + 3);

    // A guard decision tree: the tree's field and constants are shape,
    // the handlers' closures are operands.
    Dispatcher::Config config = MakeConfig();
    config.guard_tree = true;
    Dispatcher tree_dispatcher(config);
    using PortSig = int64_t(PortHeader*, int64_t);
    std::vector<std::unique_ptr<Event<PortSig>>> ports;
    Closure port_bias[kEvents][4];
    for (int k = 0; k < kEvents; ++k) {
      ports.push_back(std::make_unique<Event<PortSig>>(
          "Test.Ports" + std::to_string(k), &module_, nullptr,
          &tree_dispatcher));
    }
    for (int i = 0; i < 4; ++i) {
      const uint64_t compiles_before = tree_dispatcher.stats().stub_compiles;
      for (int k = 0; k < kEvents; ++k) {
        port_bias[k][i] = {100 * k + i};
        tree_dispatcher.InstallHandler(
            *ports[k], &PortHandler, &port_bias[k][i],
            {.guards = {MakeMicroGuard(micro::GuardArgFieldEq(
                 2, 0, offsetof(PortHeader, port), 8, ~0ull,
                 static_cast<uint64_t>(80 + i)))},
             .module = &module_});
      }
      if (eager_jit) {
        EXPECT_EQ(tree_dispatcher.stats().stub_compiles, compiles_before + 1);
      }
    }
    if (eager_jit) {
      EXPECT_EQ(tree_dispatcher.stats().tree_tables, 1u * kEvents);
    }
    for (int k = 0; k < kEvents; ++k) {
      for (uint64_t port = 78; port < 86; ++port) {
        PortHeader header{port};
        if (port >= 80 && port < 84) {
          EXPECT_EQ(ports[k]->Raise(&header, 7),
                    port_bias[k][port - 80].bias + 7)
              << "event " << k << " port " << port;
        } else {
          EXPECT_THROW(ports[k]->Raise(&header, 7), NoHandlerError);
        }
      }
    }
  }
  // Every stub's code is freed once the epoch reclaims its last table.
  dispatcher_.epoch().Synchronize();
  EXPECT_EQ(codegen::CodeBuffer::TotalMappedBytes(), mapped_at_start);
}

INSTANTIATE_TEST_SUITE_P(Engines, DispatchTest,
                         ::testing::Values(Engine::kJit, Engine::kJitNoInline,
                                           Engine::kInterp, Engine::kDefault),
                         EngineName);

}  // namespace
}  // namespace spin
