// Differential and semantic tests for the runtime code generator:
//  - CompileMicro(p) must agree with the interpreter on randomized programs,
//  - CompileStub must implement guard gating, closure passing, filter by-ref
//    argument slots, result folding, and fired counting.
#include <cstring>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "src/codegen/stub_compiler.h"
#include "src/micro/interp.h"
#include "src/micro/program.h"
#include "x86_disasm.h"

namespace spin {
namespace codegen {
namespace {

using micro::Insn;
using micro::Op;
using micro::Program;
using micro::ProgramBuilder;

class JitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!CodegenAvailable()) {
      GTEST_SKIP() << "codegen unavailable on this host";
    }
  }
};

// Disassembles a stub's emitted bytes, one instruction per line.
std::string Listing(const CompiledStub& stub) {
  const auto* code = static_cast<const uint8_t*>(
      reinterpret_cast<const void*>(stub.entry()));
  std::string listing;
  EXPECT_TRUE(testdisasm::Disassemble(code, stub.code_size(), &listing))
      << listing;
  return listing;
}

// Runs `stub` with the operands of `spec`.
void CallStub(const CompiledStub& stub, const StubSpec& spec,
              RaiseFrame& frame) {
  std::vector<uint64_t> operands = StubOperands(spec);
  stub.entry()(&frame, operands.data());
}

uint64_t CallMicro(const CompiledMicro& compiled, const uint64_t* args,
                   int n) {
  switch (n) {
    case 0:
      return reinterpret_cast<uint64_t (*)()>(compiled.entry())();
    case 1:
      return reinterpret_cast<uint64_t (*)(uint64_t)>(compiled.entry())(
          args[0]);
    case 2:
      return reinterpret_cast<uint64_t (*)(uint64_t, uint64_t)>(
          compiled.entry())(args[0], args[1]);
    case 3:
      return reinterpret_cast<uint64_t (*)(uint64_t, uint64_t, uint64_t)>(
          compiled.entry())(args[0], args[1], args[2]);
    default:
      return reinterpret_cast<uint64_t (*)(uint64_t, uint64_t, uint64_t,
                                           uint64_t)>(compiled.entry())(
          args[0], args[1], args[2], args[3]);
  }
}

TEST_F(JitTest, CompileMicroGuardGlobalEq) {
  uint64_t global = 5;
  Program guard = micro::GuardGlobalEq(&global, 5);
  auto compiled = CompileMicro(guard);
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(CallMicro(*compiled, nullptr, 0), 1u);
  global = 6;
  EXPECT_EQ(CallMicro(*compiled, nullptr, 0), 0u);
}

TEST_F(JitTest, CompileMicroWithArgsAndJumps) {
  // if (a == 0) return 100; else return a + b;
  ProgramBuilder b(2, true);
  b.LoadArg(0, 0);
  b.LoadArg(1, 1);
  size_t jz = b.Jz(0);
  b.Add(2, 0, 1);
  b.Ret(2);
  b.PatchJumpTarget(jz);
  b.RetImm(100);
  Program p = std::move(b).Build();
  ASSERT_EQ(p.Validate(), micro::ValidateStatus::kOk);
  auto compiled = CompileMicro(p);
  ASSERT_NE(compiled, nullptr);
  uint64_t args1[2] = {0, 9};
  uint64_t args2[2] = {4, 9};
  EXPECT_EQ(CallMicro(*compiled, args1, 2), 100u);
  EXPECT_EQ(CallMicro(*compiled, args2, 2), 13u);
}

TEST_F(JitTest, CompileMicroStores) {
  uint64_t cell = 3;
  Program p = micro::IncrementGlobal(&cell, 0);
  auto compiled = CompileMicro(p);
  ASSERT_NE(compiled, nullptr);
  CallMicro(*compiled, nullptr, 0);
  CallMicro(*compiled, nullptr, 0);
  EXPECT_EQ(cell, 5u);
}

// Property test: random straight-line-with-forward-jump programs agree
// between the interpreter and the JIT, optimized and unoptimized.
class JitDifferentialTest : public JitTest,
                            public ::testing::WithParamInterface<int> {};

Program RandomProgram(std::mt19937_64& rng, int num_args,
                      uint64_t* scratch_cell) {
  std::vector<Insn> code;
  int len = 3 + static_cast<int>(rng() % 12);
  for (int i = 0; i < len; ++i) {
    Insn insn;
    switch (rng() % 12) {
      case 0:
        insn = {Op::kLoadArg, static_cast<uint8_t>(rng() % 8), 0, 0,
                rng() % num_args};
        break;
      case 1:
        insn = {Op::kLoadImm, static_cast<uint8_t>(rng() % 8), 0, 0, rng()};
        break;
      case 2:
        insn = {Op::kAdd, static_cast<uint8_t>(rng() % 8),
                static_cast<uint8_t>(rng() % 8),
                static_cast<uint8_t>(rng() % 8), 0};
        break;
      case 3:
        insn = {Op::kSub, static_cast<uint8_t>(rng() % 8),
                static_cast<uint8_t>(rng() % 8),
                static_cast<uint8_t>(rng() % 8), 0};
        break;
      case 4:
        insn = {Op::kXor, static_cast<uint8_t>(rng() % 8),
                static_cast<uint8_t>(rng() % 8),
                static_cast<uint8_t>(rng() % 8), 0};
        break;
      case 5:
        insn = {Op::kAnd, static_cast<uint8_t>(rng() % 8),
                static_cast<uint8_t>(rng() % 8),
                static_cast<uint8_t>(rng() % 8), 0};
        break;
      case 6:
        insn = {Op::kCmpEq, static_cast<uint8_t>(rng() % 8),
                static_cast<uint8_t>(rng() % 8),
                static_cast<uint8_t>(rng() % 8), 0};
        break;
      case 7:
        insn = {Op::kCmpLtS, static_cast<uint8_t>(rng() % 8),
                static_cast<uint8_t>(rng() % 8),
                static_cast<uint8_t>(rng() % 8), 0};
        break;
      case 8:
        insn = {Op::kShlImm, static_cast<uint8_t>(rng() % 8),
                static_cast<uint8_t>(rng() % 8), 0, rng() % 64};
        break;
      case 9:
        insn = {Op::kShrImm, static_cast<uint8_t>(rng() % 8),
                static_cast<uint8_t>(rng() % 8), 0, rng() % 64};
        break;
      case 10:
        insn = {Op::kLoadGlobal, static_cast<uint8_t>(rng() % 8), 0,
                static_cast<uint8_t>(rng() % 4),
                reinterpret_cast<uintptr_t>(scratch_cell)};
        break;
      default:
        insn = {Op::kMov, static_cast<uint8_t>(rng() % 8),
                static_cast<uint8_t>(rng() % 8), 0, 0};
        break;
    }
    code.push_back(insn);
  }
  // Insert a forward jump over one instruction occasionally.
  if (rng() % 2 == 0 && code.size() >= 2) {
    size_t at = rng() % (code.size() - 1);
    code.insert(code.begin() + at,
                Insn{Op::kJz, 0, static_cast<uint8_t>(rng() % 8), 0,
                     at + 2 + rng() % (code.size() - at)});
  }
  code.push_back(Insn{Op::kRet, 0, static_cast<uint8_t>(rng() % 8), 0, 0});
  return Program(std::move(code), num_args, /*functional=*/false);
}

TEST_P(JitDifferentialTest, InterpreterMatchesJit) {
  std::mt19937_64 rng(GetParam());
  uint64_t scratch = rng();
  for (int trial = 0; trial < 200; ++trial) {
    Program p = RandomProgram(rng, 3, &scratch);
    if (p.Validate() != micro::ValidateStatus::kOk) {
      continue;  // rare: random jump landed out of range
    }
    for (bool optimize : {false, true}) {
      auto compiled = CompileMicro(p, optimize);
      ASSERT_NE(compiled, nullptr);
      for (int run = 0; run < 4; ++run) {
        uint64_t args[3] = {rng(), rng() % 16, rng()};
        uint64_t want = micro::Run(p, args, 3);
        uint64_t got = CallMicro(*compiled, args, 3);
        ASSERT_EQ(got, want)
            << "optimize=" << optimize << " trial=" << trial << "\n"
            << p.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Dispatch stub semantics ------------------------------------------------

struct CallLog {
  int guard_calls = 0;
  int handler_calls = 0;
  uint64_t last_a = 0;
  uint64_t last_b = 0;
};

CallLog g_log;

bool GuardTrue(uint64_t, uint64_t) {
  ++g_log.guard_calls;
  return true;
}
bool GuardFalse(uint64_t, uint64_t) {
  ++g_log.guard_calls;
  return false;
}
uint64_t Handler2(uint64_t a, uint64_t b) {
  ++g_log.handler_calls;
  g_log.last_a = a;
  g_log.last_b = b;
  return a + b;
}
uint64_t HandlerWithClosure(void* closure, uint64_t a, uint64_t b) {
  ++g_log.handler_calls;
  return a + b + *static_cast<uint64_t*>(closure);
}
void FilterDouble(uint64_t* a, uint64_t b) {
  ++g_log.handler_calls;
  (void)b;
  *a *= 2;
}
bool BoolHandler(uint64_t a, uint64_t) { return a != 0; }

TEST_F(JitTest, StubCallsHandlerWithArgs) {
  g_log = {};
  StubSpec spec;
  spec.num_args = 2;
  spec.policy = ResultPolicy::kLast;
  BindingSpec binding;
  binding.handler.fn = reinterpret_cast<void*>(&Handler2);
  spec.bindings.push_back(binding);
  auto stub = CompileStub(spec);
  ASSERT_NE(stub, nullptr);

  RaiseFrame frame;
  frame.args[0] = 30;
  frame.args[1] = 12;
  CallStub(*stub, spec, frame);
  EXPECT_EQ(frame.fired, 1u);
  EXPECT_EQ(frame.result, 42u);
  EXPECT_EQ(g_log.handler_calls, 1);
  EXPECT_EQ(g_log.last_a, 30u);
  EXPECT_EQ(g_log.last_b, 12u);
}

TEST_F(JitTest, StubGuardGatesHandler) {
  g_log = {};
  StubSpec spec;
  spec.num_args = 2;
  spec.policy = ResultPolicy::kLast;
  BindingSpec pass;
  pass.guards.push_back({.fn = reinterpret_cast<void*>(&GuardTrue)});
  pass.handler.fn = reinterpret_cast<void*>(&Handler2);
  BindingSpec blocked;
  blocked.guards.push_back({.fn = reinterpret_cast<void*>(&GuardFalse)});
  blocked.handler.fn = reinterpret_cast<void*>(&Handler2);
  spec.bindings = {pass, blocked};
  auto stub = CompileStub(spec);
  ASSERT_NE(stub, nullptr);

  RaiseFrame frame;
  frame.args[0] = 1;
  frame.args[1] = 2;
  CallStub(*stub, spec, frame);
  EXPECT_EQ(frame.fired, 1u);
  EXPECT_EQ(g_log.guard_calls, 2);
  EXPECT_EQ(g_log.handler_calls, 1);
}

TEST_F(JitTest, StubClosurePassing) {
  g_log = {};
  uint64_t closure_value = 100;
  StubSpec spec;
  spec.num_args = 2;
  spec.policy = ResultPolicy::kLast;
  BindingSpec binding;
  binding.handler.fn = reinterpret_cast<void*>(&HandlerWithClosure);
  binding.handler.closure = &closure_value;
  binding.handler.closure_form = true;
  spec.bindings.push_back(binding);
  auto stub = CompileStub(spec);
  ASSERT_NE(stub, nullptr);

  RaiseFrame frame;
  frame.args[0] = 1;
  frame.args[1] = 2;
  CallStub(*stub, spec, frame);
  EXPECT_EQ(frame.result, 103u);
}

TEST_F(JitTest, StubFilterByRefMutatesSlot) {
  g_log = {};
  StubSpec spec;
  spec.num_args = 2;
  spec.policy = ResultPolicy::kNone;
  BindingSpec filter;
  filter.handler.fn = reinterpret_cast<void*>(&FilterDouble);
  filter.byref_params = {0};
  BindingSpec reader;
  reader.handler.fn = reinterpret_cast<void*>(&Handler2);
  spec.bindings = {filter, reader};
  auto stub = CompileStub(spec);
  ASSERT_NE(stub, nullptr);

  RaiseFrame frame;
  frame.args[0] = 21;
  frame.args[1] = 0;
  CallStub(*stub, spec, frame);
  EXPECT_EQ(frame.args[0], 42u) << "filter writes through the slot pointer";
  EXPECT_EQ(g_log.last_a, 42u) << "downstream handler sees the new value";
  EXPECT_EQ(frame.fired, 2u);
}

TEST_F(JitTest, ResultPolicies) {
  struct Case {
    ResultPolicy policy;
    uint64_t init;
    uint64_t want;
  };
  // Handlers return a+b = 5 and a+b+closure(100) = 105.
  uint64_t closure_value = 100;
  for (Case c : {Case{ResultPolicy::kLast, 0, 105},
                 Case{ResultPolicy::kOr, 0, 5 | 105},
                 Case{ResultPolicy::kAnd, ~0ull, 5 & 105},
                 Case{ResultPolicy::kSum, 0, 110}}) {
    StubSpec spec;
    spec.num_args = 2;
    spec.policy = c.policy;
    BindingSpec first;
    first.handler.fn = reinterpret_cast<void*>(&Handler2);
    BindingSpec second;
    second.handler.fn = reinterpret_cast<void*>(&HandlerWithClosure);
    second.handler.closure = &closure_value;
    second.handler.closure_form = true;
    spec.bindings = {first, second};
    auto stub = CompileStub(spec);
    ASSERT_NE(stub, nullptr);
    RaiseFrame frame;
    frame.args[0] = 2;
    frame.args[1] = 3;
    frame.result = c.init;
    CallStub(*stub, spec, frame);
    EXPECT_EQ(frame.result, c.want)
        << "policy " << static_cast<int>(c.policy);
    EXPECT_EQ(frame.fired, 2u);
  }
}

TEST_F(JitTest, BoolResultNormalized) {
  // Only %al is defined for a bool return; the stub must zero-extend before
  // folding or garbage upper bits leak into the result slot.
  StubSpec spec;
  spec.num_args = 2;
  spec.policy = ResultPolicy::kOr;
  spec.result_is_bool = true;
  BindingSpec binding;
  binding.handler.fn = reinterpret_cast<void*>(&BoolHandler);
  spec.bindings = {binding};
  auto stub = CompileStub(spec);
  ASSERT_NE(stub, nullptr);
  RaiseFrame frame;
  frame.args[0] = 0;  // handler returns false
  frame.args[1] = 0xdeadbeefcafebabe;
  CallStub(*stub, spec, frame);
  EXPECT_EQ(frame.result, 0u);
  frame = {};
  frame.args[0] = 7;
  CallStub(*stub, spec, frame);
  EXPECT_EQ(frame.result, 1u);
}

TEST_F(JitTest, InlinedMicroGuardAndHandler) {
  uint64_t gate = 1;
  uint64_t counter = 0;
  Program guard = micro::GuardGlobalEq(&gate, 1);
  Program handler = micro::IncrementGlobal(&counter, 2);
  StubSpec spec;
  spec.num_args = 2;
  spec.policy = ResultPolicy::kNone;
  BindingSpec binding;
  binding.guards.push_back({.prog = &guard});
  binding.handler.prog = &handler;
  spec.bindings = {binding};
  auto stub = CompileStub(spec);
  ASSERT_NE(stub, nullptr);
  // Inlined: no call instructions for the guard/handler pair.
  EXPECT_EQ(Listing(*stub).find("call"), std::string::npos);

  RaiseFrame frame;
  CallStub(*stub, spec, frame);
  EXPECT_EQ(counter, 1u);
  EXPECT_EQ(frame.fired, 1u);
  gate = 0;
  frame = {};
  CallStub(*stub, spec, frame);
  EXPECT_EQ(counter, 1u);
  EXPECT_EQ(frame.fired, 0u);
}

TEST_F(JitTest, InliningDisabledFallsBackToCalls) {
  uint64_t gate = 1;
  Program guard = micro::GuardGlobalEq(&gate, 1);
  auto compiled_guard = CompileMicro(guard);
  ASSERT_NE(compiled_guard, nullptr);

  StubSpec spec;
  spec.num_args = 0;
  spec.inline_micro = false;
  BindingSpec binding;
  binding.guards.push_back(
      {.fn = compiled_guard->entry(), .prog = &guard});
  binding.handler.fn = reinterpret_cast<void*>(
      +[]() -> uint64_t { return 0; });
  spec.bindings = {binding};
  auto stub = CompileStub(spec);
  ASSERT_NE(stub, nullptr);
  EXPECT_NE(Listing(*stub).find("call"), std::string::npos);
  RaiseFrame frame;
  CallStub(*stub, spec, frame);
  EXPECT_EQ(frame.fired, 1u);
}

TEST_F(JitTest, EligibilityLimits) {
  std::string why;
  StubSpec too_many;
  too_many.num_args = 7;
  EXPECT_FALSE(StubEligible(too_many, &why));

  StubSpec closure_limit;
  closure_limit.num_args = 6;
  BindingSpec binding;
  binding.handler.fn = reinterpret_cast<void*>(&Handler2);
  binding.handler.closure_form = true;
  closure_limit.bindings = {binding};
  EXPECT_FALSE(StubEligible(closure_limit, &why));
  EXPECT_NE(why.find("closure"), std::string::npos);

  StubSpec no_entry;
  no_entry.num_args = 1;
  no_entry.inline_micro = false;
  BindingSpec b2;  // neither fn nor usable prog
  no_entry.bindings = {b2};
  EXPECT_FALSE(StubEligible(no_entry, &why));
}

TEST_F(JitTest, FiftyBindingsUnrolled) {
  // Table 1 goes to 50 handlers; make sure a large unrolled stub works.
  g_log = {};
  StubSpec spec;
  spec.num_args = 2;
  spec.policy = ResultPolicy::kSum;
  BindingSpec binding;
  binding.handler.fn = reinterpret_cast<void*>(&Handler2);
  for (int i = 0; i < 50; ++i) {
    spec.bindings.push_back(binding);
  }
  auto stub = CompileStub(spec);
  ASSERT_NE(stub, nullptr);
  RaiseFrame frame;
  frame.args[0] = 1;
  frame.args[1] = 1;
  CallStub(*stub, spec, frame);
  EXPECT_EQ(frame.fired, 50u);
  EXPECT_EQ(frame.result, 100u);
  EXPECT_EQ(g_log.handler_calls, 50);
}

TEST_F(JitTest, PeepholeShrinksStub) {
  // Several inlined guards discriminating on the same packet-header field
  // (the §3.2 shape): redundant reloads of the argument and of the header
  // field must be eliminated, and semantics preserved.
  struct Header {
    uint64_t port;
  } header{2};
  Program g0 = micro::GuardArgFieldEq(2, 0, 0, 8, ~0ull, 0);
  Program g1 = micro::GuardArgFieldEq(2, 0, 0, 8, ~0ull, 1);
  Program g2 = micro::GuardArgFieldEq(2, 0, 0, 8, ~0ull, 2);
  g_log = {};
  StubSpec spec;
  spec.num_args = 2;
  BindingSpec binding;
  binding.guards = {{.prog = &g0}, {.prog = &g1}, {.prog = &g2}};
  binding.handler.fn = reinterpret_cast<void*>(&Handler2);
  spec.bindings = {binding};
  spec.optimize = false;
  auto unoptimized = CompileStub(spec);
  spec.optimize = true;
  auto optimized = CompileStub(spec);
  ASSERT_NE(unoptimized, nullptr);
  ASSERT_NE(optimized, nullptr);
  EXPECT_LT(optimized->code_size(), unoptimized->code_size());
  EXPECT_GT(optimized->peephole_rewrites(), 0u);

  // Both stubs behave identically: all three guards must pass, so only
  // port == 0,1,2 simultaneously would fire — i.e., never.
  for (const auto* stub : {unoptimized.get(), optimized.get()}) {
    RaiseFrame frame;
    frame.args[0] = reinterpret_cast<uintptr_t>(&header);
    CallStub(*stub, spec, frame);
    EXPECT_EQ(frame.fired, 0u);
  }
}

// --- Shape keys and operands ------------------------------------------------

uint64_t HandlerPlusTen(void* closure, uint64_t a, uint64_t b) {
  ++g_log.handler_calls;
  return a + b + 10 * *static_cast<uint64_t*>(closure);
}

// Closure-form micro guard: admits when the event's first argument equals
// the word the closure points at.
Program ClosureArgEq() {
  return std::move(ProgramBuilder(3, /*functional=*/true)
                       .LoadArg(0, 0)
                       .LoadField(0, 0, 0, 8)
                       .LoadArg(1, 1)
                       .CmpEq(2, 0, 1)
                       .Ret(2))
      .Build();
}

TEST_F(JitTest, OneStubRunsTheTargetsOfItsOperands) {
  // Two specs of one shape — a closure-form inline guard and a closure
  // handler — with different closures and handlers. The stub compiled for
  // the first runs the second's targets when given its operands.
  Program guard = ClosureArgEq();
  uint64_t want_a = 5, want_b = 6;
  uint64_t closure_a = 1, closure_b = 2;
  auto spec_for = [&](uint64_t* want, uint64_t* closure, void* handler) {
    StubSpec spec;
    spec.num_args = 2;
    spec.policy = ResultPolicy::kLast;
    BindingSpec binding;
    binding.guards.push_back(
        {.closure = want, .closure_form = true, .prog = &guard});
    binding.handler = {.fn = handler, .closure = closure,
                       .closure_form = true};
    spec.bindings = {binding};
    return spec;
  };
  const StubSpec a = spec_for(&want_a, &closure_a,
                              reinterpret_cast<void*>(&HandlerWithClosure));
  const StubSpec b = spec_for(&want_b, &closure_b,
                              reinterpret_cast<void*>(&HandlerPlusTen));
  ASSERT_TRUE(StubKey(a) == StubKey(b));
  auto stub = CompileStub(a);
  ASSERT_NE(stub, nullptr);

  RaiseFrame frame;
  frame.args[0] = 5;
  frame.args[1] = 1;
  CallStub(*stub, a, frame);
  EXPECT_EQ(frame.fired, 1u);
  EXPECT_EQ(frame.result, 5u + 1 + 1);
  frame = {};
  frame.args[0] = 5;
  frame.args[1] = 1;
  CallStub(*stub, b, frame);
  EXPECT_EQ(frame.fired, 0u) << "b's guard wants 6";
  frame = {};
  frame.args[0] = 6;
  frame.args[1] = 1;
  CallStub(*stub, b, frame);
  EXPECT_EQ(frame.fired, 1u);
  EXPECT_EQ(frame.result, 6u + 1 + 10 * 2);
}

TEST_F(JitTest, StubKeyCoversEveryFieldThatDecidesTheCode) {
  Program eq7 = micro::GuardArgFieldEq(2, 0, 0, 8, ~0ull, 7);
  Program eq8 = micro::GuardArgFieldEq(2, 0, 0, 8, ~0ull, 8);
  Program ne7 = std::move(ProgramBuilder(2, /*functional=*/true)
                              .LoadArg(0, 0)
                              .LoadField(0, 0, 0, 8)
                              .LoadImm(1, 7)
                              .CmpNe(2, 0, 1)
                              .Ret(2))
                    .Build();
  Program add = std::move(ProgramBuilder(2, /*functional=*/false)
                              .LoadArg(0, 0)
                              .LoadArg(1, 1)
                              .Add(2, 0, 1)
                              .Ret(2))
                    .Build();
  uint64_t closure = 3;
  auto base = [&] {
    StubSpec spec;
    spec.num_args = 2;
    spec.policy = ResultPolicy::kLast;
    BindingSpec first;
    first.guards.push_back({.fn = reinterpret_cast<void*>(&GuardTrue)});
    first.guards.push_back({.prog = &eq7});
    first.handler.fn = reinterpret_cast<void*>(&FilterDouble);
    first.byref_params = {0};
    BindingSpec second;
    second.handler = {.fn = reinterpret_cast<void*>(&HandlerWithClosure),
                      .closure = &closure, .closure_form = true};
    BindingSpec third;
    third.handler.prog = &add;
    spec.bindings = {first, second, third};
    return spec;
  };
  const StubKey key(base());

  // Targets and closures are operands, not shape.
  {
    uint64_t other_closure = 4;
    StubSpec spec = base();
    spec.bindings[0].guards[0].fn = reinterpret_cast<void*>(&GuardFalse);
    spec.bindings[0].handler.fn = reinterpret_cast<void*>(&Handler2);
    spec.bindings[1].handler.closure = &other_closure;
    EXPECT_TRUE(StubKey(spec) == key);
    EXPECT_NE(StubOperands(spec), StubOperands(base()));
  }

  auto expect_new_shape = [&](const char* what, auto mutate) {
    StubSpec spec = base();
    mutate(spec);
    EXPECT_FALSE(StubKey(spec) == key) << what;
  };
  expect_new_shape("guard form", [&](StubSpec& s) {
    s.bindings[0].guards[0] = {.prog = &eq7};
  });
  expect_new_shape("guard closure form", [&](StubSpec& s) {
    s.bindings[0].guards[0].closure_form = true;
  });
  expect_new_shape("handler closure form", [&](StubSpec& s) {
    s.bindings[1].handler.closure_form = false;
  });
  expect_new_shape("inline opcode",
                   [&](StubSpec& s) { s.bindings[0].guards[1].prog = &ne7; });
  expect_new_shape("inline immediate",
                   [&](StubSpec& s) { s.bindings[0].guards[1].prog = &eq8; });
  expect_new_shape("by-ref list",
                   [&](StubSpec& s) { s.bindings[0].byref_params = {1}; });
  expect_new_shape("no by-ref",
                   [&](StubSpec& s) { s.bindings[0].byref_params.clear(); });
  expect_new_shape("policy",
                   [&](StubSpec& s) { s.policy = ResultPolicy::kSum; });
  expect_new_shape("result_is_bool",
                   [&](StubSpec& s) { s.result_is_bool = true; });
  expect_new_shape("optimize", [&](StubSpec& s) { s.optimize = false; });
  expect_new_shape("inline_micro",
                   [&](StubSpec& s) { s.inline_micro = false; });
  expect_new_shape("arity", [&](StubSpec& s) { s.num_args = 3; });
  expect_new_shape("one guard fewer", [&](StubSpec& s) {
    s.bindings[0].guards.pop_back();
  });
  expect_new_shape("binding order", [&](StubSpec& s) {
    std::swap(s.bindings[1], s.bindings[2]);
  });

  // The tree's field and constants.
  auto tree_base = [&] {
    StubSpec spec;
    spec.num_args = 1;
    for (int i = 0; i < 4; ++i) {
      BindingSpec b;
      b.handler.fn = reinterpret_cast<void*>(&Handler2);
      spec.bindings.push_back(b);
    }
    StubTree tree;
    tree.offset = 8;
    tree.width = 4;
    tree.cases = {TreeCase{1, 3}, TreeCase{2, 0}, TreeCase{3, 1},
                  TreeCase{4, 2}};
    spec.tree = tree;
    return spec;
  };
  const StubKey tree_key(tree_base());
  EXPECT_FALSE(tree_key == StubKey([&] {
    StubSpec s = tree_base();
    s.tree.reset();
    return s;
  }()));
  auto expect_new_tree = [&](const char* what, auto mutate) {
    StubSpec spec = tree_base();
    mutate(*spec.tree);
    EXPECT_FALSE(StubKey(spec) == tree_key) << what;
  };
  expect_new_tree("tree constant", [](StubTree& t) { t.cases[3].value = 9; });
  expect_new_tree("tree case order", [](StubTree& t) {
    std::swap(t.cases[0].binding_index, t.cases[1].binding_index);
  });
  expect_new_tree("tree offset", [](StubTree& t) { t.offset = 16; });
  expect_new_tree("tree width", [](StubTree& t) { t.width = 8; });
  expect_new_tree("tree mask", [](StubTree& t) { t.mask = 0xff; });
}

}  // namespace
}  // namespace codegen
}  // namespace spin
