// Disassembler-checked golden corpus for every stub shape the runtime code
// generator emits: dispatch stubs (single/multi binding, native and inlined
// micro callables, closures, by-ref widening, result policies, guard
// decision trees linear and binary-search, peephole on/off) and standalone
// compiled micro-programs (the out-of-line guard bodies the verify-then-JIT
// admission path installs).
//
// Every case is compiled with sentinel callee/closure/global addresses so
// the emitted bytes are fully deterministic, then disassembled by the small
// length-decoding x86-64 decoder in tests/x86_disasm.h — which recognizes
// exactly the encoder inventory of src/codegen/lir.cc and refuses anything
// else — and compared line-for-line against tests/golden/stubs.golden.
// A dispatch stub reads its callees and closures from the operand array,
// so each stub case is compiled a second time with other callees and
// closures: the bytes and the StubKey must not change, and the operands
// must.
//
// On intentional codegen changes, regenerate with:
//   python3 tools/update_golden.py           (or --check to verify)
// CI runs the --check form, so un-regenerated drift fails the build.
//
// Not a gtest binary: it needs a --dump mode for the regenerate script, so
// it carries its own main and reports pass/fail via the exit code.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/codegen/stub_compiler.h"
#include "src/micro/program.h"
#include "x86_disasm.h"

namespace {

using spin::codegen::BindingSpec;
using spin::codegen::CallableSpec;
using spin::codegen::CompiledMicro;
using spin::codegen::CompiledStub;
using spin::codegen::CompileMicro;
using spin::codegen::CompileStub;
using spin::codegen::ResultPolicy;
using spin::codegen::StubKey;
using spin::codegen::StubOperands;
using spin::codegen::StubSpec;
using spin::codegen::StubTree;
using spin::codegen::TreeCase;
using spin::micro::Program;
using spin::micro::ProgramBuilder;

// Sentinel addresses: never dereferenced (the stubs are only disassembled,
// not run). A micro-program's global address is an immediate of its code;
// kGlobalAddr has high bits set, so it needs the imm64 form.
constexpr uint64_t kHandlerAddr = 0x1122334455667788ull;
constexpr uint64_t kGuardAddr = 0x99aabbccddeeff00ull;
constexpr uint64_t kClosureAddr = 0x41424344ull;
constexpr uint64_t kGlobalAddr = 0x5566778899aabbccull;

struct GoldenCase {
  std::string name;
  std::vector<uint8_t> bytes;
};

int g_failures = 0;

void Fail(const std::string& what) {
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  ++g_failures;
}

std::vector<uint8_t> StubBytes(const CompiledStub& stub) {
  const auto* code = reinterpret_cast<const uint8_t*>(
      reinterpret_cast<const void*>(stub.entry()));
  return std::vector<uint8_t>(code, code + stub.code_size());
}

// The same shape with every callee and closure moved elsewhere.
StubSpec Retargeted(StubSpec spec) {
  auto move = [](CallableSpec& c) {
    if (c.fn != nullptr) {
      c.fn = reinterpret_cast<void*>(reinterpret_cast<uintptr_t>(c.fn) ^
                                     0x0f0f0f0f0f0f0ff0ull);
    }
    c.closure = reinterpret_cast<void*>(
        reinterpret_cast<uintptr_t>(c.closure) ^ 0x7070707070707070ull);
  };
  for (BindingSpec& b : spec.bindings) {
    for (CallableSpec& g : b.guards) {
      move(g);
    }
    move(b.handler);
  }
  return spec;
}

void AddStub(std::vector<GoldenCase>& cases, const std::string& name,
             const StubSpec& spec) {
  std::string why;
  if (!spin::codegen::StubEligible(spec, &why)) {
    Fail(name + ": spec ineligible: " + why);
    return;
  }
  std::unique_ptr<CompiledStub> stub = CompileStub(spec);
  const StubSpec other = Retargeted(spec);
  std::unique_ptr<CompiledStub> again = CompileStub(other);
  if (stub == nullptr || again == nullptr) {
    Fail(name + ": CompileStub returned nullptr");
    return;
  }
  std::vector<uint8_t> bytes = StubBytes(*stub);
  if (StubBytes(*again) != bytes) {
    Fail(name + ": other callees and closures changed the emitted bytes");
  }
  if (!(StubKey(other) == StubKey(spec))) {
    Fail(name + ": other callees and closures changed the StubKey");
  }
  const std::vector<uint64_t> operands = StubOperands(spec);
  if (!operands.empty() && StubOperands(other) == operands) {
    Fail(name + ": other callees and closures left the operands equal");
  }
  cases.push_back({name, std::move(bytes)});
}

void AddMicro(std::vector<GoldenCase>& cases, const std::string& name,
              const Program& prog, bool optimize = true) {
  std::unique_ptr<CompiledMicro> m = CompileMicro(prog, optimize);
  if (m == nullptr) {
    Fail(name + ": CompileMicro returned nullptr");
    return;
  }
  const auto* code = static_cast<const uint8_t*>(m->entry());
  cases.push_back({name, std::vector<uint8_t>(code, code + m->code_size())});
}

CallableSpec Native(uint64_t addr) {
  CallableSpec c;
  c.fn = reinterpret_cast<void*>(addr);
  return c;
}

// Pure register compare: args[0] == 7.
Program ArgEqGuard() {
  return std::move(ProgramBuilder(2, /*functional=*/true)
                       .LoadArg(0, 0)
                       .LoadImm(1, 7)
                       .CmpEq(2, 0, 1)
                       .Ret(2))
      .Build();
}

// args[0] + args[1].
Program AddHandler() {
  return std::move(ProgramBuilder(2, /*functional=*/false)
                       .LoadArg(0, 0)
                       .LoadArg(1, 1)
                       .Add(2, 0, 1)
                       .Ret(2))
      .Build();
}

// Forward control flow: args[0] != 0 ? args[1] : 0x2a.
Program SelectProgram() {
  ProgramBuilder b(2, /*functional=*/true);
  b.LoadArg(0, 0);
  size_t jz = b.Jz(0);
  b.LoadArg(1, 1);
  b.Ret(1);
  b.PatchJumpTarget(jz);
  b.RetImm(0x2a);
  return std::move(b).Build();
}

std::vector<GoldenCase> BuildCorpus() {
  std::vector<GoldenCase> cases;

  // --- dispatch stubs -----------------------------------------------------
  {
    StubSpec spec;
    spec.num_args = 2;
    BindingSpec b;
    b.handler = Native(kHandlerAddr);
    spec.bindings.push_back(b);
    AddStub(cases, "stub_single_native", spec);
    spec.optimize = false;
    AddStub(cases, "stub_single_native_noopt", spec);
  }
  {
    StubSpec spec;
    spec.num_args = 2;
    BindingSpec b;
    b.guards.push_back(Native(kGuardAddr));
    b.handler = Native(kHandlerAddr);
    spec.bindings.push_back(b);
    AddStub(cases, "stub_native_guard", spec);
  }
  {
    StubSpec spec;
    spec.num_args = 2;
    BindingSpec b;
    CallableSpec guard;
    Program prog = ArgEqGuard();
    guard.prog = &prog;
    b.guards.push_back(guard);
    b.handler = Native(kHandlerAddr);
    spec.bindings.push_back(b);
    AddStub(cases, "stub_inline_micro_guard", spec);
  }
  {
    StubSpec spec;
    spec.num_args = 2;
    spec.policy = ResultPolicy::kLast;
    BindingSpec b;
    CallableSpec handler;
    Program prog = AddHandler();
    handler.prog = &prog;
    b.handler = handler;
    spec.bindings.push_back(b);
    AddStub(cases, "stub_inline_micro_handler", spec);
  }
  {
    StubSpec spec;
    spec.num_args = 2;
    BindingSpec b;
    CallableSpec guard = Native(kGuardAddr);
    guard.closure = reinterpret_cast<void*>(kClosureAddr);
    guard.closure_form = true;
    b.guards.push_back(guard);
    b.handler = Native(kHandlerAddr);
    spec.bindings.push_back(b);
    AddStub(cases, "stub_closure_guard", spec);
  }
  {
    // An inlined micro guard whose closure is its argument 0: the closure
    // is loaded from the operand array, and the guard makes no call.
    StubSpec spec;
    spec.num_args = 1;
    BindingSpec b;
    CallableSpec guard;
    Program prog = ArgEqGuard();
    guard.prog = &prog;
    guard.closure = reinterpret_cast<void*>(kClosureAddr);
    guard.closure_form = true;
    b.guards.push_back(guard);
    b.handler = Native(kHandlerAddr);
    spec.bindings.push_back(b);
    AddStub(cases, "stub_inline_closure_guard", spec);
  }
  {
    StubSpec spec;
    spec.num_args = 2;
    BindingSpec b;
    b.handler = Native(kHandlerAddr);
    b.byref_params.push_back(1);
    spec.bindings.push_back(b);
    AddStub(cases, "stub_byref_param", spec);
  }
  {
    StubSpec spec;
    spec.num_args = 1;
    spec.policy = ResultPolicy::kOr;
    spec.result_is_bool = true;
    BindingSpec b1;
    b1.handler = Native(kHandlerAddr);
    BindingSpec b2;
    b2.handler = Native(kGuardAddr);
    spec.bindings.push_back(b1);
    spec.bindings.push_back(b2);
    AddStub(cases, "stub_policy_or_bool", spec);
  }
  {
    StubSpec spec;
    spec.num_args = 1;
    spec.policy = ResultPolicy::kSum;
    BindingSpec b1;
    b1.handler = Native(kHandlerAddr);
    BindingSpec b2;
    b2.handler = Native(kGuardAddr);
    spec.bindings.push_back(b1);
    spec.bindings.push_back(b2);
    AddStub(cases, "stub_policy_sum", spec);
  }
  {
    // Guard decision tree, 3 cases: EmitTreeSearch stays linear.
    StubSpec spec;
    spec.num_args = 1;
    for (int i = 0; i < 3; ++i) {
      BindingSpec b;
      b.handler = Native(kHandlerAddr + static_cast<uint64_t>(i) * 0x100);
      spec.bindings.push_back(b);
    }
    StubTree tree;
    tree.arg = 0;
    tree.offset = 4;
    tree.width = 2;
    tree.mask = 0x0fff;  // narrower than the width: exercises the and
    tree.cases = {TreeCase{0x10, 2}, TreeCase{0x20, 0}, TreeCase{0x30, 1}};
    spec.tree = tree;
    AddStub(cases, "stub_tree_linear", spec);
  }
  {
    // 5 cases: binary search with a pivot compare, plus one value too wide
    // for a sign-extended imm32 (r11 temp form).
    StubSpec spec;
    spec.num_args = 1;
    for (int i = 0; i < 5; ++i) {
      BindingSpec b;
      b.handler = Native(kHandlerAddr + static_cast<uint64_t>(i) * 0x100);
      spec.bindings.push_back(b);
    }
    StubTree tree;
    tree.arg = 0;
    tree.offset = 0;
    tree.width = 8;
    tree.mask = ~0ull;
    tree.cases = {TreeCase{0x10, 4}, TreeCase{0x20, 3}, TreeCase{0x30, 2},
                  TreeCase{0x40, 1}, TreeCase{0x8877665544332211ull, 0}};
    spec.tree = tree;
    AddStub(cases, "stub_tree_binary", spec);
  }

  // --- standalone compiled micro-programs (guard JIT bodies) --------------
  AddMicro(cases, "micro_arg_eq", ArgEqGuard());
  AddMicro(cases, "micro_arg_eq_noopt", ArgEqGuard(), /*optimize=*/false);
  AddMicro(cases, "micro_select", SelectProgram());
  AddMicro(cases, "micro_field_mask",
           spin::micro::GuardArgFieldEq(/*num_args=*/2, /*arg=*/0,
                                        /*offset=*/8, /*width=*/4,
                                        /*mask=*/0xff, /*value=*/0x2a));
  AddMicro(cases, "micro_global_load",
           std::move(ProgramBuilder(0, /*functional=*/true)
                         .LoadGlobal(
                             0, reinterpret_cast<const void*>(kGlobalAddr), 8)
                         .LoadImm(1, 0x2a)
                         .CmpEq(2, 0, 1)
                         .Ret(2))
               .Build());
  return cases;
}

std::string Render(const std::vector<GoldenCase>& cases) {
  std::string out;
  for (const GoldenCase& c : cases) {
    out += "== " + c.name + " ==\n";
    std::string listing;
    if (!spin::testdisasm::Disassemble(c.bytes.data(), c.bytes.size(),
                                       &listing)) {
      Fail(c.name + ": emitted bytes the test disassembler cannot decode "
                    "(new encoder output needs a case in tests/x86_disasm.h)");
    }
    out += listing;
    out += "\n";
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool dump = argc > 1 && std::strcmp(argv[1], "--dump") == 0;
  if (!spin::codegen::CodegenAvailable()) {
    std::fprintf(stderr,
                 "codegen unavailable on this host/build; golden corpus "
                 "skipped\n");
    return 0;
  }
  std::vector<GoldenCase> cases = BuildCorpus();
  std::string actual = Render(cases);
  if (dump) {
    std::fwrite(actual.data(), 1, actual.size(), stdout);
    return g_failures == 0 ? 0 : 1;
  }

  std::string path = std::string(SPIN_GOLDEN_DIR) + "/stubs.golden";
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    Fail("cannot open golden file " + path +
         " (generate with: python3 tools/update_golden.py)");
    return 1;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  std::string expected = ss.str();

  if (expected != actual) {
    // Report the first diverging line with context.
    std::istringstream ea(expected), aa(actual);
    std::string el, al;
    size_t line = 0;
    while (true) {
      bool eok = static_cast<bool>(std::getline(ea, el));
      bool aok = static_cast<bool>(std::getline(aa, al));
      ++line;
      if (!eok && !aok) {
        break;
      }
      if (!eok || !aok || el != al) {
        std::fprintf(stderr,
                     "golden mismatch at line %zu:\n  golden: %s\n  "
                     "actual: %s\n",
                     line, eok ? el.c_str() : "<eof>",
                     aok ? al.c_str() : "<eof>");
        break;
      }
    }
    Fail(
        "emitted code drifted from tests/golden/stubs.golden; if the "
        "change is intentional, regenerate with tools/update_golden.py "
        "and review the diff");
  }
  if (g_failures == 0) {
    std::printf("golden corpus: %zu cases OK\n", cases.size());
    return 0;
  }
  return 1;
}
