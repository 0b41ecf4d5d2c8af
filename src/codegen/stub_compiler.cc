#include "src/codegen/stub_compiler.h"

#include <cstdlib>

#include "src/codegen/lir.h"
#include "src/codegen/peephole.h"
#include "src/rt/panic.h"

namespace spin {
namespace codegen {
namespace {

// SysV integer argument registers.
constexpr Reg kArgRegs[6] = {Reg::kRdi, Reg::kRsi, Reg::kRdx,
                             Reg::kRcx, Reg::kR8,  Reg::kR9};

// Micro-program virtual register mapping. All scratch (caller-saved or
// reloaded) registers; rbx stays the frame pointer, r11 is the address temp.
constexpr Reg kVregMap[micro::kNumRegs] = {Reg::kRax, Reg::kRcx, Reg::kRdx,
                                           Reg::kRsi, Reg::kRdi, Reg::kR8,
                                           Reg::kR9,  Reg::kR10};

constexpr Reg kAddrTemp = Reg::kR11;
constexpr Reg kFrameReg = Reg::kRbx;

struct Emitter {
  std::vector<LInsn> code;
  int next_label = 0;

  int NewLabel() { return next_label++; }

  LInsn& Emit(LInsn insn) {
    code.push_back(insn);
    return code.back();
  }

  void MovRegImm(Reg dst, uint64_t imm) {
    Emit({.op = LOp::kMovRegImm, .dst = dst, .imm = imm});
  }
  void MovRegReg(Reg dst, Reg src) {
    if (dst != src) {
      Emit({.op = LOp::kMovRegReg, .dst = dst, .src = src});
    }
  }
  void Load(Reg dst, Reg base, int32_t disp, uint8_t width = 8) {
    Emit({.op = LOp::kLoadRegMem, .dst = dst, .base = base, .width = width,
          .disp = disp});
  }
  void Store(Reg base, int32_t disp, Reg src, uint8_t width = 8) {
    Emit({.op = LOp::kStoreMemReg, .src = src, .base = base, .width = width,
          .disp = disp});
  }
  void Lea(Reg dst, Reg base, int32_t disp) {
    Emit({.op = LOp::kLea, .dst = dst, .base = base, .disp = disp});
  }
  void Alu(LOp op, Reg dst, Reg src) {
    Emit({.op = op, .dst = dst, .src = src});
  }
  void AluMem(AluSub sub, Reg base, int32_t disp, Reg src) {
    Emit({.op = LOp::kAluMemReg, .src = src, .base = base, .alu = sub,
          .disp = disp});
  }
  void Jcc(Cond cc, int label) {
    Emit({.op = LOp::kJcc, .cc = cc, .label = label});
  }
  void Jmp(int label) { Emit({.op = LOp::kJmp, .label = label}); }
  void Bind(int label) { Emit({.op = LOp::kBind, .label = label}); }
  void Setcc(Cond cc, Reg dst) {
    Emit({.op = LOp::kSetcc, .dst = dst, .cc = cc});
    Emit({.op = LOp::kMovzx8, .dst = dst});
  }
};

// How a lowered micro-program finds its arguments.
struct MicroEnv {
  bool standalone = false;  // args spilled to the red zone below rsp
  bool closure_form = false;
  uint64_t closure = 0;
};

Cond CondOfCmp(micro::Op op) {
  switch (op) {
    case micro::Op::kCmpEq:
      return Cond::kE;
    case micro::Op::kCmpNe:
      return Cond::kNe;
    case micro::Op::kCmpLtU:
      return Cond::kB;
    case micro::Op::kCmpLeU:
      return Cond::kBe;
    case micro::Op::kCmpLtS:
      return Cond::kL;
    case micro::Op::kCmpLeS:
      return Cond::kLe;
    default:
      SPIN_PANIC("not a compare op");
  }
}

bool IsCmp(micro::Op op) {
  switch (op) {
    case micro::Op::kCmpEq:
    case micro::Op::kCmpNe:
    case micro::Op::kCmpLtU:
    case micro::Op::kCmpLeU:
    case micro::Op::kCmpLtS:
    case micro::Op::kCmpLeS:
      return true;
    default:
      return false;
  }
}

void LowerLoadArg(Emitter& e, const MicroEnv& env, Reg dst, uint64_t index) {
  if (env.closure_form) {
    if (index == 0) {
      e.MovRegImm(dst, env.closure);
      return;
    }
    index -= 1;
  }
  if (env.standalone) {
    // Arguments were spilled to the red zone: [rsp - 8(i+1)].
    e.Load(dst, Reg::kRsp, -8 * (static_cast<int32_t>(index) + 1));
  } else {
    e.Load(dst, kFrameReg,
           static_cast<int32_t>(kFrameArgsOffset + 8 * index));
  }
}

// Lowers `prog` into `e`. On exit the return value is in rax and control is
// at `done` (a fresh label bound at the end). `count` limits lowering to the
// first `count` instructions (used by the guard-fusion path).
void LowerMicroBody(Emitter& e, const micro::Program& prog,
                    const MicroEnv& env, size_t count, int done) {
  const std::vector<micro::Insn>& code = prog.code();
  SPIN_ASSERT(count <= code.size());
  // Labels for jump targets, indexed by target pc (-1: not a target).
  std::vector<int> pc_labels(count + 1, -1);
  for (size_t i = 0; i < count; ++i) {
    const micro::Insn& insn = code[i];
    if (insn.op == micro::Op::kJz || insn.op == micro::Op::kJmp) {
      size_t target = static_cast<size_t>(insn.imm);
      SPIN_ASSERT(target <= count);
      if (pc_labels[target] < 0) {
        pc_labels[target] = e.NewLabel();
      }
    }
  }
  auto R = [](uint8_t v) { return kVregMap[v]; };
  for (size_t i = 0; i < count; ++i) {
    if (pc_labels[i] >= 0) {
      e.Bind(pc_labels[i]);
    }
    const micro::Insn& insn = code[i];
    switch (insn.op) {
      case micro::Op::kLoadArg:
        LowerLoadArg(e, env, R(insn.dst), insn.imm);
        break;
      case micro::Op::kLoadImm:
        e.MovRegImm(R(insn.dst), insn.imm);
        break;
      case micro::Op::kLoadGlobal:
        e.MovRegImm(kAddrTemp, insn.imm);
        e.Load(R(insn.dst), kAddrTemp, 0,
               static_cast<uint8_t>(1u << insn.b));
        break;
      case micro::Op::kLoadField:
        e.Load(R(insn.dst), R(insn.a), static_cast<int32_t>(insn.imm),
               static_cast<uint8_t>(1u << insn.b));
        break;
      case micro::Op::kStoreGlobal:
        e.MovRegImm(kAddrTemp, insn.imm);
        e.Store(kAddrTemp, 0, R(insn.a), static_cast<uint8_t>(1u << insn.b));
        break;
      case micro::Op::kStoreField:
        // a = base, b = source, dst = width exponent.
        e.Store(R(insn.a), static_cast<int32_t>(insn.imm), R(insn.b),
                static_cast<uint8_t>(1u << insn.dst));
        break;
      case micro::Op::kMov:
        e.MovRegReg(R(insn.dst), R(insn.a));
        break;
      case micro::Op::kAdd:
      case micro::Op::kSub:
      case micro::Op::kAnd:
      case micro::Op::kOr:
      case micro::Op::kXor: {
        LOp lop = insn.op == micro::Op::kAdd   ? LOp::kAdd
                  : insn.op == micro::Op::kSub ? LOp::kSub
                  : insn.op == micro::Op::kAnd ? LOp::kAnd
                  : insn.op == micro::Op::kOr  ? LOp::kOr
                                               : LOp::kXor;
        // dst <- a op b with two-address LIR: move a into dst first. If
        // dst == b we need the temp to avoid clobbering.
        if (insn.dst == insn.b && insn.dst != insn.a) {
          e.MovRegReg(kAddrTemp, R(insn.b));
          e.MovRegReg(R(insn.dst), R(insn.a));
          e.Alu(lop, R(insn.dst), kAddrTemp);
        } else {
          e.MovRegReg(R(insn.dst), R(insn.a));
          e.Alu(lop, R(insn.dst), R(insn.b));
        }
        break;
      }
      case micro::Op::kShlImm:
      case micro::Op::kShrImm:
        e.MovRegReg(R(insn.dst), R(insn.a));
        e.Emit({.op = insn.op == micro::Op::kShlImm ? LOp::kShlImm
                                                    : LOp::kShrImm,
                .dst = R(insn.dst), .imm = insn.imm});
        break;
      case micro::Op::kCmpEq:
      case micro::Op::kCmpNe:
      case micro::Op::kCmpLtU:
      case micro::Op::kCmpLeU:
      case micro::Op::kCmpLtS:
      case micro::Op::kCmpLeS:
        e.Alu(LOp::kCmpRegReg, R(insn.a), R(insn.b));
        e.Setcc(CondOfCmp(insn.op), R(insn.dst));
        break;
      case micro::Op::kNot:
        e.Emit({.op = LOp::kTestRegReg, .dst = R(insn.a), .src = R(insn.a)});
        e.Setcc(Cond::kE, R(insn.dst));
        break;
      case micro::Op::kJz: {
        e.Emit({.op = LOp::kTestRegReg, .dst = R(insn.a), .src = R(insn.a)});
        e.Jcc(Cond::kE, pc_labels[static_cast<size_t>(insn.imm)]);
        break;
      }
      case micro::Op::kJmp:
        e.Jmp(pc_labels[static_cast<size_t>(insn.imm)]);
        break;
      case micro::Op::kRet:
        e.MovRegReg(Reg::kRax, R(insn.a));
        e.Jmp(done);
        break;
      case micro::Op::kRetImm:
        e.MovRegImm(Reg::kRax, insn.imm);
        e.Jmp(done);
        break;
    }
  }
  // A label may target the instruction one past the end (validator forbids
  // it, but be safe for the fusion path's truncated counts).
  if (pc_labels[count] >= 0) {
    e.Bind(pc_labels[count]);
  }
}

// Register semantics are zero-at-entry: zero the registers the program may
// read before writing (matching the interpreter's zeroed register file).
void EmitZeroUndefined(Emitter& e, const micro::Program& prog) {
  uint8_t mask = prog.UndefinedReads();
  for (int v = 0; v < micro::kNumRegs; ++v) {
    if ((mask >> v) & 1) {
      e.Alu(LOp::kXor, kVregMap[v], kVregMap[v]);
    }
  }
}

// Lowers a full micro-program; result lands in rax.
void LowerMicroValue(Emitter& e, const micro::Program& prog,
                     const MicroEnv& env) {
  EmitZeroUndefined(e, prog);
  int done = e.NewLabel();
  LowerMicroBody(e, prog, env, prog.code().size(), done);
  e.Bind(done);
}

// Lowers a micro-program used as a guard: control transfers to `fail_label`
// when the program returns zero. Applies the compare-tail fusion: a
// straight-line program ending in {cmp d,a,b ; ret d} branches directly on
// the flags instead of materializing the boolean.
void LowerMicroGuard(Emitter& e, const micro::Program& prog,
                     const MicroEnv& env, int fail_label) {
  const std::vector<micro::Insn>& code = prog.code();
  size_t n = code.size();
  bool straight_line = true;
  for (size_t i = 0; i < n; ++i) {
    const micro::Insn& insn = code[i];
    bool early_ret = (insn.op == micro::Op::kRet ||
                      insn.op == micro::Op::kRetImm) &&
                     i + 1 < n;
    if (insn.op == micro::Op::kJz || insn.op == micro::Op::kJmp ||
        early_ret) {
      straight_line = false;
      break;
    }
  }
  if (straight_line && n >= 2 && IsCmp(code[n - 2].op) &&
      code[n - 1].op == micro::Op::kRet &&
      code[n - 1].a == code[n - 2].dst) {
    EmitZeroUndefined(e, prog);
    int done = e.NewLabel();
    LowerMicroBody(e, prog, env, n - 2, done);
    e.Bind(done);  // straight line: label is trivially here
    const micro::Insn& cmp = code[n - 2];
    e.Alu(LOp::kCmpRegReg, kVregMap[cmp.a], kVregMap[cmp.b]);
    e.Jcc(Negate(CondOfCmp(cmp.op)), fail_label);
    return;
  }
  LowerMicroValue(e, prog, env);
  e.Emit({.op = LOp::kTestRegReg, .dst = Reg::kRax, .src = Reg::kRax});
  e.Jcc(Cond::kE, fail_label);
}

// Loads the event arguments into the SysV argument registers for a direct
// call, applying the closure shift and filter by-ref (address-of-slot)
// conventions.
void EmitCallArgs(Emitter& e, const CallableSpec& callable, int num_args,
                  const std::vector<uint8_t>& byref_params) {
  int shift = callable.closure_form ? 1 : 0;
  for (int i = 0; i < num_args; ++i) {
    Reg reg = kArgRegs[i + shift];
    bool byref = false;
    for (uint8_t p : byref_params) {
      if (p == i) {
        byref = true;
        break;
      }
    }
    int32_t disp = static_cast<int32_t>(kFrameArgsOffset + 8 * i);
    if (byref) {
      e.Lea(reg, kFrameReg, disp);
    } else {
      e.Load(reg, kFrameReg, disp);
    }
  }
  if (callable.closure_form) {
    e.MovRegImm(kArgRegs[0], reinterpret_cast<uintptr_t>(callable.closure));
  }
  e.MovRegImm(Reg::kRax, reinterpret_cast<uintptr_t>(callable.fn));
  e.Emit({.op = LOp::kCall, .dst = Reg::kRax});
}

bool UseInline(const StubSpec& spec, const CallableSpec& callable) {
  return spec.inline_micro && callable.prog != nullptr &&
         callable.prog->Validate() == micro::ValidateStatus::kOk;
}

// Emits one binding's guards (branching to `fail_label` when any guard
// rejects), its handler call/inline body, the result fold, and the fired
// increment. Control falls through on success.
void EmitBindingBody(Emitter& e, const StubSpec& spec,
                     const BindingSpec& binding, int fail_label) {
  for (const CallableSpec& guard : binding.guards) {
    if (UseInline(spec, guard)) {
      MicroEnv env;
      env.closure_form = guard.closure_form;
      env.closure = reinterpret_cast<uintptr_t>(guard.closure);
      LowerMicroGuard(e, *guard.prog, env, fail_label);
    } else {
      EmitCallArgs(e, guard, spec.num_args, {});
      // Only %al is defined for a bool return.
      e.Emit({.op = LOp::kMovzx8, .dst = Reg::kRax});
      e.Emit({.op = LOp::kTestRegReg, .dst = Reg::kRax, .src = Reg::kRax});
      e.Jcc(Cond::kE, fail_label);
    }
  }
  if (UseInline(spec, binding.handler)) {
    MicroEnv env;
    env.closure_form = binding.handler.closure_form;
    env.closure = reinterpret_cast<uintptr_t>(binding.handler.closure);
    LowerMicroValue(e, *binding.handler.prog, env);
  } else {
    EmitCallArgs(e, binding.handler, spec.num_args, binding.byref_params);
    if (spec.policy != ResultPolicy::kNone && spec.result_is_bool) {
      e.Emit({.op = LOp::kMovzx8, .dst = Reg::kRax});
    }
  }
  switch (spec.policy) {
    case ResultPolicy::kNone:
      break;
    case ResultPolicy::kLast:
      e.Store(kFrameReg, static_cast<int32_t>(kFrameResultOffset),
              Reg::kRax);
      break;
    case ResultPolicy::kOr:
      e.AluMem(AluSub::kOr, kFrameReg,
               static_cast<int32_t>(kFrameResultOffset), Reg::kRax);
      break;
    case ResultPolicy::kAnd:
      e.AluMem(AluSub::kAnd, kFrameReg,
               static_cast<int32_t>(kFrameResultOffset), Reg::kRax);
      break;
    case ResultPolicy::kSum:
      e.AluMem(AluSub::kAdd, kFrameReg,
               static_cast<int32_t>(kFrameResultOffset), Reg::kRax);
      break;
  }
  e.Emit({.op = LOp::kIncMem32, .base = kFrameReg,
          .disp = static_cast<int32_t>(kFrameFiredOffset)});
}

// Compares the field register against a 64-bit constant (r11 as temp when
// the constant does not fit a sign-extended imm32).
void EmitCompareConst(Emitter& e, Reg reg, uint64_t value) {
  if (value <= 0x7fffffffull) {
    e.Emit({.op = LOp::kCmpRegImm32, .dst = reg, .imm = value});
  } else {
    e.MovRegImm(kAddrTemp, value);
    e.Alu(LOp::kCmpRegReg, reg, kAddrTemp);
  }
}

// Emits the binary search of the guard decision tree over cases [lo, hi).
// `field` holds the masked field value; `case_labels[i]` is the entry for
// cases[i]'s binding; misses jump to `done`.
void EmitTreeSearch(Emitter& e, const std::vector<TreeCase>& cases,
                    const std::vector<int>& case_labels, Reg field,
                    size_t lo, size_t hi, int done) {
  size_t count = hi - lo;
  if (count <= 3) {
    for (size_t i = lo; i < hi; ++i) {
      EmitCompareConst(e, field, cases[i].value);
      e.Jcc(Cond::kE, case_labels[i]);
    }
    e.Jmp(done);
    return;
  }
  size_t mid = lo + count / 2;
  int lower = e.NewLabel();
  EmitCompareConst(e, field, cases[mid].value);
  e.Jcc(Cond::kB, lower);
  EmitTreeSearch(e, cases, case_labels, field, mid, hi, done);
  e.Bind(lower);
  EmitTreeSearch(e, cases, case_labels, field, lo, mid, done);
}

}  // namespace

CompiledStub::CompiledStub(std::unique_ptr<CodeBuffer> buffer,
                           size_t lir_insns, size_t peephole_rewrites)
    : buffer_(std::move(buffer)),
      lir_insns_(lir_insns),
      peephole_rewrites_(peephole_rewrites) {}

bool CodegenAvailable() {
#if defined(SPIN_JIT_X86_64)
  static const bool disabled = std::getenv("SPIN_DISABLE_JIT") != nullptr;
  return !disabled;
#else
  return false;
#endif
}

bool StubEligible(const StubSpec& spec, std::string* why) {
  auto fail = [&](const char* reason) {
    if (why != nullptr) {
      *why = reason;
    }
    return false;
  };
  if (spec.num_args > 6) {
    return fail("more than 6 register arguments");
  }
  for (const BindingSpec& binding : spec.bindings) {
    std::vector<const CallableSpec*> callables;
    callables.push_back(&binding.handler);
    for (const CallableSpec& g : binding.guards) {
      callables.push_back(&g);
    }
    for (const CallableSpec* c : callables) {
      if (c->closure_form && spec.num_args > 5) {
        return fail("closure plus more than 5 arguments");
      }
      if (!UseInline(spec, *c) && c->fn == nullptr) {
        return fail("callable has no native entry and cannot be inlined");
      }
    }
    for (uint8_t p : binding.byref_params) {
      if (p >= spec.num_args) {
        return fail("by-ref parameter index out of range");
      }
    }
  }
  if (spec.tree.has_value()) {
    const StubTree& tree = *spec.tree;
    if (tree.arg >= spec.num_args) {
      return fail("tree argument index out of range");
    }
    if (tree.cases.size() != spec.bindings.size()) {
      return fail("tree must cover every binding exactly once");
    }
    std::vector<bool> covered(spec.bindings.size(), false);
    for (size_t i = 0; i < tree.cases.size(); ++i) {
      const TreeCase& c = tree.cases[i];
      if (c.binding_index >= spec.bindings.size() ||
          covered[c.binding_index]) {
        return fail("tree case indices must be a permutation of bindings");
      }
      covered[c.binding_index] = true;
      if (i > 0 && tree.cases[i - 1].value >= c.value) {
        return fail("tree case values must be sorted and distinct");
      }
    }
  }
  return true;
}

std::unique_ptr<CompiledStub> CompileStub(const StubSpec& spec) {
  if (!CodegenAvailable() || !StubEligible(spec)) {
    return nullptr;
  }
  Emitter e;
  // Prologue: keep the frame pointer in rbx (callee-saved). After the push,
  // rsp is 16-byte aligned at every emitted call.
  e.Emit({.op = LOp::kPush, .dst = kFrameReg});
  e.MovRegReg(kFrameReg, Reg::kRdi);

  if (spec.tree.has_value()) {
    const StubTree& tree = *spec.tree;
    SPIN_ASSERT(tree.cases.size() == spec.bindings.size());
    int done = e.NewLabel();
    // Load the discriminating field once.
    e.Load(Reg::kRax, kFrameReg,
           static_cast<int32_t>(kFrameArgsOffset + 8 * tree.arg));
    e.Load(Reg::kRcx, Reg::kRax, static_cast<int32_t>(tree.offset),
           tree.width);
    uint64_t width_mask =
        tree.width == 8 ? ~0ull : ((1ull << (8 * tree.width)) - 1);
    if ((tree.mask & width_mask) != width_mask) {
      e.MovRegImm(Reg::kRdx, tree.mask);
      e.Alu(LOp::kAnd, Reg::kRcx, Reg::kRdx);
    }
    std::vector<int> case_labels;
    case_labels.reserve(tree.cases.size());
    for (size_t i = 0; i < tree.cases.size(); ++i) {
      case_labels.push_back(e.NewLabel());
    }
    EmitTreeSearch(e, tree.cases, case_labels, Reg::kRcx, 0,
                   tree.cases.size(), done);
    for (size_t i = 0; i < tree.cases.size(); ++i) {
      e.Bind(case_labels[i]);
      EmitBindingBody(e, spec, spec.bindings[tree.cases[i].binding_index],
                      done);
      e.Jmp(done);
    }
    e.Bind(done);
  } else {
    for (const BindingSpec& binding : spec.bindings) {
      int skip = e.NewLabel();
      EmitBindingBody(e, spec, binding, skip);
      e.Bind(skip);
    }
  }

  e.Emit({.op = LOp::kPop, .dst = kFrameReg});
  e.Emit({.op = LOp::kRet});

  size_t rewrites = spec.optimize ? Peephole(e.code) : 0;
  std::vector<uint8_t> bytes = Encode(e.code);
  std::unique_ptr<CodeBuffer> buffer = CodeBuffer::Create(bytes);
  if (buffer == nullptr) {
    return nullptr;
  }
  return std::make_unique<CompiledStub>(std::move(buffer), e.code.size(),
                                        rewrites);
}

std::unique_ptr<CompiledMicro> CompileMicro(const micro::Program& prog,
                                            bool optimize) {
  if (!CodegenAvailable() ||
      prog.Validate() != micro::ValidateStatus::kOk ||
      prog.num_args() > 6) {
    return nullptr;
  }
  Emitter e;
  // Leaf function: spill the register arguments into the red zone so
  // kLoadArg has a fixed home for each.
  for (int i = 0; i < prog.num_args(); ++i) {
    e.Store(Reg::kRsp, -8 * (i + 1), kArgRegs[i]);
  }
  MicroEnv env;
  env.standalone = true;
  LowerMicroValue(e, prog, env);
  e.Emit({.op = LOp::kRet});
  if (optimize) {
    Peephole(e.code);
  }
  std::vector<uint8_t> bytes = Encode(e.code);
  std::unique_ptr<CodeBuffer> buffer = CodeBuffer::Create(bytes);
  if (buffer == nullptr) {
    return nullptr;
  }
  return std::make_unique<CompiledMicro>(std::move(buffer));
}

}  // namespace codegen
}  // namespace spin
