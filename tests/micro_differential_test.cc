// Differential fuzzing: interpreter vs JIT over randomized verified
// programs.
//
// The verify-then-JIT admission path rests on one equivalence: for every
// program the verifier admits, the compiled stub and the interpreter are
// the same function. This suite generates ≥10k random pure programs
// (seeded, reproducible) covering every non-memory opcode including
// forward control flow, admits each through Verify, and runs both
// evaluators on randomized payloads:
//
//   - results must be identical bit-for-bit,
//   - the interpreter's step count must respect the verifier's budget
//     proof,
//   - the payload must be untouched (side-effect freedom; the suite runs
//     under ASan/UBSan and TSan in CI, where a stray write is a finding).
//
// Under SPIN_DISABLE_JIT (the _nojit ctest variant) the JIT half is
// skipped and the suite still checks the verify/interpret properties, so
// the corpus exercises the portable path too.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/codegen/stub_compiler.h"
#include "src/micro/interp.h"
#include "src/micro/program.h"
#include "src/micro/verify.h"

namespace spin {
namespace micro {
namespace {

struct Rng {
  uint64_t state;
  uint64_t Next() {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
};

Insn I(Op op, uint8_t dst = 0, uint8_t a = 0, uint8_t b = 0,
       uint64_t imm = 0) {
  return Insn{op, dst, a, b, imm};
}

// Random valid pure program over every non-memory opcode. Forward jumps
// target strictly later indices; the trailing terminator keeps every
// fall-through path in range, so the result verifies by construction.
Program RandomProgram(Rng& rng, int num_args) {
  size_t body = 1 + rng.Below(48);
  std::vector<Insn> code;
  code.reserve(body + 1);
  for (size_t i = 0; i < body; ++i) {
    uint8_t dst = static_cast<uint8_t>(rng.Below(kNumRegs));
    uint8_t a = static_cast<uint8_t>(rng.Below(kNumRegs));
    uint8_t b = static_cast<uint8_t>(rng.Below(kNumRegs));
    switch (rng.Below(12)) {
      case 0:
        code.push_back(I(Op::kLoadArg, dst, 0, 0, rng.Below(num_args)));
        break;
      case 1:
        code.push_back(I(Op::kLoadImm, dst, 0, 0, rng.Next()));
        break;
      case 2:
        code.push_back(I(Op::kMov, dst, a));
        break;
      case 3: {
        static const Op kAlu[] = {Op::kAdd, Op::kSub, Op::kAnd, Op::kOr,
                                  Op::kXor};
        code.push_back(I(kAlu[rng.Below(5)], dst, a, b));
        break;
      }
      case 4: {
        static const Op kCmp[] = {Op::kCmpEq,  Op::kCmpNe,  Op::kCmpLtU,
                                  Op::kCmpLeU, Op::kCmpLtS, Op::kCmpLeS};
        code.push_back(I(kCmp[rng.Below(6)], dst, a, b));
        break;
      }
      case 5:
        code.push_back(I(rng.Below(2) ? Op::kShlImm : Op::kShrImm, dst, a,
                         0, rng.Below(64)));
        break;
      case 6:
        code.push_back(I(Op::kNot, dst, a));
        break;
      case 7:
      case 8: {
        uint64_t target = code.size() + 1 + rng.Below(body - i);
        code.push_back(
            I(rng.Below(2) ? Op::kJz : Op::kJmp, 0, a, 0, target));
        break;
      }
      default:
        code.push_back(I(Op::kAdd, dst, a, b));
        break;
    }
  }
  if (rng.Below(2)) {
    code.push_back(I(Op::kRet, 0, static_cast<uint8_t>(rng.Below(kNumRegs))));
  } else {
    code.push_back(I(Op::kRetImm, 0, 0, 0, rng.Next()));
  }
  return Program(std::move(code), num_args, /*functional=*/true);
}

uint64_t RunCompiled(const codegen::CompiledMicro& compiled,
                     const uint64_t* args, int num_args) {
  // Zero-pad to 6 register arguments: CompileMicro spills only its
  // declared arity, so the extra registers are ignored.
  auto* fn = reinterpret_cast<uint64_t (*)(uint64_t, uint64_t, uint64_t,
                                           uint64_t, uint64_t, uint64_t)>(
      compiled.entry());
  uint64_t a[6] = {};
  for (int i = 0; i < num_args && i < 6; ++i) {
    a[i] = args[i];
  }
  return fn(a[0], a[1], a[2], a[3], a[4], a[5]);
}

void RunSeed(uint64_t seed, int programs, int payloads) {
  Rng rng{seed};
  const bool jit = codegen::CodegenAvailable();
  for (int p = 0; p < programs; ++p) {
    int num_args = 1 + static_cast<int>(rng.Below(6));
    Program prog = RandomProgram(rng, num_args);
    VerifyResult v = Verify(prog, WireGuardLimits());
    ASSERT_TRUE(v.ok()) << "seed " << seed << " program " << p << ": "
                        << VerifyStatusName(v.status) << "\n"
                        << prog.ToString();
    std::unique_ptr<codegen::CompiledMicro> compiled;
    if (jit) {
      compiled = codegen::CompileMicro(prog);
      ASSERT_NE(compiled, nullptr)
          << "seed " << seed << " program " << p
          << ": admitted program failed to compile\n"
          << prog.ToString();
    }
    for (int q = 0; q < payloads; ++q) {
      uint64_t args[kMaxArgs];
      for (int i = 0; i < num_args; ++i) {
        // Mix adversarial edge values in with random payloads.
        switch (rng.Below(5)) {
          case 0:
            args[i] = 0;
            break;
          case 1:
            args[i] = ~0ull;
            break;
          case 2:
            args[i] = 0x8000000000000000ull;
            break;
          default:
            args[i] = rng.Next();
            break;
        }
      }
      uint64_t saved[kMaxArgs];
      std::memcpy(saved, args, sizeof(saved));
      uint64_t steps = 0;
      uint64_t want = Run(prog, args, num_args, &steps);
      ASSERT_LE(steps, v.budget)
          << "seed " << seed << " program " << p
          << ": interpreter exceeded the verifier's budget proof\n"
          << prog.ToString();
      ASSERT_EQ(std::memcmp(saved, args, sizeof(saved)), 0)
          << "seed " << seed << " program " << p
          << ": interpreter mutated the payload";
      if (jit) {
        uint64_t got = RunCompiled(*compiled, args, num_args);
        ASSERT_EQ(want, got)
            << "seed " << seed << " program " << p << " payload " << q
            << ": interpreter/JIT divergence\n"
            << prog.ToString();
        ASSERT_EQ(std::memcmp(saved, args, sizeof(saved)), 0)
            << "seed " << seed << " program " << p
            << ": JIT mutated the payload";
      }
    }
  }
}

// 8 seeds x 1250 programs = 10k verified programs, each differentially
// executed on 4 payloads (40k runs per evaluator). Split into separate
// TESTs so a failure names its seed and ctest can parallelize.
TEST(MicroDifferential, Seed1) { RunSeed(0x1001, 1250, 4); }
TEST(MicroDifferential, Seed2) { RunSeed(0x2002, 1250, 4); }
TEST(MicroDifferential, Seed3) { RunSeed(0x3003, 1250, 4); }
TEST(MicroDifferential, Seed4) { RunSeed(0x4004, 1250, 4); }
TEST(MicroDifferential, Seed5) { RunSeed(0x5005, 1250, 4); }
TEST(MicroDifferential, Seed6) { RunSeed(0x6006, 1250, 4); }
TEST(MicroDifferential, Seed7) { RunSeed(0x7007, 1250, 4); }
TEST(MicroDifferential, Seed8) { RunSeed(0x8008, 1250, 4); }

// Canned regression programs with corner-case immediates that random
// payloads hit rarely.
TEST(MicroDifferential, ShiftBoundaries) {
  for (int amount : {0, 1, 31, 32, 33, 63}) {
    Program prog = std::move(ProgramBuilder(1, true)
                                 .LoadArg(0, 0)
                                 .ShlImm(1, 0, amount)
                                 .ShrImm(2, 1, amount)
                                 .Ret(2))
                       .Build();
    ASSERT_TRUE(Verify(prog, WireGuardLimits()).ok());
    if (!codegen::CodegenAvailable()) {
      GTEST_SKIP() << "codegen unavailable";
    }
    auto compiled = codegen::CompileMicro(prog);
    ASSERT_NE(compiled, nullptr);
    for (uint64_t arg : {0ull, 1ull, ~0ull, 0xdeadbeefcafef00dull}) {
      EXPECT_EQ(::spin::micro::Run(prog, &arg, 1),
                RunCompiled(*compiled, &arg, 1))
          << "shift " << amount << " arg " << arg;
    }
  }
}

}  // namespace
}  // namespace micro
}  // namespace spin
