#include "src/codegen/lir.h"

#include <cstddef>

#include "src/rt/panic.h"

namespace spin {
namespace codegen {

const char* RegName(Reg reg) {
  static const char* names[16] = {"rax", "rcx", "rdx", "rbx", "rsp", "rbp",
                                  "rsi", "rdi", "r8",  "r9",  "r10", "r11",
                                  "r12", "r13", "r14", "r15"};
  return names[static_cast<int>(reg) & 15];
}

Cond Negate(Cond cc) {
  // Condition codes pair even/odd with their negation.
  return static_cast<Cond>(static_cast<uint8_t>(cc) ^ 1);
}

namespace {

class Assembler {
 public:
  static constexpr size_t kUnbound = SIZE_MAX;

  std::vector<uint8_t> bytes;
  std::vector<size_t> label_offsets;  // indexed by label; kUnbound if unseen
  struct Fixup {
    size_t at;   // offset of the rel32 field
    int label;
  };
  std::vector<Fixup> fixups;

  void Byte(uint8_t b) { bytes.push_back(b); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      Byte(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      Byte(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  // REX prefix; emitted when any bit set or `force` (byte-register access
  // to spl/bpl/sil/dil requires an empty REX).
  void Rex(bool w, int reg, int rm, bool force = false) {
    uint8_t rex = 0x40;
    if (w) {
      rex |= 0x08;
    }
    if (reg >= 8) {
      rex |= 0x04;
    }
    if (rm >= 8) {
      rex |= 0x01;
    }
    if (rex != 0x40 || force) {
      Byte(rex);
    }
  }

  // ModRM (+SIB +disp) for a register-direct operand.
  void ModRmReg(int reg, int rm) {
    Byte(static_cast<uint8_t>(0xC0 | ((reg & 7) << 3) | (rm & 7)));
  }

  // ModRM (+SIB +disp) for [base + disp].
  void ModRmMem(int reg, int base, int32_t disp) {
    int base_low = base & 7;
    bool need_sib = base_low == 4;  // rsp/r12
    uint8_t mod;
    if (disp == 0 && base_low != 5) {  // rbp/r13 need an explicit disp
      mod = 0x00;
    } else if (disp >= -128 && disp <= 127) {
      mod = 0x40;
    } else {
      mod = 0x80;
    }
    Byte(static_cast<uint8_t>(mod | ((reg & 7) << 3) | (need_sib ? 4 : base_low)));
    if (need_sib) {
      Byte(0x24);  // scale=0, no index, base in low bits of modrm base
    }
    if (mod == 0x40) {
      Byte(static_cast<uint8_t>(disp));
    } else if (mod == 0x80) {
      U32(static_cast<uint32_t>(disp));
    }
  }
};

}  // namespace

std::vector<uint8_t> Encode(const std::vector<LInsn>& code) {
  Assembler a;
  // An x86-64 instruction is at most 15 bytes.
  a.bytes.reserve(code.size() * 15);
  for (const LInsn& insn : code) {
    int dst = static_cast<int>(insn.dst);
    int src = static_cast<int>(insn.src);
    int base = static_cast<int>(insn.base);
    switch (insn.op) {
      case LOp::kMovRegImm: {
        int64_t sv = static_cast<int64_t>(insn.imm);
        if (sv >= INT32_MIN && sv < 0) {
          // mov r64, simm32 (sign-extending C7 form)
          a.Rex(true, 0, dst);
          a.Byte(0xC7);
          a.ModRmReg(0, dst);
          a.U32(static_cast<uint32_t>(insn.imm));
        } else if ((insn.imm >> 32) == 0) {
          // mov r32, imm32 zero-extends: shortest form
          a.Rex(false, 0, dst);
          a.Byte(static_cast<uint8_t>(0xB8 + (dst & 7)));
          a.U32(static_cast<uint32_t>(insn.imm));
        } else {
          a.Rex(true, 0, dst);
          a.Byte(static_cast<uint8_t>(0xB8 + (dst & 7)));
          a.U64(insn.imm);
        }
        break;
      }
      case LOp::kMovRegReg:
        a.Rex(true, src, dst);
        a.Byte(0x89);
        a.ModRmReg(src, dst);
        break;
      case LOp::kLoadRegMem:
        switch (insn.width) {
          case 1:
            a.Rex(true, dst, base);
            a.Byte(0x0F);
            a.Byte(0xB6);
            break;
          case 2:
            a.Rex(true, dst, base);
            a.Byte(0x0F);
            a.Byte(0xB7);
            break;
          case 4:
            a.Rex(false, dst, base);  // 32-bit load zero-extends
            a.Byte(0x8B);
            break;
          case 8:
            a.Rex(true, dst, base);
            a.Byte(0x8B);
            break;
          default:
            SPIN_PANIC("bad load width %u", insn.width);
        }
        a.ModRmMem(dst, base, insn.disp);
        break;
      case LOp::kStoreMemReg:
        switch (insn.width) {
          case 1:
            // Byte stores from spl/bpl/sil/dil need an empty REX.
            a.Rex(false, src, base, /*force=*/src >= 4 && src <= 7);
            a.Byte(0x88);
            break;
          case 2:
            a.Byte(0x66);
            a.Rex(false, src, base);
            a.Byte(0x89);
            break;
          case 4:
            a.Rex(false, src, base);
            a.Byte(0x89);
            break;
          case 8:
            a.Rex(true, src, base);
            a.Byte(0x89);
            break;
          default:
            SPIN_PANIC("bad store width %u", insn.width);
        }
        a.ModRmMem(src, base, insn.disp);
        break;
      case LOp::kStoreMemImm32:
        a.Rex(false, 0, base);
        a.Byte(0xC7);
        a.ModRmMem(0, base, insn.disp);
        a.U32(static_cast<uint32_t>(insn.imm));
        break;
      case LOp::kLea:
        a.Rex(true, dst, base);
        a.Byte(0x8D);
        a.ModRmMem(dst, base, insn.disp);
        break;
      case LOp::kAdd:
      case LOp::kSub:
      case LOp::kAnd:
      case LOp::kOr:
      case LOp::kXor:
      case LOp::kCmpRegReg:
      case LOp::kTestRegReg: {
        uint8_t opcode = 0;
        switch (insn.op) {
          case LOp::kAdd:
            opcode = 0x01;
            break;
          case LOp::kSub:
            opcode = 0x29;
            break;
          case LOp::kAnd:
            opcode = 0x21;
            break;
          case LOp::kOr:
            opcode = 0x09;
            break;
          case LOp::kXor:
            opcode = 0x31;
            break;
          case LOp::kCmpRegReg:
            opcode = 0x39;
            break;
          default:
            opcode = 0x85;  // test
            break;
        }
        a.Rex(true, src, dst);
        a.Byte(opcode);
        a.ModRmReg(src, dst);
        break;
      }
      case LOp::kAluMemReg: {
        uint8_t opcode = insn.alu == AluSub::kAdd  ? 0x01
                         : insn.alu == AluSub::kOr ? 0x09
                                                   : 0x21;
        a.Rex(true, src, base);
        a.Byte(opcode);
        a.ModRmMem(src, base, insn.disp);
        break;
      }
      case LOp::kIncMem32:
        a.Rex(false, 0, base);
        a.Byte(0xFF);
        a.ModRmMem(0, base, insn.disp);
        break;
      case LOp::kShlImm:
      case LOp::kShrImm:
        a.Rex(true, 0, dst);
        a.Byte(0xC1);
        a.ModRmReg(insn.op == LOp::kShlImm ? 4 : 5, dst);
        a.Byte(static_cast<uint8_t>(insn.imm));
        break;
      case LOp::kCmpRegImm32:
        a.Rex(true, 0, dst);
        a.Byte(0x81);
        a.ModRmReg(7, dst);
        a.U32(static_cast<uint32_t>(insn.imm));
        break;
      case LOp::kSetcc:
        a.Rex(false, 0, dst, /*force=*/dst >= 4 && dst <= 7);
        a.Byte(0x0F);
        a.Byte(static_cast<uint8_t>(0x90 + static_cast<uint8_t>(insn.cc)));
        a.ModRmReg(0, dst);
        break;
      case LOp::kMovzx8:
        a.Rex(true, dst, dst);
        a.Byte(0x0F);
        a.Byte(0xB6);
        a.ModRmReg(dst, dst);
        break;
      case LOp::kCall:
        a.Rex(false, 0, dst);
        a.Byte(0xFF);
        a.ModRmReg(2, dst);
        break;
      case LOp::kPush:
        a.Rex(false, 0, dst);
        a.Byte(static_cast<uint8_t>(0x50 + (dst & 7)));
        break;
      case LOp::kPop:
        a.Rex(false, 0, dst);
        a.Byte(static_cast<uint8_t>(0x58 + (dst & 7)));
        break;
      case LOp::kJcc:
        a.Byte(0x0F);
        a.Byte(static_cast<uint8_t>(0x80 + static_cast<uint8_t>(insn.cc)));
        a.fixups.push_back({a.bytes.size(), insn.label});
        a.U32(0);
        break;
      case LOp::kJmp:
        a.Byte(0xE9);
        a.fixups.push_back({a.bytes.size(), insn.label});
        a.U32(0);
        break;
      case LOp::kBind: {
        SPIN_ASSERT(insn.label >= 0);
        auto label = static_cast<size_t>(insn.label);
        if (label >= a.label_offsets.size()) {
          a.label_offsets.resize(label + 1, Assembler::kUnbound);
        }
        a.label_offsets[label] = a.bytes.size();
        break;
      }
      case LOp::kRet:
        a.Byte(0xC3);
        break;
    }
  }
  for (const Assembler::Fixup& fixup : a.fixups) {
    auto label = static_cast<size_t>(fixup.label);
    SPIN_ASSERT_MSG(label < a.label_offsets.size() &&
                        a.label_offsets[label] != Assembler::kUnbound,
                    "unbound label L%d", fixup.label);
    int64_t rel = static_cast<int64_t>(a.label_offsets[label]) -
                  static_cast<int64_t>(fixup.at + 4);
    SPIN_ASSERT(rel >= INT32_MIN && rel <= INT32_MAX);
    uint32_t rel32 = static_cast<uint32_t>(rel);
    for (int i = 0; i < 4; ++i) {
      a.bytes[fixup.at + i] = static_cast<uint8_t>(rel32 >> (8 * i));
    }
  }
  return a.bytes;
}

}  // namespace codegen
}  // namespace spin
