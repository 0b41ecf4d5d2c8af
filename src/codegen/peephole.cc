#include "src/codegen/peephole.h"

#include <cstdint>
#include <optional>

#include "src/rt/panic.h"

namespace spin {
namespace codegen {
namespace {

// Whether the instruction writes its dst register.
bool WritesDst(const LInsn& insn) {
  switch (insn.op) {
    case LOp::kMovRegImm:
    case LOp::kMovRegReg:
    case LOp::kLoadRegMem:
    case LOp::kLea:
    case LOp::kAdd:
    case LOp::kSub:
    case LOp::kAnd:
    case LOp::kOr:
    case LOp::kXor:
    case LOp::kShlImm:
    case LOp::kShrImm:
    case LOp::kSetcc:
    case LOp::kMovzx8:
    case LOp::kPop:
      return true;
    default:
      return false;
  }
}

struct LoadFact {
  Reg base;
  int32_t disp;
  uint8_t width;

  friend bool operator==(const LoadFact&, const LoadFact&) = default;
};

// Per-register "reg currently holds the value of [base+disp]" facts.
// Generated stubs only branch forward, so a single in-order pass sees every
// jump to a label before the label binds; facts at a label are the
// intersection (meet) of the facts on each incoming edge.
class FactTable {
 public:
  void KillAll() {
    for (auto& f : facts_) {
      f.reset();
    }
  }

  void KillReg(Reg reg) {
    facts_[Idx(reg)].reset();
    for (auto& f : facts_) {
      if (f && f->base == reg) {
        f.reset();
      }
    }
  }

  // A store of `width` bytes at [base+disp] happened. Facts loaded from the
  // same base register at a provably disjoint range survive (the dispatch
  // stub's bookkeeping stores at fired/result offsets must not invalidate
  // argument-slot facts); everything else dies.
  void KillStore(Reg base, int32_t disp, uint8_t width) {
    for (auto& f : facts_) {
      if (!f) {
        continue;
      }
      bool disjoint = f->base == base &&
                      (f->disp + f->width <= disp ||
                       disp + width <= f->disp);
      if (!disjoint) {
        f.reset();
      }
    }
  }

  bool Holds(Reg reg, Reg base, int32_t disp, uint8_t width) const {
    const auto& f = facts_[Idx(reg)];
    return f && *f == LoadFact{base, disp, width};
  }

  void Record(Reg reg, Reg base, int32_t disp, uint8_t width) {
    if (reg == base) {
      facts_[Idx(reg)].reset();
      return;
    }
    facts_[Idx(reg)] = LoadFact{base, disp, width};
  }

  void IntersectWith(const FactTable& other) {
    for (size_t i = 0; i < 16; ++i) {
      if (facts_[i] && (!other.facts_[i] || !(*facts_[i] == *other.facts_[i]))) {
        facts_[i].reset();
      }
    }
  }

 private:
  static size_t Idx(Reg reg) { return static_cast<size_t>(reg); }
  std::optional<LoadFact> facts_[16];
};

// Meets `facts` into the facts recorded for branches to `label`. No-op when
// the pass degraded for backward branches (`incoming` is then empty).
void RecordIncoming(std::vector<std::optional<FactTable>>& incoming,
                    int label, const FactTable& facts) {
  if (incoming.empty()) {
    return;
  }
  std::optional<FactTable>& in = incoming[static_cast<size_t>(label)];
  if (in.has_value()) {
    in->IntersectWith(facts);
  } else {
    in = facts;
  }
}

size_t OnePass(std::vector<LInsn>& code) {
  size_t rewrites = 0;
  std::vector<LInsn> out;
  out.reserve(code.size());
  FactTable facts;
  // Meet of facts over branches into each (forward) label, recorded as the
  // branches are seen. This is only sound when every branch is forward (as
  // the stub compiler guarantees); with any backward branch we degrade to
  // killing all facts at labels. Labels are small dense integers, so the
  // per-label tables are vectors indexed by label.
  constexpr size_t kUnbound = SIZE_MAX;
  std::vector<size_t> bound_at;
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i].op == LOp::kBind) {
      SPIN_ASSERT(code[i].label >= 0);
      auto label = static_cast<size_t>(code[i].label);
      if (label >= bound_at.size()) {
        bound_at.resize(label + 1, kUnbound);
      }
      bound_at[label] = i;
    }
  }
  bool backward_branches = false;
  for (size_t i = 0; i < code.size() && !backward_branches; ++i) {
    if (code[i].op == LOp::kJcc || code[i].op == LOp::kJmp) {
      auto label = static_cast<size_t>(code[i].label);
      backward_branches = label >= bound_at.size() ||
                          bound_at[label] == kUnbound || bound_at[label] < i;
    }
  }
  // Only consulted (and only indexed) when every branch is forward to a
  // bound label.
  std::vector<std::optional<FactTable>> incoming(
      backward_branches ? 0 : bound_at.size());
  bool reachable = true;  // false between an unconditional jmp and a label

  for (size_t i = 0; i < code.size(); ++i) {
    LInsn insn = code[i];

    // (1) cmp r, 0 -> test r, r
    if (insn.op == LOp::kCmpRegImm32 && insn.imm == 0) {
      insn.op = LOp::kTestRegReg;
      insn.src = insn.dst;
      ++rewrites;
    }

    // (2) jmp to the label bound by the next instruction
    if (insn.op == LOp::kJmp && i + 1 < code.size() &&
        code[i + 1].op == LOp::kBind && code[i + 1].label == insn.label) {
      ++rewrites;
      continue;  // control falls through; facts carry unchanged
    }

    // (3) mov r, r
    if (insn.op == LOp::kMovRegReg && insn.dst == insn.src) {
      ++rewrites;
      continue;
    }

    // (4) redundant reload
    if (insn.op == LOp::kLoadRegMem && reachable &&
        facts.Holds(insn.dst, insn.base, insn.disp, insn.width)) {
      ++rewrites;
      continue;
    }

    // Update dataflow state.
    switch (insn.op) {
      case LOp::kLoadRegMem:
        facts.KillReg(insn.dst);
        facts.Record(insn.dst, insn.base, insn.disp, insn.width);
        break;
      case LOp::kCall:
        // Caller-saved registers die, and callees may write through filter
        // pointers into the frame: all facts die.
        facts.KillAll();
        break;
      case LOp::kStoreMemReg:
        facts.KillStore(insn.base, insn.disp, insn.width);
        break;
      case LOp::kStoreMemImm32:
        facts.KillStore(insn.base, insn.disp, 4);
        break;
      case LOp::kAluMemReg:
        facts.KillStore(insn.base, insn.disp, 8);
        break;
      case LOp::kIncMem32:
        facts.KillStore(insn.base, insn.disp, 4);
        break;
      case LOp::kJcc:
        RecordIncoming(incoming, insn.label, facts);
        break;  // fall-through keeps current facts
      case LOp::kJmp: {
        RecordIncoming(incoming, insn.label, facts);
        reachable = false;
        facts.KillAll();
        break;
      }
      case LOp::kBind: {
        if (backward_branches) {
          facts.KillAll();
          reachable = true;
          break;
        }
        const std::optional<FactTable>& in =
            incoming[static_cast<size_t>(insn.label)];
        if (!reachable) {
          // Only the recorded branches reach this point.
          facts = in.value_or(FactTable{});
        } else if (in.has_value()) {
          facts.IntersectWith(*in);
        }
        reachable = true;
        break;
      }
      case LOp::kPop:
        facts.KillReg(insn.dst);
        break;
      default:
        if (WritesDst(insn)) {
          facts.KillReg(insn.dst);
        }
        break;
    }

    out.push_back(insn);
  }

  code = std::move(out);
  return rewrites;
}

}  // namespace

size_t Peephole(std::vector<LInsn>& code) {
  size_t total = 0;
  // Each pass only shrinks the program; a handful of iterations reaches a
  // fixpoint on realistic stubs.
  for (int iter = 0; iter < 4; ++iter) {
    size_t n = OnePass(code);
    total += n;
    if (n == 0) {
      break;
    }
  }
  return total;
}

}  // namespace codegen
}  // namespace spin
