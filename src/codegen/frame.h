// RaiseFrame: the ABI between the dispatcher's raise path and a dispatch
// routine (generated stub or interpreter).
//
// A typed Event<R(Args...)>::Raise packs its arguments into 8-byte slots.
// By-value arguments are copied into the slots — this is the argument copy
// of §2.4 that lets filters mutate arguments without disturbing the raiser;
// VAR (by-ref) arguments store the pointer itself. The dispatch routine
// reads slots, calls handlers per the x86-64 SysV ABI (or unpacks them in
// the interpreter), folds results, and counts fired handlers.
//
// This header is portable; only the stub compiler is x86-64 specific.
#ifndef SRC_CODEGEN_FRAME_H_
#define SRC_CODEGEN_FRAME_H_

#include <cstddef>
#include <cstdint>

namespace spin {

inline constexpr int kMaxEventArgs = 8;

struct RaiseFrame {
  uint64_t args[kMaxEventArgs] = {};
  uint64_t result = 0;
  uint32_t fired = 0;
  uint32_t aborted = 0;  // handlers terminated (EPHEMERAL) or faulted
};

// Fixed offsets baked into generated code.
inline constexpr size_t kFrameArgsOffset = 0;
inline constexpr size_t kFrameResultOffset = 64;
inline constexpr size_t kFrameFiredOffset = 72;

static_assert(offsetof(RaiseFrame, args) == kFrameArgsOffset);
static_assert(offsetof(RaiseFrame, result) == kFrameResultOffset);
static_assert(offsetof(RaiseFrame, fired) == kFrameFiredOffset);

// Signature of a compiled dispatch routine. `operands` is the dispatching
// table's operand array (codegen::StubOperands): the stub reads every call
// target and closure from it, so one routine serves every table of its
// shape.
using DispatchStubFn = void (*)(RaiseFrame*, const uint64_t* operands);

}  // namespace spin

#endif  // SRC_CODEGEN_FRAME_H_
