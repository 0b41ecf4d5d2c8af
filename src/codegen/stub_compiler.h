// Runtime compilation of specialized dispatch routines.
//
// "We use run-time code generation to build a specialized and optimized
// version of the dispatch routine. ... We specialize the code to the number
// of arguments in each event, and unroll the dispatch loop to transform
// handler invocations from indirect procedure calls through a list of
// handlers to direct procedure calls. We also inline the code of small
// guards and handlers directly into the dispatch routine. Finally, we use
// peephole optimizations to improve the quality of the generated code." (§3)
//
// CompileStub turns a StubSpec — the flattened form of an event's handler
// list — into x86-64 machine code with that structure:
//   - the binding loop is unrolled; each guard and handler that is not
//     inlined is called through its slot of the table's operand array,
//     which the stub keeps in a callee-saved register (one load per call,
//     no list walk),
//   - guards and handlers supplied as micro-programs are inlined,
//   - results are folded per the event's result policy,
//   - the fired-handler count is maintained for the raise wrapper's
//     no-handler/default-handler logic.
// The code is specialized to the spec's shape, not to its targets: every
// native entry and closure is read from the operand array (StubOperands),
// so specs with equal StubKeys compile to identical bytes and one compiled
// stub serves every table of that shape. The paper's stub embedded its
// handler addresses; this one trades that immediate for a load so that a
// change compiles only a shape no live table has.
//
// CompileMicro compiles a single micro-program into a standalone native
// procedure (args in registers, SysV). The dispatcher calls it only for
// stubs that call micro guards/handlers *out of line* — the "no inline"
// arm of Table 1 — once per body, when the body is admitted; outside a
// stub a micro body is interpreted. The differential tests use it to check
// JIT == interpreter.
#ifndef SRC_CODEGEN_STUB_COMPILER_H_
#define SRC_CODEGEN_STUB_COMPILER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/codegen/exec_memory.h"
#include "src/codegen/frame.h"
#include "src/micro/program.h"

namespace spin {
namespace codegen {

// A native procedure or inlinable micro-program participating in dispatch.
// `fn` and `closure` are operands: they do not decide the emitted code.
struct CallableSpec {
  void* fn = nullptr;       // native entry (C ABI); required unless inlined
  void* closure = nullptr;  // passed as the leading argument if closure_form
  bool closure_form = false;
  const micro::Program* prog = nullptr;  // inlined when inlining is enabled
};

struct BindingSpec {
  std::vector<CallableSpec> guards;  // every guard must return nonzero
  CallableSpec handler;
  // Indices of by-value event parameters the handler takes by reference
  // (filter installation, §2.3 "Passing arguments"): the stub passes the
  // address of the argument slot instead of its value.
  std::vector<uint8_t> byref_params;
};

// How multiple handler results combine (§2.3 "Handling results"). Custom
// result handlers take the interpreted path; these built-in policies are
// folded inline by generated code.
enum class ResultPolicy : uint8_t { kNone, kLast, kOr, kAnd, kSum };

// Guard decision tree (the §3.2 optimization the paper sketches as future
// work): when every binding discriminates on the same header field with a
// distinct constant, the stub loads the field once and binary-searches the
// sorted constants — O(log n) compares instead of n guard evaluations.
// Each matched binding's remaining guards are still evaluated after the
// tree selects it.
struct TreeCase {
  uint64_t value;        // pre-masked field value
  uint32_t binding_index;
};

struct StubTree {
  int arg = 0;            // event argument holding the base pointer
  uint64_t offset = 0;
  uint8_t width = 8;      // bytes
  uint64_t mask = ~0ull;
  std::vector<TreeCase> cases;  // sorted by value, values distinct
};

struct StubSpec {
  int num_args = 0;
  ResultPolicy policy = ResultPolicy::kNone;
  bool result_is_bool = false;  // normalize native bool returns (ABI: only
                                // %al is defined) before folding
  std::vector<BindingSpec> bindings;
  bool inline_micro = true;  // ablation: inline micro-programs?
  bool optimize = true;      // ablation: run the peephole pass?
  // When set, `bindings` are dispatched through the decision tree: exactly
  // the binding selected by the field value (if any) runs, after its
  // remaining guards pass. Every binding must appear in exactly one case.
  std::optional<StubTree> tree;
};

// The shape of a stub: every field of a StubSpec that decides the emitted
// bytes (arity, result policy and bool normalization, each callable's form
// and each inlined program with its immediates, by-ref slots, the tree's
// field and constants, inline_micro and optimize), and none that only
// names a native entry or a closure. Specs with equal keys compile to
// identical code and differ only in their operands.
class StubKey {
 public:
  explicit StubKey(const StubSpec& spec);

  friend bool operator==(const StubKey&, const StubKey&) = default;
  size_t hash() const { return hash_; }

  struct Hash {
    size_t operator()(const StubKey& key) const { return key.hash(); }
  };

 private:
  std::vector<uint64_t> words_;
  size_t hash_ = 0;
};

// The operand array a stub of `spec`'s shape reads at each call: for each
// binding in order, its guards in order and then its handler each add
// their closure (closure forms) and then their native entry (unless
// inlined).
std::vector<uint64_t> StubOperands(const StubSpec& spec);

class CompiledStub {
 public:
  CompiledStub(std::unique_ptr<CodeBuffer> buffer, size_t lir_insns,
               size_t peephole_rewrites);

  // Call with the operands of a spec whose key equals the compiled one's.
  DispatchStubFn entry() const { return entry_; }
  size_t code_size() const { return buffer_->code_size(); }
  size_t lir_insns() const { return lir_insns_; }
  size_t peephole_rewrites() const { return peephole_rewrites_; }

 private:
  std::unique_ptr<CodeBuffer> buffer_;
  DispatchStubFn entry_;
  size_t lir_insns_;
  size_t peephole_rewrites_;
};

class CompiledMicro {
 public:
  explicit CompiledMicro(std::unique_ptr<CodeBuffer> buffer)
      : buffer_(std::move(buffer)) {}
  // Cast to uint64_t(*)(uint64_t, ...) with the program's arity.
  void* entry() const { return const_cast<void*>(buffer_->entry()); }
  size_t code_size() const { return buffer_->code_size(); }

 private:
  std::unique_ptr<CodeBuffer> buffer_;
};

// True when this build/host can generate code (x86-64, JIT compiled in, and
// not disabled via the SPIN_DISABLE_JIT environment variable).
bool CodegenAvailable();

// Checks whether `spec` can be compiled: ≤6 register args (≤5 when any
// callable uses a closure), every callable resolvable (a native fn, or,
// when inlining, a micro-program that validates), and a built-in result
// policy.
// On failure returns false and explains in `why` if non-null.
bool StubEligible(const StubSpec& spec, std::string* why = nullptr);

// Compiles a dispatch stub; returns nullptr if ineligible or codegen is
// unavailable.
std::unique_ptr<CompiledStub> CompileStub(const StubSpec& spec);

// Compiles a micro-program into a standalone procedure; returns nullptr if
// codegen is unavailable or the program does not validate.
std::unique_ptr<CompiledMicro> CompileMicro(const micro::Program& prog,
                                            bool optimize = true);

}  // namespace codegen
}  // namespace spin

#endif  // SRC_CODEGEN_STUB_COMPILER_H_
