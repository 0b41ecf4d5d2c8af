// Bindings: one installed handler with its guards and execution properties.
//
// A Binding is the unit the paper's Dispatcher.InstallHandler returns: the
// handler procedure, its optional closure, the guards that gate it
// (installer-supplied and authority-imposed, §2.3/§2.5), its ordering
// constraint, and its execution properties (asynchronous, EPHEMERAL,
// filter). Its first guards, the installer's and the authority's, are on
// it before it is charged and published. The handler body is immutable
// once the binding is active; the guard list may change afterwards ("any
// number of guards can be imposed on a handler, and they can be added and
// removed dynamically", §2.5). A guard change never edits a list in place:
// it stores a new immutable list on the binding and rebuilds the event's
// dispatch table, which carries the list as of that rebuild, so raises
// read guards only through their table (§3's single-store handler-list
// replacement).
#ifndef SRC_CORE_BINDING_H_
#define SRC_CORE_BINDING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/codegen/stub_compiler.h"
#include "src/micro/program.h"
#include "src/types/module.h"
#include "src/types/signature.h"

namespace spin {

class EventBase;

// Type-erased invokers generated by the typed install front-end; they
// unpack argument slots and call the native procedure with its real C++
// signature (the interpreter's counterpart of the stub's direct call).
using HandlerInvoker = uint64_t (*)(void* fn, void* closure, uint64_t* slots);
using GuardInvoker = bool (*)(void* fn, void* closure, const uint64_t* slots);

// Ordering constraints (§2.3 "Ordering handlers"): placement is decided at
// installation time, exactly as in the paper.
enum class OrderKind : uint8_t { kUnordered, kFirst, kLast, kBefore, kAfter };

class Binding;
using BindingHandle = std::shared_ptr<Binding>;

struct Order {
  OrderKind kind = OrderKind::kUnordered;
  BindingHandle ref;  // referent for kBefore / kAfter
};

// The ordering constraint a binding keeps. It names its referent weakly:
// bindings ordered against each other would otherwise own each other and
// never be freed.
struct HeldOrder {
  OrderKind kind = OrderKind::kUnordered;
  std::weak_ptr<Binding> ref;

  HeldOrder& operator=(const Order& order) {
    kind = order.kind;
    ref = order.ref;
    return *this;
  }
  // The constraint, with a null referent once that binding is freed.
  Order Get() const { return Order{kind, ref.lock()}; }
};

// A micro-program guard is inlined by a stub or interpreted; `compiled` is
// set only on a dispatcher whose stubs call micro bodies out of line
// (enable_jit without inline_micro).
struct GuardClause {
  void* fn = nullptr;
  void* closure = nullptr;
  bool closure_form = false;
  bool imposed = false;  // imposed by the event's authority (§2.5)
  GuardInvoker invoker = nullptr;            // native path
  const ProcSig* sig = nullptr;              // native path: declared type
  std::optional<micro::Program> prog;        // inlinable path
  std::shared_ptr<codegen::CompiledMicro> compiled;  // out-of-line stub call

  // Bytes the guard charges against its binding owner's quota.
  size_t MemoryBytes() const {
    return sizeof(GuardClause) +
           (prog ? prog->code().size() * sizeof(micro::Insn) : 0);
  }
};

// One immutable guard list, shared by the binding and every table built
// while it was current. Null when the binding has no guards.
using GuardList = std::shared_ptr<const std::vector<GuardClause>>;

class Binding {
 public:
  Binding() = default;
  Binding(const Binding&) = delete;
  Binding& operator=(const Binding&) = delete;

  EventBase* event = nullptr;
  const Module* owner = nullptr;
  ProcSig sig;  // the handler's signature (may differ from the event's for
                // closures and filters)

  // Handler body: a native procedure (fn + invoker), a micro-program, or
  // both (prog preferred for inlining when present). A micro body is
  // compiled (`compiled`) only for a stub that calls it out of line.
  void* fn = nullptr;
  void* closure = nullptr;
  bool closure_form = false;
  HandlerInvoker invoker = nullptr;
  std::optional<micro::Program> prog;
  std::shared_ptr<codegen::CompiledMicro> compiled;

  // Filter by-ref widening: indices of by-value event parameters this
  // handler takes by reference (it receives the address of the argument
  // copy; later handlers and guards see the updated value).
  std::vector<uint8_t> byref_params;

  bool async = false;
  bool ephemeral = false;
  bool may_throw = false;  // forces interpreted dispatch for the event
  bool intrinsic = false;  // the event's same-named procedure
  bool erased = false;     // fn is an opaque context, not a procedure: the
                           // binding is never a direct-call or stub target
  HeldOrder order;

  // Keeps closure state (e.g. a boxed lambda) alive as long as the binding.
  std::shared_ptr<void> keep_alive;

  // Cleared on uninstall; raises observe removal via table regeneration,
  // this flag serves API-level queries and double-uninstall detection.
  std::atomic<bool> active{true};

  // --- guard list (install side) -------------------------------------

  // Read and replaced only under the dispatcher's mutex, or before the
  // binding is installed. Raises never read it: each table generation
  // holds its own reference (TableEntry::guards).
  const GuardList& guards() const { return guards_; }
  size_t guard_count() const {
    return guards_ == nullptr ? 0 : guards_->size();
  }

  // Stores `guards` as the binding's list (null when empty). Tables built
  // earlier keep the list they took; it is freed with the last of them.
  void SetGuards(std::vector<GuardClause> guards) {
    guards_ = guards.empty() ? nullptr
                             : std::make_shared<const std::vector<GuardClause>>(
                                   std::move(guards));
  }

  // Inserts one guard: imposed guards go to the front, so they evaluate
  // before the installer's own.
  void AddGuard(GuardClause guard) {
    std::vector<GuardClause> list;
    if (guards_ != nullptr) {
      list = *guards_;
    }
    list.insert(guard.imposed ? list.begin() : list.end(), std::move(guard));
    SetGuards(std::move(list));
  }

  size_t MemoryBytes() const {
    size_t bytes = sizeof(Binding);
    if (guards_ != nullptr) {
      for (const GuardClause& g : *guards_) {
        bytes += g.MemoryBytes();
      }
    }
    if (prog) {
      bytes += prog->code().size() * sizeof(micro::Insn);
    }
    return bytes;
  }

 private:
  GuardList guards_;
};

// The one owner of an extension's bindings. Clear() and the destructor
// uninstall the bindings still active, newest first, each through its own
// event's dispatcher with the binding's owner module as requestor. If any
// of them runs on a pool (an async binding, or any binding of an async
// event), Clear() then waits out the raises that read a table from before
// the uninstalls and drains that pool, so no queued body calls into the
// owner afterwards. A set that holds such a binding must therefore never
// be cleared from a task of the pool it drains, nor from inside a raise:
// either would wait on itself.
//
// An owner declares its set after every member that its handlers, guards
// and requestor modules use. Member destruction then uninstalls first, and
// a constructor that throws part-way takes back what it installed. An
// uninstall the event's authorizer refuses throws out of Clear(); out of
// the destructor it ends the program, since the handlers would otherwise
// outlive their owner.
class BindingSet {
 public:
  BindingSet() = default;
  ~BindingSet() { Clear(); }
  BindingSet(BindingSet&& other) noexcept = default;
  // Clears this set first, then takes `other`'s bindings.
  BindingSet& operator=(BindingSet&& other);
  BindingSet(const BindingSet&) = delete;
  BindingSet& operator=(const BindingSet&) = delete;

  void Add(BindingHandle binding) { bindings_.push_back(std::move(binding)); }
  void Clear();

  size_t size() const { return bindings_.size(); }
  const BindingHandle& operator[](size_t i) const { return bindings_[i]; }

 private:
  std::vector<BindingHandle> bindings_;
};

}  // namespace spin

#endif  // SRC_CORE_BINDING_H_
