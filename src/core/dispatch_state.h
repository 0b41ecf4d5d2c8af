// Dispatch tables and the event runtime object.
//
// Each event owns one immutable DispatchTable describing how a raise is
// executed, and the table is everything a raise reads: the bindings in
// dispatch order, each with its guard list as of the rebuild, the result
// policy and any generated code. Every install, uninstall or guard change
// builds a fresh table and publishes it with a single atomic store (§3:
// "handler lists are updated atomically with respect to event dispatch by
// using a single memory access"); the old table, with whatever guard lists
// and generated code only it still references, is reclaimed through the
// dispatcher's epoch domain once concurrent raises have drained.
#ifndef SRC_CORE_DISPATCH_STATE_H_
#define SRC_CORE_DISPATCH_STATE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/codegen/frame.h"
#include "src/codegen/stub_compiler.h"
#include "src/core/binding.h"
#include "src/obs/context.h"
#include "src/obs/obs.h"
#include "src/types/module.h"
#include "src/types/signature.h"

namespace spin {

class Dispatcher;
class EventBase;

using ResultPolicy = codegen::ResultPolicy;

// Custom result handler (§2.3 "Handling results"): called once per fired
// handler result; returns the new running result. `index` is the count of
// previously fired handlers (0 for the first).
using ResultFold = uint64_t (*)(void* ctx, uint64_t result, uint64_t current,
                                uint32_t index);

// One binding as a table generation dispatches it: the binding and its
// guard list as it was when the table was built. A guard change rebuilds
// the table, so a raise never sees guards from another generation.
struct TableEntry {
  BindingHandle binding;
  GuardList guards;  // null when the binding had no guards
};

// A table's async handlers in dispatch order. The list is immutable once
// published, and each queued async task holds one reference to it.
using AsyncBindingList = std::vector<TableEntry>;

struct DispatchTable {
  // Handlers in dispatch order. Sync handlers execute inline (via the stub
  // when one was generated); async handlers have their guards evaluated
  // inline and their admitted bodies handed to the pool as one task per
  // raise (§2.6). async_bindings is null when the event has none.
  std::vector<TableEntry> sync_bindings;
  std::shared_ptr<const AsyncBindingList> async_bindings;
  BindingHandle default_handler;  // runs only when nothing else fired

  ResultPolicy policy = ResultPolicy::kNone;
  ResultFold custom_fold = nullptr;
  void* custom_fold_ctx = nullptr;
  bool returns_value = false;
  bool result_is_bool = false;

  uint64_t ephemeral_budget_ns = 0;  // relative budget for EPHEMERAL handlers

  // Generated dispatch routine covering sync_bindings (null => interpret).
  std::unique_ptr<codegen::CompiledStub> stub;

  // Lazy-compile mode: this table is interpreted, but the event should be
  // promoted to a compiled table once it proves hot.
  bool lazy_pending = false;

  // The dispatch kind raises through this table are accounted under. When
  // kTimed or kFull suppresses the intrinsic-bypass, this still says
  // kDirect: metrics classify by the event's production dispatch mode.
  obs::DispatchKind obs_kind = obs::DispatchKind::kInterp;

  uint32_t version = 0;

  uint64_t InitialResult() const {
    return policy == ResultPolicy::kAnd ? ~0ull : 0ull;
  }

  // Guards across all entries, sync and async (introspection).
  size_t GuardCount() const;
};

// Authorization (§2.5). The event's authority installs an AuthorizerFn;
// the dispatcher calls back on every operation that manipulates the event's
// bindings. The authorizer may impose additional guards on the candidate
// binding before approving.
enum class AuthOp : uint8_t {
  kInstall,
  kUninstall,
  kImposeGuard,
  kSetDefault,
  kSetResultHandler,
  kLink,  // used by the dynamic linker substrate
};

struct AuthRequest {
  AuthOp op;
  EventBase* event = nullptr;
  Binding* binding = nullptr;     // candidate (kInstall) or target
  const Module* requestor = nullptr;
  void* credentials = nullptr;    // opaque reference for richer protocols

  // Valid during kInstall: adds an imposed guard to the candidate binding.
  // A guard that fails its admission check throws InstallError.
  void ImposeGuard(GuardClause guard);

  // Valid during kInstall: applies an execution property to the candidate —
  // "it can allow the request, and possibly apply some execution property,
  // such as ordering constraints, onto the handler to ensure that
  // previously installed handlers continue to operate as expected" (§2.5).
  void SetOrder(Order order);
};

using AuthorizerFn = bool (*)(AuthRequest& request, void* ctx);

// The runtime object behind every event name. Typed Event<Sig> wraps it.
class EventBase {
 public:
  EventBase(std::string name, ProcSig sig, const Module* authority,
            Dispatcher* owner);
  virtual ~EventBase();
  EventBase(const EventBase&) = delete;
  EventBase& operator=(const EventBase&) = delete;

  const std::string& name() const { return name_; }
  const ProcSig& sig() const { return sig_; }
  const Module* authority() const { return authority_; }
  Dispatcher& owner() const { return *owner_; }

  // Dispatches `frame` against the current table. The typed Raise wrappers
  // pack arguments before and unpack results after.
  void RaiseErased(RaiseFrame& frame);

  // Asynchronous raise (§2.6): copies the packed arguments and schedules the
  // whole dispatch on the pool; the raiser proceeds without blocking.
  // NoHandlerError inside the detached dispatch is absorbed.
  void RaiseAsyncErased(const RaiseFrame& frame);

  // The single-intrinsic-handler fast path: non-null when the event is a
  // plain procedure call (Figure 1's degenerate case).
  void* direct_fn() const {
    return direct_fn_.load(std::memory_order_acquire);
  }

  bool async_event() const {
    return async_event_.load(std::memory_order_acquire);
  }

  // True when a default handler is installed (used by the async-raise rule
  // for result-returning events, §2.6).
  bool has_default_handler() const;

  // Installed-handler statistics for diagnostics and the Table 3 profile.
  // Counts and elapsed time are sourced from the observability histograms
  // (src/obs), which accumulate for every raise whose RaisePlan times it
  // (kTimed, kFull, a sampled tree, an armed watchdog). raise_count() and
  // raise_ns() count raises only, not async handler bodies. All
  // accumulation is per-stripe relaxed atomics, so concurrent raises never
  // tear and reset is race-safe.
  size_t handler_count() const;
  size_t guard_count() const;
  uint64_t raise_count() const { return metrics_->TotalCount(); }
  uint64_t raise_ns() const { return metrics_->TotalSumNs(); }
  void ResetStats() { metrics_->Reset(); }

  // Latency distributions per dispatch kind (raise-side instrumentation).
  obs::EventMetrics& metrics() const { return *metrics_; }
  // The event's name as an interned C-string, stable for the process
  // lifetime (used by trace records).
  const char* obs_name() const { return obs_name_; }

 private:
  friend class Dispatcher;

  std::string name_;
  ProcSig sig_;
  const Module* authority_;
  Dispatcher* owner_;

  std::atomic<DispatchTable*> table_{nullptr};
  std::atomic<void*> direct_fn_{nullptr};
  std::atomic<bool> async_event_{false};

  // Install-side state, all guarded by the dispatcher's mutex.
  std::vector<BindingHandle> order_list;  // dispatch order
  BindingHandle intrinsic_binding;
  BindingHandle default_binding;
  ResultPolicy policy_ = ResultPolicy::kLast;
  ResultFold custom_fold_ = nullptr;
  void* custom_fold_ctx_ = nullptr;
  AuthorizerFn authorizer_ = nullptr;
  void* authorizer_ctx_ = nullptr;
  bool require_ephemeral_ = false;
  uint64_t ephemeral_budget_ns_ = 0;
  bool force_interp_ = false;  // per-event JIT opt-out (ablations)
  uint32_t version_ = 0;

  // Raise-side statistics (updated for every timed raise and async body).
  std::shared_ptr<obs::EventMetrics> metrics_;
  const char* obs_name_ = nullptr;

  // Lazy-compile promotion state.
  std::atomic<uint32_t> lazy_raises_{0};
  bool hot_ = false;  // guarded by the dispatcher's mutex
};

// Executes one dispatch against `table` under the raise's observation plan.
// Admitted async handlers count as fired; their bodies run later on the
// pool, under the same plan.
void ExecuteTable(EventBase& event, const DispatchTable& table,
                  RaiseFrame& frame, const obs::RaisePlan& plan);

// Evaluates a guard list against the argument slots of an event with
// `num_args` parameters; a null list admits. The interpreter and the async
// scheduler pass a table entry's list, the remote exporter the imposed
// guards of a bind.
bool EvalGuards(const GuardList& guards, int num_args, const uint64_t* slots);

// Runs one binding's handler (interpreted path), honoring EPHEMERAL
// termination. Returns false if the handler was terminated.
bool RunHandler(const Binding& binding, uint64_t* slots, uint64_t* result,
                uint64_t deadline_ns);

}  // namespace spin

#endif  // SRC_CORE_DISPATCH_STATE_H_
