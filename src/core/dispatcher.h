// The SPIN event dispatcher (the paper's primary contribution).
//
// Public surface:
//   Event<R(Args...)>            a typed event; Raise() is the invocation
//   Dispatcher                   install/uninstall/authorize/configure
//   BindingHandle                the result of an installation
//
// Typical use (Figure 2's shape):
//   spin::Module mach("MachEmulator");
//   spin::Event<void(Strand*, SavedState&)> Syscall("MachineTrap.Syscall",
//                                                   &machine_trap_module);
//   auto binding = spin::Dispatcher::Global().InstallHandler(
//       Syscall, &SyscallGuard, &MachSyscall, {.module = &mach});
//   ...
//   Syscall.Raise(strand, state);
//
// Guards travel with their handler (InstallOptions::guards): a guarded
// install is one authorization, one quota charge and one rebuild.
//
// Events with only their intrinsic handler dispatch as a plain indirect
// call; richer events go through the interpreter until they prove hot
// (Config::lazy_compile), then through a runtime-generated stub (x86-64),
// all semantically equivalent. A stub inlines micro guards and handlers;
// everywhere else they are interpreted. Config::enable_jit off generates
// no code at all.
#ifndef SRC_CORE_DISPATCHER_H_
#define SRC_CORE_DISPATCHER_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/codegen/frame.h"
#include "src/core/binding.h"
#include "src/core/dispatch_state.h"
#include "src/core/ephemeral.h"
#include "src/core/errors.h"
#include "src/core/invoke.h"
#include "src/core/quota.h"
#include "src/micro/program.h"
#include "src/obs/obs.h"
#include "src/obs/watchdog.h"
#include "src/rt/epoch.h"
#include "src/rt/thread_pool.h"
#include "src/types/type_registry.h"
#include "src/types/typecheck.h"

namespace spin {

template <typename Sig>
class Event;

struct InstallOptions {
  Order order{};
  // The installer's guards (MakeGuard, MakeMicroGuard), on the binding
  // before the authorizer sees it and published with it.
  std::vector<GuardClause> guards;
  bool async = false;      // run this handler detached (§2.6)
  bool ephemeral = false;  // handler invites termination (EPHEMERAL)
  // Handlers invoked from generated code must not throw: C++ exceptions
  // cannot unwind through the runtime-generated frames. A handler that may
  // throw declares it here; its event dispatches through the interpreter,
  // where exceptions propagate to the raiser. (SPIN's analogue: Modula-3
  // exceptions were part of the checked signature.)
  bool may_throw = false;
  const Module* module = nullptr;  // requestor identity for authorization
  void* credentials = nullptr;     // opaque reference for the authorizer
};

class Dispatcher {
 public:
  struct Config {
    bool enable_jit = true;      // D3: runtime code generation
    bool inline_micro = true;    // D3: inline small guards/handlers
    bool optimize = true;        // D3: peephole pass
    bool reorder_guards = true;  // D4: cheap (inlinable) guards first
    bool allow_direct = true;    // D1: intrinsic-bypass fast path
    // Guard decision tree (§3.2 future work, off by default to match the
    // evaluated system): when >= kGuardTreeThreshold bindings each carry a
    // micro guard comparing the same header field against distinct
    // constants, compile a binary-search dispatch instead of a linear
    // guard chain.
    bool guard_tree = false;
    // Incremental installation (§3.1 future work): an event's tables are
    // interpreted until it has been raised kLazyPromoteRaises times; that
    // raise gives it a stub, and from then on every change to the event
    // gets one eagerly. Installs on an event that is never raised that
    // often compile nothing. false is the evaluated system's eager mode,
    // which gives every table generation a stub (ablation D5). Either way
    // a stub is compiled only for a shape no live table has.
    bool lazy_compile = true;
    AsyncMode async_mode = AsyncMode::kPooled;
    ThreadPool* pool = nullptr;        // default: ThreadPool::Global()
    size_t quota_bytes_per_module = 4u << 20;
  };
  static constexpr size_t kGuardTreeThreshold = 4;
  static constexpr uint32_t kLazyPromoteRaises = 64;

  Dispatcher() : Dispatcher(Config{}) {}
  explicit Dispatcher(const Config& config);
  ~Dispatcher();
  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  // The process-wide dispatcher most events attach to.
  static Dispatcher& Global();

  // --- Handler installation (typed) -----------------------------------

  template <typename R, typename... A>
  BindingHandle InstallHandler(Event<R(A...)>& event, R (*handler)(A...),
                               const InstallOptions& opts = {});

  // Figure 2's three-argument form: guard, then handler. The guard goes
  // first in the binding's list, ahead of opts.guards.
  template <typename R, typename... A>
  BindingHandle InstallHandler(Event<R(A...)>& event, bool (*guard)(A...),
                               R (*handler)(A...),
                               const InstallOptions& opts = {});

  // Closure form: the closure is passed as the handler's first argument;
  // its type must be a subtype of the declared parameter (§2.4).
  template <typename R, typename... A, typename C>
  BindingHandle InstallHandler(Event<R(A...)>& event,
                               R (*handler)(C*, A...), C* closure,
                               const InstallOptions& opts = {});

  // Convenience: installs a capturing callable by boxing it as a closure.
  template <typename R, typename... A, typename F>
  BindingHandle InstallLambda(Event<R(A...)>& event, F f,
                              const InstallOptions& opts = {});

  // Filter installation (§2.3 "Passing arguments"): the handler may take
  // by-value event parameters by reference and mutate them for handlers
  // ordered after it.
  template <typename R, typename... A, typename... FA>
  BindingHandle InstallFilter(Event<R(A...)>& event, R (*filter)(FA...),
                              const InstallOptions& opts = {});

  // Installs a micro-program as the handler body (inlinable into the
  // generated dispatch routine).
  BindingHandle InstallMicroHandler(EventBase& event, micro::Program prog,
                                    const InstallOptions& opts = {});

  // Installs a type-erased handler: `invoker` is called with `ctx` and the
  // raw argument slots of each raise. This is the hook proxy layers build
  // on (src/remote installs event proxies this way): the proxy reads the
  // slots against the event's runtime signature instead of a C++ one, so
  // one proxy implementation serves every marshalable event shape. The
  // binding adopts the event's own signature and always dispatches through
  // the interpreter (`ctx` is not a procedure the stub compiler could
  // call), which also lets the proxy surface failures as exceptions
  // (RemoteError) through the raise.
  BindingHandle InstallErasedHandler(EventBase& event, void* ctx,
                                     HandlerInvoker invoker,
                                     const InstallOptions& opts = {});

  // --- Guards on an installed binding (§2.5's dynamic guards) -----------
  // Each call is one quota charge and one rebuild of its own.

  template <typename R, typename... A>
  void AddGuard(Event<R(A...)>& event, const BindingHandle& binding,
                bool (*guard)(A...));

  template <typename R, typename... A, typename C>
  void AddGuard(Event<R(A...)>& event, const BindingHandle& binding,
                bool (*guard)(C*, A...), C* closure);

  void AddMicroGuard(const BindingHandle& binding, micro::Program prog);

  // Authority-imposed micro-program guard — the wire-transportable form of
  // ImposeGuard. Like every §2.5 imposition, the clause is marked imposed
  // and evaluates before the installer's own guards. Guards that arrive
  // over the wire pass the micro::Verify admission check at bind and ride
  // in the proxy's install (InstallOptions::guards).
  void ImposeMicroGuard(const BindingHandle& binding, micro::Program prog);

  // Removes one guard by position (§2.5: imposed guards "can be added and
  // removed dynamically"). Removing an imposed guard consults the event's
  // authorizer (op kImposeGuard). An index at or past GuardCount throws
  // InstallError(kNoSuchGuard): another module may have removed the guard
  // first.
  void RemoveGuard(const BindingHandle& binding, size_t index,
                   const Module* requestor = nullptr);
  size_t GuardCount(const BindingHandle& binding) const;

  // Authority-imposed guard on an existing binding (Figure 3's
  // Dispatcher.ImposeGuard). Imposed guards evaluate before the
  // installer's own guards.
  template <typename R, typename... A, typename C>
  void ImposeGuard(Event<R(A...)>& event, const BindingHandle& binding,
                   bool (*guard)(C*, A...), C* closure);

  // --- Removal / ordering ----------------------------------------------

  void Uninstall(const BindingHandle& binding,
                 const Module* requestor = nullptr,
                 void* credentials = nullptr);

  void SetOrder(const BindingHandle& binding, Order order);
  Order GetOrder(const BindingHandle& binding) const;

  // --- Results and defaults (§2.3) --------------------------------------

  template <typename R, typename... A>
  BindingHandle InstallDefaultHandler(Event<R(A...)>& event,
                                      R (*handler)(A...),
                                      const InstallOptions& opts = {});

  template <typename R, typename... A, typename C>
  BindingHandle InstallDefaultHandler(Event<R(A...)>& event,
                                      R (*handler)(C*, A...), C* closure,
                                      const InstallOptions& opts = {});

  // Custom result handler: called per fired handler; returns the running
  // result. `index` counts previously fired handlers.
  template <typename R, typename... A>
  void SetResultHandler(Event<R(A...)>& event,
                        R (*fold)(R result, R current, uint32_t index),
                        const Module* requestor = nullptr);

  void SetResultPolicy(EventBase& event, ResultPolicy policy,
                       const Module* requestor = nullptr);

  // --- Access control (§2.5) --------------------------------------------

  // Installing an authorizer requires demonstrating authority: `proof`
  // must be the module that defines the event's intrinsic handler.
  void InstallAuthorizer(EventBase& event, AuthorizerFn authorizer,
                         void* ctx, const Module& proof);

  // Runs `request` through the event's authorizer exactly as the local
  // install path does (same lock, same callback, same ImposeGuard rules).
  // Infrastructure that mediates bindings it does not hand to Install —
  // the remote exporter authorizing a bind from another host — consults
  // the §2.5 machinery through this entry instead of forking it. Returns
  // false on denial, throws InstallError for an imposed guard that fails
  // its admission check; events without an authorizer are open.
  bool Authorize(AuthRequest& request);

  // --- Event-level properties -------------------------------------------

  void SetEventAsync(EventBase& event, bool async,
                     const Module* requestor = nullptr);
  void RequireEphemeralHandlers(EventBase& event, uint64_t budget_ns,
                                const Module* requestor = nullptr);
  void DeregisterIntrinsic(EventBase& event,
                           const Module* requestor = nullptr);

  // --- Introspection -----------------------------------------------------

  // The one observation switch: sets the process-wide mode (obs.h) and
  // rebuilds this dispatcher's tables for it.
  //
  // kTimed times every raise into the latency histograms (the Table 3
  // counts and elapsed times, src/profile) and emits no records; its
  // tables drop the intrinsic bypass, which has no hook, and keep stubs.
  // kFull rebuilds every dispatch table at full fidelity — no intrinsic
  // bypass and no generated stubs — so per-handler records (guard
  // rejections, handler fires, filter mutations) are emitted for every
  // raise. kSampled keeps production tables (stubs and bypass intact) and
  // captures 1-in-sample_rate top-level raises with their complete causal
  // trees at raise/span granularity; the unsampled path pays only the
  // thread-local sampling decision, so sampled tracing can stay on under
  // production traffic. kOff restores production dispatch. See
  // src/obs/trace.h for exporting a capture.
  void SetTracing(const obs::TraceConfig& config);
  // The mode this dispatcher's tables were last rebuilt for.
  obs::TraceMode trace_mode() const;

  std::vector<EventBase*> Events() const;

  // Finds a registered event by name (first match); nullptr if absent.
  EventBase* FindEvent(const std::string& name) const;

  // Human-readable description of an event's current dispatch state:
  // signature, dispatch kind (direct / generated stub / decision tree /
  // interpreted / lazy-pending), handler and guard counts, generated-code
  // size, and — when the observability layer has samples — the per-kind
  // raise-latency summary (count, p50/p90/p99/max). Diagnostic counterpart
  // of SPIN's dispatcher introspection.
  std::string Describe(EventBase& event) const;

  // Dumps Describe() for every registered event.
  void DescribeAll(std::ostream& os) const;

  // Table counters count every rebuild by how its table dispatches; a
  // table a stub serves counts under neither interp nor direct. A stub is
  // compiled only for a shape no live table has, so stub_compiles counts
  // compiles, not stub tables.
  struct Stats {
    uint64_t installs = 0;
    uint64_t uninstalls = 0;
    uint64_t rebuilds = 0;
    uint64_t stub_compiles = 0;
    uint64_t interp_tables = 0;
    uint64_t direct_tables = 0;
    uint64_t tree_tables = 0;      // tables served by a decision-tree stub
    uint64_t lazy_promotions = 0;  // lazy events promoted to compiled
  };
  Stats stats() const;

  // The epoch domain that protects every table a raise reads (the
  // process-wide domain, shared by all dispatchers).
  EpochDomain& epoch() const { return EpochDomain::Global(); }
  ThreadPool& pool() { return *pool_; }
  QuotaManager& quota() { return quota_; }
  const Config& config() const { return config_; }

  // Untyped installation core (used by the typed wrappers and by
  // infrastructure that builds bindings directly).
  BindingHandle Install(EventBase& event, std::shared_ptr<Binding> binding,
                        const InstallOptions& opts);
  BindingHandle InstallDefault(EventBase& event,
                               std::shared_ptr<Binding> binding,
                               const InstallOptions& opts);
  void SetResultFold(EventBase& event, ResultFold fold, void* ctx,
                     const Module* requestor);

 private:
  friend class EventBase;
  friend struct AuthRequest;

  void RegisterEvent(EventBase* event);
  void UnregisterEvent(EventBase* event);
  void PromoteLazyEvent(EventBase& event);
  void RebuildLocked(EventBase& event);
  // The live stub of `spec`'s shape, compiled and recorded if no live
  // table has it; null when the code cannot be generated.
  std::shared_ptr<const codegen::CompiledStub> StubForLocked(
      const EventBase& event, const codegen::StubSpec& spec);
  bool AuthorizeLocked(AuthRequest& request);
  void PlaceLocked(EventBase& event, const BindingHandle& binding,
                   const Order& order);
  // Admits `guard`, then inserts it at the front (imposed guards) or the
  // back of the binding's guard list, charges its bytes to the owner's
  // quota and rebuilds the event under one hold of mu_.
  void InsertGuard(const BindingHandle& binding, GuardClause guard);
  // Runs the operation through the event's authorizer; throws
  // InstallError(kNotAuthorized) on denial.
  void CheckIsAuthorityOrAuthorized(EventBase& event, AuthOp op,
                                    const Module* requestor,
                                    void* credentials,
                                    Binding* binding = nullptr);

  static void ExportMetricsSource(void* ctx, std::ostream& os);

  // Anomaly-watchdog probe: reports every pool queue (depth, executed) and
  // the epoch domain (retired, reclaimed) each monitor period.
  static void WatchdogProbeSource(void* ctx,
                                  std::vector<obs::WatchSample>& out);

  Config config_;
  ThreadPool* pool_;
  QuotaManager quota_;
  const uint64_t instance_id_;  // label for exported metrics
  // Interned identities stamped into watchdog anomaly records.
  const char* watch_pool_name_ = nullptr;
  const char* watch_epoch_name_ = nullptr;

  mutable std::mutex mu_;  // guards install-side state of all owned events
  std::vector<EventBase*> events_;
  obs::TraceMode trace_mode_ = obs::TraceMode::kOff;  // read by RebuildLocked
  Stats stats_;
  // The live stubs by shape, so a rebuild compiles only a shape no live
  // table has. Tables own the stubs; an entry expires with the last table
  // holding its stub, and expired entries are swept when the map has grown
  // to twice its size after the last sweep.
  std::unordered_map<codegen::StubKey,
                     std::weak_ptr<const codegen::CompiledStub>,
                     codegen::StubKey::Hash>
      stubs_;
  static constexpr size_t kStubSweepMin = 64;
  size_t stubs_sweep_at_ = kStubSweepMin;
};

// --- Typed events -----------------------------------------------------------

template <typename R, typename... A>
class Event<R(A...)> : public EventBase {
  static_assert(sizeof...(A) <= static_cast<size_t>(kMaxEventArgs),
                "events support at most kMaxEventArgs parameters");

 public:
  using IntrinsicFn = R (*)(A...);

  // Declares an event. `authority` is the module defining the intrinsic
  // handler (§2.5); `intrinsic` is the procedure sharing the event's name,
  // installed immediately if provided.
  explicit Event(std::string name, const Module* authority = nullptr,
                 IntrinsicFn intrinsic = nullptr,
                 Dispatcher* owner = nullptr)
      : EventBase(std::move(name), MakeProcSig<R(A...)>(), authority,
                  owner != nullptr ? owner : &Dispatcher::Global()) {
    if (intrinsic != nullptr) {
      auto binding = std::make_shared<Binding>();
      binding->fn = reinterpret_cast<void*>(intrinsic);
      binding->invoker = &NativeInvoke<R(A...), R(A...)>::Call;
      binding->sig = MakeProcSig<R(A...)>();
      binding->owner = authority;
      binding->intrinsic = true;
      InstallOptions opts;
      opts.module = authority;
      this->owner().Install(*this, std::move(binding), opts);
    }
  }

  // Raising the event (§2.1): the syntax and, for intrinsic-only events,
  // the cost of a procedure call.
  R Raise(A... args) {
    if (void* direct = direct_fn()) {
      return reinterpret_cast<R (*)(A...)>(direct)(
          static_cast<A&&>(args)...);
    }
    if (async_event()) {
      // SetEventAsync rejects by-ref events, so this branch is unreachable
      // for them; the constexpr guard keeps the by-ref instantiation legal.
      if constexpr ((!std::is_reference_v<A> && ...)) {
        RaiseAsyncImpl(static_cast<A&&>(args)...);
        if constexpr (!std::is_void_v<R>) {
          throw AsyncError("synchronous result from asynchronous event " +
                           name());
        } else {
          return;
        }
      }
    }
    RaiseFrame frame;
    Pack(frame, args...);
    RaiseErased(frame);
    if constexpr (!std::is_void_v<R>) {
      return SlotCodec<R>::Unpack(frame.result);
    }
  }

  // Detached raise (§2.6): by-ref parameters are rejected at compile time
  // ("arguments can not be passed by reference; they may be incidentally
  // destroyed before they go out of scope").
  void RaiseAsync(A... args) {
    RaiseAsyncImpl(static_cast<A&&>(args)...);
  }

 private:
  void RaiseAsyncImpl(A... args) {
    static_assert((!std::is_reference_v<A> && ...),
                  "asynchronous events may not take by-ref arguments");
    if constexpr (!std::is_void_v<R>) {
      if (!has_default_handler()) {
        throw AsyncError("asynchronous raise of result-returning event " +
                         name() + " requires a default handler");
      }
    }
    RaiseFrame frame;
    Pack(frame, args...);
    RaiseAsyncErased(frame);
  }

  static void Pack(RaiseFrame& frame, A... args) {
    size_t i = 0;
    ((frame.args[i++] = SlotCodec<A>::Pack(static_cast<A&&>(args))), ...);
    (void)i;
  }
};

// --- Guard clauses ----------------------------------------------------------

namespace core_internal {

// The declared type of every guard with C++ signature `Sig`, built once.
template <typename Sig>
const ProcSig* GuardSigOf() {
  static const ProcSig sig = [] {
    ProcSig s = MakeProcSig<Sig>();
    s.functional = true;  // declared FUNCTIONAL at registration
    return s;
  }();
  return &sig;
}

}  // namespace core_internal

// Builds a typed guard clause for InstallOptions::guards. The clause
// carries its declared type, which is checked against the event when the
// guard is admitted.
template <typename... A>
GuardClause MakeGuard(bool (*guard)(A...)) {
  GuardClause clause;
  clause.fn = reinterpret_cast<void*>(guard);
  clause.invoker = &GuardInvoke<bool(A...)>::Call;
  clause.sig = core_internal::GuardSigOf<bool(A...)>();
  return clause;
}

// Closure form: `closure` is passed as the guard's first argument.
template <typename C, typename... A>
GuardClause MakeGuard(bool (*guard)(C*, A...), C* closure) {
  GuardClause clause;
  clause.fn = reinterpret_cast<void*>(guard);
  clause.closure = closure;
  clause.closure_form = true;
  clause.invoker = &GuardInvokeClosure<bool(C*, A...)>::Call;
  clause.sig = core_internal::GuardSigOf<bool(C*, A...)>();
  return clause;
}

// Builds a micro-program guard clause for InstallOptions::guards.
inline GuardClause MakeMicroGuard(micro::Program prog) {
  GuardClause clause;
  clause.prog = std::move(prog);
  return clause;
}

// Builds a typed imposed-guard clause for use from an authorizer callback
// (AuthRequest::ImposeGuard), mirroring Figure 3's Dispatcher.ImposeGuard.
template <typename C, typename... A>
GuardClause MakeImposedGuard(bool (*guard)(C*, A...), C* closure) {
  GuardClause clause = MakeGuard(guard, closure);
  clause.imposed = true;
  return clause;
}

// Builds a micro-program imposed-guard clause for use from an authorizer
// callback. This is the only imposed-guard shape that can cross the wire
// to a remote binder (see src/remote): the program must be FUNCTIONAL and
// address-free, with num_args equal to the event's parameter count.
inline GuardClause MakeImposedMicroGuard(micro::Program prog) {
  GuardClause clause = MakeMicroGuard(std::move(prog));
  clause.imposed = true;
  return clause;
}

// --- Typed method implementations -------------------------------------------

namespace core_internal {

inline void ThrowIfTypecheckFails(TypecheckStatus status,
                                  const std::string& what) {
  if (status != TypecheckStatus::kOk) {
    throw InstallError(status, what);
  }
}

inline std::shared_ptr<Binding> MakeBinding(void* fn, HandlerInvoker invoker,
                                            ProcSig sig,
                                            const InstallOptions& opts) {
  auto binding = std::make_shared<Binding>();
  binding->fn = fn;
  binding->invoker = invoker;
  binding->sig = std::move(sig);
  binding->owner = opts.module;
  binding->async = opts.async;
  binding->ephemeral = opts.ephemeral;
  binding->may_throw = opts.may_throw;
  binding->order = opts.order;
  return binding;
}

template <typename R, typename... A>
std::shared_ptr<Binding> HandlerBinding(Event<R(A...)>& event,
                                        R (*handler)(A...),
                                        const InstallOptions& opts) {
  ProcSig sig = MakeProcSig<R(A...)>();
  ThrowIfTypecheckFails(CheckHandler(event.sig(), sig, {}), event.name());
  return MakeBinding(reinterpret_cast<void*>(handler),
                     &NativeInvoke<R(A...), R(A...)>::Call, std::move(sig),
                     opts);
}

template <typename R, typename... A, typename C>
std::shared_ptr<Binding> ClosureBinding(Event<R(A...)>& event,
                                        R (*handler)(C*, A...), C* closure,
                                        const InstallOptions& opts) {
  ProcSig sig = MakeProcSig<R(C*, A...)>();
  TypecheckOptions topts;
  topts.has_closure = true;
  topts.closure_type = TypeOf<C>();
  ThrowIfTypecheckFails(CheckHandler(event.sig(), sig, topts), event.name());
  auto binding = MakeBinding(
      reinterpret_cast<void*>(handler),
      &NativeInvokeClosure<R(A...), R(C*, A...)>::Call, std::move(sig), opts);
  binding->closure = closure;
  binding->closure_form = true;
  return binding;
}

}  // namespace core_internal

template <typename R, typename... A>
BindingHandle Dispatcher::InstallHandler(Event<R(A...)>& event,
                                         R (*handler)(A...),
                                         const InstallOptions& opts) {
  return Install(event, core_internal::HandlerBinding(event, handler, opts),
                 opts);
}

template <typename R, typename... A>
BindingHandle Dispatcher::InstallHandler(Event<R(A...)>& event,
                                         bool (*guard)(A...),
                                         R (*handler)(A...),
                                         const InstallOptions& opts) {
  InstallOptions guarded = opts;
  guarded.guards.insert(guarded.guards.begin(), MakeGuard(guard));
  return InstallHandler(event, handler, guarded);
}

template <typename R, typename... A, typename C>
BindingHandle Dispatcher::InstallHandler(Event<R(A...)>& event,
                                         R (*handler)(C*, A...), C* closure,
                                         const InstallOptions& opts) {
  return Install(
      event, core_internal::ClosureBinding(event, handler, closure, opts),
      opts);
}

template <typename R, typename... A, typename F>
BindingHandle Dispatcher::InstallLambda(Event<R(A...)>& event, F f,
                                        const InstallOptions& opts) {
  auto boxed = std::make_shared<F>(std::move(f));
  R (*trampoline)(F*, A...) = [](F* closure, A... args) -> R {
    return (*closure)(static_cast<A&&>(args)...);
  };
  BindingHandle binding = InstallHandler(event, trampoline, boxed.get(),
                                         opts);
  binding->keep_alive = boxed;
  return binding;
}

template <typename R, typename... A, typename... FA>
BindingHandle Dispatcher::InstallFilter(Event<R(A...)>& event,
                                        R (*filter)(FA...),
                                        const InstallOptions& opts) {
  static_assert(sizeof...(A) == sizeof...(FA),
                "filter arity must match the event");
  ProcSig sig = MakeProcSig<R(FA...)>();
  TypecheckOptions topts;
  topts.as_filter = true;
  core_internal::ThrowIfTypecheckFails(
      CheckHandler(event.sig(), sig, topts), event.name());
  auto binding = core_internal::MakeBinding(
      reinterpret_cast<void*>(filter),
      &NativeInvoke<R(A...), R(FA...)>::Call, std::move(sig), opts);
  // Record which by-value parameters the filter widened to by-ref.
  uint8_t index = 0;
  ((std::is_reference_v<FA> && !std::is_reference_v<A>
        ? binding->byref_params.push_back(index++)
        : void(index++)),
   ...);
  return Install(event, std::move(binding), opts);
}

// Guards are checked against the event the binding is installed on.
template <typename R, typename... A>
void Dispatcher::AddGuard(Event<R(A...)>&, const BindingHandle& binding,
                          bool (*guard)(A...)) {
  InsertGuard(binding, MakeGuard(guard));
}

template <typename R, typename... A, typename C>
void Dispatcher::AddGuard(Event<R(A...)>&, const BindingHandle& binding,
                          bool (*guard)(C*, A...), C* closure) {
  InsertGuard(binding, MakeGuard(guard, closure));
}

template <typename R, typename... A, typename C>
void Dispatcher::ImposeGuard(Event<R(A...)>&, const BindingHandle& binding,
                             bool (*guard)(C*, A...), C* closure) {
  InsertGuard(binding, MakeImposedGuard(guard, closure));
}

template <typename R, typename... A>
BindingHandle Dispatcher::InstallDefaultHandler(Event<R(A...)>& event,
                                                R (*handler)(A...),
                                                const InstallOptions& opts) {
  return InstallDefault(
      event, core_internal::HandlerBinding(event, handler, opts), opts);
}

template <typename R, typename... A, typename C>
BindingHandle Dispatcher::InstallDefaultHandler(Event<R(A...)>& event,
                                                R (*handler)(C*, A...),
                                                C* closure,
                                                const InstallOptions& opts) {
  return InstallDefault(
      event, core_internal::ClosureBinding(event, handler, closure, opts),
      opts);
}

template <typename R, typename... A>
void Dispatcher::SetResultHandler(Event<R(A...)>& event,
                                  R (*fold)(R, R, uint32_t),
                                  const Module* requestor) {
  // Type-erase through a per-instantiation trampoline; ctx carries the
  // typed fold function.
  ResultFold erased = [](void* ctx, uint64_t result, uint64_t current,
                         uint32_t index) -> uint64_t {
    auto* f = reinterpret_cast<R (*)(R, R, uint32_t)>(ctx);
    return SlotCodec<R>::Pack(f(SlotCodec<R>::Unpack(result),
                                SlotCodec<R>::Unpack(current), index));
  };
  SetResultFold(event, erased, reinterpret_cast<void*>(fold), requestor);
}

}  // namespace spin

// Declares an event object named Interface_Name for the given procedure
// signature, e.g. SPIN_DEFINE_EVENT(MachineTrap, Syscall,
// void(Strand*, SavedState&)).
#define SPIN_DEFINE_EVENT(interface_name, event_name, ...)    \
  ::spin::Event<__VA_ARGS__> interface_name##_##event_name(   \
      #interface_name "." #event_name)

#endif  // SRC_CORE_DISPATCHER_H_
