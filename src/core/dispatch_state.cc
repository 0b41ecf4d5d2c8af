#include "src/core/dispatch_state.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <optional>

#include "src/core/dispatcher.h"
#include "src/core/ephemeral.h"
#include "src/core/errors.h"
#include "src/micro/interp.h"
#include "src/obs/trace.h"
#include "src/obs/watchdog.h"
#include "src/rt/clock.h"
#include "src/rt/epoch.h"
#include "src/rt/panic.h"

namespace spin {
namespace {

// Builds the argument view a micro-program sees: closure (if any) followed
// by the event arguments.
struct MicroArgs {
  std::array<uint64_t, kMaxEventArgs + 1> storage;
  const uint64_t* data;
  int count;

  MicroArgs(const uint64_t* slots, int num_args, bool closure_form,
            void* closure) {
    if (closure_form) {
      storage[0] = reinterpret_cast<uintptr_t>(closure);
      for (int i = 0; i < num_args; ++i) {
        storage[i + 1] = slots[i];
      }
      data = storage.data();
      count = num_args + 1;
    } else {
      data = slots;
      count = num_args;
    }
  }
};

uint64_t Fold(const DispatchTable& table, uint64_t result, uint64_t current,
              uint32_t index) {
  if (table.custom_fold != nullptr) {
    return table.custom_fold(table.custom_fold_ctx, result, current, index);
  }
  switch (table.policy) {
    case ResultPolicy::kNone:
    case ResultPolicy::kLast:
      return result;
    case ResultPolicy::kOr:
      return current | result;
    case ResultPolicy::kAnd:
      return current & result;
    case ResultPolicy::kSum:
      return current + result;
  }
  return result;
}

// The pool task of one async raise: a fixed-size record the pool stores in
// place. With a list it runs the admitted handler bodies of one 64-binding
// chunk of a table's async list, in dispatch order (a sync raise, §2.6);
// without one it runs the whole dispatch of `event` (RaiseAsync), guards
// included. Either way each unit of work is one traced handoff, and the
// record's span ids form one block: unit k adopts span.span + k.
struct AsyncTask {
  std::shared_ptr<const AsyncBindingList> list;  // keeps the bindings alive
  EventBase* event = nullptr;
  uint64_t mask = 0;        // unit k is (*list)[first + k'th set bit]
  uint32_t first = 0;
  // The raise's plan, re-entered on the pool side: each unit is timed and
  // traced exactly when the raise was.
  obs::Observe observe = obs::Observe::kNone;
  bool watchdog = false;
  uint64_t budget_ns = 0;   // EPHEMERAL budget of the raising table
  uint64_t enqueue_ns = 0;  // traced handoffs: the enqueue clock read
  obs::TraceContext span;   // sampling decision, and the base span id
  uint64_t args[kMaxEventArgs] = {};

  // Records the raise's plan and, for a traced raise, one span per unit,
  // each announced by a kAsyncEnqueue record (the flow start) before the
  // pool runs it.
  void Prepare(const RaiseFrame& frame, const obs::RaisePlan& plan) {
    std::memcpy(args, frame.args, sizeof(args));
    observe = plan.observe();
    watchdog = plan.watchdog();
    span.decision = plan.decision();
    if (plan.traced()) {
      const obs::TraceContext& cur = obs::CurrentContext();
      span = obs::TraceContext{
          obs::NewSpanIds(static_cast<uint32_t>(std::popcount(mask))),
          cur.span, cur.host, plan.decision()};
      enqueue_ns = NowNs();
      uint64_t id = span.span;
      for (uint64_t bits = mask; bits != 0; bits &= bits - 1) {
        obs::FlightRecorder::Global().EmitWith(
            obs::TraceKind::kAsyncEnqueue, event->obs_name(), enqueue_ns,
            first + std::countr_zero(bits), id++, span.parent);
      }
    }
  }

  void operator()();
  void RunBody(const Binding& binding, const obs::RaisePlan& plan,
               uint64_t start) const;
};

void AsyncTask::operator()() {
  // Re-enter the raise's plan before anything here can emit, so the
  // handoff stays inside (or outside) the same sampled tree.
  const obs::RaisePlan plan(observe, watchdog, span.decision);
  const char* name = event->obs_name();
  uint64_t span_id = span.span;
  for (uint64_t bits = mask; bits != 0; bits &= bits - 1) {
    uint64_t start = plan.timed() ? NowNs() : 0;
    // Adopt the span the enqueue site allocated for this unit so
    // kAsyncEnqueue (raising thread) and kAsyncExecute (this thread)
    // stitch; this scope is the span's final executor.
    std::optional<obs::SpanScope> adopted;
    if (plan.traced() && span_id != 0) {
      adopted.emplace(obs::TraceContext{span_id++, span.parent, span.host,
                                        span.decision},
                      /*complete_on_exit=*/true);
      obs::FlightRecorder::Global().EmitAt(obs::TraceKind::kAsyncExecute,
                                           name, start);
      // Queue wait: the enqueue site's clock read to this unit's start —
      // the handoff cost the pool added.
      obs::EmitPhaseSegment(obs::Phase::kQueueWait, name, enqueue_ns, start);
    }
    if (list == nullptr) {
      RaiseFrame frame;
      std::memcpy(frame.args, args, sizeof(args));
      try {
        event->RaiseErased(frame);
      } catch (const DispatchError&) {
        // Detached raise: errors have no raiser to land on.
      }
    } else {
      RunBody(*(*list)[first + std::countr_zero(bits)].binding, plan, start);
    }
  }
}

void AsyncTask::RunBody(const Binding& binding, const obs::RaisePlan& plan,
                        uint64_t start) const {
  // Every body sees the arguments as raised, and its own EPHEMERAL deadline.
  uint64_t slots[kMaxEventArgs];
  std::memcpy(slots, args, sizeof(slots));
  uint64_t deadline =
      binding.ephemeral && budget_ns != 0 ? NowNs() + budget_ns : 0;
  uint64_t result = 0;
  try {
    obs::PhaseScope body_phase(obs::Phase::kHandlerBody,
                               binding.event->obs_name(), plan.traced());
    RunHandler(binding, slots, &result, deadline);
  } catch (const DispatchError&) {
    // Detached execution: nobody to report to (§2.6). The raise's later
    // bodies still run.
  }
  if (plan.timed()) {
    uint64_t elapsed = NowNs() - start;
    obs::EventMetrics& metrics = binding.event->metrics();
    metrics.Record(obs::DispatchKind::kAsync, elapsed);
    if (plan.watchdog()) {
      obs::CheckDispatch(binding.event->obs_name(), 0, elapsed,
                         metrics.slow_ns());
    }
  }
}

// The async part of ExecuteTable, kept out of line so the sync raise path
// stays as compact as an event without async handlers needs. Guards are
// evaluated here, on the raising thread; each 64-binding chunk of the list
// with an admitted handler becomes one pool task.
[[gnu::noinline]] void ScheduleAsyncBindings(EventBase& event,
                                             const DispatchTable& table,
                                             RaiseFrame& frame,
                                             const obs::RaisePlan& plan) {
  const AsyncBindingList& list = *table.async_bindings;
  const int num_args = static_cast<int>(event.sig().params.size());
  for (size_t first = 0; first < list.size(); first += 64) {
    const size_t end = std::min(list.size(), first + 64);
    uint64_t mask = 0;
    for (size_t i = first; i < end; ++i) {
      bool admitted;
      {
        obs::PhaseScope guard_phase(obs::Phase::kGuardEval, event.obs_name(),
                                    plan.traced());
        admitted = EvalGuards(list[i].guards, num_args, frame.args);
      }
      if (admitted) {
        mask |= uint64_t{1} << (i - first);
      } else if (plan.traced()) {
        obs::FlightRecorder::Global().Emit(obs::TraceKind::kGuardReject,
                                           event.obs_name(),
                                           table.sync_bindings.size() + i);
      }
    }
    if (mask == 0) {
      continue;
    }
    frame.fired += static_cast<uint32_t>(std::popcount(mask));
    AsyncTask task;
    task.list = table.async_bindings;
    task.event = &event;
    task.mask = mask;
    task.first = static_cast<uint32_t>(first);
    task.budget_ns = table.ephemeral_budget_ns;
    task.Prepare(frame, plan);
    Dispatcher& dispatcher = event.owner();
    dispatcher.pool().Submit(std::move(task), dispatcher.config().async_mode);
  }
}

}  // namespace

bool EvalGuards(const GuardList& guards, int num_args, const uint64_t* slots) {
  if (guards == nullptr) {
    return true;
  }
  for (const GuardClause& guard : *guards) {
    bool pass;
    if (guard.prog) {
      MicroArgs args(slots, num_args, guard.closure_form, guard.closure);
      if (guard.compiled != nullptr && args.count <= 6) {
        // Install-time-compiled guard (the verify-then-JIT path for wire
        // imposed guards): call the native body directly at its declared
        // arity. The entry follows the SysV register convention.
        void* entry = guard.compiled->entry();
        const uint64_t* a = args.data;
        uint64_t r;
        switch (args.count) {
          case 0:
            r = reinterpret_cast<uint64_t (*)()>(entry)();
            break;
          case 1:
            r = reinterpret_cast<uint64_t (*)(uint64_t)>(entry)(a[0]);
            break;
          case 2:
            r = reinterpret_cast<uint64_t (*)(uint64_t, uint64_t)>(entry)(
                a[0], a[1]);
            break;
          case 3:
            r = reinterpret_cast<uint64_t (*)(uint64_t, uint64_t, uint64_t)>(
                entry)(a[0], a[1], a[2]);
            break;
          case 4:
            r = reinterpret_cast<uint64_t (*)(uint64_t, uint64_t, uint64_t,
                                              uint64_t)>(entry)(a[0], a[1],
                                                                a[2], a[3]);
            break;
          case 5:
            r = reinterpret_cast<uint64_t (*)(uint64_t, uint64_t, uint64_t,
                                              uint64_t, uint64_t)>(entry)(
                a[0], a[1], a[2], a[3], a[4]);
            break;
          default:
            r = reinterpret_cast<uint64_t (*)(uint64_t, uint64_t, uint64_t,
                                              uint64_t, uint64_t, uint64_t)>(
                entry)(a[0], a[1], a[2], a[3], a[4], a[5]);
            break;
        }
        pass = r != 0;
      } else {
        pass = micro::Run(*guard.prog, args.data, args.count) != 0;
      }
    } else {
      SPIN_DCHECK(guard.invoker != nullptr);
      pass = guard.invoker(guard.fn, guard.closure, slots);
    }
    if (!pass) {
      return false;
    }
  }
  return true;
}

bool RunHandler(const Binding& binding, uint64_t* slots, uint64_t* result,
                uint64_t deadline_ns) {
  int num_args = static_cast<int>(binding.event->sig().params.size());
  if (deadline_ns != 0) {
    EphemeralScope scope(deadline_ns);
    try {
      if (binding.invoker != nullptr) {
        *result = binding.invoker(binding.fn, binding.closure, slots);
      } else {
        SPIN_DCHECK(binding.prog.has_value());
        MicroArgs args(slots, num_args, binding.closure_form,
                       binding.closure);
        *result = micro::Run(*binding.prog, args.data, args.count);
      }
    } catch (const TerminatedError&) {
      return false;
    }
    return true;
  }
  if (binding.invoker != nullptr) {
    *result = binding.invoker(binding.fn, binding.closure, slots);
  } else {
    SPIN_DCHECK(binding.prog.has_value());
    MicroArgs args(slots, num_args, binding.closure_form, binding.closure);
    *result = micro::Run(*binding.prog, args.data, args.count);
  }
  return true;
}

void ExecuteTable(EventBase& event, const DispatchTable& table,
                  RaiseFrame& frame, const obs::RaisePlan& plan) {
  frame.result = table.InitialResult();

  const bool tracing = plan.traced();

  if (table.stub != nullptr) {
    // Compiled dispatch fuses guard evaluation and handler bodies into one
    // routine, so the finest attributable phase is the stub call itself.
    obs::PhaseScope stub_phase(obs::Phase::kStub, event.obs_name(), tracing);
    table.stub->entry()(&frame);
  } else {
    // The interp phase's self-time is the dispatch loop overhead proper:
    // guard evaluation and handler bodies subtract themselves out through
    // the PhaseScope nesting chain.
    obs::PhaseScope interp_phase(obs::Phase::kInterp, event.obs_name(),
                                 tracing);
    const int num_args = static_cast<int>(event.sig().params.size());
    for (size_t i = 0; i < table.sync_bindings.size(); ++i) {
      const TableEntry& entry = table.sync_bindings[i];
      const BindingHandle& binding = entry.binding;
      bool admitted;
      {
        obs::PhaseScope guard_phase(obs::Phase::kGuardEval, event.obs_name(),
                                    tracing);
        admitted = EvalGuards(entry.guards, num_args, frame.args);
      }
      if (!admitted) {
        if (tracing) {
          obs::FlightRecorder::Global().Emit(obs::TraceKind::kGuardReject,
                                             event.obs_name(), i);
        }
        continue;
      }
      uint64_t deadline = binding->ephemeral && table.ephemeral_budget_ns != 0
                              ? NowNs() + table.ephemeral_budget_ns
                              : 0;
      uint64_t result = 0;
      bool completed;
      {
        obs::PhaseScope body_phase(obs::Phase::kHandlerBody, event.obs_name(),
                                   tracing);
        completed = RunHandler(*binding, frame.args, &result, deadline);
      }
      if (!completed) {
        ++frame.aborted;
        continue;
      }
      if (tracing) {
        obs::FlightRecorder::Global().Emit(obs::TraceKind::kHandlerFire,
                                           event.obs_name(), i);
        if (!binding->byref_params.empty()) {
          obs::FlightRecorder::Global().Emit(obs::TraceKind::kFilterMutate,
                                             event.obs_name(), i);
        }
      }
      if (table.returns_value) {
        frame.result = table.policy == ResultPolicy::kLast &&
                               table.custom_fold == nullptr
                           ? result
                           : Fold(table, result, frame.result, frame.fired);
      }
      ++frame.fired;
    }
  }

  if (table.async_bindings != nullptr) {
    ScheduleAsyncBindings(event, table, frame, plan);
  }

  if (frame.fired == 0) {
    if (table.default_handler != nullptr) {
      uint64_t result = 0;
      RunHandler(*table.default_handler, frame.args, &result, 0);
      if (table.returns_value) {
        frame.result = result;
      }
      frame.fired = 1;
    } else {
      throw NoHandlerError(event.name());
    }
  }
}

void EventBase::RaiseErased(RaiseFrame& frame) {
  Dispatcher& dispatcher = *owner_;
  // What this raise times and traces is decided here, once; a top-level
  // raise's sampling decision is inherited by its whole causal tree, so a
  // captured trace is always a complete tree.
  const obs::RaisePlan plan;
  uint64_t start = plan.timed() ? NowNs() : 0;
  // Every traced dispatch is a span: a top-level raise opens a root, a
  // raise from inside a handler opens a child of the enclosing span. The
  // scope closes by RAII, so an escaping exception still completes it.
  std::optional<obs::SpanScope> span;
  if (plan.traced()) {
    span.emplace();
    obs::FlightRecorder::Global().EmitAt(obs::TraceKind::kRaiseBegin,
                                         obs_name_, start);
  }
  bool promote = false;
  obs::DispatchKind kind = obs::DispatchKind::kInterp;
  {
    // One load of the table pointer under one epoch guard: everything the
    // dispatch reads hangs off this table generation.
    EpochDomain::Guard guard(dispatcher.epoch());
    DispatchTable* table = table_.load(std::memory_order_acquire);
    SPIN_DCHECK(table != nullptr);
    kind = table->obs_kind;
    if (table->lazy_pending) {
      promote = lazy_raises_.fetch_add(1, std::memory_order_relaxed) + 1 >=
                Dispatcher::kLazyPromoteRaises;
    }
    ExecuteTable(*this, *table, frame, plan);
  }
  if (promote) {
    // The event proved hot: compile its dispatch routine now (§3.1's
    // "more incremental (and economical) approach to installation").
    dispatcher.PromoteLazyEvent(*this);
  }
  if (plan.timed()) {
    uint64_t end = NowNs();
    metrics_->Record(kind, end - start);
    if (plan.watchdog()) {
      obs::CheckDispatch(obs_name_, 0, end - start, metrics_->slow_ns());
    }
    if (plan.traced()) {
      obs::FlightRecorder::Global().EmitAt(obs::TraceKind::kRaiseEnd,
                                           obs_name_, end);
    }
  }
}

void EventBase::RaiseAsyncErased(const RaiseFrame& frame) {
  Dispatcher& dispatcher = *owner_;
  // A detached raise is its own top level: plan it here, at the enqueue
  // site, so the kAsyncEnqueue record and the pool-side execution agree on
  // whether the tree is sampled.
  const obs::RaisePlan plan;
  AsyncTask task;
  task.event = this;
  task.mask = 1;
  task.Prepare(frame, plan);
  dispatcher.pool().Submit(std::move(task), dispatcher.config().async_mode);
}

size_t DispatchTable::GuardCount() const {
  size_t count = 0;
  for (const TableEntry& entry : sync_bindings) {
    count += entry.guards == nullptr ? 0 : entry.guards->size();
  }
  if (async_bindings != nullptr) {
    for (const TableEntry& entry : *async_bindings) {
      count += entry.guards == nullptr ? 0 : entry.guards->size();
    }
  }
  return count;
}

bool EventBase::has_default_handler() const {
  EpochDomain::Guard guard(owner_->epoch());
  DispatchTable* table = table_.load(std::memory_order_acquire);
  return table->default_handler != nullptr;
}

size_t EventBase::handler_count() const {
  EpochDomain::Guard guard(owner_->epoch());
  DispatchTable* table = table_.load(std::memory_order_acquire);
  return table->sync_bindings.size() +
         (table->async_bindings != nullptr ? table->async_bindings->size()
                                           : 0);
}

size_t EventBase::guard_count() const {
  EpochDomain::Guard guard(owner_->epoch());
  DispatchTable* table = table_.load(std::memory_order_acquire);
  return table->GuardCount();
}

}  // namespace spin
