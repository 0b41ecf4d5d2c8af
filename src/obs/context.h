// Causal trace context: the span active on the current thread.
//
// A span is one logical unit of causally-connected work. Every traced
// dispatch (EventBase::RaiseErased) opens a span; a raise made from inside
// a handler opens a *child* span, an async handoff pre-allocates the child
// span at enqueue time and the pool thread adopts it, and a remote raise
// carries its span id across the wire so the exporter-side dispatch joins
// the same tree. Flight-recorder records are stamped with the active
// (span, parent) pair plus the simulated-host identity, which is what lets
// Snapshot()/TraceQuery reassemble "what did raise #N actually cause"
// across threads and hosts.
//
// What a raise records at all — nothing, its time, or its trace — is
// decided once per raise by RaisePlan (below); the rest of this file is
// tracing-path-only, consulted only when a plan says the raise is traced.
#ifndef SRC_OBS_CONTEXT_H_
#define SRC_OBS_CONTEXT_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/obs/obs.h"

namespace spin {
namespace obs {

// The sampling decision active for the current causal tree. A top-level
// raise (no decision in scope) makes one — kTrace captures the whole tree,
// kSkip suppresses it — and nested raises, async pool bodies, and wire
// dispatches inherit it through TraceContext. kUndecided marks control-
// plane work outside any raise (installs, rebuilds, watchdog reports),
// which is always captured when the recorder is enabled.
enum class SampleDecision : uint8_t {
  kUndecided = 0,
  kTrace = 1,
  kSkip = 2,
};

// The causal context records are stamped with. span == 0 means "no span
// active" (the record is an orphan); host == 0 means "no simulated host"
// (plain local work).
struct TraceContext {
  uint64_t span = 0;    // active span id
  uint64_t parent = 0;  // the active span's parent (0 = root span)
  uint32_t host = 0;    // RegisterTraceHost id of the active sim host
  SampleDecision decision = SampleDecision::kUndecided;
};

// The context active on this thread. Mutate only through the scopes below.
const TraceContext& CurrentContext();

// True when records emitted from the current context should be captured:
// the recorder is enabled and the active sampling decision (if any) is not
// kSkip. Control-plane emission outside any raise is always captured.
inline bool Capturing() {
  return Enabled() && CurrentContext().decision != SampleDecision::kSkip;
}

// RAII install/restore of the sampling decision alone, leaving the active
// span untouched. A top-level raise holds one of these for its entire
// dispatch so the causal tree it creates — including async handoffs that
// copy the context — inherits the decision.
class SampleScope {
 public:
  explicit SampleScope(SampleDecision decision);
  ~SampleScope();
  SampleScope(const SampleScope&) = delete;
  SampleScope& operator=(const SampleScope&) = delete;

 private:
  SampleDecision saved_;
};

// What one raise observes: nothing; its time, into the latency histograms
// and the watchdog's deadline check; or its trace (spans, records, phases)
// as well as its time.
enum class Observe : uint8_t { kNone, kTimed, kTraced };

// The observation plan of one raise, made where the raise enters the
// dispatcher (EventBase::RaiseErased, RaiseAsyncErased) from one load of
// the mode and one of the watchdog's armed flag; every hook of the raise
// reads the plan. kOff plans kNone (kTimed while the watchdog is armed),
// kTimed kTimed, kFull kTraced, and kSampled kTraced for a sampled tree,
// else as kOff. Under kSampled and kFull a top-level raise (no decision in
// scope) decides for its tree — kFull always traces, kSampled every
// sample_rate-th top-level raise of a thread, by a thread-local countdown
// — and the plan installs that decision for its lifetime, so nested raises
// and async handoffs inherit it.
class RaisePlan {
 public:
  RaisePlan() {
    const TraceMode mode = CurrentTraceMode();
    watchdog_ = internal::g_watchdog_armed.load(std::memory_order_relaxed);
    if (mode >= TraceMode::kSampled) {
      PlanTrace(mode);
    } else if (mode == TraceMode::kTimed || watchdog_) {
      observe_ = Observe::kTimed;
    }
  }
  // Re-enters the plan of a raise queued on another thread: its async
  // bodies are timed and traced exactly when it was, under its decision.
  RaisePlan(Observe observe, bool watchdog, SampleDecision decision);

  Observe observe() const { return observe_; }
  bool timed() const { return observe_ != Observe::kNone; }
  bool traced() const { return observe_ == Observe::kTraced; }
  // The watchdog was armed: check each measured time against its deadline.
  bool watchdog() const { return watchdog_; }
  // The tree's sampling decision; kUndecided under kOff and kTimed.
  SampleDecision decision() const { return decision_; }

 private:
  void PlanTrace(TraceMode mode);

  Observe observe_ = Observe::kNone;
  bool watchdog_ = false;
  SampleDecision decision_ = SampleDecision::kUndecided;
  std::optional<SampleScope> scope_;  // installs a decision this plan made
};

// Allocates a fresh process-unique span id (never 0) and counts it as
// started. The caller is responsible for eventually counting it completed
// (SpanScope does both ends automatically).
uint64_t NewSpanId();

// Allocates `count` consecutive span ids and counts them all as started;
// returns the first. An async handoff announces one block per raise, so
// its pool task carries only the base id.
uint64_t NewSpanIds(uint32_t count);

// RAII span entry/exit. The default constructor opens a child of whatever
// span is active (a root span when none is); the adopting constructor
// installs a context produced elsewhere — an async enqueue site or a
// decoded wire frame — and counts the span completed on exit only when the
// adopter owns that end of its lifetime.
class SpanScope {
 public:
  // Opens a new span as a child of the current one.
  SpanScope();
  // Adopts `ctx` verbatim. complete_on_exit: this scope is the span's final
  // executor (an async pool body), not a visitor (an exporter dispatch).
  SpanScope(const TraceContext& ctx, bool complete_on_exit);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  uint64_t span() const { return span_; }

 private:
  TraceContext saved_;
  uint64_t span_ = 0;
  bool complete_ = false;
};

// RAII phase segment (DESIGN.md §15). Times one stage of a raise on the
// host clock and, on exit, stamps a kPhase record carrying {phase,
// t_start, t_end, self_ns} into the flight recorder plus the
// spin_phase_ns{event,phase} histogram. Scopes nest through a thread-local
// parent chain: a child's wall time is subtracted from its enclosing
// scope's self-time, so summing self_ns over any set of nested scopes
// never double-counts — even when the nesting crosses span boundaries
// (an exporter dispatch pumped inside a proxy's wire wait, a child raise
// inside a handler body).
//
// Cost: when the thread is capturing, the constructor is one clock read
// plus two thread-local stores; when sampled out (or the caller passes
// active=false), it is a single branch and no clock read — the sampled-out
// raise stays unchanged.
class PhaseScope {
 public:
  // `name` must be interned (it is stored in trace records). Checks
  // Capturing() itself.
  PhaseScope(Phase phase, const char* name);
  // Caller-supplied gate, for sites that already computed their tracing
  // decision once per dispatch: active=false skips the Capturing() check
  // and the clock read entirely.
  PhaseScope(Phase phase, const char* name, bool active);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  void Enter();

  PhaseScope* parent_ = nullptr;
  const char* name_ = nullptr;
  uint64_t start_ns_ = 0;
  uint64_t child_ns_ = 0;  // wall time of directly nested scopes
  Phase phase_ = Phase::kGuardEval;
  bool active_ = false;
};

// Stamps a virtual-clock phase (kWireVirtual, kBackoff): a kPhase record
// whose self-time is `virtual_ns` on the simulator clock and whose
// host-clock extent is empty (end_ns == 0). Does not participate in the
// PhaseScope nesting chain — virtual durations are reported alongside the
// real-time budget, never subtracted from it. No-op unless Capturing().
void EmitVirtualPhase(Phase phase, const char* name, uint64_t virtual_ns);

// Stamps an already-measured real-time segment whose endpoints were
// captured on different threads (async queue wait: enqueue timestamp on
// the raising thread, execute timestamp on the pool thread). Participates
// in the nesting chain as a leaf via self_ns only. No-op unless Capturing().
void EmitPhaseSegment(Phase phase, const char* name, uint64_t t_start,
                      uint64_t t_end);

// RAII simulated-host identity for records emitted on this thread. Leaves
// the active span untouched.
class HostScope {
 public:
  explicit HostScope(uint32_t host);
  ~HostScope();
  HostScope(const HostScope&) = delete;
  HostScope& operator=(const HostScope&) = delete;

 private:
  uint32_t saved_ = 0;
};

// Registers a simulated host for trace attribution; returns a dense
// nonzero id, stable for the process lifetime. Thread-safe.
uint32_t RegisterTraceHost(const std::string& name);

// The registered name for a host id ("local" for 0 or unknown ids). The
// returned pointer never dangles.
const char* TraceHostName(uint32_t host);

// Span accounting, exported as spin_trace_* by ExportMetrics.
struct SpanStats {
  uint64_t started = 0;     // NewSpanId allocations
  uint64_t completed = 0;   // spans whose final executor exited
  uint64_t cross_host = 0;  // wire-carried spans dispatched on another host
  uint64_t orphans = 0;     // records emitted with no active span
};
SpanStats GetSpanStats();
void ResetSpanStats();

// Counts a span that arrived over the wire from a different host
// (exporter-side, once per fresh dispatch).
void CountCrossHostSpan();

namespace internal {
// Called by FlightRecorder::EmitAt for records stamped with span 0.
void CountOrphanRecord();
// Mutable access for the scopes; not part of the public surface.
TraceContext& MutableContext();
}  // namespace internal

}  // namespace obs
}  // namespace spin

#endif  // SRC_OBS_CONTEXT_H_
