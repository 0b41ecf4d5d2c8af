#include "src/obs/context.h"

#include <atomic>
#include <vector>

#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/rt/clock.h"

namespace spin {
namespace obs {
namespace {

thread_local TraceContext t_context;

std::atomic<uint64_t> g_next_span{1};
std::atomic<uint64_t> g_spans_started{0};
std::atomic<uint64_t> g_spans_completed{0};
std::atomic<uint64_t> g_cross_host_spans{0};
std::atomic<uint64_t> g_orphan_records{0};

// Host registry: ids are dense and 1-based; names are interned so
// TraceHostName never dangles. Guarded by the obs spinlock-style flag.
struct HostRegistry {
  std::atomic_flag lock = ATOMIC_FLAG_INIT;
  std::vector<const char*> names;  // index = host id - 1

  void Lock() {
    while (lock.test_and_set(std::memory_order_acquire)) {
    }
  }
  void Unlock() { lock.clear(std::memory_order_release); }
};

HostRegistry& Hosts() {
  static HostRegistry* registry = new HostRegistry();  // leaked
  return *registry;
}

}  // namespace

const TraceContext& CurrentContext() { return t_context; }

TraceContext& internal::MutableContext() { return t_context; }

void RaisePlan::PlanTrace(TraceMode mode) {
  decision_ = t_context.decision;
  if (decision_ == SampleDecision::kUndecided) {
    // The countdown is thread-local: the unsampled path touches no shared
    // state, and the pattern is deterministic for single-threaded tests.
    decision_ = SampleDecision::kTrace;
    if (mode == TraceMode::kSampled) {
      thread_local uint32_t t_countdown = 0;
      uint32_t rate = internal::g_sample_rate.load(std::memory_order_relaxed);
      if (++t_countdown >= rate) {
        t_countdown = 0;
      } else {
        decision_ = SampleDecision::kSkip;
      }
    }
    scope_.emplace(decision_);
  }
  if (decision_ != SampleDecision::kSkip) {
    observe_ = Observe::kTraced;
  } else if (watchdog_) {
    observe_ = Observe::kTimed;
  }
}

RaisePlan::RaisePlan(Observe observe, bool watchdog, SampleDecision decision)
    : observe_(observe), watchdog_(watchdog), decision_(decision) {
  if (decision != SampleDecision::kUndecided) {
    scope_.emplace(decision);
  }
}

SampleScope::SampleScope(SampleDecision decision)
    : saved_(t_context.decision) {
  t_context.decision = decision;
}

SampleScope::~SampleScope() { t_context.decision = saved_; }

uint64_t NewSpanId() { return NewSpanIds(1); }

uint64_t NewSpanIds(uint32_t count) {
  g_spans_started.fetch_add(count, std::memory_order_relaxed);
  return g_next_span.fetch_add(count, std::memory_order_relaxed);
}

SpanScope::SpanScope() : saved_(t_context), complete_(true) {
  span_ = NewSpanId();
  t_context.parent = saved_.span;
  t_context.span = span_;
}

SpanScope::SpanScope(const TraceContext& ctx, bool complete_on_exit)
    : saved_(t_context), span_(ctx.span), complete_(complete_on_exit) {
  t_context = ctx;
}

SpanScope::~SpanScope() {
  if (complete_ && span_ != 0) {
    g_spans_completed.fetch_add(1, std::memory_order_relaxed);
  }
  t_context = saved_;
}

namespace {
// Innermost live PhaseScope on this thread: the nesting chain that makes
// self-times partition (a child's wall time is charged to exactly one
// parent, whichever scope encloses it on this thread).
thread_local PhaseScope* t_phase_top = nullptr;
}  // namespace

PhaseScope::PhaseScope(Phase phase, const char* name)
    : name_(name), phase_(phase) {
  if (!Capturing()) {
    return;
  }
  Enter();
}

PhaseScope::PhaseScope(Phase phase, const char* name, bool active)
    : name_(name), phase_(phase) {
  if (!active) {
    return;
  }
  Enter();
}

void PhaseScope::Enter() {
  active_ = true;
  start_ns_ = NowNs();
  parent_ = t_phase_top;
  t_phase_top = this;
}

PhaseScope::~PhaseScope() {
  if (!active_) {
    return;
  }
  uint64_t end = NowNs();
  uint64_t dur = end > start_ns_ ? end - start_ns_ : 0;
  uint64_t self = dur > child_ns_ ? dur - child_ns_ : 0;
  if (parent_ != nullptr) {
    parent_->child_ns_ += dur;
  }
  t_phase_top = parent_;
  FlightRecorder::Global().EmitPhase(name_, phase_, start_ns_, end, self);
}

void EmitVirtualPhase(Phase phase, const char* name, uint64_t virtual_ns) {
  if (!Capturing()) {
    return;
  }
  // t_start on the host clock keeps the record sorted near its siblings in
  // the merged timeline; end_ns == 0 marks the extent as virtual.
  FlightRecorder::Global().EmitPhase(name, phase, NowNs(), 0, virtual_ns);
}

void EmitPhaseSegment(Phase phase, const char* name, uint64_t t_start,
                      uint64_t t_end) {
  if (!Capturing()) {
    return;
  }
  uint64_t dur = t_end > t_start ? t_end - t_start : 0;
  FlightRecorder::Global().EmitPhase(name, phase, t_start, t_end, dur);
}

HostScope::HostScope(uint32_t host) : saved_(t_context.host) {
  t_context.host = host;
}

HostScope::~HostScope() { t_context.host = saved_; }

uint32_t RegisterTraceHost(const std::string& name) {
  const char* interned = Intern(name);
  HostRegistry& hosts = Hosts();
  hosts.Lock();
  hosts.names.push_back(interned);
  uint32_t id = static_cast<uint32_t>(hosts.names.size());
  hosts.Unlock();
  return id;
}

const char* TraceHostName(uint32_t host) {
  if (host == 0) {
    return "local";
  }
  HostRegistry& hosts = Hosts();
  hosts.Lock();
  const char* name =
      host <= hosts.names.size() ? hosts.names[host - 1] : "local";
  hosts.Unlock();
  return name;
}

SpanStats GetSpanStats() {
  SpanStats stats;
  stats.started = g_spans_started.load(std::memory_order_relaxed);
  stats.completed = g_spans_completed.load(std::memory_order_relaxed);
  stats.cross_host = g_cross_host_spans.load(std::memory_order_relaxed);
  stats.orphans = g_orphan_records.load(std::memory_order_relaxed);
  return stats;
}

void ResetSpanStats() {
  g_spans_started.store(0, std::memory_order_relaxed);
  g_spans_completed.store(0, std::memory_order_relaxed);
  g_cross_host_spans.store(0, std::memory_order_relaxed);
  g_orphan_records.store(0, std::memory_order_relaxed);
}

void CountCrossHostSpan() {
  g_cross_host_spans.fetch_add(1, std::memory_order_relaxed);
}

void internal::CountOrphanRecord() {
  g_orphan_records.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace spin
