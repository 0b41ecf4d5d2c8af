// Observability substrate (spin_obs): latency histograms and the global
// observation mode shared with the flight recorder (trace.h) and the metric
// exporter (export.h).
//
// The paper instrumented the kernel "to generate call graph information
// with counts and elapsed times" (§3.2). A production-scale descendant
// needs distributions, not means: dispatch latency is bimodal (generated
// stub vs. interpreter vs. pool hop), and regressions hide in the tail.
// This module keeps one log-bucketed histogram per (event, dispatch kind),
// striped across cache lines so concurrent raises on different threads do
// not contend.
//
// Cost discipline: a raise reads the mode once, in its RaisePlan
// (context.h), and every hook in the dispatcher reads the plan. The
// intrinsic-bypass fast path (Event::Raise direct call) carries no hook at
// all; Dispatcher::SetTracing rebuilds dispatch tables without the bypass
// whenever the mode times every raise (kTimed, kFull).
#ifndef SRC_OBS_OBS_H_
#define SRC_OBS_OBS_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace spin {
namespace obs {

namespace internal {
extern std::atomic<uint8_t> g_trace_mode;
extern std::atomic<uint32_t> g_sample_rate;
// Set while the anomaly watchdog (watchdog.h) is armed: every raise is
// timed for its deadline check.
extern std::atomic<bool> g_watchdog_armed;
// Small dense per-thread index used to pick a histogram stripe.
uint32_t ThreadIndexSlow();
inline uint32_t ThreadIndex() {
  thread_local uint32_t idx = ThreadIndexSlow();
  return idx;
}
}  // namespace internal

// --- Observation modes ----------------------------------------------------
//
// One process-wide mode decides what raises record; a raise reads it once,
// in its RaisePlan (context.h). Sampled tracing records 1-in-N *top-level*
// raises and everything they cause: the decision is inherited by nested
// raises, async pool handoffs, and wire-carried dispatches, so every
// captured trace is a complete span tree and the unsampled path costs only
// the decision branch.
enum class TraceMode : uint8_t {
  kOff = 0,      // nothing timed (unless the watchdog is armed), no records
  kTimed = 1,    // every raise timed into the histograms, no records
  kSampled = 2,  // capture 1-in-sample_rate top-level raises
  kFull = 3,     // capture everything
};

struct TraceConfig {
  TraceMode mode = TraceMode::kOff;
  // kSampled: a thread captures every sample_rate-th top-level raise it
  // makes. Clamped to >= 1; 1 behaves like kFull at the record level.
  uint32_t sample_rate = 128;
};

// Installs the process-wide observation mode. Note the obs layer only
// controls what raises record — Dispatcher::SetTracing additionally
// rebuilds dispatch tables (kTimed and kFull drop the intrinsic bypass,
// kFull also interprets; kSampled keeps production stubs and bypass).
void SetTraceConfig(const TraceConfig& config);
TraceConfig GetTraceConfig();

inline TraceMode CurrentTraceMode() {
  return static_cast<TraceMode>(
      internal::g_trace_mode.load(std::memory_order_relaxed));
}

// True when the mode emits trace records (kSampled, kFull). Relaxed:
// observers tolerate a stale view for a few raises around the toggle.
inline bool Enabled() { return CurrentTraceMode() >= TraceMode::kSampled; }

// RAII full-fidelity capture window, for tests: switches the mode to kFull
// and restores the previous TraceConfig (mode and rate) on exit.
class EnableScope {
 public:
  EnableScope() : prev_(GetTraceConfig()) {
    SetTraceConfig({TraceMode::kFull, prev_.sample_rate});
  }
  ~EnableScope() { SetTraceConfig(prev_); }
  EnableScope(const EnableScope&) = delete;
  EnableScope& operator=(const EnableScope&) = delete;

 private:
  TraceConfig prev_;
};

// Interns a string into a never-freed global table and returns a stable
// C-string pointer. Trace records store these pointers so emission never
// copies and records outlive the objects that emitted them.
const char* Intern(std::string_view s);

// --- Phase attribution ----------------------------------------------------
//
// A dispatch phase: one stage of a raise's life that a PhaseScope
// (context.h) times and stamps into the trace ring as a kPhase record.
// Real-time phases are measured on the host clock and partition a span's
// wall time (their self-times plus an explicit residual sum to the span
// duration); virtual phases (kWireVirtual, kBackoff) are measured on the
// simulator clock — wire transit has no meaningful host-clock extent
// because the simulated network advances time discontinuously — and are
// reported alongside, never subtracted from, the real-time budget
// (DESIGN.md §15).
enum class Phase : uint8_t {
  kGuardEval = 0,  // guard evaluation (interpreted sync/async admission)
  kHandlerBody,    // handler body (interpreted sync loop, async pool body)
  kStub,           // compiled dispatch routine (guards + handlers fused)
  kInterp,         // interpreted dispatch loop (self-time around guards/bodies)
  kQueueWait,      // async enqueue -> pool execution start
  kMarshal,        // request build + wire encode (proxy side)
  kWire,           // proxy pumping the simulated wire for a reply (real time)
  kDispatch,       // exporter-side dispatch + reply encode
  kUnmarshal,      // reply decode + by-ref copy-out (proxy side)
  kWireVirtual,    // send -> reply on the simulator clock (virtual ns)
  kBackoff,        // retry backoff share of the virtual wait (virtual ns)
};
constexpr size_t kNumPhases = 11;
const char* PhaseName(Phase phase);

// Process-wide per-(event, phase) latency histograms, fed by PhaseScope on
// the sampled path and exported as spin_phase_ns{event,phase}. The registry
// is an append-only lock-free list keyed by interned event name; the hit
// path is one thread-local memo compare plus a Histogram::Record.
void RecordPhase(const char* event, Phase phase, uint64_t ns);

// How a raise was (or would be, see DispatchTable::obs_kind) dispatched.
enum class DispatchKind : uint8_t {
  kDirect = 0,  // intrinsic-bypass direct call
  kStub,        // generated dispatch routine
  kTree,        // generated routine with a guard decision tree
  kInterp,      // interpreted dispatch
  kAsync,       // handler body executed on the thread pool
};
constexpr size_t kNumDispatchKinds = 5;
// The kinds a raise itself is accounted under (kDirect..kInterp); kAsync
// samples are async handler bodies, one per admitted body.
constexpr size_t kNumRaiseKinds = 4;
const char* DispatchKindName(DispatchKind kind);

// --- Log-bucketed latency histogram ------------------------------------
//
// Bucket b > 0 holds values v with bit_width(v) == b, i.e. the interval
// [2^(b-1), 2^b - 1]; bucket 0 holds exactly {0}. Percentile(q) returns
// the inclusive upper bound of the bucket containing the ceil(q * count)-th
// smallest sample — a deterministic, testable definition whose error is
// bounded by one octave.

constexpr size_t kNumBuckets = 65;  // bit_width of a uint64_t is 0..64

inline size_t BucketFor(uint64_t v) {
  return static_cast<size_t>(std::bit_width(v));
}
inline uint64_t BucketLowerBound(size_t bucket) {
  return bucket == 0 ? 0 : 1ull << (bucket - 1);
}
inline uint64_t BucketUpperBound(size_t bucket) {
  if (bucket == 0) {
    return 0;
  }
  return bucket >= 64 ? ~0ull : (1ull << bucket) - 1;
}

struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  uint64_t buckets[kNumBuckets] = {};

  // Upper bound of the bucket holding the ceil(q*count)-th smallest sample;
  // 0 when empty. q in (0, 1].
  uint64_t Percentile(double q) const;
  void Merge(const HistogramSnapshot& other);
};

class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    Stripe& s = stripes_[internal::ThreadIndex() & (kStripes - 1)];
    s.counts[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = s.max.load(std::memory_order_relaxed);
    while (value > seen &&
           !s.max.compare_exchange_weak(seen, value,
                                        std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot Snapshot() const;
  uint64_t Count() const;
  uint64_t SumNs() const;

  // Zeroes all stripes. Safe against concurrent Record: every counter is an
  // independent atomic, so a racing raise is either counted or cleanly
  // cleared — never torn.
  void Reset();

 private:
  static constexpr size_t kStripes = 4;  // power of two

  struct alignas(64) Stripe {
    std::atomic<uint64_t> counts[kNumBuckets] = {};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };

  Stripe stripes_[kStripes];
};

// Snapshot view of the phase registry (declared after Histogram because it
// carries HistogramSnapshots; the registry itself is described above).
struct PhaseStats {
  const char* event = nullptr;  // interned
  HistogramSnapshot phases[kNumPhases];
};
// One entry per event that recorded at least one phase, sorted by name.
std::vector<PhaseStats> SnapshotPhaseStats();
// Zeroes every histogram (entries stay registered). For benches and tests.
void ResetPhaseStats();

// --- Per-event metrics ---------------------------------------------------

// One histogram per dispatch kind for a single event instance. Created by
// EventBase at construction and published through the global Registry so
// ExportMetrics can walk every live event.
class EventMetrics {
 public:
  explicit EventMetrics(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  void Record(DispatchKind kind, uint64_t ns) {
    hist_[static_cast<size_t>(kind)].Record(ns);
  }

  const Histogram& hist(DispatchKind kind) const {
    return hist_[static_cast<size_t>(kind)];
  }

  // Raises and their summed time: the raise kinds only, so an async body
  // is not counted as a raise.
  uint64_t TotalCount() const;
  uint64_t TotalSumNs() const;
  // The raise kinds merged into one distribution.
  HistogramSnapshot Merged() const;
  void Reset();

  // Per-event slow-dispatch deadline in ns, maintained by the anomaly
  // watchdog's monitor thread (derived from this event's observed p99,
  // capped by the absolute deadline). 0 = no per-event deadline; the
  // inline check falls back to the watchdog's absolute limit.
  uint64_t slow_ns() const { return slow_ns_.load(std::memory_order_relaxed); }
  void set_slow_ns(uint64_t ns) {
    slow_ns_.store(ns, std::memory_order_relaxed);
  }

 private:
  std::string name_;
  Histogram hist_[kNumDispatchKinds];
  std::atomic<uint64_t> slow_ns_{0};
};

class Registry {
 public:
  static Registry& Global();

  std::shared_ptr<EventMetrics> Register(const std::string& name);
  void Unregister(const EventMetrics* metrics);

  // Snapshot of every live event's metrics object.
  std::vector<std::shared_ptr<EventMetrics>> List() const;

 private:
  Registry() = default;

  mutable std::atomic_flag lock_ = ATOMIC_FLAG_INIT;
  std::vector<std::shared_ptr<EventMetrics>> entries_;

  void Lock() const;
  void Unlock() const;
};

}  // namespace obs
}  // namespace spin

#endif  // SRC_OBS_OBS_H_
