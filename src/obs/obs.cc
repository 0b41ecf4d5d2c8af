#include "src/obs/obs.h"

#include <algorithm>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>

namespace spin {
namespace obs {

namespace internal {

std::atomic<uint8_t> g_trace_mode{0};
std::atomic<uint32_t> g_sample_rate{128};

uint32_t ThreadIndexSlow() {
  static std::atomic<uint32_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace internal

void SetTraceConfig(const TraceConfig& config) {
  uint32_t rate = config.sample_rate == 0 ? 1 : config.sample_rate;
  internal::g_sample_rate.store(rate, std::memory_order_relaxed);
  internal::g_trace_mode.store(static_cast<uint8_t>(config.mode),
                               std::memory_order_relaxed);
}

TraceConfig GetTraceConfig() {
  TraceConfig config;
  config.mode = CurrentTraceMode();
  config.sample_rate = internal::g_sample_rate.load(std::memory_order_relaxed);
  return config;
}

namespace {

// Lets the intern table find a std::string_view without building a
// std::string for it.
struct InternHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

}  // namespace

const char* Intern(std::string_view s) {
  static std::atomic_flag lock = ATOMIC_FLAG_INIT;
  // Node-based: iterators/pointers into the set stay valid across inserts.
  static auto* table =
      new std::unordered_set<std::string, InternHash, std::equal_to<>>();
  while (lock.test_and_set(std::memory_order_acquire)) {
  }
  // Look up first: a known name allocates nothing.
  auto it = table->find(s);
  if (it == table->end()) {
    it = table->emplace(s).first;
  }
  lock.clear(std::memory_order_release);
  return it->c_str();
}

const char* DispatchKindName(DispatchKind kind) {
  switch (kind) {
    case DispatchKind::kDirect:
      return "direct";
    case DispatchKind::kStub:
      return "stub";
    case DispatchKind::kTree:
      return "tree";
    case DispatchKind::kInterp:
      return "interpreted";
    case DispatchKind::kAsync:
      return "async";
  }
  return "unknown";
}

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kGuardEval:
      return "guard_eval";
    case Phase::kHandlerBody:
      return "handler_body";
    case Phase::kStub:
      return "stub";
    case Phase::kInterp:
      return "interp";
    case Phase::kQueueWait:
      return "queue_wait";
    case Phase::kMarshal:
      return "marshal";
    case Phase::kWire:
      return "wire";
    case Phase::kDispatch:
      return "dispatch";
    case Phase::kUnmarshal:
      return "unmarshal";
    case Phase::kWireVirtual:
      return "wire_virtual";
    case Phase::kBackoff:
      return "backoff";
  }
  return "unknown";
}

// --- Phase stats registry -------------------------------------------------
//
// Append-only singly linked list of per-event entries. Lookups walk the
// list lock-free (entries are published with release stores and never
// removed); insertion takes a spinlock so an event name appears exactly
// once. A thread-local memo makes the steady-state cost of RecordPhase one
// pointer compare plus the histogram increment.

namespace {

struct PhaseEntry {
  const char* name;  // interned
  Histogram hist[kNumPhases];
  PhaseEntry* next;
};

std::atomic<PhaseEntry*> g_phase_head{nullptr};
std::atomic_flag g_phase_insert_lock = ATOMIC_FLAG_INIT;

PhaseEntry* FindOrInsertPhaseEntry(const char* event) {
  for (PhaseEntry* e = g_phase_head.load(std::memory_order_acquire);
       e != nullptr; e = e->next) {
    if (e->name == event) {
      return e;
    }
  }
  while (g_phase_insert_lock.test_and_set(std::memory_order_acquire)) {
  }
  // Re-check under the lock: another thread may have inserted it.
  PhaseEntry* head = g_phase_head.load(std::memory_order_relaxed);
  for (PhaseEntry* e = head; e != nullptr; e = e->next) {
    if (e->name == event) {
      g_phase_insert_lock.clear(std::memory_order_release);
      return e;
    }
  }
  auto* fresh = new PhaseEntry();  // intentionally leaked, like Intern()
  fresh->name = event;
  fresh->next = head;
  g_phase_head.store(fresh, std::memory_order_release);
  g_phase_insert_lock.clear(std::memory_order_release);
  return fresh;
}

}  // namespace

void RecordPhase(const char* event, Phase phase, uint64_t ns) {
  thread_local PhaseEntry* t_last = nullptr;
  PhaseEntry* e = t_last;
  if (e == nullptr || e->name != event) {
    e = FindOrInsertPhaseEntry(event);
    t_last = e;
  }
  e->hist[static_cast<size_t>(phase)].Record(ns);
}

std::vector<PhaseStats> SnapshotPhaseStats() {
  std::vector<PhaseStats> out;
  for (PhaseEntry* e = g_phase_head.load(std::memory_order_acquire);
       e != nullptr; e = e->next) {
    PhaseStats stats;
    stats.event = e->name;
    bool any = false;
    for (size_t p = 0; p < kNumPhases; ++p) {
      stats.phases[p] = e->hist[p].Snapshot();
      any = any || stats.phases[p].count > 0;
    }
    if (any) {
      out.push_back(std::move(stats));
    }
  }
  std::sort(out.begin(), out.end(), [](const PhaseStats& a, const PhaseStats& b) {
    return std::string_view(a.event) < std::string_view(b.event);
  });
  return out;
}

void ResetPhaseStats() {
  for (PhaseEntry* e = g_phase_head.load(std::memory_order_acquire);
       e != nullptr; e = e->next) {
    for (size_t p = 0; p < kNumPhases; ++p) {
      e->hist[p].Reset();
    }
  }
}

// --- HistogramSnapshot ---------------------------------------------------

uint64_t HistogramSnapshot::Percentile(double q) const {
  if (count == 0) {
    return 0;
  }
  if (q < 0) {
    q = 0;
  }
  if (q > 1) {
    q = 1;
  }
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (static_cast<double>(rank) < q * static_cast<double>(count)) {
    ++rank;  // ceil
  }
  if (rank == 0) {
    rank = 1;
  }
  uint64_t cumulative = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    cumulative += buckets[b];
    if (cumulative >= rank) {
      return BucketUpperBound(b);
    }
  }
  return BucketUpperBound(kNumBuckets - 1);
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  for (size_t b = 0; b < kNumBuckets; ++b) {
    buckets[b] += other.buckets[b];
  }
}

// --- Histogram -----------------------------------------------------------

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (const Stripe& s : stripes_) {
    for (size_t b = 0; b < kNumBuckets; ++b) {
      uint64_t n = s.counts[b].load(std::memory_order_relaxed);
      snap.buckets[b] += n;
      snap.count += n;
    }
    snap.sum += s.sum.load(std::memory_order_relaxed);
    snap.max = std::max(snap.max, s.max.load(std::memory_order_relaxed));
  }
  return snap;
}

uint64_t Histogram::Count() const {
  uint64_t n = 0;
  for (const Stripe& s : stripes_) {
    for (size_t b = 0; b < kNumBuckets; ++b) {
      n += s.counts[b].load(std::memory_order_relaxed);
    }
  }
  return n;
}

uint64_t Histogram::SumNs() const {
  uint64_t sum = 0;
  for (const Stripe& s : stripes_) {
    sum += s.sum.load(std::memory_order_relaxed);
  }
  return sum;
}

void Histogram::Reset() {
  for (Stripe& s : stripes_) {
    for (size_t b = 0; b < kNumBuckets; ++b) {
      s.counts[b].store(0, std::memory_order_relaxed);
    }
    s.sum.store(0, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
  }
}

// --- EventMetrics --------------------------------------------------------

uint64_t EventMetrics::TotalCount() const {
  uint64_t n = 0;
  for (size_t k = 0; k < kNumRaiseKinds; ++k) {
    n += hist_[k].Count();
  }
  return n;
}

uint64_t EventMetrics::TotalSumNs() const {
  uint64_t sum = 0;
  for (size_t k = 0; k < kNumRaiseKinds; ++k) {
    sum += hist_[k].SumNs();
  }
  return sum;
}

HistogramSnapshot EventMetrics::Merged() const {
  HistogramSnapshot merged;
  for (size_t k = 0; k < kNumRaiseKinds; ++k) {
    merged.Merge(hist_[k].Snapshot());
  }
  return merged;
}

void EventMetrics::Reset() {
  for (Histogram& h : hist_) {
    h.Reset();
  }
}

// --- Registry ------------------------------------------------------------

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // intentionally leaked
  return *registry;
}

void Registry::Lock() const {
  while (lock_.test_and_set(std::memory_order_acquire)) {
  }
}

void Registry::Unlock() const { lock_.clear(std::memory_order_release); }

std::shared_ptr<EventMetrics> Registry::Register(const std::string& name) {
  auto metrics = std::make_shared<EventMetrics>(name);
  Lock();
  entries_.push_back(metrics);
  Unlock();
  return metrics;
}

void Registry::Unregister(const EventMetrics* metrics) {
  Lock();
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [metrics](const auto& e) {
                                  return e.get() == metrics;
                                }),
                 entries_.end());
  Unlock();
}

std::vector<std::shared_ptr<EventMetrics>> Registry::List() const {
  Lock();
  std::vector<std::shared_ptr<EventMetrics>> copy = entries_;
  Unlock();
  return copy;
}

}  // namespace obs
}  // namespace spin
