// The dispatcher flight recorder.
//
// A per-thread, lock-free ring buffer of fixed-size typed records. Each
// thread writes only its own ring (an index bump and a few atomic stores
// per record, no lock and no read-modify-write); when the ring wraps, the
// oldest records are overwritten, so the recorder always holds the newest
// window — the black-box-recorder discipline. Snapshot() merges all rings
// into a single monotonic-clock-ordered timeline, and WriteChromeTrace()
// serializes that timeline as Chrome trace-event JSON, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
//
// Record names are interned C-strings (obs::Intern), so emission never
// allocates and records remain printable after the emitting event dies.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "src/obs/context.h"
#include "src/obs/obs.h"

namespace spin {
namespace obs {

enum class TraceKind : uint8_t {
  kRaiseBegin,    // dispatch entered (duration open)
  kRaiseEnd,      // dispatch finished (duration close)
  kGuardReject,   // a binding's guards evaluated false; arg = binding index
  kHandlerFire,   // a handler ran; arg = binding index
  kFilterMutate,  // a filter handler mutated by-ref args; arg = binding index
  kAsyncEnqueue,  // async handler/raise scheduled on the pool
  kAsyncExecute,  // async handler body started on a pool thread
  kInstall,       // handler installed
  kUninstall,     // handler uninstalled
  kRebuild,       // dispatch table regenerated; arg = table version
  kStubCompile,   // dispatch routine compiled; arg = code bytes
  kLazyPromote,   // lazy event promoted to compiled dispatch
  kEpochReclaim,  // epoch reclamation freed objects; arg = count
  // Remote event dispatch (src/remote). `name` is the remote event name.
  kRemoteMarshal,  // arguments marshaled; arg = wire payload bytes
  kRemoteSend,     // request handed to the network; arg = request id
  kRemoteRetry,    // attempt timed out, resending; arg = attempt number
  kRemoteReply,    // reply matched to a pending request; arg = request id
  kRemoteTimeout,  // retry budget exhausted; arg = request id
  kRemoteDedup,    // duplicate delivery suppressed; arg = request id
  kRemoteBind,     // bind handshake authorized; arg = granted token
                   // (0 = denied by the exporter's authorizer)
  kRemoteRevoke,   // capability token revoked / revocation received;
                   // arg = the token
  kRemoteDispatch,  // exporter accepted a wire-carried raise and is about
                    // to dispatch it; arg = request id
  kAnomaly,         // watchdog-detected anomaly; name = the offending
                    // source (event/pool/domain), arg = packed
                    // (AnomalyKind << 32) | shard (see src/obs/watchdog.h)
  kPhase,           // a PhaseScope segment; name = event, ts_ns = t_start,
                    // end_ns = t_end (0 for virtual-clock phases),
                    // arg = PackPhaseArg(phase, self_ns)
};

// Count sentinel for exhaustiveness checks: must equal the number of
// TraceKind enumerators. trace.cc static_asserts that it tracks the enum;
// the unit test asserts every kind below it has a real name.
inline constexpr size_t kNumTraceKinds = 24;

const char* TraceKindName(TraceKind kind);

// kPhase records pack the phase id and the segment's self-time (duration
// minus time spent in nested PhaseScopes) into `arg`: the phase id in the
// top byte, self-time ns in the low 56 bits (saturating — 2^56 ns is over
// two years).
inline uint64_t PackPhaseArg(Phase phase, uint64_t self_ns) {
  constexpr uint64_t kSelfMask = (1ull << 56) - 1;
  if (self_ns > kSelfMask) {
    self_ns = kSelfMask;
  }
  return (static_cast<uint64_t>(phase) << 56) | self_ns;
}
inline Phase PhaseOfArg(uint64_t arg) {
  return static_cast<Phase>(arg >> 56);
}
inline uint64_t PhaseSelfNs(uint64_t arg) {
  return arg & ((1ull << 56) - 1);
}

struct TraceRecord {
  uint64_t ts_ns = 0;
  const char* name = nullptr;  // interned; never dangles
  uint64_t arg = 0;
  uint64_t span = 0;    // causal span the record belongs to (0 = orphan)
  uint64_t parent = 0;  // the span's parent span (0 = root)
  uint64_t end_ns = 0;  // kPhase: segment end timestamp (0 = virtual phase)
  uint32_t host = 0;    // RegisterTraceHost id (0 = no host context)
  TraceKind kind = TraceKind::kRaiseBegin;
};

struct MergedRecord {
  TraceRecord rec;
  uint32_t tid = 0;  // recorder-assigned dense thread id
};

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 8192;  // records per thread

  // Process-wide recorder all instrumentation writes to.
  static FlightRecorder& Global();

  // Appends a record stamped with the monotonic clock. No-op when
  // obs::Enabled() is false.
  void Emit(TraceKind kind, const char* name, uint64_t arg = 0);

  // Appends a record with an explicit timestamp (used when the caller
  // already read the clock, and by tests for deterministic ordering).
  // Records are stamped with the thread's current TraceContext.
  void EmitAt(TraceKind kind, const char* name, uint64_t ts_ns,
              uint64_t arg = 0);

  // Appends a record with an explicit (span, parent) pair instead of the
  // thread's active span — the handoff records (kAsyncEnqueue, the flushed
  // kRemoteSend) describe a span other than the one they run under. The
  // host stamp still comes from the current context.
  void EmitWith(TraceKind kind, const char* name, uint64_t ts_ns,
                uint64_t arg, uint64_t span, uint64_t parent);

  // Appends a kPhase record for the current span and feeds the
  // spin_phase_ns{event,phase} histogram. Real-time segments pass their
  // host-clock [t_start, t_end]; virtual-clock phases (kWireVirtual,
  // kBackoff) pass t_end == 0 and carry their simulator-clock duration only
  // in self_ns. No-op when the recorder is disabled or the thread's
  // sampling decision is kSkip.
  void EmitPhase(const char* name, Phase phase, uint64_t t_start,
                 uint64_t t_end, uint64_t self_ns);

  // Merges every thread's ring into one timeline ordered by timestamp
  // (ties broken by thread id). Safe against concurrent emission: a record
  // whose slot its writer reuses while the snapshot copies it is left out,
  // never returned torn. Quiesce emitters first for an exact snapshot.
  std::vector<MergedRecord> Snapshot() const;

  // Drops all records; a nonzero capacity also resizes every ring (rounded
  // up to a power of two). Requires that no thread is concurrently
  // emitting. Intended for tests and between capture windows.
  void Reset(size_t capacity = 0);

  size_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }

  // Records lost to ring wraparound since the last Reset, summed over all
  // threads. A nonzero value means the capture window was too small for
  // the traffic — the trace is truncated, not complete.
  uint64_t TotalOverwrites() const;

  // Records ever emitted since the last Reset, summed over all threads.
  // With TotalOverwrites() this gives the drop rate of the capture window.
  uint64_t TotalEmits() const;

  // Per-thread ring health, for the {thread=...} metric series: which
  // rings are dropping records, not just that some ring is.
  struct RingStats {
    uint32_t tid = 0;        // recorder-assigned dense thread id
    uint64_t emits = 0;      // records written to this ring since Reset
    uint64_t overwrites = 0; // records lost to wraparound since Reset
  };
  std::vector<RingStats> PerRingStats() const;

 private:
  // One ring slot. The owning thread writes every word with a release
  // store and Snapshot reads it with an acquire load (plain moves on
  // x86-64). `seq` brackets the write: 2i+1 while record i is being
  // written, 2i+2 once it is whole. A reader that sees 2i+2 both before
  // and after copying the words copied record i untorn.
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<uint64_t> arg{0};
    std::atomic<uint64_t> span{0};
    std::atomic<uint64_t> parent{0};
    std::atomic<uint64_t> end_ns{0};
    std::atomic<uint64_t> host_kind{0};  // host << 8 | kind
  };

  struct Ring {
    uint32_t tid = 0;
    size_t mask = 0;
    std::atomic<uint64_t> head{0};
    // Single-writer count of slots overwritten before ever being
    // snapshotted (every emit past the first `capacity` ones).
    std::atomic<uint64_t> overwrites{0};
    std::unique_ptr<Slot[]> slots;
    Ring* next = nullptr;
  };

  FlightRecorder() = default;

  Ring* ThreadRing();

  // Writes `rec` into the calling thread's ring.
  void Append(const TraceRecord& rec);

  std::atomic<Ring*> rings_{nullptr};
  std::atomic<uint32_t> next_tid_{1};
  std::atomic<size_t> capacity_{kDefaultCapacity};
};

// Serializes a merged timeline as Chrome trace-event JSON ("traceEvents"
// array form), loadable in Perfetto. RaiseBegin/RaiseEnd become B/E
// duration events; kPhase segments become complete ("X") slices nested
// under their span (virtual phases stay instants, annotated with their
// simulator-clock duration); everything else becomes a thread-scoped
// instant event.
// Each simulated host gets its own process row (pid = host id, named via
// process_name metadata), and span handoffs are linked with flow events
// keyed by the span id: kAsyncEnqueue/kRemoteSend start a flow,
// kRemoteDispatch/kRemoteDedup step it, kAsyncExecute/kRemoteReply finish
// it.
void WriteChromeTrace(std::ostream& os,
                      const std::vector<MergedRecord>& records);

}  // namespace obs
}  // namespace spin

#endif  // SRC_OBS_TRACE_H_
