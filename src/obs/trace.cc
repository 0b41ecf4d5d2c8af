#include "src/obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "src/rt/clock.h"

namespace spin {
namespace obs {
namespace {

thread_local void* t_ring = nullptr;  // FlightRecorder::Ring*, Global() only

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

void JsonEscape(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    unsigned char c = static_cast<unsigned char>(*s);
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << static_cast<char>(c);
        }
    }
  }
}

}  // namespace

const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kRaiseBegin:
      return "raise_begin";
    case TraceKind::kRaiseEnd:
      return "raise_end";
    case TraceKind::kGuardReject:
      return "guard_reject";
    case TraceKind::kHandlerFire:
      return "handler_fire";
    case TraceKind::kFilterMutate:
      return "filter_mutate";
    case TraceKind::kAsyncEnqueue:
      return "async_enqueue";
    case TraceKind::kAsyncExecute:
      return "async_execute";
    case TraceKind::kInstall:
      return "install";
    case TraceKind::kUninstall:
      return "uninstall";
    case TraceKind::kRebuild:
      return "rebuild";
    case TraceKind::kStubCompile:
      return "stub_compile";
    case TraceKind::kLazyPromote:
      return "lazy_promote";
    case TraceKind::kEpochReclaim:
      return "epoch_reclaim";
    case TraceKind::kRemoteMarshal:
      return "remote_marshal";
    case TraceKind::kRemoteSend:
      return "remote_send";
    case TraceKind::kRemoteRetry:
      return "remote_retry";
    case TraceKind::kRemoteReply:
      return "remote_reply";
    case TraceKind::kRemoteTimeout:
      return "remote_timeout";
    case TraceKind::kRemoteDedup:
      return "remote_dedup";
    case TraceKind::kRemoteBind:
      return "remote_bind";
    case TraceKind::kRemoteRevoke:
      return "remote_revoke";
    case TraceKind::kRemoteDispatch:
      return "remote_dispatch";
    case TraceKind::kAnomaly:
      return "anomaly";
    case TraceKind::kPhase:
      return "phase";
  }
  return "unknown";
}

// A new TraceKind must bump kNumTraceKinds (and the unit test then insists
// TraceKindName knows it).
static_assert(static_cast<size_t>(TraceKind::kPhase) + 1 == kNumTraceKinds,
              "kNumTraceKinds must track the TraceKind enum");

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();  // leaked
  return *recorder;
}

FlightRecorder::Ring* FlightRecorder::ThreadRing() {
  if (t_ring != nullptr) {
    return static_cast<Ring*>(t_ring);
  }
  auto* ring = new Ring();
  ring->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
  size_t cap = capacity_.load(std::memory_order_relaxed);
  ring->slots = std::make_unique<Slot[]>(cap);
  ring->mask = cap - 1;
  Ring* head = rings_.load(std::memory_order_relaxed);
  do {
    ring->next = head;
  } while (!rings_.compare_exchange_weak(head, ring,
                                         std::memory_order_release,
                                         std::memory_order_relaxed));
  t_ring = ring;
  return ring;
}

void FlightRecorder::Emit(TraceKind kind, const char* name, uint64_t arg) {
  if (!Enabled()) {
    return;
  }
  EmitAt(kind, name, NowNs(), arg);
}

void FlightRecorder::EmitAt(TraceKind kind, const char* name, uint64_t ts_ns,
                            uint64_t arg) {
  const TraceContext& ctx = CurrentContext();
  EmitWith(kind, name, ts_ns, arg, ctx.span, ctx.parent);
}

void FlightRecorder::EmitWith(TraceKind kind, const char* name,
                              uint64_t ts_ns, uint64_t arg, uint64_t span,
                              uint64_t parent) {
  if (!Enabled()) {
    return;
  }
  // An unsampled causal tree emits nothing — not even orphans. The hot
  // paths check the decision before reading the clock; this is the
  // backstop for emission sites inside an unsampled raise (epoch reclaim,
  // lazy promotion, remote internals).
  if (CurrentContext().decision == SampleDecision::kSkip) {
    return;
  }
  if (span == 0) {
    internal::CountOrphanRecord();
  }
  TraceRecord rec;
  rec.ts_ns = ts_ns;
  rec.name = name;
  rec.arg = arg;
  rec.span = span;
  rec.parent = parent;
  rec.host = CurrentContext().host;
  rec.kind = kind;
  Append(rec);
}

void FlightRecorder::EmitPhase(const char* name, Phase phase, uint64_t t_start,
                               uint64_t t_end, uint64_t self_ns) {
  if (!Enabled()) {
    return;
  }
  const TraceContext& ctx = CurrentContext();
  if (ctx.decision == SampleDecision::kSkip) {
    return;
  }
  if (ctx.span == 0) {
    internal::CountOrphanRecord();
  }
  TraceRecord rec;
  rec.ts_ns = t_start;
  rec.name = name;
  rec.arg = PackPhaseArg(phase, self_ns);
  rec.span = ctx.span;
  rec.parent = ctx.parent;
  rec.end_ns = t_end;
  rec.host = ctx.host;
  rec.kind = TraceKind::kPhase;
  Append(rec);
  RecordPhase(name, phase, self_ns);
}

void FlightRecorder::Append(const TraceRecord& rec) {
  Ring* ring = ThreadRing();
  uint64_t h = ring->head.load(std::memory_order_relaxed);
  if (h > ring->mask) {
    // Single writer: a plain load/store pair beats a locked add.
    ring->overwrites.store(
        ring->overwrites.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
  }
  // Each release store orders the odd stamp before it, so a reader that
  // loads any word of this record also sees the slot as being rewritten.
  constexpr auto kRelease = std::memory_order_release;
  Slot& slot = ring->slots[h & ring->mask];
  slot.seq.store(2 * h + 1, std::memory_order_relaxed);
  slot.ts_ns.store(rec.ts_ns, kRelease);
  slot.name.store(rec.name, kRelease);
  slot.arg.store(rec.arg, kRelease);
  slot.span.store(rec.span, kRelease);
  slot.parent.store(rec.parent, kRelease);
  slot.end_ns.store(rec.end_ns, kRelease);
  slot.host_kind.store(
      uint64_t{rec.host} << 8 | static_cast<uint8_t>(rec.kind), kRelease);
  slot.seq.store(2 * h + 2, kRelease);
  ring->head.store(h + 1, kRelease);
}

std::vector<MergedRecord> FlightRecorder::Snapshot() const {
  std::vector<MergedRecord> merged;
  for (Ring* ring = rings_.load(std::memory_order_acquire); ring != nullptr;
       ring = ring->next) {
    uint64_t head = ring->head.load(std::memory_order_acquire);
    uint64_t cap = ring->mask + 1;
    uint64_t n = head < cap ? head : cap;
    constexpr auto kAcquire = std::memory_order_acquire;
    for (uint64_t i = head - n; i < head; ++i) {
      const Slot& slot = ring->slots[i & ring->mask];
      const uint64_t whole = 2 * i + 2;
      if (slot.seq.load(kAcquire) != whole) {
        continue;  // already reused for a newer record
      }
      TraceRecord rec;
      rec.ts_ns = slot.ts_ns.load(kAcquire);
      rec.name = slot.name.load(kAcquire);
      rec.arg = slot.arg.load(kAcquire);
      rec.span = slot.span.load(kAcquire);
      rec.parent = slot.parent.load(kAcquire);
      rec.end_ns = slot.end_ns.load(kAcquire);
      uint64_t host_kind = slot.host_kind.load(kAcquire);
      rec.host = static_cast<uint32_t>(host_kind >> 8);
      rec.kind = static_cast<TraceKind>(host_kind & 0xff);
      if (slot.seq.load(std::memory_order_relaxed) != whole) {
        continue;  // reused while being copied: some words may be newer
      }
      merged.push_back(MergedRecord{rec, ring->tid});
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const MergedRecord& a, const MergedRecord& b) {
                     if (a.rec.ts_ns != b.rec.ts_ns) {
                       return a.rec.ts_ns < b.rec.ts_ns;
                     }
                     return a.tid < b.tid;
                   });
  return merged;
}

void FlightRecorder::Reset(size_t capacity) {
  if (capacity != 0) {
    capacity_.store(RoundUpPow2(capacity), std::memory_order_relaxed);
  }
  size_t cap = capacity_.load(std::memory_order_relaxed);
  for (Ring* ring = rings_.load(std::memory_order_acquire); ring != nullptr;
       ring = ring->next) {
    ring->head.store(0, std::memory_order_relaxed);
    ring->overwrites.store(0, std::memory_order_relaxed);
    if (ring->mask + 1 != cap) {
      ring->slots = std::make_unique<Slot[]>(cap);
      ring->mask = cap - 1;
    }
  }
}

uint64_t FlightRecorder::TotalOverwrites() const {
  uint64_t total = 0;
  for (Ring* ring = rings_.load(std::memory_order_acquire); ring != nullptr;
       ring = ring->next) {
    total += ring->overwrites.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t FlightRecorder::TotalEmits() const {
  uint64_t total = 0;
  for (Ring* ring = rings_.load(std::memory_order_acquire); ring != nullptr;
       ring = ring->next) {
    total += ring->head.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<FlightRecorder::RingStats> FlightRecorder::PerRingStats() const {
  std::vector<RingStats> stats;
  for (Ring* ring = rings_.load(std::memory_order_acquire); ring != nullptr;
       ring = ring->next) {
    RingStats s;
    s.tid = ring->tid;
    s.emits = ring->head.load(std::memory_order_relaxed);
    s.overwrites = ring->overwrites.load(std::memory_order_relaxed);
    stats.push_back(s);
  }
  std::sort(stats.begin(), stats.end(),
            [](const RingStats& a, const RingStats& b) { return a.tid < b.tid; });
  return stats;
}

namespace {

// Which flow point (if any) a record contributes to the span-keyed flow:
// "s" starts it at the handoff source, "t" steps it where the work landed
// on another host, "f" finishes it at the final executor / reply join.
const char* FlowPhase(TraceKind kind) {
  switch (kind) {
    case TraceKind::kAsyncEnqueue:
    case TraceKind::kRemoteSend:
      return "s";
    case TraceKind::kRemoteDispatch:
    case TraceKind::kRemoteDedup:
      return "t";
    case TraceKind::kAsyncExecute:
    case TraceKind::kRemoteReply:
      return "f";
    default:
      return nullptr;
  }
}

}  // namespace

void WriteChromeTrace(std::ostream& os,
                      const std::vector<MergedRecord>& records) {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  char buf[64];
  auto sep = [&os, &first] {
    if (!first) {
      os << ",";
    }
    first = false;
  };

  // One process row per simulated host present in the timeline.
  std::vector<uint32_t> hosts;
  for (const MergedRecord& m : records) {
    if (std::find(hosts.begin(), hosts.end(), m.rec.host) == hosts.end()) {
      hosts.push_back(m.rec.host);
    }
  }
  std::sort(hosts.begin(), hosts.end());
  for (uint32_t host : hosts) {
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << host
       << ",\"tid\":0,\"args\":{\"name\":\"";
    JsonEscape(os, TraceHostName(host));
    os << "\"}}";
  }

  for (const MergedRecord& m : records) {
    sep();
    const char* name = m.rec.name != nullptr ? m.rec.name : "?";
    if (m.rec.kind == TraceKind::kPhase) {
      // Phase segments render as slices nested under their span's B/E pair
      // (same pid/tid, contained timestamps). Virtual-clock phases have no
      // host-clock extent; they stay instants carrying the simulator-clock
      // duration in args.
      Phase phase = PhaseOfArg(m.rec.arg);
      os << "{\"name\":\"" << PhaseName(phase) << "\",\"cat\":\"phase\"";
      std::snprintf(buf, sizeof(buf), "%.3f",
                    static_cast<double>(m.rec.ts_ns) / 1e3);
      if (m.rec.end_ns != 0) {
        char durbuf[64];
        uint64_t dur =
            m.rec.end_ns > m.rec.ts_ns ? m.rec.end_ns - m.rec.ts_ns : 0;
        std::snprintf(durbuf, sizeof(durbuf), "%.3f",
                      static_cast<double>(dur) / 1e3);
        os << ",\"ph\":\"X\",\"ts\":" << buf << ",\"dur\":" << durbuf;
      } else {
        os << ",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << buf;
      }
      os << ",\"pid\":" << m.rec.host << ",\"tid\":" << m.tid
         << ",\"args\":{\"event\":\"";
      JsonEscape(os, name);
      os << "\",\"self_ns\":" << PhaseSelfNs(m.rec.arg)
         << ",\"virtual\":" << (m.rec.end_ns == 0 ? "true" : "false");
      if (m.rec.span != 0) {
        os << ",\"span\":" << m.rec.span << ",\"parent\":" << m.rec.parent;
      }
      os << "}}";
      continue;
    }
    os << "{\"name\":\"";
    JsonEscape(os, name);
    os << "\",\"cat\":\"" << TraceKindName(m.rec.kind) << "\"";
    switch (m.rec.kind) {
      case TraceKind::kRaiseBegin:
        os << ",\"ph\":\"B\"";
        break;
      case TraceKind::kRaiseEnd:
        os << ",\"ph\":\"E\"";
        break;
      default:
        os << ",\"ph\":\"i\",\"s\":\"t\"";
    }
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(m.rec.ts_ns) / 1e3);
    os << ",\"ts\":" << buf << ",\"pid\":" << m.rec.host
       << ",\"tid\":" << m.tid << ",\"args\":{\"arg\":" << m.rec.arg;
    if (m.rec.span != 0) {
      os << ",\"span\":" << m.rec.span << ",\"parent\":" << m.rec.parent;
    }
    os << "}}";

    // Span-keyed flow event linking handoffs across threads and hosts.
    const char* flow = FlowPhase(m.rec.kind);
    if (flow != nullptr && m.rec.span != 0) {
      sep();
      os << "{\"name\":\"span\",\"cat\":\"span\",\"ph\":\"" << flow << "\"";
      if (*flow == 'f') {
        os << ",\"bp\":\"e\"";
      }
      os << ",\"id\":" << m.rec.span << ",\"ts\":" << buf
         << ",\"pid\":" << m.rec.host << ",\"tid\":" << m.tid << "}";
    }
  }
  os << "]}";
}

}  // namespace obs
}  // namespace spin
