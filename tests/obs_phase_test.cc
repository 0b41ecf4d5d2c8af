// Phase attribution (DESIGN.md §15): PhaseScope's nesting arithmetic, the
// kPhase record format, the dispatcher's phase stamping on the sync, async,
// and sampled paths, and the spin_phase_ns exposition.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/dispatcher.h"
#include "src/obs/context.h"
#include "src/obs/export.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "tests/eager_config.h"

namespace spin {
namespace {

// Spins for at least `ns` of host-clock time (steady_clock, same family as
// the recorder's monotonic stamps).
void BusyWait(uint64_t ns) {
  auto start = std::chrono::steady_clock::now();
  volatile uint64_t h = 0;
  while (static_cast<uint64_t>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - start)
                 .count()) < ns) {
    h = h * 31 + 1;
  }
}

bool JitDisabled() { return std::getenv("SPIN_DISABLE_JIT") != nullptr; }

std::vector<obs::MergedRecord> PhaseRecords(const char* name) {
  std::vector<obs::MergedRecord> out;
  for (const obs::MergedRecord& m : obs::FlightRecorder::Global().Snapshot()) {
    if (m.rec.kind == obs::TraceKind::kPhase &&
        std::string(m.rec.name) == name) {
      out.push_back(m);
    }
  }
  return out;
}

TEST(ObsPhaseTest, PackPhaseArgRoundTripsAndSaturates) {
  uint64_t arg = obs::PackPhaseArg(obs::Phase::kMarshal, 123456789);
  EXPECT_EQ(obs::PhaseOfArg(arg), obs::Phase::kMarshal);
  EXPECT_EQ(obs::PhaseSelfNs(arg), 123456789u);

  // Self-time saturates at 56 bits instead of corrupting the phase byte.
  uint64_t big = obs::PackPhaseArg(obs::Phase::kBackoff, ~0ull);
  EXPECT_EQ(obs::PhaseOfArg(big), obs::Phase::kBackoff);
  EXPECT_EQ(obs::PhaseSelfNs(big), (1ull << 56) - 1);

  EXPECT_EQ(obs::PhaseOfArg(obs::PackPhaseArg(obs::Phase::kGuardEval, 0)),
            obs::Phase::kGuardEval);
}

TEST(ObsPhaseTest, EveryPhaseHasADistinctName) {
  std::set<std::string> names;
  for (size_t i = 0; i < obs::kNumPhases; ++i) {
    names.insert(obs::PhaseName(static_cast<obs::Phase>(i)));
  }
  EXPECT_EQ(names.size(), obs::kNumPhases);
  EXPECT_TRUE(names.count("wire_virtual"));
  EXPECT_TRUE(names.count("queue_wait"));
}

// The partition invariant: a nested scope's wall time is charged to exactly
// one self-time. The outer scope's self equals its wall minus the inner
// scope's wall — exact integer arithmetic on the recorded timestamps, not a
// tolerance check.
TEST(ObsPhaseTest, NestedScopesPartitionWallTime) {
  obs::FlightRecorder::Global().Reset();
  obs::ResetPhaseStats();
  obs::SetTraceConfig({obs::TraceMode::kFull, 1});
  const char* name = obs::Intern("Phase.Nested");
  {
    obs::SpanScope span;
    obs::PhaseScope outer(obs::Phase::kInterp, name);
    BusyWait(20000);
    {
      obs::PhaseScope inner(obs::Phase::kHandlerBody, name);
      BusyWait(20000);
    }
    BusyWait(20000);
  }
  obs::SetTraceConfig({obs::TraceMode::kOff, 1});

  std::vector<obs::MergedRecord> phases = PhaseRecords(name);
  ASSERT_EQ(phases.size(), 2u);
  const obs::TraceRecord* outer_rec = nullptr;
  const obs::TraceRecord* inner_rec = nullptr;
  for (const obs::MergedRecord& m : phases) {
    if (obs::PhaseOfArg(m.rec.arg) == obs::Phase::kInterp) {
      outer_rec = &m.rec;
    } else if (obs::PhaseOfArg(m.rec.arg) == obs::Phase::kHandlerBody) {
      inner_rec = &m.rec;
    }
  }
  ASSERT_NE(outer_rec, nullptr);
  ASSERT_NE(inner_rec, nullptr);

  // The inner scope nests inside the outer extent, and a leaf's self-time
  // is its whole duration.
  EXPECT_LE(outer_rec->ts_ns, inner_rec->ts_ns);
  EXPECT_LE(inner_rec->end_ns, outer_rec->end_ns);
  uint64_t inner_wall = inner_rec->end_ns - inner_rec->ts_ns;
  EXPECT_EQ(obs::PhaseSelfNs(inner_rec->arg), inner_wall);

  uint64_t outer_wall = outer_rec->end_ns - outer_rec->ts_ns;
  EXPECT_EQ(obs::PhaseSelfNs(outer_rec->arg), outer_wall - inner_wall);
  // Two >=20us busy stretches sit outside the inner scope.
  EXPECT_GE(obs::PhaseSelfNs(outer_rec->arg), 40000u);

  // Both segments fed the spin_phase_ns registry under the same event.
  bool found = false;
  for (const obs::PhaseStats& stats : obs::SnapshotPhaseStats()) {
    if (std::string(stats.event) == "Phase.Nested") {
      found = true;
      EXPECT_EQ(
          stats.phases[static_cast<size_t>(obs::Phase::kInterp)].count, 1u);
      EXPECT_EQ(
          stats.phases[static_cast<size_t>(obs::Phase::kHandlerBody)].count,
          1u);
    }
  }
  EXPECT_TRUE(found);
  obs::FlightRecorder::Global().Reset();
}

// The zero-cost side: a sampled-out tree, tracing off, and an explicit
// active=false gate all emit no records and feed no histograms.
TEST(ObsPhaseTest, SampledOutScopesEmitNothing) {
  obs::FlightRecorder::Global().Reset();
  obs::ResetPhaseStats();
  const char* name = obs::Intern("Phase.Skipped");

  obs::SetTraceConfig({obs::TraceMode::kFull, 1});
  {
    obs::SampleScope skip(obs::SampleDecision::kSkip);
    obs::PhaseScope scope(obs::Phase::kHandlerBody, name);
    BusyWait(1000);
  }
  {
    obs::PhaseScope scope(obs::Phase::kHandlerBody, name, /*active=*/false);
    BusyWait(1000);
  }
  obs::SetTraceConfig({obs::TraceMode::kOff, 1});
  {
    obs::PhaseScope scope(obs::Phase::kHandlerBody, name);
    BusyWait(1000);
  }

  EXPECT_TRUE(PhaseRecords(name).empty());
  for (const obs::PhaseStats& stats : obs::SnapshotPhaseStats()) {
    EXPECT_NE(std::string(stats.event), "Phase.Skipped");
  }
}

// Virtual-clock phases carry their simulator duration in self_ns and an
// empty host-clock extent (end_ns == 0).
TEST(ObsPhaseTest, VirtualPhaseRecordHasNoHostClockExtent) {
  obs::FlightRecorder::Global().Reset();
  obs::SetTraceConfig({obs::TraceMode::kFull, 1});
  const char* name = obs::Intern("Phase.Virtual");
  {
    obs::SpanScope span;
    obs::EmitVirtualPhase(obs::Phase::kWireVirtual, name, 5000000);
  }
  obs::SetTraceConfig({obs::TraceMode::kOff, 1});

  std::vector<obs::MergedRecord> phases = PhaseRecords(name);
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].rec.end_ns, 0u);
  EXPECT_EQ(obs::PhaseOfArg(phases[0].rec.arg), obs::Phase::kWireVirtual);
  EXPECT_EQ(obs::PhaseSelfNs(phases[0].rec.arg), 5000000u);
  obs::FlightRecorder::Global().Reset();
}

struct CountCtx {
  int calls = 0;
};
void CountingHandler(CountCtx* ctx, int64_t) {
  ++ctx->calls;
  BusyWait(2000);
}
bool PassingGuard(int64_t) { return true; }

// Full tracing interprets the dispatch, so a sync raise decomposes into
// interp self-time around per-binding guard_eval and handler_body segments,
// all inside the raise's span.
TEST(ObsPhaseTest, TracedSyncDispatchStampsInterpGuardAndBodyPhases) {
  obs::FlightRecorder::Global().Reset();
  obs::ResetPhaseStats();
  Dispatcher dispatcher;
  CountCtx ctx;
  Event<void(int64_t)> event("Phase.Sync", nullptr, nullptr, &dispatcher);
  auto binding = dispatcher.InstallHandler(event, &CountingHandler, &ctx);
  dispatcher.AddGuard(event, binding, &PassingGuard);

  dispatcher.SetTracing({obs::TraceMode::kFull});
  event.Raise(7);
  dispatcher.SetTracing({obs::TraceMode::kOff});
  EXPECT_EQ(ctx.calls, 1);

  std::set<obs::Phase> seen;
  uint64_t span = 0;
  for (const obs::MergedRecord& m : PhaseRecords("Phase.Sync")) {
    seen.insert(obs::PhaseOfArg(m.rec.arg));
    EXPECT_NE(m.rec.span, 0u) << "phase segments belong to the raise's span";
    if (span == 0) {
      span = m.rec.span;
    }
    EXPECT_EQ(m.rec.span, span) << "one raise, one span";
  }
  EXPECT_TRUE(seen.count(obs::Phase::kInterp));
  EXPECT_TRUE(seen.count(obs::Phase::kGuardEval));
  EXPECT_TRUE(seen.count(obs::Phase::kHandlerBody));
  EXPECT_FALSE(seen.count(obs::Phase::kStub))
      << "full tracing dispatches through the interpreter";
  obs::FlightRecorder::Global().Reset();
}

// Sampled tracing keeps the production table installed, so a sampled-in
// raise attributes to the compiled stub as one fused phase (interp on a
// no-JIT host).
TEST(ObsPhaseTest, SampledDispatchAttributesToTheStub) {
  obs::FlightRecorder::Global().Reset();
  obs::ResetPhaseStats();
  Dispatcher dispatcher(EagerConfig());  // the install compiles the stub
  CountCtx ctx;
  Event<void(int64_t)> event("Phase.Stub", nullptr, nullptr, &dispatcher);
  dispatcher.InstallHandler(event, &CountingHandler, &ctx);

  // Zero the thread-local sampling countdown so rate 1 samples every raise.
  obs::SetTraceConfig({obs::TraceMode::kSampled, 1});
  { const obs::RaisePlan top_level; }

  dispatcher.SetTracing({obs::TraceMode::kSampled, 1});
  event.Raise(7);
  dispatcher.SetTracing({obs::TraceMode::kOff, 1});
  EXPECT_EQ(ctx.calls, 1);

  std::set<obs::Phase> seen;
  for (const obs::MergedRecord& m : PhaseRecords("Phase.Stub")) {
    seen.insert(obs::PhaseOfArg(m.rec.arg));
  }
  if (JitDisabled()) {
    EXPECT_TRUE(seen.count(obs::Phase::kInterp));
  } else {
    EXPECT_TRUE(seen.count(obs::Phase::kStub));
    EXPECT_FALSE(seen.count(obs::Phase::kInterp));
  }
  obs::FlightRecorder::Global().Reset();
}

void AsyncHandler(CountCtx* ctx, int64_t) { ++ctx->calls; }

// An async handoff stamps the queue_wait segment: enqueue timestamp on the
// raising thread, execution start on the pool thread, self-time their
// difference.
TEST(ObsPhaseTest, AsyncHandoffStampsQueueWait) {
  obs::FlightRecorder::Global().Reset();
  obs::ResetPhaseStats();
  Dispatcher dispatcher;
  CountCtx ctx;
  Event<void(int64_t)> event("Phase.Async", nullptr, nullptr, &dispatcher);
  dispatcher.InstallHandler(event, &AsyncHandler, &ctx, {.async = true});

  dispatcher.SetTracing({obs::TraceMode::kFull});
  event.Raise(7);
  dispatcher.pool().Drain();
  dispatcher.SetTracing({obs::TraceMode::kOff});
  EXPECT_EQ(ctx.calls, 1);

  bool queue_wait = false;
  bool body = false;
  for (const obs::MergedRecord& m : PhaseRecords("Phase.Async")) {
    obs::Phase phase = obs::PhaseOfArg(m.rec.arg);
    if (phase == obs::Phase::kQueueWait) {
      queue_wait = true;
      EXPECT_GE(m.rec.end_ns, m.rec.ts_ns);
      EXPECT_EQ(obs::PhaseSelfNs(m.rec.arg), m.rec.end_ns - m.rec.ts_ns);
    }
    if (phase == obs::Phase::kHandlerBody) {
      body = true;
    }
  }
  EXPECT_TRUE(queue_wait);
  EXPECT_TRUE(body) << "the pool body is a handler_body segment";
  obs::FlightRecorder::Global().Reset();
}

// The registry reaches the text exposition: spin_phase_ns{event,phase}
// quantiles, _count/_sum, and the companion _max gauge.
TEST(ObsPhaseTest, PhaseHistogramsAreExported) {
  obs::FlightRecorder::Global().Reset();
  obs::ResetPhaseStats();
  obs::SetTraceConfig({obs::TraceMode::kFull, 1});
  const char* name = obs::Intern("Phase.Exported");
  {
    obs::SpanScope span;
    obs::PhaseScope scope(obs::Phase::kMarshal, name);
    BusyWait(2000);
  }
  obs::SetTraceConfig({obs::TraceMode::kOff, 1});

  std::ostringstream os;
  obs::ExportMetrics(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE spin_phase_ns summary"), std::string::npos);
  EXPECT_NE(
      text.find(
          "spin_phase_ns_count{event=\"Phase.Exported\",phase=\"marshal\"}"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "spin_phase_ns_max{event=\"Phase.Exported\",phase=\"marshal\"}"),
      std::string::npos);
  obs::FlightRecorder::Global().Reset();
}

}  // namespace
}  // namespace spin
