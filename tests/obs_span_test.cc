// Span propagation and flight-recorder health: TraceKind exhaustiveness,
// snapshot-under-load integrity, ring-overwrite accounting, parent/child
// span links through nested and async dispatch, and TraceQuery.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/dispatcher.h"
#include "src/obs/context.h"
#include "src/obs/export.h"
#include "src/obs/obs.h"
#include "src/obs/query.h"
#include "src/obs/trace.h"
#include "tests/eager_config.h"

namespace spin {
namespace {

TEST(TraceKindTest, EveryKindHasAName) {
  for (size_t k = 0; k < obs::kNumTraceKinds; ++k) {
    EXPECT_STRNE(obs::TraceKindName(static_cast<obs::TraceKind>(k)),
                 "unknown")
        << "TraceKind " << k << " is missing from TraceKindName";
  }
}

TEST(TraceKindTest, SnapshotUnderLiveEmittersIsNeverTorn) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.Reset(1024);
  obs::EnableScope enable;

  const char* name = obs::Intern("Span.Torn");
  std::atomic<bool> stop{false};
  std::vector<std::thread> emitters;
  for (int t = 0; t < 4; ++t) {
    emitters.emplace_back([&stop, name] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto kind = static_cast<obs::TraceKind>(i % obs::kNumTraceKinds);
        obs::FlightRecorder::Global().EmitAt(kind, name, i, i);
        ++i;
      }
    });
  }

  for (int round = 0; round < 200; ++round) {
    for (const obs::MergedRecord& m : recorder.Snapshot()) {
      ASSERT_LT(static_cast<size_t>(m.rec.kind), obs::kNumTraceKinds);
      ASSERT_STRNE(obs::TraceKindName(m.rec.kind), "unknown");
      ASSERT_NE(m.rec.name, nullptr);
    }
  }

  stop.store(true);
  for (std::thread& t : emitters) {
    t.join();
  }
  recorder.Reset(obs::FlightRecorder::kDefaultCapacity);
}

TEST(OverwriteTest, WrappedRecordsAreCounted) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.Reset(16);
  {
    obs::EnableScope enable;
    const char* name = obs::Intern("Span.Wrap");
    for (uint64_t i = 0; i < 100; ++i) {
      recorder.EmitAt(obs::TraceKind::kHandlerFire, name, i, i);
    }
  }
  EXPECT_EQ(recorder.TotalOverwrites(), 84u);  // 100 emits into 16 slots

  std::ostringstream os;
  obs::ExportMetrics(os);
  EXPECT_NE(os.str().find("spin_trace_overwrites_total{recorder=\"global\"}"
                          " 84"),
            std::string::npos)
      << os.str();
  recorder.Reset(obs::FlightRecorder::kDefaultCapacity);
  EXPECT_EQ(recorder.TotalOverwrites(), 0u);
}

// --- Span propagation through the dispatcher ------------------------------

struct NestCtx {
  Event<void(int64_t)>* inner = nullptr;
};

void InnerHandler(NestCtx*, int64_t) {}

void OuterHandler(NestCtx* ctx, int64_t v) { ctx->inner->Raise(v); }

// Finds the kRaiseBegin record for `name`; fails the test when absent.
const obs::MergedRecord* FindRaiseBegin(
    const std::vector<obs::MergedRecord>& records, const std::string& name) {
  for (const obs::MergedRecord& m : records) {
    if (m.rec.kind == obs::TraceKind::kRaiseBegin && m.rec.name == name) {
      return &m;
    }
  }
  return nullptr;
}

TEST(SpanTest, NestedRaiseOpensChildSpan) {
  obs::FlightRecorder::Global().Reset();
  Dispatcher dispatcher;
  Module module("SpanTest");
  Event<void(int64_t)> outer("Span.Outer", &module, nullptr, &dispatcher);
  Event<void(int64_t)> inner("Span.Inner", &module, nullptr, &dispatcher);
  NestCtx ctx{&inner};
  dispatcher.InstallHandler(outer, &OuterHandler, &ctx, {.module = &module});
  dispatcher.InstallHandler(inner, &InnerHandler, &ctx, {.module = &module});

  dispatcher.SetTracing({obs::TraceMode::kFull});
  outer.Raise(1);
  dispatcher.SetTracing({obs::TraceMode::kOff});

  auto records = obs::FlightRecorder::Global().Snapshot();
  const obs::MergedRecord* ob = FindRaiseBegin(records, "Span.Outer");
  const obs::MergedRecord* ib = FindRaiseBegin(records, "Span.Inner");
  ASSERT_NE(ob, nullptr);
  ASSERT_NE(ib, nullptr);
  EXPECT_NE(ob->rec.span, 0u);
  EXPECT_EQ(ob->rec.parent, 0u) << "top-level raise is a root span";
  EXPECT_NE(ib->rec.span, ob->rec.span);
  EXPECT_EQ(ib->rec.parent, ob->rec.span)
      << "a raise from inside a handler is a child of the raising span";

  obs::TraceQuery query(records);
  EXPECT_EQ(query.ParentOf(ib->rec.span), ob->rec.span);
  std::vector<uint64_t> children = query.Children(ob->rec.span);
  EXPECT_NE(std::find(children.begin(), children.end(), ib->rec.span),
            children.end());
  // The outer tree contains the inner raise's records.
  bool inner_in_tree = false;
  for (const obs::MergedRecord& m : query.SpanTree(ob->rec.span)) {
    if (m.rec.span == ib->rec.span) {
      inner_in_tree = true;
    }
  }
  EXPECT_TRUE(inner_in_tree);
  obs::FlightRecorder::Global().Reset();
}

void AsyncHandler(NestCtx*, int64_t) {}

TEST(SpanTest, AsyncHandoffCarriesSpanAcrossThreads) {
  obs::FlightRecorder::Global().Reset();
  Dispatcher dispatcher;
  Module module("SpanTest");
  Event<void(int64_t)> event("Span.Async", &module, nullptr, &dispatcher);
  NestCtx ctx;
  dispatcher.InstallHandler(event, &AsyncHandler, &ctx,
                            {.async = true, .module = &module});

  dispatcher.SetTracing({obs::TraceMode::kFull});
  event.Raise(1);
  dispatcher.pool().Drain();
  dispatcher.SetTracing({obs::TraceMode::kOff});

  auto records = obs::FlightRecorder::Global().Snapshot();
  const obs::MergedRecord* begin = FindRaiseBegin(records, "Span.Async");
  const obs::MergedRecord* enqueue = nullptr;
  const obs::MergedRecord* execute = nullptr;
  for (const obs::MergedRecord& m : records) {
    if (m.rec.kind == obs::TraceKind::kAsyncEnqueue) {
      enqueue = &m;
    }
    if (m.rec.kind == obs::TraceKind::kAsyncExecute) {
      execute = &m;
    }
  }
  ASSERT_NE(begin, nullptr);
  ASSERT_NE(enqueue, nullptr);
  ASSERT_NE(execute, nullptr);
  EXPECT_NE(enqueue->rec.span, 0u);
  EXPECT_EQ(enqueue->rec.span, execute->rec.span)
      << "both handoff ends carry the pre-allocated child span";
  EXPECT_EQ(enqueue->rec.parent, begin->rec.span);
  EXPECT_NE(enqueue->tid, execute->tid)
      << "the execute end ran on a pool thread";
  obs::FlightRecorder::Global().Reset();
}

TEST(SpanTest, SpanStatsAccumulateAndExport) {
  obs::ResetSpanStats();
  obs::FlightRecorder::Global().Reset();
  Dispatcher dispatcher;
  Module module("SpanTest");
  Event<void(int64_t)> event("Span.Stats", &module, nullptr, &dispatcher);
  NestCtx ctx;
  dispatcher.InstallHandler(event, &InnerHandler, &ctx, {.module = &module});

  dispatcher.SetTracing({obs::TraceMode::kFull});
  for (int i = 0; i < 5; ++i) {
    event.Raise(i);
  }
  dispatcher.SetTracing({obs::TraceMode::kOff});

  obs::SpanStats stats = obs::GetSpanStats();
  EXPECT_GE(stats.started, 5u);
  EXPECT_GE(stats.completed, 5u);
  EXPECT_GE(stats.started, stats.completed);

  std::ostringstream os;
  obs::ExportMetrics(os);
  const std::string text = os.str();
  for (const char* metric :
       {"spin_trace_spans_started_total", "spin_trace_spans_completed_total",
        "spin_trace_cross_host_spans_total",
        "spin_trace_orphan_records_total"}) {
    EXPECT_NE(text.find(metric), std::string::npos) << metric;
  }
  obs::FlightRecorder::Global().Reset();
}

// --- Sampled tracing ------------------------------------------------------

// Resets the thread-local sampling countdown: at rate 1 the next decision
// always fires and zeroes it, making every test below independent of how
// many top-level decisions earlier tests made on this thread.
void ResetSampleCountdown() {
  obs::TraceConfig config{obs::TraceMode::kSampled, 1};
  obs::SetTraceConfig(config);
  { const obs::RaisePlan top_level; }
  config.mode = obs::TraceMode::kOff;
  obs::SetTraceConfig(config);
}

constexpr obs::TraceKind kRaiseKinds[] = {
    obs::TraceKind::kRaiseBegin,   obs::TraceKind::kRaiseEnd,
    obs::TraceKind::kHandlerFire,  obs::TraceKind::kGuardReject,
    obs::TraceKind::kAsyncEnqueue, obs::TraceKind::kAsyncExecute,
};

bool IsRaiseKind(obs::TraceKind kind) {
  for (obs::TraceKind k : kRaiseKinds) {
    if (k == kind) {
      return true;
    }
  }
  return false;
}

// A dispatcher wired so one top-level raise produces a three-limb causal
// tree: a sync handler that raises a nested event, and an async handler.
struct SampleFixture {
  Dispatcher dispatcher{EagerConfig()};
  Module module{"SampleTest"};
  Event<void(int64_t)> outer;
  Event<void(int64_t)> inner;
  NestCtx ctx;

  SampleFixture()
      : outer("Sample.Outer", &module, nullptr, &dispatcher),
        inner("Sample.Inner", &module, nullptr, &dispatcher) {
    ctx.inner = &inner;
    dispatcher.InstallHandler(outer, &OuterHandler, &ctx,
                              {.module = &module});
    dispatcher.InstallHandler(outer, &AsyncHandler, &ctx,
                              {.async = true, .module = &module});
    dispatcher.InstallHandler(inner, &InnerHandler, &ctx,
                              {.module = &module});
  }

  void RaiseAndDrain(int64_t v) {
    outer.Raise(v);
    dispatcher.pool().Drain();
  }
};

TEST(SampleTest, SampledModeCapturesEveryNthTreeWhole) {
  obs::FlightRecorder::Global().Reset();
  SampleFixture fx;
  ResetSampleCountdown();

  fx.dispatcher.SetTracing({obs::TraceMode::kSampled, 4});
  for (int i = 0; i < 16; ++i) {
    fx.RaiseAndDrain(i);
  }
  fx.dispatcher.SetTracing({obs::TraceMode::kOff});

  auto records = obs::FlightRecorder::Global().Snapshot();

  // Exactly every 4th top-level raise was captured (the per-thread
  // countdown is deterministic), and nested raises never re-decide.
  size_t outer_roots = 0;
  std::vector<uint64_t> roots;
  for (const obs::MergedRecord& m : records) {
    if (m.rec.kind == obs::TraceKind::kRaiseBegin &&
        std::string(m.rec.name) == "Sample.Outer") {
      ++outer_roots;
      EXPECT_EQ(m.rec.parent, 0u);
      roots.push_back(m.rec.span);
    }
  }
  EXPECT_EQ(outer_roots, 4u) << "16 raises at 1-in-4";

  // Completeness: no raise-path record escapes a span (zero orphans), and
  // every captured tree carries all three limbs.
  for (const obs::MergedRecord& m : records) {
    if (IsRaiseKind(m.rec.kind)) {
      EXPECT_NE(m.rec.span, 0u)
          << obs::TraceKindName(m.rec.kind) << " record outside any span";
    }
  }
  obs::TraceQuery query(records);
  for (uint64_t root : roots) {
    std::set<obs::TraceKind> kinds;
    std::set<std::string> names;
    for (const obs::MergedRecord& m : query.SpanTree(root)) {
      kinds.insert(m.rec.kind);
      names.insert(m.rec.name);
    }
    EXPECT_TRUE(kinds.count(obs::TraceKind::kAsyncEnqueue)) << root;
    EXPECT_TRUE(kinds.count(obs::TraceKind::kAsyncExecute))
        << "sampled decision must survive the pool handoff";
    EXPECT_TRUE(names.count("Sample.Inner"))
        << "the nested raise inherits the sampled decision";
  }
  obs::FlightRecorder::Global().Reset();
}

TEST(SampleTest, UnsampledRaisesEmitNothing) {
  SampleFixture fx;
  ResetSampleCountdown();
  obs::FlightRecorder::Global().Reset();

  fx.dispatcher.SetTracing({obs::TraceMode::kSampled, 1u << 30});
  for (int i = 0; i < 100; ++i) {
    fx.RaiseAndDrain(i);
  }
  fx.dispatcher.SetTracing({obs::TraceMode::kOff});

  auto records = obs::FlightRecorder::Global().Snapshot();
  for (const obs::MergedRecord& m : records) {
    EXPECT_FALSE(IsRaiseKind(m.rec.kind))
        << obs::TraceKindName(m.rec.kind)
        << " leaked from a sampled-out raise";
  }
}

TEST(SampleTest, RateOneSamplingCapturesEveryRaise) {
  SampleFixture fx;
  ResetSampleCountdown();
  obs::FlightRecorder::Global().Reset();

  fx.dispatcher.SetTracing({obs::TraceMode::kSampled, 1});
  for (int i = 0; i < 5; ++i) {
    fx.RaiseAndDrain(i);
  }
  fx.dispatcher.SetTracing({obs::TraceMode::kOff});

  size_t outer_roots = 0;
  for (const obs::MergedRecord& m :
       obs::FlightRecorder::Global().Snapshot()) {
    if (m.rec.kind == obs::TraceKind::kRaiseBegin &&
        std::string(m.rec.name) == "Sample.Outer") {
      ++outer_roots;
    }
  }
  EXPECT_EQ(outer_roots, 5u);
  obs::FlightRecorder::Global().Reset();
}

TEST(SampleTest, FullModeIgnoresSampleRate) {
  SampleFixture fx;
  ResetSampleCountdown();
  obs::FlightRecorder::Global().Reset();

  fx.dispatcher.SetTracing({obs::TraceMode::kFull, 1u << 30});
  for (int i = 0; i < 5; ++i) {
    fx.RaiseAndDrain(i);
  }
  fx.dispatcher.SetTracing({obs::TraceMode::kOff});

  size_t outer_roots = 0;
  for (const obs::MergedRecord& m :
       obs::FlightRecorder::Global().Snapshot()) {
    if (m.rec.kind == obs::TraceKind::kRaiseBegin &&
        std::string(m.rec.name) == "Sample.Outer") {
      ++outer_roots;
    }
  }
  EXPECT_EQ(outer_roots, 5u);
  obs::FlightRecorder::Global().Reset();
}

void Ignore(int64_t) {}

TEST(SampleTest, SampledModeKeepsProductionTables) {
  SampleFixture fx;
  Event<void(int64_t)> direct("Sample.Direct", &fx.module, &Ignore,
                              &fx.dispatcher);
  fx.dispatcher.SetTracing({obs::TraceMode::kSampled, 128});
  EXPECT_EQ(fx.dispatcher.trace_mode(), obs::TraceMode::kSampled);
  EXPECT_NE(direct.direct_fn(), nullptr)
      << "sampled mode must not suppress stubs and the direct bypass";
  fx.dispatcher.SetTracing({obs::TraceMode::kFull, 128});
  EXPECT_EQ(direct.direct_fn(), nullptr);
  fx.dispatcher.SetTracing({obs::TraceMode::kOff});
  EXPECT_EQ(fx.dispatcher.trace_mode(), obs::TraceMode::kOff);
  EXPECT_NE(direct.direct_fn(), nullptr);
}

TEST(SampleTest, PerRingEmitAndOverwriteExport) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.Reset(16);
  {
    obs::EnableScope enable;
    const char* name = obs::Intern("Sample.Ring");
    for (uint64_t i = 0; i < 40; ++i) {
      recorder.EmitAt(obs::TraceKind::kHandlerFire, name, i, i);
    }
  }
  EXPECT_EQ(recorder.TotalEmits(), 40u);
  EXPECT_EQ(recorder.TotalOverwrites(), 24u);
  auto rings = recorder.PerRingStats();
  ASSERT_FALSE(rings.empty());
  uint64_t emits = 0;
  for (const auto& ring : rings) {
    emits += ring.emits;
  }
  EXPECT_EQ(emits, 40u);

  std::ostringstream os;
  obs::ExportMetrics(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("spin_trace_emits_total{recorder=\"global\"} 40"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("spin_trace_overwrites_total{thread=\""),
            std::string::npos)
      << "per-ring overwrite series missing";
  EXPECT_NE(text.find("spin_trace_emits_total{thread=\""),
            std::string::npos)
      << "per-ring emit series missing";
  recorder.Reset(obs::FlightRecorder::kDefaultCapacity);
}

// --- TraceQuery over a synthetic timeline ---------------------------------

obs::MergedRecord Synth(uint64_t ts, uint64_t span, uint64_t parent,
                        uint32_t tid) {
  obs::MergedRecord m;
  m.rec.ts_ns = ts;
  m.rec.name = "synth";
  m.rec.span = span;
  m.rec.parent = parent;
  m.tid = tid;
  return m;
}

TEST(TraceQueryTest, SpanTreeWalksDescendants) {
  // span 1 -> {2, 3}, 2 -> {4}; span 9 is a root whose parent record was
  // never captured; one orphan record.
  std::vector<obs::MergedRecord> records = {
      Synth(10, 1, 0, 1), Synth(20, 2, 1, 1), Synth(30, 3, 1, 2),
      Synth(40, 4, 2, 2), Synth(50, 9, 7, 3), Synth(60, 0, 0, 3),
  };
  obs::TraceQuery query(records);

  EXPECT_EQ(query.Spans(), (std::vector<uint64_t>{1, 2, 3, 4, 9}));
  EXPECT_EQ(query.Roots(), (std::vector<uint64_t>{1, 9}));
  EXPECT_EQ(query.Children(1), (std::vector<uint64_t>{2, 3}));
  EXPECT_EQ(query.ParentOf(4), 2u);
  EXPECT_EQ(query.ParentOf(1), 0u);
  EXPECT_EQ(query.orphan_records(), 1u);

  std::vector<obs::MergedRecord> tree = query.SpanTree(1);
  ASSERT_EQ(tree.size(), 4u);
  // Timestamp-ordered, spans 1..4 only.
  for (size_t i = 1; i < tree.size(); ++i) {
    EXPECT_LE(tree[i - 1].rec.ts_ns, tree[i].rec.ts_ns);
  }
  for (const obs::MergedRecord& m : tree) {
    EXPECT_NE(m.rec.span, 9u);
    EXPECT_NE(m.rec.span, 0u);
  }
  EXPECT_TRUE(query.SpanTree(42).empty());
}

}  // namespace
}  // namespace spin
