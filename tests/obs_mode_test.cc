// The observation modes as a matrix: what kOff, kTimed, kSampled and kFull
// (and an armed watchdog under kOff) make a raise record, on an event with
// sync and async handlers. Each raise is planned once (obs::RaisePlan) and
// its async bodies run under the same plan on the pool, so body samples,
// raise counts, records and table state all follow from the mode alone.
// Also: flipping modes while raisers run keeps every span balanced.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/codegen/stub_compiler.h"
#include "src/core/dispatcher.h"
#include "src/obs/context.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/obs/watchdog.h"

namespace spin {
namespace {

constexpr uint64_t kRaises = 5;
constexpr uint64_t kAsyncHandlers = 3;

std::atomic<uint64_t> g_sync_fired{0};
std::atomic<uint64_t> g_async_fired{0};

void SyncHandler(int64_t) { g_sync_fired.fetch_add(1); }
void AsyncHandler(int64_t) { g_async_fired.fetch_add(1); }
void Intrinsic(int64_t) {}

// Two sync handlers and three async ones on one event, plus a plain
// intrinsic-only event whose bypass shows the table state.
struct ModeFixture {
  ThreadPool pool{2};
  Dispatcher dispatcher{MakeConfig(&pool)};
  Module module{"ModeTest"};
  Event<void(int64_t)> mixed{"Mode.Mixed", &module, nullptr, &dispatcher};
  Event<void(int64_t)> direct{"Mode.Direct", &module, &Intrinsic,
                              &dispatcher};

  // Eager compilation, so the mixed event runs its stub from the first of
  // its few raises wherever the mode keeps stubs.
  static Dispatcher::Config MakeConfig(ThreadPool* pool) {
    Dispatcher::Config config;
    config.pool = pool;
    config.lazy_compile = false;
    return config;
  }

  ModeFixture() {
    for (int i = 0; i < 2; ++i) {
      dispatcher.InstallHandler(mixed, &SyncHandler, {.module = &module});
    }
    for (uint64_t i = 0; i < kAsyncHandlers; ++i) {
      dispatcher.InstallHandler(mixed, &AsyncHandler,
                                {.async = true, .module = &module});
    }
  }
  ~ModeFixture() { dispatcher.SetTracing({obs::TraceMode::kOff}); }
};

size_t CountRecords(obs::TraceKind kind) {
  size_t n = 0;
  for (const obs::MergedRecord& m : obs::FlightRecorder::Global().Snapshot()) {
    n += m.rec.kind == kind && std::string(m.rec.name) == "Mode.Mixed";
  }
  return n;
}

struct Row {
  const char* name;
  obs::TraceConfig config;
  bool watchdog;
  uint64_t traced;        // raises captured
  uint64_t timed;         // raises timed into the histograms
  bool bypass;            // the intrinsic-only event keeps its direct call
  bool interpreted;       // the mixed event is interpreted even with a JIT
};

void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

class ModeMatrixTest : public ::testing::TestWithParam<Row> {};

TEST_P(ModeMatrixTest, RecordsFollowTheMode) {
  const Row& row = GetParam();
  ModeFixture fx;
  // Zero this thread's sampling countdown: at rate 1 the next decision
  // fires. With rate 2 below, raises 2 and 4 of 5 are then sampled.
  obs::SetTraceConfig({obs::TraceMode::kSampled, 1});
  { const obs::RaisePlan top_level; }
  obs::SetTraceConfig({obs::TraceMode::kOff});

  fx.dispatcher.SetTracing(row.config);
  EXPECT_EQ(fx.dispatcher.trace_mode(), row.config.mode);
  if (row.watchdog) {
    obs::WatchdogConfig watch;
    watch.period_ms = 0;        // no monitor thread
    watch.slow_handler_ns = 0;  // time, but report nothing
    obs::Watchdog::Global().Arm(watch);
  }
  fx.mixed.ResetStats();
  obs::FlightRecorder::Global().Reset();
  obs::ResetSpanStats();
  g_sync_fired = 0;
  g_async_fired = 0;

  for (uint64_t i = 0; i < kRaises; ++i) {
    fx.mixed.Raise(static_cast<int64_t>(i));
  }
  fx.pool.Drain();
  if (row.watchdog) {
    obs::Watchdog::Global().Disarm();
  }
  fx.dispatcher.SetTracing({obs::TraceMode::kOff});

  EXPECT_EQ(g_sync_fired.load(), 2 * kRaises);
  EXPECT_EQ(g_async_fired.load(), kAsyncHandlers * kRaises);

  // Samples: one per timed raise, one per async body of a timed raise.
  // raise_count() counts raises, never bodies.
  EXPECT_EQ(fx.mixed.raise_count(), row.timed);
  EXPECT_EQ(fx.mixed.metrics().Merged().count, row.timed);
  EXPECT_EQ(fx.mixed.metrics().hist(obs::DispatchKind::kAsync).Count(),
            kAsyncHandlers * row.timed);
  // Records: only captured raises emit, and only their spans open.
  EXPECT_EQ(CountRecords(obs::TraceKind::kRaiseBegin), row.traced);
  EXPECT_EQ(CountRecords(obs::TraceKind::kRaiseEnd), row.traced);
  EXPECT_EQ(CountRecords(obs::TraceKind::kAsyncEnqueue),
            kAsyncHandlers * row.traced);
  EXPECT_EQ(CountRecords(obs::TraceKind::kAsyncExecute),
            kAsyncHandlers * row.traced);
  if (row.interpreted) {
    EXPECT_EQ(CountRecords(obs::TraceKind::kHandlerFire), 2 * row.traced);
  }
  if (row.traced == 0) {
    EXPECT_TRUE(obs::FlightRecorder::Global().Snapshot().empty());
  }
  obs::SpanStats spans = obs::GetSpanStats();
  EXPECT_EQ(spans.started, (1 + kAsyncHandlers) * row.traced);
  EXPECT_EQ(spans.completed, spans.started);
  obs::FlightRecorder::Global().Reset();
}

TEST_P(ModeMatrixTest, TablesFollowTheMode) {
  const Row& row = GetParam();
  ModeFixture fx;
  fx.dispatcher.SetTracing(row.config);
  EXPECT_EQ(fx.direct.direct_fn() != nullptr, row.bypass);
  // The bypass has no hook: the intrinsic-only event is timed only where
  // the mode takes the bypass away.
  for (uint64_t i = 0; i < kRaises; ++i) {
    fx.direct.Raise(static_cast<int64_t>(i));
  }
  EXPECT_EQ(fx.direct.raise_count(), row.bypass ? 0 : kRaises);
  const bool stub = codegen::CodegenAvailable() && !row.interpreted;
  EXPECT_NE(fx.dispatcher.Describe(fx.mixed).find(
                stub ? "dispatch: generated stub" : "dispatch: interpreted"),
            std::string::npos)
      << fx.dispatcher.Describe(fx.mixed);
  fx.dispatcher.SetTracing({obs::TraceMode::kOff});
  EXPECT_NE(fx.direct.direct_fn(), nullptr);
  obs::FlightRecorder::Global().Reset();
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ModeMatrixTest,
    ::testing::Values(
        Row{"off", {obs::TraceMode::kOff}, false, 0, 0, true, false},
        Row{"off_watchdog", {obs::TraceMode::kOff}, true, 0, kRaises, true,
            false},
        Row{"timed", {obs::TraceMode::kTimed}, false, 0, kRaises, false,
            false},
        Row{"sampled", {obs::TraceMode::kSampled, 2}, false, 2, 2, true,
            false},
        Row{"full", {obs::TraceMode::kFull}, false, kRaises, kRaises, false,
            true}),
    [](const ::testing::TestParamInfo<Row>& info) {
      return std::string(info.param.name);
    });

// Raisers keep raising while the mode cycles through all four. Every raise
// and every async body runs under the plan its raise made, so each span
// opened is completed, and no body is lost or run twice.
TEST(ModeFlipTest, FlippingModesUnderLoadKeepsSpansBalanced) {
  ModeFixture fx;
  obs::ResetSpanStats();
  g_sync_fired = 0;
  g_async_fired = 0;
  constexpr int kRaisers = 3;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> raised{0};
  std::vector<std::thread> raisers;
  for (int r = 0; r < kRaisers; ++r) {
    raisers.emplace_back([&] {
      int64_t v = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        fx.mixed.Raise(v++);
        fx.direct.Raise(v);
        raised.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const obs::TraceConfig modes[] = {
      {obs::TraceMode::kTimed},
      {obs::TraceMode::kSampled, 3},
      {obs::TraceMode::kFull},
      {obs::TraceMode::kOff},
  };
  for (int round = 0; round < 40; ++round) {
    fx.dispatcher.SetTracing(modes[round % 4]);
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  stop.store(true);
  for (std::thread& t : raisers) {
    t.join();
  }
  fx.pool.Drain();
  fx.dispatcher.SetTracing({obs::TraceMode::kOff});

  const uint64_t n = raised.load();
  EXPECT_GT(n, 0u);
  EXPECT_EQ(g_sync_fired.load(), 2 * n);
  EXPECT_EQ(g_async_fired.load(), kAsyncHandlers * n);
  EXPECT_LE(fx.mixed.raise_count(), n);
  EXPECT_LE(fx.mixed.metrics().hist(obs::DispatchKind::kAsync).Count(),
            kAsyncHandlers * n);
  obs::SpanStats spans = obs::GetSpanStats();
  EXPECT_GT(spans.started, 0u);
  EXPECT_EQ(spans.completed, spans.started);
  obs::FlightRecorder::Global().Reset();
}

}  // namespace
}  // namespace spin
