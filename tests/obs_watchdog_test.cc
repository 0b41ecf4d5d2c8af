// Anomaly watchdog: inline slow-handler deadlines (absolute and p99-
// derived), the probe rules (queue backlog/stall, epoch stall, retry
// storm), the one-shot trace burst, and the anomaly counter export. All
// deterministic: period_ms = 0 keeps the monitor thread off and tests
// drive detection with Poll().
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/dispatcher.h"
#include "src/core/errors.h"
#include "src/net/host.h"
#include "src/obs/context.h"
#include "src/obs/export.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/obs/watchdog.h"
#include "src/remote/exporter.h"
#include "src/remote/proxy.h"
#include "src/sim/simulator.h"
#include "tests/eager_config.h"

namespace spin {
namespace {

// Resets the thread-local sampling countdown to a known state so tests
// are independent of how many top-level decisions earlier tests made on
// this thread: at rate 1 the very next decision fires and zeroes it.
void ResetSampleCountdown() {
  obs::TraceConfig config{obs::TraceMode::kSampled, 1};
  obs::SetTraceConfig(config);
  { const obs::RaisePlan top_level; }
  config.mode = obs::TraceMode::kOff;
  obs::SetTraceConfig(config);
}

struct SleepCtx {
  uint64_t slow_ms = 0;  // sleep this long when the argument is nonzero
};

void MaybeSleepHandler(SleepCtx* ctx, int64_t arg) {
  if (arg != 0 && ctx->slow_ms != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ctx->slow_ms));
  }
}

// A probe whose samples the test scripts directly.
struct FakeProbe {
  std::vector<obs::WatchSample> samples;
  static void Fn(void* ctx, std::vector<obs::WatchSample>& out) {
    auto* self = static_cast<FakeProbe*>(ctx);
    out.insert(out.end(), self->samples.begin(), self->samples.end());
  }
};

TEST(WatchdogTest, InlineDeadlineFlagsSlowHandlerAndOverridesSampling) {
  obs::Watchdog& dog = obs::Watchdog::Global();
  const uint64_t base = dog.Count(obs::AnomalyKind::kSlowHandler);

  Dispatcher dispatcher(EagerConfig());
  Module module("WatchdogTest");
  Event<void(int64_t)> event("Watch.Slow", &module, nullptr, &dispatcher);
  SleepCtx ctx{50};
  dispatcher.InstallHandler(event, &MaybeSleepHandler, &ctx,
                            {.module = &module});

  obs::WatchdogConfig config;
  config.period_ms = 0;  // no monitor thread; the inline check suffices
  config.slow_handler_ns = 10'000'000;
  dog.Arm(config);

  // Sampled mode with an astronomically large rate: the raise itself is
  // sampled out, but the anomaly record must land anyway.
  ResetSampleCountdown();
  obs::FlightRecorder::Global().Reset();
  dispatcher.SetTracing({obs::TraceMode::kSampled, 1u << 30});

  event.Raise(1);  // sleeps 50 ms >= the 10 ms absolute deadline

  dispatcher.SetTracing({obs::TraceMode::kOff});
  dog.Disarm();

  EXPECT_GE(dog.Count(obs::AnomalyKind::kSlowHandler), base + 1);
  EXPECT_GE(dog.last_value(), 10'000'000u);

  bool saw_anomaly = false;
  bool saw_raise = false;
  for (const obs::MergedRecord& m :
       obs::FlightRecorder::Global().Snapshot()) {
    if (m.rec.kind == obs::TraceKind::kAnomaly &&
        std::string(m.rec.name) == "Watch.Slow") {
      saw_anomaly = true;
      EXPECT_EQ(m.rec.arg >> 32,
                static_cast<uint64_t>(obs::AnomalyKind::kSlowHandler));
      EXPECT_EQ(m.rec.arg & 0xffffffffu, 0u) << "shard 0";
    }
    if (m.rec.kind == obs::TraceKind::kRaiseBegin) {
      saw_raise = true;
    }
  }
  EXPECT_TRUE(saw_anomaly)
      << "anomaly records override the per-tree sampling decision";
  EXPECT_FALSE(saw_raise) << "the raise itself stayed sampled out";
  obs::FlightRecorder::Global().Reset();
}

TEST(WatchdogTest, DerivedDeadlineTracksEventP99) {
  obs::Watchdog& dog = obs::Watchdog::Global();
  const uint64_t base = dog.Count(obs::AnomalyKind::kSlowHandler);

  Dispatcher dispatcher;
  Module module("WatchdogTest");
  Event<void(int64_t)> event("Watch.P99", &module, nullptr, &dispatcher);
  SleepCtx ctx{5};
  dispatcher.InstallHandler(event, &MaybeSleepHandler, &ctx,
                            {.module = &module});

  obs::WatchdogConfig config;
  config.period_ms = 0;
  config.slow_handler_ns = 1'000'000'000;  // 1 s: absolute never trips here
  config.p99_factor = 4.0;
  config.slow_handler_floor_ns = 100'000;  // 100 us
  config.min_samples = 32;
  dog.Arm(config);

  // Feed the histogram: armed means timed, so each fast raise records.
  for (int i = 0; i < 100; ++i) {
    event.Raise(0);
  }
  EXPECT_EQ(event.metrics().slow_ns(), 0u) << "no deadline before a poll";
  dog.Poll();
  const uint64_t derived = event.metrics().slow_ns();
  ASSERT_NE(derived, 0u);
  EXPECT_GE(derived, config.slow_handler_floor_ns);
  EXPECT_LT(derived, config.slow_handler_ns)
      << "a fast event's deadline sits far below the absolute cap";

  event.Raise(1);  // 5 ms: slow for THIS event, harmless absolutely
  EXPECT_GE(dog.Count(obs::AnomalyKind::kSlowHandler), base + 1);

  dog.Disarm();
  EXPECT_EQ(event.metrics().slow_ns(), 0u)
      << "disarm clears derived deadlines";
}

TEST(WatchdogTest, QueueBacklogAndStallRules) {
  obs::Watchdog& dog = obs::Watchdog::Global();
  const uint64_t backlog_base = dog.Count(obs::AnomalyKind::kOutboxBacklog);
  const uint64_t stall_base = dog.Count(obs::AnomalyKind::kQueueStall);

  obs::WatchdogConfig config;
  config.period_ms = 0;
  config.outbox_backlog = 100;
  dog.Arm(config);

  FakeProbe probe;
  dog.RegisterProbe(&probe, &FakeProbe::Fn);
  const char* name = obs::Intern("fake/queue");

  // Backlog above the limit flags immediately, no history needed.
  probe.samples = {{obs::AnomalyKind::kQueueStall, name, 2, 500, 10}};
  dog.Poll();
  EXPECT_EQ(dog.Count(obs::AnomalyKind::kOutboxBacklog), backlog_base + 1);
  EXPECT_EQ(dog.Count(obs::AnomalyKind::kOutboxBacklog, 2), 1u);
  EXPECT_EQ(dog.Count(obs::AnomalyKind::kQueueStall), stall_base)
      << "first observation cannot be a stall";

  // Depth present, progress advancing: draining, not stalled.
  probe.samples = {{obs::AnomalyKind::kQueueStall, name, 2, 50, 20}};
  dog.Poll();
  EXPECT_EQ(dog.Count(obs::AnomalyKind::kQueueStall), stall_base);

  // Depth present across a full period with zero progress: stalled.
  probe.samples = {{obs::AnomalyKind::kQueueStall, name, 2, 50, 20}};
  dog.Poll();
  EXPECT_EQ(dog.Count(obs::AnomalyKind::kQueueStall), stall_base + 1);

  dog.UnregisterProbe(&probe);
  dog.Disarm();
}

TEST(WatchdogTest, EpochStallRule) {
  obs::Watchdog& dog = obs::Watchdog::Global();
  const uint64_t base = dog.Count(obs::AnomalyKind::kEpochStall);

  obs::WatchdogConfig config;
  config.period_ms = 0;
  dog.Arm(config);

  FakeProbe probe;
  dog.RegisterProbe(&probe, &FakeProbe::Fn);
  const char* name = obs::Intern("fake/epoch");

  // Retired objects with reclamation advancing: healthy.
  probe.samples = {{obs::AnomalyKind::kEpochStall, name, 0, 8, 100}};
  dog.Poll();
  probe.samples = {{obs::AnomalyKind::kEpochStall, name, 0, 8, 108}};
  dog.Poll();
  EXPECT_EQ(dog.Count(obs::AnomalyKind::kEpochStall), base);

  // A retired table or two parked between rebuilds is the steady state,
  // not a stall, even with reclamation idle.
  probe.samples = {{obs::AnomalyKind::kEpochStall, name, 1, 2, 50}};
  dog.Poll();
  probe.samples = {{obs::AnomalyKind::kEpochStall, name, 1, 2, 50}};
  dog.Poll();
  EXPECT_EQ(dog.Count(obs::AnomalyKind::kEpochStall), base);

  // A real backlog with reclamation frozen across a full period: stalled.
  probe.samples = {{obs::AnomalyKind::kEpochStall, name, 0, 8, 108}};
  dog.Poll();
  EXPECT_EQ(dog.Count(obs::AnomalyKind::kEpochStall), base + 1);

  dog.UnregisterProbe(&probe);
  dog.Disarm();
}

TEST(WatchdogTest, RealDispatcherProbesStayQuietWhenHealthy) {
  obs::Watchdog& dog = obs::Watchdog::Global();
  const uint64_t stall_base = dog.Count(obs::AnomalyKind::kQueueStall);
  const uint64_t epoch_base = dog.Count(obs::AnomalyKind::kEpochStall);

  // Registers its pool/epoch probe on construction.
  Dispatcher dispatcher(EagerConfig());
  Module module("WatchdogTest");
  Event<void(int64_t)> event("Watch.Healthy", &module, nullptr, &dispatcher);
  SleepCtx ctx{0};
  dispatcher.InstallHandler(event, &MaybeSleepHandler, &ctx,
                            {.module = &module});

  obs::WatchdogConfig config;
  config.period_ms = 0;
  dog.Arm(config);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      event.Raise(0);
    }
    dispatcher.pool().Drain();
    dog.Poll();
  }
  dog.Disarm();

  EXPECT_EQ(dog.Count(obs::AnomalyKind::kQueueStall), stall_base);
  EXPECT_EQ(dog.Count(obs::AnomalyKind::kEpochStall), epoch_base);
}

void NeverCalled(SleepCtx*, uint64_t) {}

TEST(WatchdogTest, RetryStormDetectedUnderPartition) {
  obs::Watchdog& dog = obs::Watchdog::Global();
  const uint64_t base = dog.Count(obs::AnomalyKind::kRetryStorm);

  Dispatcher dispatcher(EagerConfig());
  sim::Simulator sim;
  net::Wire wire{&sim, sim::LinkModel{}};
  net::Host client_host{"storm-client", 0x0a000301, &dispatcher};
  net::Host server_host{"storm-server", 0x0a000302, &dispatcher};
  wire.Attach(client_host, server_host);
  remote::Exporter exporter{server_host};

  SleepCtx ctx;
  Event<void(uint64_t)> server_ev("Storm.Op", nullptr, nullptr, &dispatcher);
  dispatcher.InstallHandler(server_ev, &NeverCalled, &ctx);
  exporter.Export(server_ev);

  Event<void(uint64_t)> client_ev("Storm.Op", nullptr, nullptr, &dispatcher);
  remote::ProxyOptions opts;
  opts.remote_ip = server_host.ip();
  opts.local_port = 9050;
  remote::EventProxy proxy(client_host, &sim, client_ev, opts);

  obs::WatchdogConfig config;
  config.period_ms = 0;
  config.retry_storm = 8;
  dog.Arm(config);
  dog.Poll();  // baseline observation of the proxy's retry counter

  // Partition the wire for the rest of virtual time: every attempt of
  // every raise is lost, so each raise burns its full retry budget
  // (max_attempts - 1 = 4 retries) before throwing kTimeout.
  wire.SetPartition(sim.now_ns(), ~0ull);
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(client_ev.Raise(i), RemoteError);
  }
  EXPECT_EQ(proxy.retries(), 12u);

  dog.Poll();  // 12 retries in one period >= the limit of 8
  dog.Disarm();
  EXPECT_EQ(dog.Count(obs::AnomalyKind::kRetryStorm), base + 1);
  EXPECT_EQ(dog.last_value(), 12u);

  std::ostringstream os;
  obs::ExportMetrics(os);
  EXPECT_NE(os.str().find("spin_anomalies_total{kind=\"retry_storm\","
                          "shard=\"0\",event=\"\"}"),
            std::string::npos)
      << "monitor rules export with an empty event label:\n" << os.str();
}

TEST(WatchdogTest, SlowHandlerAnomaliesExportWithEventLabel) {
  obs::Watchdog& dog = obs::Watchdog::Global();

  Dispatcher dispatcher(EagerConfig());
  Module module("WatchdogTest");
  Event<void(int64_t)> event("Watch.Labeled", &module, nullptr, &dispatcher);
  SleepCtx ctx{20};
  dispatcher.InstallHandler(event, &MaybeSleepHandler, &ctx,
                            {.module = &module});

  obs::WatchdogConfig config;
  config.period_ms = 0;
  config.slow_handler_ns = 5'000'000;
  dog.Arm(config);
  event.Raise(1);  // 20 ms >= 5 ms: trips the inline deadline
  dog.Disarm();

  // The deadline check knows which event blew its budget, so its counter
  // series carries the event name.
  std::ostringstream os;
  obs::ExportMetrics(os);
  EXPECT_NE(os.str().find("spin_anomalies_total{kind=\"slow_handler\","
                          "shard=\"0\",event=\"Watch.Labeled\"}"),
            std::string::npos)
      << os.str();
}

TEST(WatchdogTest, TraceRingPressureRule) {
  obs::Watchdog& dog = obs::Watchdog::Global();
  const uint64_t base = dog.Count(obs::AnomalyKind::kTraceDrops);

  obs::FlightRecorder& rec = obs::FlightRecorder::Global();
  rec.Reset(16);  // tiny rings so a short burst wraps
  obs::SetTraceConfig({obs::TraceMode::kFull});

  obs::WatchdogConfig config;
  config.period_ms = 0;
  config.trace_drop_ratio = 0.25;
  dog.Arm(config);
  dog.Poll();  // baseline observation of every ring's counters

  // 128 emits through a 16-slot ring overwrite ~112 records — a drop
  // ratio far past 0.25, so the next poll must flag this thread's ring.
  const char* name = obs::Intern("ring/pressure");
  for (int i = 0; i < 128; ++i) {
    rec.Emit(obs::TraceKind::kRaiseBegin, name, 0);
  }
  dog.Poll();
  EXPECT_GE(dog.Count(obs::AnomalyKind::kTraceDrops), base + 1);
  EXPECT_GE(dog.last_value(), 96u) << "value is the overwrite delta";

  // A quiet period (no emits anywhere) must not re-fire.
  const uint64_t after = dog.Count(obs::AnomalyKind::kTraceDrops);
  dog.Poll();
  EXPECT_EQ(dog.Count(obs::AnomalyKind::kTraceDrops), after);

  // Reset shrinks the counters below the stored baseline; the rule
  // re-baselines instead of firing on the bogus negative delta.
  rec.Reset();
  dog.Poll();
  EXPECT_EQ(dog.Count(obs::AnomalyKind::kTraceDrops), after);

  dog.Disarm();
  obs::SetTraceConfig({obs::TraceMode::kOff});
  rec.Reset();

  std::ostringstream os;
  obs::ExportMetrics(os);
  EXPECT_NE(os.str().find("spin_anomalies_total{kind=\"trace_drops\""),
            std::string::npos)
      << os.str();
}

// A probe whose callback parks until the test releases it, so the test
// can hold a Poll() pass in flight at a known point.
struct ParkedProbe {
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<bool> finished{false};
  static void Fn(void* ctx, std::vector<obs::WatchSample>&) {
    auto* self = static_cast<ParkedProbe*>(ctx);
    self->entered.store(true);
    while (!self->release.load()) {
      std::this_thread::yield();
    }
    self->finished.store(true);
  }
};

TEST(WatchdogTest, UnregisterProbeWaitsOutAnInFlightPoll) {
  obs::Watchdog& dog = obs::Watchdog::Global();

  obs::WatchdogConfig config;
  config.period_ms = 0;  // the test drives Poll() on its own thread
  dog.Arm(config);

  auto* probe = new ParkedProbe();
  dog.RegisterProbe(probe, &ParkedProbe::Fn);

  std::thread poller([&dog] { dog.Poll(); });
  while (!probe->entered.load()) {
    std::this_thread::yield();
  }

  // The probe callback is in flight; unregistering from another thread
  // (the destructor path) must block until the poll pass is over, so
  // freeing the probe afterwards is safe. TSan guards the
  // use-after-free half of this claim.
  std::atomic<bool> unregistered{false};
  std::thread destroyer([&] {
    dog.UnregisterProbe(probe);
    EXPECT_TRUE(probe->finished.load())
        << "UnregisterProbe returned while the probe callback was running";
    unregistered.store(true);
    delete probe;
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(unregistered.load())
      << "UnregisterProbe returned with a Poll() still in flight";

  probe->release.store(true);
  poller.join();
  destroyer.join();
  dog.Disarm();
}

TEST(WatchdogTest, TraceBurstLatchesOnceAndRetires) {
  obs::Watchdog& dog = obs::Watchdog::Global();

  obs::TraceConfig sampled{obs::TraceMode::kSampled, 64};
  obs::SetTraceConfig(sampled);

  obs::WatchdogConfig config;
  config.period_ms = 0;
  config.outbox_backlog = 10;
  config.trace_burst = true;
  config.burst_periods = 1;
  dog.Arm(config);

  FakeProbe probe;
  dog.RegisterProbe(&probe, &FakeProbe::Fn);
  const char* name = obs::Intern("fake/burst");

  probe.samples = {{obs::AnomalyKind::kQueueStall, name, 0, 50, 1}};
  dog.Poll();  // backlog anomaly latches the burst
  EXPECT_TRUE(dog.burst_active());
  EXPECT_EQ(obs::GetTraceConfig().mode, obs::TraceMode::kFull)
      << "the incident switches the recorder to full fidelity";

  probe.samples.clear();
  dog.Poll();  // one burst period elapsed: restore the sampled config
  EXPECT_FALSE(dog.burst_active());
  EXPECT_EQ(obs::GetTraceConfig().mode, obs::TraceMode::kSampled);
  EXPECT_EQ(obs::GetTraceConfig().sample_rate, 64u);

  // One-shot: a second anomaly does not re-latch until RearmBurst.
  probe.samples = {{obs::AnomalyKind::kQueueStall, name, 0, 60, 1}};
  dog.Poll();
  EXPECT_FALSE(dog.burst_active());
  EXPECT_EQ(obs::GetTraceConfig().mode, obs::TraceMode::kSampled);
  dog.RearmBurst();
  dog.Poll();
  EXPECT_TRUE(dog.burst_active());

  dog.UnregisterProbe(&probe);
  dog.Disarm();  // also restores the pre-burst trace config
  EXPECT_EQ(obs::GetTraceConfig().mode, obs::TraceMode::kSampled);
  obs::SetTraceConfig({obs::TraceMode::kOff});
}

}  // namespace
}  // namespace spin
