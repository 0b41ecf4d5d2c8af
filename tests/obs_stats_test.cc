// Snapshot/delta stats pipeline: CaptureStats covers live events and every
// exported series, Delta subtracts counters and keeps gauges, and the JSON
// serialization is what tools/spin_top.py consumes.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/core/dispatcher.h"
#include "src/obs/export.h"
#include "src/obs/obs.h"

namespace spin {
namespace {

struct StatsCtx {};

void Handler(StatsCtx*, int64_t) {}

const obs::SeriesSample* FindSeries(const obs::StatsSnapshot& snap,
                                    const std::string& prefix) {
  for (const obs::SeriesSample& s : snap.series) {
    if (s.series.rfind(prefix, 0) == 0) {
      return &s;
    }
  }
  return nullptr;
}

TEST(StatsTest, CaptureCoversEventsAndSeries) {
  Dispatcher dispatcher;
  Module module("StatsTest");
  Event<void(int64_t)> event("Stats.Op", &module, nullptr, &dispatcher);
  StatsCtx ctx;
  dispatcher.InstallHandler(event, &Handler, &ctx, {.module = &module});

  // Timed raises feed the histograms.
  dispatcher.SetTracing({obs::TraceMode::kFull});
  for (int i = 0; i < 10; ++i) {
    event.Raise(i);
  }
  dispatcher.SetTracing({obs::TraceMode::kOff});

  obs::StatsSnapshot snap = obs::CaptureStats();
  EXPECT_NE(snap.ts_ns, 0u);
  EXPECT_EQ(snap.window_ns, 0u) << "a raw capture has no window";

  const obs::EventStat* stat = nullptr;
  for (const obs::EventStat& e : snap.events) {
    if (e.event == "Stats.Op") {
      stat = &e;
    }
  }
  ASSERT_NE(stat, nullptr);
  EXPECT_GE(stat->hist.count, 10u);

  const obs::SeriesSample* installs =
      FindSeries(snap, "spin_dispatcher_installs_total");
  ASSERT_NE(installs, nullptr);
  EXPECT_TRUE(installs->counter);
  EXPECT_GE(installs->value, 1u);

  const obs::SeriesSample* depth = FindSeries(snap, "spin_pool_queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_FALSE(depth->counter) << "gauges must not be delta-subtracted";

  // Event summaries stay out of the flat series list: the structured
  // histograms above carry them with full resolution.
  EXPECT_EQ(FindSeries(snap, "spin_event_raise_ns"), nullptr);
}

TEST(StatsTest, DeltaSubtractsCountersAndKeepsGauges) {
  obs::StatsSnapshot a;
  a.ts_ns = 1'000;
  a.series = {{"spin_x_total{l=\"1\"}", 10, true},
              {"spin_gauge{l=\"1\"}", 5, false}};
  obs::EventStat ea;
  ea.event = "E";
  ea.kind = obs::DispatchKind::kStub;
  ea.hist.count = 10;
  ea.hist.sum = 1'000;
  ea.hist.max = 400;
  a.events.push_back(ea);

  obs::StatsSnapshot b = a;
  b.ts_ns = 4'000;
  b.series[0].value = 25;
  b.series[1].value = 3;
  b.events[0].hist.count = 16;
  b.events[0].hist.sum = 1'900;
  b.events[0].hist.max = 300;

  obs::StatsSnapshot d = obs::Delta(a, b);
  EXPECT_EQ(d.ts_ns, 4'000u);
  EXPECT_EQ(d.window_ns, 3'000u);
  ASSERT_EQ(d.series.size(), 2u);
  EXPECT_EQ(d.series[0].value, 15u) << "counters subtract";
  EXPECT_EQ(d.series[1].value, 3u) << "gauges keep the newer value";
  ASSERT_EQ(d.events.size(), 1u);
  EXPECT_EQ(d.events[0].hist.count, 6u);
  EXPECT_EQ(d.events[0].hist.sum, 900u);
  EXPECT_EQ(d.events[0].hist.max, 300u) << "max is a window observation";

  // A counter that reset (b < a) clamps to zero instead of wrapping.
  b.series[0].value = 4;
  d = obs::Delta(a, b);
  EXPECT_EQ(d.series[0].value, 0u);
}

// Restart semantics: after the process (or a Histogram::Reset) zeroes the
// source histograms, every shrunken counter clamps to zero instead of
// wrapping to a gigantic unsigned delta. The clamped (all-zero) row is
// suppressed for that one window; the window after it resyncs against the
// post-restart baseline and reports normally.
TEST(StatsTest, DeltaClampsARestartedEventHistogram) {
  obs::StatsSnapshot a;
  a.ts_ns = 1'000;
  obs::EventStat ea;
  ea.event = "Restarted";
  ea.kind = obs::DispatchKind::kStub;
  ea.hist.count = 100;
  ea.hist.sum = 50'000;
  ea.hist.max = 900;
  ea.hist.buckets[10] = 100;
  a.events.push_back(ea);

  obs::StatsSnapshot b = a;
  b.ts_ns = 2'000;
  b.events[0].hist.count = 3;  // restarted: fewer samples than before
  b.events[0].hist.sum = 90;
  b.events[0].hist.max = 60;
  b.events[0].hist.buckets[10] = 0;
  b.events[0].hist.buckets[6] = 3;

  obs::StatsSnapshot d = obs::Delta(a, b);
  EXPECT_TRUE(d.events.empty())
      << "a shrunken histogram clamps to zero (one suppressed window), "
         "never to a wrapped count";

  // The next window diffs post-restart against post-restart and is whole.
  obs::StatsSnapshot c = b;
  c.ts_ns = 3'000;
  c.events[0].hist.count = 8;
  c.events[0].hist.sum = 250;
  c.events[0].hist.buckets[6] = 8;
  d = obs::Delta(b, c);
  ASSERT_EQ(d.events.size(), 1u);
  EXPECT_EQ(d.events[0].hist.count, 5u);
  EXPECT_EQ(d.events[0].hist.sum, 160u);
  EXPECT_EQ(d.events[0].hist.buckets[6], 5u);
  EXPECT_EQ(d.events[0].hist.max, 60u) << "max is the window's observation";
}

// A gauge can vanish between snapshots: spin_phase_ns_max series exist only
// while their event has recorded samples, so a ResetPhaseStats (or a
// restart) removes them. The delta follows the newer snapshot — departed
// series drop out silently, newborn counters report their full value.
TEST(StatsTest, DeltaHandlesDisappearingAndNewbornSeries) {
  obs::StatsSnapshot a;
  a.ts_ns = 1'000;
  a.series = {
      {"spin_phase_ns_max{event=\"E\",phase=\"wire\"}", 800, false},
      {"spin_x_total{l=\"1\"}", 10, true},
  };
  obs::StatsSnapshot b;
  b.ts_ns = 2'000;
  b.series = {
      {"spin_x_total{l=\"1\"}", 12, true},
      {"spin_y_total{l=\"2\"}", 7, true},  // first appearance
  };

  obs::StatsSnapshot d = obs::Delta(a, b);
  ASSERT_EQ(d.series.size(), 2u);
  EXPECT_EQ(FindSeries(d, "spin_phase_ns_max"), nullptr)
      << "a series absent from the newer snapshot is gone, not zero";
  const obs::SeriesSample* x = FindSeries(d, "spin_x_total");
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->value, 2u);
  const obs::SeriesSample* y = FindSeries(d, "spin_y_total");
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(y->value, 7u)
      << "a newborn counter's first window is its whole value";
}

TEST(StatsTest, DeltaDropsIdleEventsKeepsActiveOnes) {
  obs::StatsSnapshot a;
  a.ts_ns = 0;
  obs::EventStat idle;
  idle.event = "Idle";
  idle.hist.count = 7;
  a.events.push_back(idle);
  obs::StatsSnapshot b = a;
  b.ts_ns = 100;

  obs::StatsSnapshot d = obs::Delta(a, b);
  EXPECT_TRUE(d.events.empty())
      << "an event with no raises in the window is not a row";
}

TEST(StatsTest, JsonShapeAndEscaping) {
  obs::StatsSnapshot snap;
  snap.ts_ns = 42;
  snap.window_ns = 7;
  obs::EventStat stat;
  stat.event = "Quote\"d";
  stat.kind = obs::DispatchKind::kDirect;
  stat.hist.count = 3;
  stat.hist.sum = 33;
  snap.events.push_back(stat);
  snap.series = {{"spin_y_total{l=\"v\"}", 9, true}};

  std::ostringstream os;
  obs::WriteJsonStats(os, snap);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ts_ns\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"window_ns\":7"), std::string::npos);
  EXPECT_NE(json.find("\"event\":\"Quote\\\"d\""), std::string::npos)
      << "label quotes must be JSON-escaped";
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"p50_ns\":"), std::string::npos);
  EXPECT_NE(json.find("spin_y_total{l=\\\"v\\\"}"), std::string::npos);
  EXPECT_NE(json.find("\"value\":9"), std::string::npos);
}

}  // namespace
}  // namespace spin
