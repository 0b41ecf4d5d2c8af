// Tests for the observability layer: histogram buckets and percentile
// semantics, the flight-recorder ring (wraparound, cross-thread merge),
// Chrome trace JSON well-formedness, and the Prometheus exposition.
#include "src/obs/obs.h"

#include <cctype>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/dispatcher.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"
#include "tests/eager_config.h"

namespace spin {
namespace {

// --- Minimal JSON well-formedness checker --------------------------------
// Recursive descent over the value grammar; enough to prove the trace
// export is parseable without pulling in a JSON library.
class JsonChecker {
 public:
  static bool Valid(const std::string& text) {
    JsonChecker checker(text);
    checker.SkipWs();
    return checker.Value() && (checker.SkipWs(), checker.AtEnd());
  }

 private:
  explicit JsonChecker(const std::string& text) : p_(text.c_str()) {}

  bool AtEnd() const { return *p_ == '\0'; }
  void SkipWs() {
    while (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r') {
      ++p_;
    }
  }
  bool Literal(const char* lit) {
    size_t n = std::strlen(lit);
    if (std::strncmp(p_, lit, n) != 0) {
      return false;
    }
    p_ += n;
    return true;
  }
  bool String() {
    if (*p_ != '"') {
      return false;
    }
    ++p_;
    while (*p_ != '"') {
      if (*p_ == '\0') {
        return false;
      }
      if (*p_ == '\\') {
        ++p_;
        if (std::strchr("\"\\/bfnrtu", *p_) == nullptr) {
          return false;
        }
      }
      ++p_;
    }
    ++p_;
    return true;
  }
  bool Number() {
    const char* start = p_;
    if (*p_ == '-') {
      ++p_;
    }
    while (std::isdigit(static_cast<unsigned char>(*p_))) {
      ++p_;
    }
    if (*p_ == '.') {
      ++p_;
      while (std::isdigit(static_cast<unsigned char>(*p_))) {
        ++p_;
      }
    }
    return p_ != start;
  }
  bool Value() {
    SkipWs();
    switch (*p_) {
      case '{': {
        ++p_;
        SkipWs();
        if (*p_ == '}') {
          ++p_;
          return true;
        }
        while (true) {
          SkipWs();
          if (!String()) {
            return false;
          }
          SkipWs();
          if (*p_ != ':') {
            return false;
          }
          ++p_;
          if (!Value()) {
            return false;
          }
          SkipWs();
          if (*p_ == ',') {
            ++p_;
            continue;
          }
          if (*p_ == '}') {
            ++p_;
            return true;
          }
          return false;
        }
      }
      case '[': {
        ++p_;
        SkipWs();
        if (*p_ == ']') {
          ++p_;
          return true;
        }
        while (true) {
          if (!Value()) {
            return false;
          }
          SkipWs();
          if (*p_ == ',') {
            ++p_;
            continue;
          }
          if (*p_ == ']') {
            ++p_;
            return true;
          }
          return false;
        }
      }
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  const char* p_;
};

TEST(JsonCheckerTest, SanityOnKnownInputs) {
  EXPECT_TRUE(JsonChecker::Valid("{}"));
  EXPECT_TRUE(JsonChecker::Valid("{\"a\":[1,2.5,-3],\"b\":\"x\\\"y\"}"));
  EXPECT_FALSE(JsonChecker::Valid("{\"a\":}"));
  EXPECT_FALSE(JsonChecker::Valid("[1,2"));
  EXPECT_FALSE(JsonChecker::Valid("{} trailing"));
}

// --- Histogram -----------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  EXPECT_EQ(obs::BucketFor(0), 0u);
  EXPECT_EQ(obs::BucketFor(1), 1u);
  EXPECT_EQ(obs::BucketFor(2), 2u);
  EXPECT_EQ(obs::BucketFor(3), 2u);
  EXPECT_EQ(obs::BucketFor(4), 3u);
  EXPECT_EQ(obs::BucketFor(~0ull), 64u);
  EXPECT_EQ(obs::BucketLowerBound(0), 0u);
  EXPECT_EQ(obs::BucketUpperBound(0), 0u);
  EXPECT_EQ(obs::BucketLowerBound(1), 1u);
  EXPECT_EQ(obs::BucketUpperBound(1), 1u);
  EXPECT_EQ(obs::BucketLowerBound(7), 64u);
  EXPECT_EQ(obs::BucketUpperBound(7), 127u);
  EXPECT_EQ(obs::BucketUpperBound(64), ~0ull);
}

TEST(HistogramTest, PercentileSemantics) {
  // 50 samples of 1ns and 50 of 100ns. The ceil(q*count)-th smallest
  // sample's bucket upper bound is the defined percentile.
  obs::Histogram hist;
  for (int i = 0; i < 50; ++i) {
    hist.Record(1);
    hist.Record(100);
  }
  obs::HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.sum, 50u * 1 + 50u * 100);
  EXPECT_EQ(snap.max, 100u);
  EXPECT_EQ(snap.Percentile(0.50), 1u);    // 50th smallest is a 1
  EXPECT_EQ(snap.Percentile(0.51), 127u);  // 51st is a 100: bucket [64,127]
  EXPECT_EQ(snap.Percentile(0.99), 127u);
  EXPECT_EQ(snap.Percentile(1.0), 127u);
}

TEST(HistogramTest, EmptyPercentileIsZero) {
  obs::Histogram hist;
  EXPECT_EQ(hist.Snapshot().Percentile(0.5), 0u);
}

TEST(HistogramTest, CrossThreadCountsMerge) {
  obs::Histogram hist;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(8);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(hist.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist.SumNs(), static_cast<uint64_t>(kThreads) * kPerThread * 8);
  hist.Reset();
  EXPECT_EQ(hist.Count(), 0u);
  EXPECT_EQ(hist.Snapshot().max, 0u);
}

TEST(EventMetricsTest, PerKindAndMerged) {
  obs::EventMetrics metrics("Test.Event");
  metrics.Record(obs::DispatchKind::kDirect, 4);
  metrics.Record(obs::DispatchKind::kInterp, 1000);
  metrics.Record(obs::DispatchKind::kAsync, 5000);  // a body, not a raise
  EXPECT_EQ(metrics.hist(obs::DispatchKind::kDirect).Count(), 1u);
  EXPECT_EQ(metrics.hist(obs::DispatchKind::kStub).Count(), 0u);
  EXPECT_EQ(metrics.hist(obs::DispatchKind::kAsync).Count(), 1u);
  EXPECT_EQ(metrics.TotalCount(), 2u);
  EXPECT_EQ(metrics.TotalSumNs(), 1004u);
  EXPECT_EQ(metrics.Merged().max, 1000u);
  metrics.Reset();
  EXPECT_EQ(metrics.TotalCount(), 0u);
}

// --- Flight recorder -----------------------------------------------------

TEST(FlightRecorderTest, DisabledEmitsNothing) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.Reset();
  ASSERT_FALSE(obs::Enabled());
  recorder.Emit(obs::TraceKind::kInstall, "x");
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(FlightRecorderTest, WraparoundKeepsNewest) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.Reset(16);
  EXPECT_EQ(recorder.capacity(), 16u);
  {
    obs::EnableScope enable;
    for (uint64_t i = 0; i < 100; ++i) {
      recorder.EmitAt(obs::TraceKind::kHandlerFire, "wrap", /*ts_ns=*/i, i);
    }
  }
  std::vector<obs::MergedRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 16u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].rec.ts_ns, 84 + i);  // newest 16 of 0..99
    EXPECT_EQ(records[i].rec.arg, 84 + i);
  }
  recorder.Reset(obs::FlightRecorder::kDefaultCapacity);
}

TEST(FlightRecorderTest, CrossThreadMergeOrdersByTimestamp) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.Reset();
  {
    obs::EnableScope enable;
    std::thread a([&] {
      for (uint64_t ts : {10, 30, 50}) {
        recorder.EmitAt(obs::TraceKind::kHandlerFire, "a", ts);
      }
    });
    a.join();
    std::thread b([&] {
      for (uint64_t ts : {20, 40, 60}) {
        recorder.EmitAt(obs::TraceKind::kGuardReject, "b", ts);
      }
    });
    b.join();
  }
  std::vector<obs::MergedRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 6u);
  uint64_t expect_ts[] = {10, 20, 30, 40, 50, 60};
  const char* expect_name[] = {"a", "b", "a", "b", "a", "b"};
  std::set<uint32_t> tids;
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(records[i].rec.ts_ns, expect_ts[i]);
    EXPECT_STREQ(records[i].rec.name, expect_name[i]);
    tids.insert(records[i].tid);
  }
  EXPECT_EQ(tids.size(), 2u);  // distinct rings survived the merge
}

TEST(FlightRecorderTest, ChromeTraceIsValidJson) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.Reset();
  {
    obs::EnableScope enable;
    recorder.EmitAt(obs::TraceKind::kRaiseBegin, "Ev\"ent\\1", 1000);
    recorder.EmitAt(obs::TraceKind::kHandlerFire, "Ev\"ent\\1", 1500, 3);
    recorder.EmitAt(obs::TraceKind::kRaiseEnd, "Ev\"ent\\1", 2000);
  }
  std::ostringstream out;
  obs::WriteChromeTrace(out, recorder.Snapshot());
  std::string json = out.str();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  recorder.Reset();
}

// --- Tracing through the dispatcher --------------------------------------

int64_t Return7(int64_t) { return 7; }
bool RejectAll(int64_t) { return false; }

TEST(TracingTest, CaptureContainsDispatchRecords) {
  obs::FlightRecorder::Global().Reset();
  Dispatcher dispatcher;
  Module module("TracingTest");
  Event<int64_t(int64_t)> event("Tracing.Event", &module, nullptr,
                                &dispatcher);
  dispatcher.InstallHandler(event, &Return7, {.module = &module});
  auto rejected = dispatcher.InstallHandler(event, &RejectAll, &Return7,
                                            {.module = &module});
  (void)rejected;

  dispatcher.SetTracing({obs::TraceMode::kFull});
  EXPECT_EQ(dispatcher.trace_mode(), obs::TraceMode::kFull);
  EXPECT_EQ(event.Raise(1), 7);
  dispatcher.SetTracing({obs::TraceMode::kOff});

  std::set<obs::TraceKind> kinds;
  for (const auto& m : obs::FlightRecorder::Global().Snapshot()) {
    kinds.insert(m.rec.kind);
  }
  EXPECT_EQ(kinds.count(obs::TraceKind::kRaiseBegin), 1u);
  EXPECT_EQ(kinds.count(obs::TraceKind::kRaiseEnd), 1u);
  EXPECT_EQ(kinds.count(obs::TraceKind::kHandlerFire), 1u);
  EXPECT_EQ(kinds.count(obs::TraceKind::kGuardReject), 1u);
  obs::FlightRecorder::Global().Reset();
}

TEST(TracingTest, DirectBypassSuppressedAndRestored) {
  Dispatcher dispatcher;
  Module module("TracingTest");
  Event<int64_t(int64_t)> event("Tracing.Direct", &module, &Return7,
                                &dispatcher);
  ASSERT_NE(event.direct_fn(), nullptr);
  dispatcher.SetTracing({obs::TraceMode::kFull});
  EXPECT_EQ(event.direct_fn(), nullptr);
  EXPECT_EQ(event.Raise(1), 7);
  dispatcher.SetTracing({obs::TraceMode::kOff});
  EXPECT_NE(event.direct_fn(), nullptr);
  // The suppressed raise was still accounted under the production kind.
  EXPECT_GE(event.metrics().hist(obs::DispatchKind::kDirect).Count(), 1u);
}

// --- Prometheus exposition -----------------------------------------------

TEST(ExportTest, WellFormedExposition) {
  Dispatcher dispatcher(EagerConfig());
  Module module("ExportTest");
  Event<int64_t(int64_t)> event("Export.Event", &module, &Return7,
                                &dispatcher);
  dispatcher.SetTracing({obs::TraceMode::kTimed});
  for (int i = 0; i < 10; ++i) {
    event.Raise(i);
  }
  dispatcher.SetTracing({obs::TraceMode::kOff});

  std::ostringstream out;
  obs::ExportMetrics(out);
  std::string text = out.str();

  EXPECT_NE(text.find("# TYPE spin_event_raise_ns summary"),
            std::string::npos);
  EXPECT_NE(text.find("spin_event_raise_ns{event=\"Export.Event\","
                      "kind=\"direct\",quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(text.find("spin_event_raise_ns_count{event=\"Export.Event\","
                      "kind=\"all\"} 10"),
            std::string::npos);
  EXPECT_NE(text.find("spin_dispatcher_installs_total{instance="),
            std::string::npos);
  EXPECT_NE(text.find("spin_pool_executed_total{instance="),
            std::string::npos);
  EXPECT_NE(text.find("spin_epoch_reclaimed_total{instance="),
            std::string::npos);
  EXPECT_NE(text.find("spin_quota_used_bytes{instance="),
            std::string::npos);
  EXPECT_NE(text.find("module=\"ExportTest\"}"), std::string::npos);

  // Every line is either a comment or "name{labels} value".
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    EXPECT_EQ(line.compare(0, 5, "spin_"), 0) << line;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NE(line.find('{'), std::string::npos) << line;
    EXPECT_EQ(line[space - 1], '}') << line;
    for (size_t i = space + 1; i < line.size(); ++i) {
      EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(line[i])) ||
                  line[i] == '.' || line[i] == '-')
          << line;
    }
  }
}

TEST(DescribeTest, IncludesLatencySummary) {
  Dispatcher dispatcher(EagerConfig());
  Module module("DescribeTest");
  Event<int64_t(int64_t)> event("Describe.Event", &module, &Return7,
                                &dispatcher);
  dispatcher.SetTracing({obs::TraceMode::kTimed});
  for (int i = 0; i < 5; ++i) {
    event.Raise(i);
  }
  dispatcher.SetTracing({obs::TraceMode::kOff});

  std::string description = dispatcher.Describe(event);
  EXPECT_NE(description.find("latency[direct]: n=5"), std::string::npos)
      << description;
  EXPECT_NE(description.find("p99="), std::string::npos);

  std::ostringstream all;
  dispatcher.DescribeAll(all);
  EXPECT_NE(all.str().find("Describe.Event"), std::string::npos);
}

}  // namespace
}  // namespace spin
