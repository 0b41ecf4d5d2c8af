// Profiler tests: the Table 3 instrumentation.
#include <sstream>

#include <gtest/gtest.h>

#include "src/profile/profile.h"
#include "tests/eager_config.h"

namespace spin {
namespace profile {
namespace {

void Noop(int64_t) {}

TEST(ProfileTest, CountsRaisesAndTime) {
  Module module("Prof");
  Dispatcher dispatcher;
  Event<void(int64_t)> event("Prof.Tick", &module, &Noop, &dispatcher);

  Profiler profiler(dispatcher);
  for (int i = 0; i < 100; ++i) {
    event.Raise(i);
  }
  std::vector<EventProfile> snapshot = profiler.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].name, "Prof.Tick");
  EXPECT_EQ(snapshot[0].raised, 100u);
  EXPECT_EQ(snapshot[0].handlers, 1u);
  EXPECT_EQ(snapshot[0].guards, 0u);
  EXPECT_GE(snapshot[0].time_s, 0.0);
}

TEST(ProfileTest, ProfilingDisablesDirectBypass) {
  Module module("Prof");
  Dispatcher dispatcher(EagerConfig());
  Event<void(int64_t)> event("Prof.Tick", &module, &Noop, &dispatcher);
  EXPECT_NE(event.direct_fn(), nullptr);
  {
    Profiler profiler(dispatcher);
    EXPECT_EQ(event.direct_fn(), nullptr)
        << "profiled events must flow through the counting path";
    event.Raise(1);
    EXPECT_EQ(event.raise_count(), 1u);
  }
  EXPECT_NE(event.direct_fn(), nullptr) << "bypass restored after profiling";
}

TEST(ProfileTest, ResetClearsCounters) {
  Module module("Prof");
  Dispatcher dispatcher(EagerConfig());
  Event<void(int64_t)> event("Prof.Tick", &module, &Noop, &dispatcher);
  Profiler profiler(dispatcher);
  event.Raise(1);
  profiler.Reset();
  EXPECT_EQ(event.raise_count(), 0u);
  EXPECT_TRUE(profiler.Snapshot().empty());
}

TEST(ProfileTest, PrintTableLayout) {
  std::vector<EventProfile> profiles = {
      {"Ether.PacketArrived", 2536, 0.03, 4, 3},
      {"MachineTrap.Syscall", 3976, 0.03, 3, 2},
  };
  std::ostringstream os;
  Profiler::PrintTable(os, profiles);
  std::string out = os.str();
  EXPECT_NE(out.find("Ether.PacketArrived"), std::string::npos);
  EXPECT_NE(out.find("2536"), std::string::npos);
  EXPECT_NE(out.find("handlers"), std::string::npos);
}

TEST(ProfileTest, SnapshotOfSelectedEvents) {
  Module module("Prof");
  Dispatcher dispatcher(EagerConfig());
  Event<void(int64_t)> a("Prof.A", &module, &Noop, &dispatcher);
  Event<void(int64_t)> b("Prof.B", &module, &Noop, &dispatcher);
  Profiler profiler(dispatcher);
  a.Raise(1);
  b.Raise(1);
  b.Raise(2);
  std::vector<EventProfile> selected = profiler.SnapshotOf({&b});
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0].name, "Prof.B");
  EXPECT_EQ(selected[0].raised, 2u);
}

}  // namespace
}  // namespace profile
}  // namespace spin
