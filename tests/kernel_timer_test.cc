// Kernel clock, timers, and the Clock.Tick event.
#include <gtest/gtest.h>

#include "src/emul/osf.h"
#include "src/kernel/kernel.h"
#include "tests/eager_config.h"

namespace spin {
namespace {

class TimerTest : public ::testing::Test {
 protected:
  Dispatcher dispatcher_{EagerConfig()};
  Kernel kernel_{&dispatcher_};
};

TEST_F(TimerTest, TickAdvancesClockAndRaisesEvent) {
  std::vector<int64_t> ticks;
  dispatcher_.InstallLambda(kernel_.ClockTick,
                            [&](int64_t now) { ticks.push_back(now); },
                            {.module = &kernel_.strand_module()});
  kernel_.Tick(1000);
  kernel_.Tick(500);
  EXPECT_EQ(kernel_.now_ns(), 1500u);
  EXPECT_EQ(ticks, (std::vector<int64_t>{1000, 1500}));
}

TEST_F(TimerTest, SleepersWakeInDeadlineOrder) {
  std::vector<std::string> wake_order;
  Strand& late = kernel_.CreateStrand("late", [&](Strand&) {
    wake_order.push_back("late");
    return false;
  });
  Strand& early = kernel_.CreateStrand("early", [&](Strand&) {
    wake_order.push_back("early");
    return false;
  });
  kernel_.SleepUntil(late, 2000);
  kernel_.SleepUntil(early, 1000);
  EXPECT_EQ(kernel_.sleeping(), 2u);
  // The idle scheduler jumps the clock from timer to timer.
  kernel_.RunUntilIdle();
  EXPECT_EQ(wake_order, (std::vector<std::string>{"early", "late"}));
  EXPECT_EQ(kernel_.now_ns(), 2000u);
  EXPECT_EQ(kernel_.sleeping(), 0u);
}

TEST_F(TimerTest, PartialTickWakesOnlyExpired) {
  int runs = 0;
  Strand& sleeper = kernel_.CreateStrand("s", [&](Strand&) {
    ++runs;
    return false;
  });
  kernel_.SleepUntil(sleeper, 5000);
  kernel_.Tick(4999);
  EXPECT_EQ(kernel_.sleeping(), 1u);
  kernel_.Tick(1);
  EXPECT_EQ(kernel_.sleeping(), 0u);
  kernel_.RunUntilIdle();
  EXPECT_EQ(runs, 1);
}

TEST_F(TimerTest, NanosleepSyscallBlocksAndResumes) {
  fs::Vfs vfs(&dispatcher_);
  emul::OsfEmulator osf(kernel_, vfs);
  AddressSpace& space = kernel_.CreateAddressSpace();
  osf.AdoptTask(space);
  std::vector<int> phases;
  Strand& strand = kernel_.CreateStrand(
      "napper",
      [&](Strand& s) {
        if (phases.empty()) {
          phases.push_back(1);
          s.saved_state().v0 = emul::kOsfNanosleep;
          s.saved_state().a[0] = 10'000;
          kernel_.Syscall(s);
          return true;
        }
        // Resumed after the sleep: read the kernel clock.
        phases.push_back(2);
        s.saved_state().v0 = emul::kOsfGetTime;
        kernel_.Syscall(s);
        return false;
      },
      &space);
  kernel_.RunUntilIdle();
  EXPECT_EQ(phases, (std::vector<int>{1, 2}));
  EXPECT_GE(strand.saved_state().v0, 10'000);
  EXPECT_GE(kernel_.now_ns(), 10'000u);
}

TEST_F(TimerTest, TickExtensionSeesIdleWakeups) {
  // A profiler-style extension observing the clock event during idle
  // timer jumps.
  int ticks = 0;
  dispatcher_.InstallLambda(kernel_.ClockTick, [&](int64_t) { ++ticks; },
                            {.module = &kernel_.strand_module()});
  Strand& sleeper = kernel_.CreateStrand("s", [](Strand&) { return false; });
  kernel_.SleepUntil(sleeper, 1234);
  kernel_.RunUntilIdle();
  EXPECT_GE(ticks, 1);
}

}  // namespace
}  // namespace spin
