// Discrete-event simulator tests.
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/simulator.h"

namespace spin {
namespace sim {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(300, [&] { order.push_back(3); });
  sim.At(100, [&] { order.push_back(1); });
  sim.At(200, [&] { order.push_back(2); });
  EXPECT_EQ(sim.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now_ns(), 300u);
}

TEST(SimulatorTest, SimultaneousEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.At(100, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, EventsMayScheduleEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) {
      sim.After(10, step);
    }
  };
  sim.After(10, step);
  sim.Run();
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(sim.now_ns(), 50u);
}

TEST(SimulatorTest, RunUntilBoundsVirtualTime) {
  Simulator sim;
  int ran = 0;
  sim.At(100, [&] { ++ran; });
  sim.At(1000, [&] { ++ran; });
  EXPECT_EQ(sim.Run(500), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(ran, 2);
}

TEST(SimulatorTest, PastSchedulesClampToNow) {
  Simulator sim;
  sim.At(100, [] {});
  sim.Run();
  int ran = 0;
  sim.At(50, [&] { ++ran; });  // in the past: runs "now"
  sim.Run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now_ns(), 100u);
}

// A callable that counts how often it is copied. Moves are free.
struct CopyCounter {
  int* copies;
  int* runs;

  CopyCounter(int* copies_in, int* runs_in)
      : copies(copies_in), runs(runs_in) {}
  CopyCounter(const CopyCounter& other)
      : copies(other.copies), runs(other.runs) {
    ++*copies;
  }
  CopyCounter(CopyCounter&&) noexcept = default;
  void operator()() const { ++*runs; }
};

TEST(SimulatorTest, RunningNeverCopiesAScheduledCallable) {
  Simulator sim;
  int copies = 0;
  int runs = 0;
  for (int i = 0; i < 100; ++i) {
    sim.At(static_cast<uint64_t>(i % 10) * 100, CopyCounter(&copies, &runs));
  }
  ASSERT_EQ(copies, 0);
  EXPECT_TRUE(sim.RunOne());
  EXPECT_EQ(sim.Run(), 99u);
  EXPECT_FALSE(sim.RunOne());
  EXPECT_EQ(runs, 100);
  EXPECT_EQ(copies, 0);
}

TEST(LinkModelTest, TenMegabitMath) {
  LinkModel model;  // defaults: 10 Mb/s, 25 us propagation
  EXPECT_EQ(model.SerializationNs(1), 800u);         // 8 bits at 10 Mb/s
  EXPECT_EQ(model.SerializationNs(1250), 1'000'000u);  // 10 kb -> 1 ms
  EXPECT_EQ(model.TransferNs(50), 40'000u + 25'000u);
}

TEST(LinkModelTest, CustomBandwidth) {
  LinkModel gigabit{1'000'000'000, 1'000};
  EXPECT_EQ(gigabit.SerializationNs(1250), 10'000u);
  EXPECT_EQ(gigabit.TransferNs(1250), 11'000u);
}

}  // namespace
}  // namespace sim
}  // namespace spin
