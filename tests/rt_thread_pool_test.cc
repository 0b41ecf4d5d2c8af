#include "src/rt/thread_pool.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace spin {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SpawnModeRunsDetached) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&] { count.fetch_add(1); }, AsyncMode::kSpawn);
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, DrainWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Drain();
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPoolTest, TasksMaySubmitTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&] {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
  });
  pool.Drain();
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, DestructorDrains) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, SubmitToAccountsAgainstThatQueue) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.queues(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    pool.SubmitTo(2, [&] { count.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 64);
  // Wherever the tasks ran (pinned worker or thieves), they are accounted
  // against the queue they were submitted to.
  EXPECT_EQ(pool.executed(2), 64u);
  EXPECT_EQ(pool.queue_depth(2), 0u);
}

TEST(ThreadPoolTest, SubmitToWrapsQueueIndex) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.SubmitTo(7, [&] { count.fetch_add(1); });  // 7 % 2 == queue 1
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 10);
  EXPECT_EQ(pool.executed(1), 10u);
}

TEST(ThreadPoolTest, AllQueuesDrainWhenWorkIsPinnedToOne) {
  // Everything lands on queue 0; the other workers must steal from its
  // tail rather than idle, and every task still executes exactly once.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 200; ++i) {
    pool.SubmitTo(0, [&] {
      int now = concurrent.fetch_add(1) + 1;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      count.fetch_add(1);
      concurrent.fetch_sub(1);
    });
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 200);
  EXPECT_EQ(pool.executed(0), 200u);
  uint64_t per_queue = 0;
  for (size_t q = 0; q < pool.queues(); ++q) {
    per_queue += pool.executed(q);
  }
  EXPECT_EQ(per_queue, pool.executed());
  // steals() is timing-dependent (worker 0 may drain everything on a
  // loaded machine), but it can never exceed what queue 0 held.
  EXPECT_LE(pool.steals(), 200u);
  EXPECT_EQ(pool.steals(), pool.steals(0));
}

TEST(ThreadPoolTest, RoundRobinSubmitSpreadsAcrossQueues) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 400; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 400);
  // Round-robin distributes submissions evenly across the four queues.
  for (size_t q = 0; q < pool.queues(); ++q) {
    EXPECT_EQ(pool.executed(q), 100u) << "queue " << q;
  }
}

// Runs `body` on a helper thread. A lost wakeup leaves Drain() blocked for
// good, so a body still running at the deadline fails the test and ends
// the process instead of hanging the suite.
template <typename F>
void WithDeadline(std::chrono::seconds limit, F body) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread runner([&] {
    body();
    done.set_value();
  });
  if (finished.wait_for(limit) != std::future_status::ready) {
    ADD_FAILURE() << "not finished after " << limit.count()
                  << " s: a wakeup was lost";
    std::fflush(stdout);
    std::_Exit(1);
  }
  runner.join();
}

TEST(ThreadPoolTest, WakeStressRunsEveryTaskExactlyOnce) {
  // Several submitters race short and long tasks against workers that
  // park between bursts, with Drain() called from submitters and from the
  // main thread. Every task must run exactly once, and every Drain() must
  // return.
  constexpr int kSubmitters = 3;
  constexpr int kRounds = 60;
  constexpr int kPerRound = 40;
  ThreadPool pool(3);
  std::vector<std::atomic<int>> runs(kSubmitters * kRounds * kPerRound);
  WithDeadline(std::chrono::seconds(30), [&] {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::thread> submitters;
      for (int s = 0; s < kSubmitters; ++s) {
        submitters.emplace_back([&, s, round] {
          for (int i = 0; i < kPerRound; ++i) {
            size_t id = (static_cast<size_t>(round) * kSubmitters + s) *
                            kPerRound +
                        i;
            bool long_task = i % 8 == 0;
            auto task = [&runs, id, long_task] {
              if (long_task) {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
              }
              runs[id].fetch_add(1);
            };
            if (i % 2 == 0) {
              pool.SubmitTo(s, task);
            } else {
              pool.Submit(task);
            }
            if (i % 16 == 15) {
              pool.Drain();
            }
          }
        });
      }
      for (std::thread& t : submitters) {
        t.join();
      }
      pool.Drain();
      if (round % 10 == 0) {
        // Let every worker park, so the next burst starts from sleepers.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  });
  for (size_t id = 0; id < runs.size(); ++id) {
    ASSERT_EQ(runs[id].load(), 1) << "task " << id;
  }
  EXPECT_EQ(pool.executed(), runs.size());
}

TEST(ThreadPoolTest, TasksBehindABlockedWorkerFinishOnAnother) {
  // One worker is stuck in a long task. The tasks queued behind it on the
  // same queue must still run, on the other worker, before it is released.
  constexpr int kShort = 8;
  ThreadPool pool(2);
  WithDeadline(std::chrono::seconds(30), [&] {
    for (int round = 0; round < 20; ++round) {
      // Both workers park first, so the burst below starts from sleepers.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      std::atomic<bool> release{false};
      std::atomic<int> done{0};
      pool.SubmitTo(0, [&release] {
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      });
      for (int i = 0; i < kShort; ++i) {
        pool.SubmitTo(0, [&done] { done.fetch_add(1); });
      }
      while (done.load() < kShort) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      release = true;
      pool.Drain();
    }
  });
}

TEST(ThreadPoolTest, RingGrowsInPlaceAndKeepsFifoOrder) {
  // One worker, blocked while 1000 records pile up behind it: the ring
  // doubles several times (once while wrapped) and drops nothing.
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  pool.Submit([&release] {
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  while (pool.queue_depth() != 0) {
    std::this_thread::yield();  // the worker has taken the blocker
  }
  std::vector<int> order;
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(pool.queue_depth(), 1000u);
  release = true;
  pool.Drain();
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ThreadPoolTest, RecordsHoldCapturesUntilTheTaskRuns) {
  // A capture that fills the record exactly, and one that owns memory:
  // both survive the ring's moves and are released once their task ran.
  ThreadPool pool(2);
  std::array<unsigned char, ThreadPool::Task::kBytes - sizeof(void*)> bytes;
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(i);
  }
  std::atomic<int> intact{0};
  auto full = [bytes, &intact] {
    for (size_t i = 0; i < bytes.size(); ++i) {
      if (bytes[i] != static_cast<unsigned char>(i)) {
        return;
      }
    }
    intact.fetch_add(1);
  };
  static_assert(sizeof(full) == ThreadPool::Task::kBytes);
  auto owned = std::make_shared<int>(7);
  for (int i = 0; i < 200; ++i) {
    pool.Submit(full);
    pool.SubmitTo(1, [owned, &intact] {
      if (*owned == 7) {
        intact.fetch_add(1);
      }
    });
  }
  pool.Drain();
  EXPECT_EQ(intact.load(), 400);
  EXPECT_EQ(owned.use_count(), 1) << "finished records release captures";
}

// A callable larger than one record does not compile: Submit and SubmitTo
// static_assert on Task::kFits. Writing
//   pool.Submit([big] {});
// fails with "a pool task must fit one Task record"; the trait it checks
// is asserted here instead of breaking the build.
TEST(ThreadPoolTest, OversizedCaptureIsRejectedAtCompileTime) {
  std::array<char, ThreadPool::Task::kBytes + 1> big{};
  auto oversized = [big] { (void)big; };
  auto by_reference = [&big] { (void)big; };
  static_assert(!ThreadPool::Task::kFits<decltype(oversized)>);
  static_assert(ThreadPool::Task::kFits<decltype(by_reference)>);
  oversized();
  by_reference();
}

}  // namespace
}  // namespace spin
