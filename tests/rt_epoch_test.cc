// Tests for epoch-based reclamation: the mechanism behind the paper's
// atomic handler-list replacement (§3).
#include "src/rt/epoch.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace spin {
namespace {

struct Tracked {
  explicit Tracked(std::atomic<int>& counter) : counter(counter) {
    counter.fetch_add(1);
  }
  ~Tracked() { counter.fetch_sub(1); }
  std::atomic<int>& counter;
};

void DeleteTracked(void* p) { delete static_cast<Tracked*>(p); }

TEST(EpochTest, RetireEventuallyFrees) {
  EpochDomain& domain = EpochDomain::Global();
  std::atomic<int> live{0};
  domain.Retire(new Tracked(live), DeleteTracked);
  EXPECT_EQ(live.load(), 1);
  domain.Synchronize();
  EXPECT_EQ(live.load(), 0);
}

TEST(EpochTest, GuardBlocksReclamation) {
  EpochDomain& domain = EpochDomain::Global();
  std::atomic<int> live{0};
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};

  std::thread reader([&] {
    EpochDomain::Guard guard(domain);
    entered.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  while (!entered.load()) {
    std::this_thread::yield();
  }

  domain.Retire(new Tracked(live), DeleteTracked);
  // The reader pins its entry epoch; Flush cannot advance past it twice.
  for (int i = 0; i < 10; ++i) {
    domain.Flush();
  }
  EXPECT_EQ(live.load(), 1) << "object freed while a guard was active";

  release.store(true);
  reader.join();
  domain.Synchronize();
  EXPECT_EQ(live.load(), 0);
}

TEST(EpochTest, NestedGuards) {
  EpochDomain& domain = EpochDomain::Global();
  std::atomic<int> live{0};
  {
    EpochDomain::Guard outer(domain);
    {
      EpochDomain::Guard inner(domain);
    }
    // Still inside the outer guard: retire from another thread and verify
    // the object survives (inner guard exit must not unpin the epoch).
    std::thread writer(
        [&] { domain.Retire(new Tracked(live), DeleteTracked); });
    writer.join();
    std::thread flusher([&] {
      for (int i = 0; i < 10; ++i) {
        domain.Flush();
      }
    });
    flusher.join();
    EXPECT_EQ(live.load(), 1);
  }
  domain.Synchronize();
  EXPECT_EQ(live.load(), 0);
}

TEST(EpochTest, ManyRetiresTriggerAutomaticFlush) {
  EpochDomain& domain = EpochDomain::Global();
  std::atomic<int> live{0};
  for (int i = 0; i < 1000; ++i) {
    domain.Retire(new Tracked(live), DeleteTracked);
  }
  // The automatic flush threshold must keep the backlog bounded when no
  // readers are active.
  EXPECT_LT(domain.retired_count(), 200u);
  domain.Synchronize();
  EXPECT_EQ(live.load(), 0);
}

// Stress: concurrent readers dereference a shared pointer that writers
// continuously replace and retire. Any use-after-free crashes or corrupts
// the sentinel.
TEST(EpochTest, ConcurrentReadersAndWriters) {
  EpochDomain& domain = EpochDomain::Global();
  struct Node {
    uint64_t sentinel;
  };
  std::atomic<Node*> current{new Node{0xabcdef12345678ull}};
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};

  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        EpochDomain::Guard guard(domain);
        Node* node = current.load(std::memory_order_acquire);
        if (node->sentinel != 0xabcdef12345678ull) {
          bad.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 20000; ++i) {
      Node* fresh = new Node{0xabcdef12345678ull};
      Node* old = current.exchange(fresh, std::memory_order_acq_rel);
      // Poison, then retire: a reader holding `old` across reclamation
      // would observe the poisoned sentinel or crash.
      domain.Retire(old, +[](void* p) {
        static_cast<Node*>(p)->sentinel = 0xdeadull;
        delete static_cast<Node*>(p);
      });
    }
  });
  writer.join();
  stop.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);
  domain.Synchronize();
  delete current.load();
}

TEST(EpochTest, ExitedThreadsRecordsAreReused) {
  // A thread's record is freed at its exit and taken by the next thread
  // that enters a guard, so the list a writer walks to advance the epoch
  // holds as many records as there were threads alive at once, not one per
  // thread ever started (AsyncMode::kSpawn starts one per async raise).
  EpochDomain& domain = EpochDomain::Global();
  constexpr int kConcurrent = 4;
  std::atomic<int> inside{0};
  std::vector<std::thread> together;
  for (int i = 0; i < kConcurrent; ++i) {
    together.emplace_back([&] {
      EpochDomain::Guard guard(domain);
      inside.fetch_add(1);
      while (inside.load() < kConcurrent) {
        std::this_thread::yield();
      }
    });
  }
  for (std::thread& t : together) {
    t.join();
  }
  // Threads alive at once hold distinct records.
  const size_t peak = domain.record_count();
  EXPECT_GE(peak, static_cast<size_t>(kConcurrent));

  for (int i = 0; i < 500; ++i) {
    std::thread([&] { EpochDomain::Guard guard(domain); }).join();
  }
  EXPECT_EQ(domain.record_count(), peak);

  // The reused records are idle: reclamation is not held up.
  std::atomic<int> live{0};
  domain.Retire(new Tracked(live), DeleteTracked);
  domain.Synchronize();
  EXPECT_EQ(live.load(), 0);
}

}  // namespace
}  // namespace spin
