// Tests for epoch-based reclamation: the mechanism behind the paper's
// atomic handler-list replacement (§3).
#include "src/rt/epoch.h"

#include <atomic>
#include <memory>
#include <mutex>
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
  EpochDomain domain;
  std::atomic<int> live{0};
  domain.Retire(new Tracked(live), DeleteTracked);
  EXPECT_EQ(live.load(), 1);
  domain.Synchronize();
  EXPECT_EQ(live.load(), 0);
}

TEST(EpochTest, GuardBlocksReclamation) {
  EpochDomain domain;
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
  EpochDomain domain;
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
  EpochDomain domain;
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
  EpochDomain domain;
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

TEST(EpochTest, GuardsNestAcrossDistinctDomains) {
  // Guards of *different* domains may nest on one thread (code holding one
  // domain's guard enters another's). The outer domain must stay pinned
  // while inner guards on other domains come and go.
  EpochDomain outer_domain;
  EpochDomain inner_domain;
  std::atomic<bool> freed{false};
  {
    EpochDomain::Guard outer(outer_domain);
    // Churn the inner domain: enter/exit and advance its epoch repeatedly.
    for (int i = 0; i < 100; ++i) {
      EpochDomain::Guard inner(inner_domain);
    }
    inner_domain.Synchronize();
    // Retire into the outer domain while we still hold its guard: the
    // object must NOT be freed, however much the inner domain churned.
    outer_domain.Retire(&freed, +[](void* p) {
      static_cast<std::atomic<bool>*>(p)->store(true);
    });
    outer_domain.Flush();
    EXPECT_FALSE(freed.load());
  }
  outer_domain.Synchronize();
  EXPECT_TRUE(freed.load());
}

TEST(EpochTest, ManyDomainsPerThreadSurviveCacheEviction) {
  // More simultaneous domains than the thread-local cache holds: records
  // get evicted and re-acquired, and guard exits must still balance (a
  // stuck record would make Synchronize spin forever).
  constexpr int kDomains = 24;
  std::vector<std::unique_ptr<EpochDomain>> domains;
  for (int i = 0; i < kDomains; ++i) {
    domains.push_back(std::make_unique<EpochDomain>());
  }
  for (int round = 0; round < 3; ++round) {
    for (auto& d : domains) {
      EpochDomain::Guard guard(*d);
    }
  }
  // Deep cross-domain nesting, deeper than the cache.
  {
    std::vector<std::unique_ptr<EpochDomain::Guard>> guards;
    for (auto& d : domains) {
      guards.push_back(std::make_unique<EpochDomain::Guard>(*d));
    }
  }
  for (auto& d : domains) {
    d->Synchronize();  // all records idle again: must not spin
  }
}

TEST(EpochTest, DomainChurnWithThreadsDoesNotCrossContaminate) {
  // Domains are created and destroyed while a long-lived thread keeps
  // entering guards on fresh ones. Destroyed domains' records must never
  // produce a false cache hit for a new domain. The
  // mutex sequences the reader's guard against domain destruction; what is
  // under test is the reader's thread-local record cache surviving 200
  // generations of dead domains.
  std::atomic<bool> stop{false};
  std::mutex mu;
  EpochDomain* shared = nullptr;  // guarded by mu
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(mu);
      if (shared != nullptr) {
        EpochDomain::Guard guard(*shared);
      }
    }
  });
  for (int i = 0; i < 200; ++i) {
    auto domain = std::make_unique<EpochDomain>();
    {
      std::lock_guard<std::mutex> lock(mu);
      shared = domain.get();
    }
    {
      EpochDomain::Guard guard(*domain);
    }
    domain->Synchronize();
    {
      std::lock_guard<std::mutex> lock(mu);
      shared = nullptr;
    }
    // Destroyed here: its records go to the recycle pool while the
    // reader's cache still holds entries keyed by the dead domain's id.
  }
  stop.store(true, std::memory_order_release);
  reader.join();
}

}  // namespace
}  // namespace spin
