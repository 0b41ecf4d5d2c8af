// Concurrency: raises proceed lock-free while handlers are installed and
// removed; the atomic table swap plus EBR must never expose a torn or freed
// table (§3: "handler lists are updated atomically with respect to event
// dispatch").
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/dispatcher.h"

namespace spin {
namespace {

std::atomic<uint64_t> g_sum{0};

int64_t CountingHandler(int64_t a, int64_t) {
  g_sum.fetch_add(static_cast<uint64_t>(a), std::memory_order_relaxed);
  return a;
}
int64_t AnchorHandler(int64_t a, int64_t) { return a; }
bool TrueGuard(int64_t, int64_t) { return true; }

TEST(ConcurrencyTest, RaisesDuringInstallUninstallChurn) {
  // With allow_direct off, the anchor-only generations dispatch through the
  // table too, so every raise reads a table that installs keep replacing.
  for (bool allow_direct : {true, false}) {
    SCOPED_TRACE(allow_direct ? "allow_direct" : "table path only");
    Module module("Churn");
    Dispatcher::Config config;
    config.allow_direct = allow_direct;
    Dispatcher dispatcher(config);
    Event<int64_t(int64_t, int64_t)> event("Churn.Event", &module, nullptr,
                                           &dispatcher);
    // An anchor handler guarantees raises never see an empty table.
    dispatcher.InstallHandler(event, &AnchorHandler, {.module = &module});

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> raises{0};
    g_sum = 0;

    std::vector<std::thread> raisers;
    for (int t = 0; t < 4; ++t) {
      raisers.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          int64_t r = event.Raise(1, 2);
          ASSERT_EQ(r, 1);
          raises.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    std::thread churner([&] {
      for (int i = 0; i < 2000; ++i) {
        auto binding = dispatcher.InstallHandler(event, &TrueGuard,
                                                 &CountingHandler,
                                                 {.module = &module});
        dispatcher.Uninstall(binding, &module);
      }
    });

    churner.join();
    stop.store(true);
    for (std::thread& t : raisers) {
      t.join();
    }
    EXPECT_GT(raises.load(), 0u);
    dispatcher.epoch().Synchronize();
  }
}

TEST(ConcurrencyTest, GuardImpositionDuringRaises) {
  Module module("GuardChurn");
  Dispatcher dispatcher;
  Event<int64_t(int64_t, int64_t)> event("Churn.Guarded", &module, nullptr,
                                         &dispatcher);
  dispatcher.InstallHandler(event, &AnchorHandler, {.module = &module});
  auto target = dispatcher.InstallHandler(event, &CountingHandler,
                                          {.module = &module});

  std::atomic<bool> stop{false};
  std::vector<std::thread> raisers;
  for (int t = 0; t < 4; ++t) {
    raisers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)event.Raise(1, 2);
      }
    });
  }
  for (int i = 0; i < 500; ++i) {
    dispatcher.AddGuard(event, target, &TrueGuard);
    // Rebuild a fresh guard list each round (dropping to one guard).
    dispatcher.AddMicroGuard(target, micro::ReturnConst(2, 1, true));
  }
  stop.store(true);
  for (std::thread& t : raisers) {
    t.join();
  }
  dispatcher.epoch().Synchronize();
}

TEST(ConcurrencyTest, GuardChurnFreesNoListInUse) {
  // An interpreted raise walks the guard lists of the table it loaded. A
  // replaced list must therefore live as long as the last table that
  // references it; under ASan, freeing it any earlier is a
  // heap-use-after-free in EvalGuards.
  Module module("GuardListChurn");
  Dispatcher::Config config;
  config.enable_jit = false;
  Dispatcher dispatcher(config);
  Event<int64_t(int64_t, int64_t)> event("GuardListChurn.Event", &module,
                                         nullptr, &dispatcher);
  dispatcher.InstallHandler(event, &AnchorHandler, {.module = &module});
  auto target = dispatcher.InstallHandler(event, &CountingHandler,
                                          {.module = &module});

  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> raisers;
  for (int t = 0; t < 4; ++t) {
    raisers.emplace_back([&] {
      started.fetch_add(1);
      while (!stop.load(std::memory_order_relaxed)) {
        if (event.Raise(1, 2) != 1) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  while (started.load() < 4) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 2000; ++i) {
    dispatcher.AddGuard(event, target, &TrueGuard);
    dispatcher.AddMicroGuard(target, micro::ReturnConst(2, 1, true));
    dispatcher.RemoveGuard(target, 0, &module);
    dispatcher.RemoveGuard(target, 0, &module);
  }
  stop.store(true);
  for (std::thread& t : raisers) {
    t.join();
  }
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(dispatcher.GuardCount(target), 0u);
  dispatcher.epoch().Synchronize();
}

std::atomic<bool> g_blocker_entered{false};
std::atomic<bool> g_blocker_release{false};
std::atomic<int> g_later_fired{0};

int64_t BlockingHandler(int64_t a, int64_t) {
  g_blocker_entered.store(true);
  while (!g_blocker_release.load()) {
    std::this_thread::yield();
  }
  return a;
}

int64_t LaterHandler(int64_t a, int64_t) {
  g_later_fired.fetch_add(1);
  return a;
}

bool FalseGuard(int64_t, int64_t) { return false; }

TEST(ConcurrencyTest, InFlightRaiseKeepsItsGenerationsGuards) {
  // A raise dispatches one table generation from start to end. While its
  // first handler blocks, two guard changes publish newer generations in
  // which the later handler rejects; the raise in flight must still admit
  // that handler with the guard it had when the raise began, whether the
  // handler runs inline or its guards are checked before the pool runs it.
  for (bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "sync");
    g_blocker_entered = false;
    g_blocker_release = false;
    g_later_fired = 0;
    Module module("InFlight");
    ThreadPool pool(2);
    Dispatcher::Config config;
    config.pool = &pool;
    Dispatcher dispatcher(config);
    Event<int64_t(int64_t, int64_t)> event("InFlight.Event", &module,
                                           nullptr, &dispatcher);
    dispatcher.InstallHandler(event, &BlockingHandler, {.module = &module});
    auto later = dispatcher.InstallHandler(
        event, &TrueGuard, &LaterHandler, {.async = async, .module = &module});

    std::thread raiser([&] { (void)event.Raise(1, 2); });
    while (!g_blocker_entered.load()) {
      std::this_thread::yield();
    }
    dispatcher.AddGuard(event, later, &FalseGuard);
    dispatcher.RemoveGuard(later, 0, &module);
    EXPECT_EQ(dispatcher.GuardCount(later), 1u);  // only FalseGuard is left
    g_blocker_release = true;
    raiser.join();
    pool.Drain();
    EXPECT_EQ(g_later_fired.load(), 1)
        << "the raise in flight must use its own generation's guards";

    // A raise that starts now reads the newest generation and rejects.
    (void)event.Raise(1, 2);
    pool.Drain();
    EXPECT_EQ(g_later_fired.load(), 1);
  }
}

struct GuardGate {
  int64_t min;
};

bool GateGuard(GuardGate* gate, int64_t a, int64_t) { return a >= gate->min; }

TEST(ConcurrencyTest, ConcurrentGuardChangesOnOneBindingKeepEveryGuard) {
  // One thread adds guards while another imposes them on the same binding.
  // Each change must start from the list the other one published: a lost
  // update would drop a guard, possibly an authority-imposed one.
  constexpr int kRounds = 150;
  for (bool jit : {true, false}) {
    SCOPED_TRACE(jit ? "jit" : "nojit");
    Module module("GuardRace");
    Dispatcher::Config config;
    config.enable_jit = jit;
    Dispatcher dispatcher(config);
    Event<int64_t(int64_t, int64_t)> event("GuardRace.Event", &module,
                                           nullptr, &dispatcher);
    auto target = dispatcher.InstallHandler(event, &AnchorHandler,
                                            {.module = &module});
    GuardGate gate{0};
    std::thread adder([&] {
      for (int i = 0; i < kRounds; ++i) {
        if (i % 2 == 0) {
          dispatcher.AddGuard(event, target, &TrueGuard);
        } else {
          dispatcher.AddMicroGuard(target, micro::ReturnConst(2, 1, true));
        }
      }
    });
    std::thread imposer([&] {
      for (int i = 0; i < kRounds; ++i) {
        if (i % 2 == 0) {
          dispatcher.ImposeGuard(event, target, &GateGuard, &gate);
        } else {
          dispatcher.ImposeMicroGuard(target,
                                      micro::ReturnConst(2, 1, true));
        }
      }
    });
    adder.join();
    imposer.join();

    ASSERT_EQ(dispatcher.GuardCount(target), 2u * kRounds);
    // Both threads are joined, so the install-side list is quiescent.
    const std::vector<GuardClause>& guards = *target->guards();
    for (size_t g = 0; g < guards.size(); ++g) {
      // Imposed guards go to the front, added ones to the back.
      EXPECT_EQ(guards[g].imposed, g < static_cast<size_t>(kRounds)) << g;
    }
    EXPECT_EQ(event.Raise(5, 0), 5);
    gate.min = 6;  // every imposed GateGuard now rejects
    EXPECT_THROW(event.Raise(5, 0), NoHandlerError);
  }
}

std::atomic<int> g_rejected_fired{0};

int64_t RejectedHandler(int64_t a, int64_t) {
  g_rejected_fired.fetch_add(1, std::memory_order_relaxed);
  return a;
}

TEST(ConcurrencyTest, RaiserNeverSeesAGuardedInstallWithoutItsGuard) {
  // One thread raises continuously while another installs and uninstalls
  // a handler whose guard rejects every raise. The guard is part of the
  // install, so no table generation holds the handler without it, and the
  // handler never runs. (Installed and then guarded in a second step, the
  // handler runs in the generation between the two.)
  constexpr int kRounds = 2000;
  for (bool micro_guard : {false, true}) {
    SCOPED_TRACE(micro_guard ? "micro guard" : "closure guard");
    g_rejected_fired = 0;
    Module module("GuardedInstall");
    Dispatcher dispatcher;
    Event<int64_t(int64_t, int64_t)> event("GuardedInstall.Event", &module,
                                           nullptr, &dispatcher);
    // Always fires, so the raise never throws NoHandlerError.
    dispatcher.InstallHandler(event, &AnchorHandler, {.module = &module});
    GuardGate closed{2};  // every raise passes a == 1

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> raises{0};
    std::thread raiser([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)event.Raise(1, 2);
        raises.fetch_add(1, std::memory_order_relaxed);
      }
    });
    while (raises.load() == 0) {
      std::this_thread::yield();
    }
    for (int i = 0; i < kRounds; ++i) {
      auto binding = dispatcher.InstallHandler(
          event, &RejectedHandler,
          {.guards = {micro_guard
                          ? MakeMicroGuard(micro::ReturnConst(2, 0, true))
                          : MakeGuard(&GateGuard, &closed)},
           .module = &module});
      dispatcher.Uninstall(binding, &module);
    }
    stop.store(true);
    raiser.join();
    EXPECT_GT(raises.load(), 0u);
    EXPECT_EQ(g_rejected_fired.load(), 0)
        << "a raise ran the handler without its guard";
    dispatcher.epoch().Synchronize();
  }
}

TEST(ConcurrencyTest, ConcurrentRaisesOnManyEvents) {
  Module module("Many");
  Dispatcher dispatcher;
  constexpr int kEvents = 16;
  std::vector<std::unique_ptr<Event<int64_t(int64_t, int64_t)>>> events;
  for (int i = 0; i < kEvents; ++i) {
    events.push_back(std::make_unique<Event<int64_t(int64_t, int64_t)>>(
        "Many.E" + std::to_string(i), &module, &AnchorHandler, &dispatcher));
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20000; ++i) {
        int64_t r = events[(t + i) % kEvents]->Raise(i, 0);
        if (r != i) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyTest, RaiseInsideHandlerNests) {
  // Handlers may raise events themselves; epoch guards must nest.
  Module module("Nest");
  Dispatcher dispatcher;
  Event<int64_t(int64_t, int64_t)> inner("Nest.Inner", &module,
                                         &AnchorHandler, &dispatcher);
  Event<int64_t(int64_t, int64_t)> outer("Nest.Outer", &module, nullptr,
                                         &dispatcher);
  static Event<int64_t(int64_t, int64_t)>* inner_ptr = nullptr;
  inner_ptr = &inner;
  dispatcher.InstallLambda(
      outer, [](int64_t a, int64_t b) { return inner_ptr->Raise(a, b) + 1; },
      {.module = &module});
  EXPECT_EQ(outer.Raise(41, 0), 42);
}

TEST(ConcurrencyTest, LazyPromotionRacesRaises) {
  // lazy_compile defers stub generation until an event proves hot; the
  // promotion rebuild republishes the table while other raisers keep
  // reading the interpreted one. Exactly one promotion may win, and no
  // raise may misdispatch across the interpreted->compiled flip.
  if (!codegen::CodegenAvailable()) {
    GTEST_SKIP() << "lazy promotion needs the JIT";
  }
  Module module("LazyRace");
  Dispatcher::Config config;
  config.allow_direct = false;
  config.lazy_compile = true;
  Dispatcher dispatcher(config);
  Event<int64_t(int64_t, int64_t)> event("LazyRace.Event", &module,
                                         nullptr, &dispatcher);
  dispatcher.InstallHandler(event, &AnchorHandler, {.module = &module});

  std::vector<std::thread> raisers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    raisers.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        if (event.Raise(i, 0) != i) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : raisers) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  // 20000 raises against a threshold of kLazyPromoteRaises (64): promotion
  // certainly fired, and the first-promotion-wins rule kept it to one.
  EXPECT_EQ(dispatcher.stats().lazy_promotions, 1u);
  dispatcher.epoch().Synchronize();
}

}  // namespace
}  // namespace spin
