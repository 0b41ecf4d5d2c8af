// Concurrency: raises proceed lock-free while handlers are installed and
// removed; the atomic table swap plus EBR must never expose a torn or freed
// table (§3: "handler lists are updated atomically with respect to event
// dispatch").
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/dispatcher.h"
#include "src/core/shard.h"

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
  Module module("Churn");
  Dispatcher dispatcher;
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

TEST(ConcurrencyTest, GuardChurnAcrossShardsFreesNoListInUse) {
  // An interpreted raise on shard k walks its binding's guard list while
  // holding only shard k's epoch guard. A replaced list may therefore be
  // freed only after every shard's domain has passed a grace period; under
  // ASan, freeing it after shard 0's alone is a heap-use-after-free in
  // EvalGuards.
  Module module("ShardGuardChurn");
  Dispatcher::Config config;
  config.shards = 4;
  config.enable_jit = false;
  Dispatcher dispatcher(config);
  Event<int64_t(int64_t, int64_t)> event("ShardGuardChurn.Event", &module,
                                         nullptr, &dispatcher);
  dispatcher.InstallHandler(event, &AnchorHandler, {.module = &module});
  auto target = dispatcher.InstallHandler(event, &CountingHandler,
                                          {.module = &module});

  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> raisers;
  for (uint64_t strand = 0; strand < 4; ++strand) {
    raisers.emplace_back([&, strand] {
      // Strands 0-3 hash to shards other than 0.
      RaiseSourceScope source(MakeRaiseSource(SourceKind::kStrand, strand));
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
  uint64_t off_shard0 = 0;
  for (uint32_t s = 1; s < dispatcher.shard_count(); ++s) {
    off_shard0 += dispatcher.shard_raises(s);
  }
  EXPECT_GT(off_shard0, 0u) << "the raisers must exercise shards 1..3";
  dispatcher.SynchronizeAllShards();
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
    {
      EpochDomain::Guard epoch_guard(dispatcher.epoch());
      const std::vector<GuardClause>& guards = target->guards();
      for (size_t g = 0; g < guards.size(); ++g) {
        // Imposed guards go to the front, added ones to the back.
        EXPECT_EQ(guards[g].imposed, g < static_cast<size_t>(kRounds)) << g;
      }
    }
    EXPECT_EQ(event.Raise(5, 0), 5);
    gate.min = 6;  // every imposed GateGuard now rejects
    EXPECT_THROW(event.Raise(5, 0), NoHandlerError);
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

TEST(ConcurrencyTest, InstallWhileRaisingAcrossShards) {
  // The sharded variant of the churn test: raisers pinned to different
  // shards read different table replicas while installs republish all of
  // them. No raise may ever see a torn replica, a missing anchor, or a
  // freed table on any shard.
  Module module("ShardChurn");
  Dispatcher::Config config;
  config.shards = 4;
  config.allow_direct = false;  // keep raises on the replica path
  Dispatcher dispatcher(config);
  Event<int64_t(int64_t, int64_t)> event("ShardChurn.Event", &module,
                                         nullptr, &dispatcher);
  dispatcher.InstallHandler(event, &AnchorHandler, {.module = &module});

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> raises{0};
  std::vector<std::thread> raisers;
  for (int t = 0; t < 4; ++t) {
    raisers.emplace_back([&, t] {
      // Distinct strand identities: the raisers spread across replicas
      // (with 4 shards and splitmix64 these ids cover several shards).
      RaiseSourceScope source(
          MakeRaiseSource(SourceKind::kStrand, static_cast<uint64_t>(t)));
      while (!stop.load(std::memory_order_relaxed)) {
        int64_t r = event.Raise(1, 2);
        ASSERT_EQ(r, 1);
        raises.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread churner([&] {
    for (int i = 0; i < 1000; ++i) {
      auto binding = dispatcher.InstallHandler(
          event, &TrueGuard, &CountingHandler, {.module = &module});
      dispatcher.Uninstall(binding, &module);
    }
  });
  churner.join();
  stop.store(true);
  for (std::thread& t : raisers) {
    t.join();
  }
  EXPECT_GT(raises.load(), 0u);
  // Every raise was routed somewhere, and only through real shards.
  uint64_t routed = 0;
  for (uint32_t s = 0; s < dispatcher.shard_count(); ++s) {
    routed += dispatcher.shard_raises(s);
  }
  EXPECT_EQ(routed, raises.load());
  dispatcher.SynchronizeAllShards();
}

TEST(ConcurrencyTest, LazyPromotionRacesRaisesOnOtherShards) {
  // lazy_compile defers stub generation until an event proves hot; the
  // promotion rebuild republishes every shard's replica while raises on
  // *other* shards keep reading theirs. Exactly one promotion may win, and
  // no raise may misdispatch across the interpreted->compiled flip.
  if (!codegen::CodegenAvailable()) {
    GTEST_SKIP() << "lazy promotion needs the JIT";
  }
  Module module("ShardLazy");
  Dispatcher::Config config;
  config.shards = 4;
  config.allow_direct = false;
  config.lazy_compile = true;
  config.lazy_promote_raises = 64;
  Dispatcher dispatcher(config);
  Event<int64_t(int64_t, int64_t)> event("ShardLazy.Event", &module,
                                         nullptr, &dispatcher);
  dispatcher.InstallHandler(event, &AnchorHandler, {.module = &module});

  std::vector<std::thread> raisers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    raisers.emplace_back([&, t] {
      RaiseSourceScope source(
          MakeRaiseSource(SourceKind::kStrand, static_cast<uint64_t>(t)));
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
  // 20000 raises against a threshold of 64: promotion certainly fired, and
  // the first-promotion-wins rule kept it to one.
  EXPECT_EQ(dispatcher.stats().lazy_promotions, 1u);
  dispatcher.SynchronizeAllShards();
}

}  // namespace
}  // namespace spin
