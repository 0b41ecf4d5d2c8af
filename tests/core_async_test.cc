// Asynchronous events and handlers (§2.6).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/dispatcher.h"
#include "src/core/ephemeral.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/rt/clock.h"

namespace spin {
namespace {

std::atomic<int> g_sync_calls{0};
std::atomic<int> g_async_calls{0};
std::atomic<std::thread::id> g_async_thread{};

void SyncHandler(int64_t, int64_t) { g_sync_calls.fetch_add(1); }
void AsyncHandler(int64_t, int64_t) {
  g_async_thread.store(std::this_thread::get_id());
  g_async_calls.fetch_add(1);
}
bool GuardFalse(int64_t, int64_t) { return false; }
int64_t DefaultZero(int64_t, int64_t) { return 0; }

class AsyncTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_sync_calls = 0;
    g_async_calls = 0;
  }
  Module module_{"AsyncTest"};
  Dispatcher dispatcher_;
};

TEST_F(AsyncTest, AsyncHandlerRunsDetached) {
  Event<void(int64_t, int64_t)> event("Test.Async", &module_, nullptr,
                                      &dispatcher_);
  dispatcher_.InstallHandler(event, &SyncHandler, {.module = &module_});
  dispatcher_.InstallHandler(event, &AsyncHandler,
                             {.async = true, .module = &module_});
  event.Raise(1, 2);
  EXPECT_EQ(g_sync_calls.load(), 1);
  dispatcher_.pool().Drain();
  EXPECT_EQ(g_async_calls.load(), 1);
  EXPECT_NE(g_async_thread.load(), std::this_thread::get_id())
      << "asynchronous handlers execute on a separate thread of control";
}

TEST_F(AsyncTest, AsyncHandlerGuardEvaluatedSynchronously) {
  Event<void(int64_t, int64_t)> event("Test.Async", &module_, nullptr,
                                      &dispatcher_);
  dispatcher_.InstallHandler(event, &SyncHandler, {.module = &module_});
  dispatcher_.InstallHandler(event, &GuardFalse, &AsyncHandler,
                             {.async = true, .module = &module_});
  event.Raise(1, 2);
  dispatcher_.pool().Drain();
  EXPECT_EQ(g_async_calls.load(), 0) << "failed guard blocks scheduling";
}

TEST_F(AsyncTest, AsyncEventDetachesWholeDispatch) {
  Event<void(int64_t, int64_t)> event("Test.AsyncEvent", &module_, nullptr,
                                      &dispatcher_);
  dispatcher_.InstallHandler(event, &AsyncHandler, {.module = &module_});
  dispatcher_.SetEventAsync(event, true, &module_);
  event.Raise(1, 2);  // returns immediately
  dispatcher_.pool().Drain();
  EXPECT_EQ(g_async_calls.load(), 1);
}

TEST_F(AsyncTest, RaiseAsyncExplicit) {
  Event<void(int64_t, int64_t)> event("Test.RaiseAsync", &module_, nullptr,
                                      &dispatcher_);
  dispatcher_.InstallHandler(event, &AsyncHandler, {.module = &module_});
  for (int i = 0; i < 10; ++i) {
    event.RaiseAsync(i, i);
  }
  dispatcher_.pool().Drain();
  EXPECT_EQ(g_async_calls.load(), 10);
}

TEST_F(AsyncTest, AsyncResultEventRequiresDefaultHandler) {
  // §2.6: "an attempt to raise an event asynchronously that returns a
  // result will raise an exception unless a default handler is installed."
  Event<int64_t(int64_t, int64_t)> event("Test.AsyncResult", &module_,
                                         nullptr, &dispatcher_);
  dispatcher_.InstallLambda(event, [](int64_t a, int64_t b) { return a + b; },
                            {.module = &module_});
  EXPECT_THROW(event.RaiseAsync(1, 2), AsyncError);
  dispatcher_.InstallDefaultHandler(event, &DefaultZero,
                                    {.module = &module_});
  EXPECT_NO_THROW(event.RaiseAsync(1, 2));
  dispatcher_.pool().Drain();
}

TEST_F(AsyncTest, ByRefEventCannotBeAsync) {
  // "it is illegal to define as asynchronous an event that takes an
  // argument by reference, or to install an asynchronous handler on such
  // an event."
  Event<void(int64_t, int64_t&)> event("Test.ByRef", &module_, nullptr,
                                       &dispatcher_);
  try {
    dispatcher_.SetEventAsync(event, true, &module_);
    FAIL() << "expected InstallError";
  } catch (const InstallError& e) {
    EXPECT_EQ(e.status(), InstallStatus::kAsyncByRef);
  }
  void (*handler)(int64_t, int64_t&) = +[](int64_t, int64_t&) {};
  try {
    dispatcher_.InstallHandler(event, handler,
                               {.async = true, .module = &module_});
    FAIL() << "expected InstallError";
  } catch (const InstallError& e) {
    EXPECT_EQ(e.status(), InstallStatus::kAsyncByRef);
  }
}

TEST_F(AsyncTest, AsyncNoHandlerIsAbsorbed) {
  Event<void(int64_t, int64_t)> event("Test.AsyncEmpty", &module_, nullptr,
                                      &dispatcher_);
  EXPECT_NO_THROW(event.RaiseAsync(1, 2));
  dispatcher_.pool().Drain();  // the detached NoHandlerError is swallowed
}

TEST_F(AsyncTest, SpawnModeAlsoWorks) {
  Dispatcher::Config config;
  config.async_mode = AsyncMode::kSpawn;  // the paper's thread-per-raise
  Dispatcher dispatcher(config);
  Event<void(int64_t, int64_t)> event("Test.Spawn", &module_, nullptr,
                                      &dispatcher);
  dispatcher.InstallHandler(event, &AsyncHandler,
                            {.async = true, .module = &module_});
  event.Raise(0, 0);
  dispatcher.pool().Drain();
  EXPECT_EQ(g_async_calls.load(), 1);
}

TEST_F(AsyncTest, ManyConcurrentAsyncRaises) {
  Event<void(int64_t, int64_t)> event("Test.Flood", &module_, nullptr,
                                      &dispatcher_);
  dispatcher_.InstallHandler(event, &AsyncHandler, {.module = &module_});
  constexpr int kRaises = 500;
  for (int i = 0; i < kRaises; ++i) {
    event.RaiseAsync(i, i);
  }
  dispatcher_.pool().Drain();
  EXPECT_EQ(g_async_calls.load(), kRaises);
}

// --- One pool task per async raise -------------------------------------------

// Where and in which order async bodies ran.
struct Trail {
  std::mutex mu;
  std::vector<int> order;
  std::set<std::thread::id> threads;
};

struct Body {
  Trail* trail = nullptr;
  int id = 0;
};

void RecordBody(Body* body, int64_t, int64_t) {
  std::lock_guard<std::mutex> lock(body->trail->mu);
  body->trail->order.push_back(body->id);
  body->trail->threads.insert(std::this_thread::get_id());
}

// A dispatcher on its own pool, so executed() counts only this test's tasks.
class AsyncTaskTest : public ::testing::Test {
 protected:
  static Dispatcher::Config OnPool(ThreadPool* pool) {
    Dispatcher::Config config;
    config.pool = pool;
    return config;
  }
  Module module_{"AsyncTaskTest"};
  ThreadPool pool_{2};
  Dispatcher dispatcher_{OnPool(&pool_)};
  Trail trail_;
};

TEST_F(AsyncTaskTest, TenHandlerRaiseIsOnePoolTaskInDispatchOrder) {
  Event<void(int64_t, int64_t)> event("Task.Ten", &module_, nullptr,
                                      &dispatcher_);
  std::vector<Body> bodies(10);
  for (int i = 1; i < 10; ++i) {
    bodies[i] = {&trail_, i};
    dispatcher_.InstallHandler(event, &RecordBody, &bodies[i],
                               {.async = true, .module = &module_});
  }
  // Installed last but ordered first: dispatch order, not install order,
  // decides the order of the bodies.
  bodies[0] = {&trail_, 0};
  InstallOptions first{.async = true, .module = &module_};
  first.order.kind = OrderKind::kFirst;
  dispatcher_.InstallHandler(event, &RecordBody, &bodies[0], first);

  const uint64_t before = pool_.executed();
  event.Raise(1, 2);
  pool_.Drain();
  EXPECT_EQ(pool_.executed() - before, 1u) << "one pool task per raise";
  EXPECT_EQ(trail_.order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  ASSERT_EQ(trail_.threads.size(), 1u) << "the bodies share one worker";
  EXPECT_NE(*trail_.threads.begin(), std::this_thread::get_id());
}

TEST_F(AsyncTaskTest, ListsLongerThan64RunAsOneTaskPerChunk) {
  Event<void(int64_t, int64_t)> event("Task.Chunks", &module_, nullptr,
                                      &dispatcher_);
  std::vector<Body> bodies(130);
  for (int i = 0; i < 130; ++i) {
    bodies[i] = {&trail_, i};
    auto binding = dispatcher_.InstallHandler(
        event, &RecordBody, &bodies[i], {.async = true, .module = &module_});
    if (i >= 64 && i < 128) {
      dispatcher_.AddGuard(event, binding, &GuardFalse);
    }
  }
  const uint64_t before = pool_.executed();
  event.Raise(1, 2);
  pool_.Drain();
  // Chunks [0, 64) and [128, 130) have admitted handlers; [64, 128) has
  // none and submits nothing.
  EXPECT_EQ(pool_.executed() - before, 2u);
  std::vector<int> order = trail_.order;
  std::sort(order.begin(), order.end());
  std::vector<int> expected;
  for (int i = 0; i < 64; ++i) {
    expected.push_back(i);
  }
  expected.push_back(128);
  expected.push_back(129);
  EXPECT_EQ(order, expected);
}

std::atomic<int> g_default_calls{0};
void CountDefault(int64_t, int64_t) { g_default_calls.fetch_add(1); }

TEST_F(AsyncTaskTest, RejectedBodiesNeverRunAndDefaultRunsWhenAllReject) {
  Event<void(int64_t, int64_t)> event("Task.Guarded", &module_, nullptr,
                                      &dispatcher_);
  std::vector<Body> bodies(4);
  std::vector<BindingHandle> bindings;
  for (int i = 0; i < 4; ++i) {
    bodies[i] = {&trail_, i};
    bindings.push_back(dispatcher_.InstallHandler(
        event, &RecordBody, &bodies[i], {.async = true, .module = &module_}));
  }
  dispatcher_.AddGuard(event, bindings[1], &GuardFalse);
  dispatcher_.AddGuard(event, bindings[3], &GuardFalse);
  dispatcher_.InstallDefaultHandler(event, &CountDefault,
                                    {.module = &module_});
  g_default_calls = 0;

  event.Raise(1, 2);
  pool_.Drain();
  EXPECT_EQ(trail_.order, (std::vector<int>{0, 2}));
  EXPECT_EQ(g_default_calls.load(), 0)
      << "admitted async handlers count as fired";

  dispatcher_.AddGuard(event, bindings[0], &GuardFalse);
  dispatcher_.AddGuard(event, bindings[2], &GuardFalse);
  const uint64_t before = pool_.executed();
  event.Raise(1, 2);
  pool_.Drain();
  EXPECT_EQ(trail_.order, (std::vector<int>{0, 2}));
  EXPECT_EQ(pool_.executed(), before) << "nothing admitted, nothing queued";
  EXPECT_EQ(g_default_calls.load(), 1);
}

TEST_F(AsyncTaskTest, AllRejectedWithoutDefaultThrowsNoHandler) {
  Event<void(int64_t, int64_t)> event("Task.NoHandler", &module_, nullptr,
                                      &dispatcher_);
  Body body{&trail_, 0};
  auto binding = dispatcher_.InstallHandler(
      event, &RecordBody, &body, {.async = true, .module = &module_});
  dispatcher_.AddGuard(event, binding, &GuardFalse);
  EXPECT_THROW(event.Raise(1, 2), NoHandlerError);
  pool_.Drain();
  EXPECT_TRUE(trail_.order.empty());
}

// Spins until its EPHEMERAL deadline terminates it, then reports how long
// it ran.
struct Runaway {
  std::atomic<uint64_t> ran_ns{0};
};

void RunawayBody(Runaway* runaway, int64_t, int64_t) {
  struct Stamp {
    Runaway* runaway;
    uint64_t start;
    ~Stamp() { runaway->ran_ns = NowNs() - start; }
  } stamp{runaway, NowNs()};
  while (true) {
    CheckTermination();
  }
}

void ThrowingBody(Body*, int64_t, int64_t) {
  throw AsyncError("a detached body failed");
}

TEST_F(AsyncTaskTest, OverrunAndDispatchErrorDoNotStopLaterBodies) {
  Event<void(int64_t, int64_t)> event("Task.Faults", &module_, nullptr,
                                      &dispatcher_);
  constexpr uint64_t kBudgetNs = 2000000;
  dispatcher_.RequireEphemeralHandlers(event, kBudgetNs, &module_);
  const InstallOptions opts{
      .async = true, .ephemeral = true, .may_throw = true, .module = &module_};
  Runaway first;
  Runaway second;
  Body thrower{&trail_, -1};
  Body last{&trail_, 7};
  dispatcher_.InstallHandler(event, &RunawayBody, &first, opts);
  dispatcher_.InstallHandler(event, &ThrowingBody, &thrower, opts);
  dispatcher_.InstallHandler(event, &RunawayBody, &second, opts);
  dispatcher_.InstallHandler(event, &RecordBody, &last, opts);

  event.Raise(1, 2);
  pool_.Drain();
  EXPECT_EQ(trail_.order, (std::vector<int>{7}))
      << "the body after a fault and two overruns still ran, once";
  // Each EPHEMERAL body runs against its own deadline: a shared one would
  // have terminated the second runaway at its first check.
  EXPECT_GE(first.ran_ns.load(), kBudgetNs / 2);
  EXPECT_GE(second.ran_ns.load(), kBudgetNs / 2);
}

TEST_F(AsyncTaskTest, UninstallWhileQueuedKeepsBindingsAlive) {
  ThreadPool pool(1);
  Dispatcher dispatcher(OnPool(&pool));
  std::vector<Body> bodies(3);
  {
    Event<void(int64_t, int64_t)> event("Task.Uninstall", &module_, nullptr,
                                        &dispatcher);
    std::vector<BindingHandle> bindings;
    for (int i = 0; i < 3; ++i) {
      bodies[i] = {&trail_, i};
      bindings.push_back(dispatcher.InstallHandler(
          event, &RecordBody, &bodies[i],
          {.async = true, .module = &module_}));
    }
    // Park the only worker so the raises' tasks stay queued.
    std::atomic<bool> release{false};
    pool.Submit([&release] {
      while (!release.load()) {
        std::this_thread::yield();
      }
    });
    while (pool.queue_depth() != 0) {
      std::this_thread::yield();  // the worker has taken the blocker
    }
    for (int r = 0; r < 4; ++r) {
      event.Raise(r, r);
    }
    EXPECT_EQ(pool.queue_depth(), 4u);
    // Uninstall everything and reclaim the retired tables: the queued tasks
    // are now the only owners of the bindings.
    for (const BindingHandle& binding : bindings) {
      dispatcher.Uninstall(binding, &module_);
    }
    bindings.clear();
    dispatcher.SynchronizeAllShards();
    release = true;
    pool.Drain();
  }
  EXPECT_EQ(trail_.order.size(), 12u) << "every queued body still ran";
  for (size_t i = 0; i < trail_.order.size(); ++i) {
    EXPECT_EQ(trail_.order[i], static_cast<int>(i % 3)) << i;
  }
}

void QuietBody(Body*, int64_t, int64_t) {}

TEST_F(AsyncTaskTest, TracedRaiseLinksOneHandoffPerHandler) {
  obs::FlightRecorder::Global().Reset();
  Event<void(int64_t, int64_t)> event("Task.Traced", &module_, nullptr,
                                      &dispatcher_);
  std::vector<Body> bodies(3);
  for (int i = 0; i < 3; ++i) {
    dispatcher_.InstallHandler(event, &QuietBody, &bodies[i],
                               {.async = true, .module = &module_});
  }
  const uint64_t before = pool_.executed();
  dispatcher_.EnableTracing(true);
  event.Raise(1, 2);
  pool_.Drain();
  dispatcher_.EnableTracing(false);
  EXPECT_EQ(pool_.executed() - before, 1u);

  uint64_t raise_span = 0;
  std::multiset<uint64_t> enqueued;
  std::multiset<uint64_t> executed;
  int queue_waits = 0;
  for (const obs::MergedRecord& m : obs::FlightRecorder::Global().Snapshot()) {
    if (std::string(m.rec.name) != "Task.Traced") {
      continue;
    }
    switch (m.rec.kind) {
      case obs::TraceKind::kRaiseBegin:
        raise_span = m.rec.span;
        break;
      case obs::TraceKind::kAsyncEnqueue:
        enqueued.insert(m.rec.span);
        EXPECT_EQ(m.rec.parent, raise_span);
        break;
      case obs::TraceKind::kAsyncExecute:
        executed.insert(m.rec.span);
        break;
      case obs::TraceKind::kPhase:
        if (obs::PhaseOfArg(m.rec.arg) == obs::Phase::kQueueWait) {
          ++queue_waits;
        }
        break;
      default:
        break;
    }
  }
  EXPECT_NE(raise_span, 0u);
  EXPECT_EQ(enqueued.size(), 3u);
  EXPECT_EQ(std::set<uint64_t>(enqueued.begin(), enqueued.end()).size(), 3u)
      << "every handoff has its own span";
  EXPECT_EQ(enqueued, executed) << "each execute end adopts its enqueue span";
  EXPECT_EQ(queue_waits, 3);
  obs::FlightRecorder::Global().Reset();
}

}  // namespace
}  // namespace spin
