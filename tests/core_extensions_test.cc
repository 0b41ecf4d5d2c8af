// Tests for the implemented future-work features and the remaining §2.5
// machinery: guard decision trees, incremental (lazy) installation, dynamic
// guard removal, and authorizer-applied ordering constraints.
#include <cstring>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "src/core/dispatcher.h"
#include "tests/eager_config.h"

namespace spin {
namespace {

struct FakePacket {
  uint8_t data[64] = {};
};

// --- Guard decision tree -----------------------------------------------------

class TreeTest : public ::testing::Test {
 protected:
  // Eager compilation: every table generation gets its stub, so a case
  // that raises a few times still runs the decision tree.
  static Dispatcher::Config TreeConfig() {
    Dispatcher::Config config;
    config.guard_tree = true;
    config.lazy_compile = false;
    return config;
  }

  // Installs `n` port-style bindings (field at offset 4, width 2) with
  // values 100, 200, ..., each counting into g_counts[i].
  template <typename EventT>
  void InstallPortBindings(Dispatcher& dispatcher, EventT& event, int n) {
    for (int i = 0; i < n; ++i) {
      auto binding = dispatcher.InstallMicroHandler(
          event, micro::IncrementGlobal(&g_counts[i], 1),
          {.module = &module_});
      dispatcher.AddMicroGuard(
          binding, micro::GuardArgFieldEq(1, 0, 4, 2, ~0ull,
                                          static_cast<uint64_t>(100 * (i + 1))));
    }
  }

  uint64_t g_counts[64] = {};
  Module module_{"Tree"};
};

TEST_F(TreeTest, TreeDispatchMatchesLinearSemantics) {
  for (bool tree : {false, true}) {
    Dispatcher::Config config;
    config.guard_tree = tree;
    config.lazy_compile = false;
    Dispatcher dispatcher(config);
    Event<void(FakePacket*)> event("Tree.Packet", &module_, nullptr,
                                   &dispatcher);
    std::memset(g_counts, 0, sizeof(g_counts));
    InstallPortBindings(dispatcher, event, 16);
    if (tree && codegen::CodegenAvailable()) {
      EXPECT_GT(dispatcher.stats().tree_tables, 0u)
          << "16 same-field guards must trigger the tree";
    }
    FakePacket packet;
    for (int port = 50; port <= 1700; port += 50) {
      packet.data[4] = static_cast<uint8_t>(port & 0xff);
      packet.data[5] = static_cast<uint8_t>(port >> 8);
      if (port % 100 == 0 && port / 100 <= 16) {
        event.Raise(&packet);
      } else {
        EXPECT_THROW(event.Raise(&packet), NoHandlerError)
            << "tree=" << tree << " port=" << port;
      }
    }
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(g_counts[i], 1u) << "tree=" << tree << " binding " << i;
    }
  }
}

TEST_F(TreeTest, RemainingGuardsStillEvaluatedAfterTreeMatch) {
  Dispatcher dispatcher(TreeConfig());
  Event<void(FakePacket*)> event("Tree.Guarded", &module_, nullptr,
                                 &dispatcher);
  std::memset(g_counts, 0, sizeof(g_counts));
  static uint64_t gate = 0;
  gate = 0;
  for (int i = 0; i < 8; ++i) {
    auto binding = dispatcher.InstallMicroHandler(
        event, micro::IncrementGlobal(&g_counts[i], 1),
        {.module = &module_});
    dispatcher.AddMicroGuard(
        binding, micro::GuardArgFieldEq(1, 0, 4, 2, ~0ull,
                                        static_cast<uint64_t>(100 * (i + 1))));
    if (i == 2) {
      // Binding 2 carries an extra gate guard.
      dispatcher.AddMicroGuard(binding, micro::GuardGlobalEq(&gate, 1));
    }
  }
  FakePacket packet;
  packet.data[4] = 0x2c;  // 300 little-endian
  packet.data[5] = 0x01;
  EXPECT_THROW(event.Raise(&packet), NoHandlerError)
      << "the gate guard must still reject after the tree match";
  gate = 1;
  event.Raise(&packet);
  EXPECT_EQ(g_counts[2], 1u);
}

TEST_F(TreeTest, MixedFieldsFallBackToLinear) {
  Dispatcher dispatcher(TreeConfig());
  Event<void(FakePacket*)> event("Tree.Mixed", &module_, nullptr,
                                 &dispatcher);
  for (int i = 0; i < 8; ++i) {
    auto binding = dispatcher.InstallMicroHandler(
        event, micro::ReturnConst(1, 0, false), {.module = &module_});
    // Alternate between two different offsets: no common key.
    dispatcher.AddMicroGuard(
        binding, micro::GuardArgFieldEq(1, 0, i % 2 == 0 ? 4 : 8, 2, ~0ull,
                                        static_cast<uint64_t>(i + 1)));
  }
  EXPECT_EQ(dispatcher.stats().tree_tables, 0u);
}

TEST_F(TreeTest, DuplicateValuesFallBackToLinear) {
  Dispatcher dispatcher(TreeConfig());
  Event<void(FakePacket*)> event("Tree.Dup", &module_, nullptr, &dispatcher);
  std::memset(g_counts, 0, sizeof(g_counts));
  for (int i = 0; i < 6; ++i) {
    auto binding = dispatcher.InstallMicroHandler(
        event, micro::IncrementGlobal(&g_counts[i], 1),
        {.module = &module_});
    dispatcher.AddMicroGuard(
        binding, micro::GuardArgFieldEq(1, 0, 4, 2, ~0ull, 500));
  }
  EXPECT_EQ(dispatcher.stats().tree_tables, 0u);
  // All six share the value: all six must fire (linear semantics).
  FakePacket packet;
  packet.data[4] = 0xf4;  // 500 little-endian
  packet.data[5] = 0x01;
  event.Raise(&packet);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(g_counts[i], 1u);
  }
}

TEST_F(TreeTest, RandomizedTreeVsInterpreterDifferential) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    int n = 4 + static_cast<int>(rng() % 29);
    std::vector<uint16_t> values;
    for (int i = 0; i < n; ++i) {
      values.push_back(static_cast<uint16_t>(rng() % 60000 + 1));
    }
    uint64_t raise_seed = rng();
    // Run the same installs+raises under tree-JIT and interpreter.
    uint64_t counts[2][40] = {};
    for (int engine = 0; engine < 2; ++engine) {
      Dispatcher::Config config;
      config.guard_tree = engine == 0;
      config.enable_jit = engine == 0;
      config.lazy_compile = false;
      Dispatcher dispatcher(config);
      Event<void(FakePacket*)> event("Tree.Fuzz", &module_, nullptr,
                                     &dispatcher);
      for (int i = 0; i < n; ++i) {
        auto binding = dispatcher.InstallMicroHandler(
            event,
            micro::IncrementGlobal(&counts[engine][i], 1),
            {.module = &module_});
        dispatcher.AddMicroGuard(
            binding,
            micro::GuardArgFieldEq(1, 0, 4, 2, ~0ull, values[i]));
      }
      std::mt19937_64 raise_rng(raise_seed);  // identical per engine
      for (int raise = 0; raise < 200; ++raise) {
        uint16_t port =
            raise % 3 == 0
                ? values[raise_rng() % values.size()]
                : static_cast<uint16_t>(raise_rng() % 60000 + 1);
        FakePacket packet;
        packet.data[4] = static_cast<uint8_t>(port & 0xff);
        packet.data[5] = static_cast<uint8_t>(port >> 8);
        try {
          event.Raise(&packet);
        } catch (const NoHandlerError&) {
        }
      }
    }
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(counts[0][i], counts[1][i]) << "trial " << trial
                                            << " binding " << i;
    }
  }
}

// --- Incremental (lazy) installation ----------------------------------------

void NoopHandler(int64_t) {}
bool TrueGuard(int64_t) { return true; }

TEST(LazyCompileTest, PromotesAfterThreshold) {
  if (!codegen::CodegenAvailable()) {
    GTEST_SKIP();
  }
  Module module("Lazy");
  Dispatcher::Config config;
  config.lazy_compile = true;
  Dispatcher dispatcher(config);
  Event<void(int64_t)> event("Lazy.Event", &module, nullptr, &dispatcher);
  constexpr int kThreshold = static_cast<int>(Dispatcher::kLazyPromoteRaises);
  dispatcher.InstallHandler(event, &TrueGuard, &NoopHandler,
                            {.module = &module});
  dispatcher.InstallHandler(event, &NoopHandler, {.module = &module});

  EXPECT_EQ(dispatcher.stats().stub_compiles, 0u)
      << "lazy mode must not compile at install time";
  for (int i = 0; i < kThreshold - 1; ++i) {
    event.Raise(i);
  }
  EXPECT_EQ(dispatcher.stats().lazy_promotions, 0u);
  event.Raise(kThreshold - 1);  // crosses the threshold
  EXPECT_EQ(dispatcher.stats().lazy_promotions, 1u);
  EXPECT_GT(dispatcher.stats().stub_compiles, 0u);
  event.Raise(kThreshold);  // dispatches through the compiled stub now

  // Further installs on a hot event compile eagerly again.
  uint64_t compiles = dispatcher.stats().stub_compiles;
  dispatcher.InstallHandler(event, &NoopHandler, {.module = &module});
  EXPECT_GT(dispatcher.stats().stub_compiles, compiles);
}

TEST(LazyCompileTest, ColdEventsNeverPayCompilation) {
  Module module("Lazy");
  Dispatcher::Config config;
  config.lazy_compile = true;
  Dispatcher dispatcher(config);
  Event<void(int64_t)> event("Lazy.Cold", &module, nullptr, &dispatcher);
  for (int i = 0; i < 20; ++i) {
    dispatcher.InstallHandler(event, &NoopHandler, {.module = &module});
  }
  EXPECT_EQ(dispatcher.stats().stub_compiles, 0u);
  event.Raise(1);  // works fine interpreted
}

int64_t g_lazy_fires = 0;
int64_t CountedAdd(int64_t a, int64_t b) {
  ++g_lazy_fires;
  return a + b;
}
bool EvenFirst(int64_t a, int64_t) { return a % 2 == 0; }

TEST(LazyCompileTest, DefaultDispatcherCompilesOnceTheEventIsHot) {
  if (!codegen::CodegenAvailable()) {
    GTEST_SKIP() << "promotion compiles a stub";
  }
  Module module("LazyDefault");
  Dispatcher dispatcher;
  Event<int64_t(int64_t, int64_t)> event("LazyDefault.Event", &module,
                                         nullptr, &dispatcher);
  dispatcher.SetResultPolicy(event, ResultPolicy::kSum);
  dispatcher.InstallHandler(event, &EvenFirst, &CountedAdd,
                            {.module = &module});
  dispatcher.InstallHandler(event, &CountedAdd, {.module = &module});
  EXPECT_EQ(dispatcher.stats().stub_compiles, 0u)
      << "the default dispatcher must not compile at install time";

  // Both handlers fire for an even first argument, only the unguarded one
  // for an odd one; the interpreter and the stub must agree on both.
  auto raise_and_check = [&](int64_t a) {
    g_lazy_fires = 0;
    const int64_t fires = a % 2 == 0 ? 2 : 1;
    EXPECT_EQ(event.Raise(a, 1), fires * (a + 1)) << "raise " << a;
    EXPECT_EQ(g_lazy_fires, fires) << "raise " << a;
  };
  constexpr int64_t kThreshold = Dispatcher::kLazyPromoteRaises;
  for (int64_t a = 1; a < kThreshold; ++a) {
    raise_and_check(a);
  }
  EXPECT_NE(dispatcher.Describe(event).find(
                "dispatch: interpreted (lazy, compile pending)"),
            std::string::npos)
      << dispatcher.Describe(event);
  EXPECT_EQ(dispatcher.stats().lazy_promotions, 0u);
  EXPECT_EQ(dispatcher.stats().stub_compiles, 0u);

  raise_and_check(kThreshold);  // promotes
  EXPECT_EQ(dispatcher.stats().lazy_promotions, 1u);
  EXPECT_EQ(dispatcher.stats().stub_compiles, 1u);
  EXPECT_NE(dispatcher.Describe(event).find("dispatch: generated stub"),
            std::string::npos)
      << dispatcher.Describe(event);
  for (int64_t a = 1; a < kThreshold; ++a) {
    raise_and_check(a);
  }

  // A change to the hot event compiles eagerly.
  dispatcher.InstallHandler(event, &CountedAdd, {.module = &module});
  EXPECT_EQ(dispatcher.stats().stub_compiles, 2u);
  EXPECT_NE(dispatcher.Describe(event).find("dispatch: generated stub"),
            std::string::npos)
      << dispatcher.Describe(event);
  g_lazy_fires = 0;
  EXPECT_EQ(event.Raise(2, 1), 9);
  EXPECT_EQ(g_lazy_fires, 3);
  EXPECT_EQ(dispatcher.stats().lazy_promotions, 1u);
}

int g_never_lazy_calls = 0;
void NeverLazyHandler(int64_t) { ++g_never_lazy_calls; }
uint64_t NeverLazyInvoker(void*, void*, uint64_t*) {
  ++g_never_lazy_calls;
  return 0;
}

TEST(LazyCompileTest, TablesNoStubCanServeAreNeverLazy) {
  // An erased handler, a may_throw handler and an EPHEMERAL one all keep
  // their event interpreted. Such a table is not lazy: its raises count
  // towards no promotion, and none of them rebuilds it.
  if (!codegen::CodegenAvailable()) {
    GTEST_SKIP() << "without a JIT no table is lazy";
  }
  Module module("Unstubbed");
  Dispatcher::Config config;
  config.lazy_compile = true;
  Dispatcher dispatcher(config);
  Event<void(int64_t)> erased("Unstubbed.Erased", &module, nullptr,
                              &dispatcher);
  Event<void(int64_t)> may_throw("Unstubbed.MayThrow", &module, nullptr,
                                 &dispatcher);
  Event<void(int64_t)> ephemeral("Unstubbed.Ephemeral", &module, nullptr,
                                 &dispatcher);
  dispatcher.InstallErasedHandler(erased, nullptr, &NeverLazyInvoker,
                                  {.module = &module});
  // Guarded, so that the plain call of the intrinsic bypass cannot take it.
  dispatcher.InstallHandler(may_throw, &TrueGuard, &NeverLazyHandler,
                            {.may_throw = true, .module = &module});
  dispatcher.InstallHandler(ephemeral, &NeverLazyHandler,
                            {.ephemeral = true, .module = &module});

  g_never_lazy_calls = 0;
  const Dispatcher::Stats before = dispatcher.stats();
  for (Event<void(int64_t)>* event : {&erased, &may_throw, &ephemeral}) {
    for (int i = 0; i < 200; ++i) {
      event->Raise(i);
    }
    std::string description = dispatcher.Describe(*event);
    EXPECT_NE(description.find("dispatch: interpreted"), std::string::npos)
        << description;
    EXPECT_EQ(description.find("lazy"), std::string::npos) << description;
  }
  const Dispatcher::Stats after = dispatcher.stats();
  EXPECT_EQ(g_never_lazy_calls, 600);
  EXPECT_EQ(after.lazy_promotions, 0u);
  EXPECT_EQ(after.rebuilds, before.rebuilds);
  EXPECT_EQ(after.stub_compiles, 0u);
}

// --- Dynamic guard removal ----------------------------------------------------

int g_guarded_calls = 0;
void CountingHandler(int64_t) { ++g_guarded_calls; }
bool FalseGuard(int64_t) { return false; }

TEST(GuardRemovalTest, RemoveRestoresDelivery) {
  Module module("Remove");
  Dispatcher dispatcher(EagerConfig());
  Event<void(int64_t)> event("Remove.Event", &module, nullptr, &dispatcher);
  g_guarded_calls = 0;
  auto binding = dispatcher.InstallHandler(event, &FalseGuard,
                                           &CountingHandler,
                                           {.module = &module});
  EXPECT_THROW(event.Raise(1), NoHandlerError);
  EXPECT_EQ(dispatcher.GuardCount(binding), 1u);
  dispatcher.RemoveGuard(binding, 0, &module);
  EXPECT_EQ(dispatcher.GuardCount(binding), 0u);
  event.Raise(1);
  EXPECT_EQ(g_guarded_calls, 1);
}

struct DenyRemovalState {
  int imposed_guard_ops = 0;
};

bool DenyImposedRemoval(AuthRequest& request, void* ctx) {
  auto* state = static_cast<DenyRemovalState*>(ctx);
  if (request.op == AuthOp::kImposeGuard) {
    ++state->imposed_guard_ops;
    return false;
  }
  return true;
}

bool AlwaysFalseImposed(void* /*closure*/, int64_t) { return false; }

TEST(GuardRemovalTest, RemovingImposedGuardRequiresAuthorization) {
  Module authority("Authority");
  Module extension("Extension");
  Dispatcher dispatcher;
  Event<void(int64_t)> event("Remove.Imposed", &authority, nullptr,
                             &dispatcher);
  g_guarded_calls = 0;
  auto binding = dispatcher.InstallHandler(event, &CountingHandler,
                                           {.module = &extension});
  dispatcher.ImposeGuard(event, binding,
                         static_cast<bool (*)(void*, int64_t)>(
                             &AlwaysFalseImposed),
                         static_cast<void*>(nullptr));
  DenyRemovalState state;
  dispatcher.InstallAuthorizer(event, &DenyImposedRemoval, &state,
                               authority);
  try {
    dispatcher.RemoveGuard(binding, 0, &extension);
    FAIL() << "expected InstallError";
  } catch (const InstallError& e) {
    EXPECT_EQ(e.status(), InstallStatus::kNotAuthorized);
  }
  EXPECT_EQ(state.imposed_guard_ops, 1);
  EXPECT_EQ(dispatcher.GuardCount(binding), 1u);
}

// --- Authorizer-applied ordering (§2.5) ---------------------------------------

std::vector<int> g_order_log;
void OrderFirst(int64_t) { g_order_log.push_back(1); }
void OrderSecond(int64_t) { g_order_log.push_back(2); }

bool ForceLastAuthorizer(AuthRequest& request, void*) {
  if (request.op == AuthOp::kInstall) {
    // "apply some execution property, such as ordering constraints, onto
    // the handler so that previously installed handlers continue to
    // operate as expected."
    request.SetOrder(Order{OrderKind::kLast, nullptr});
  }
  return true;
}

TEST(AuthOrderTest, AuthorizerForcesOrdering) {
  Module authority("Authority");
  Module extension("Extension");
  Dispatcher dispatcher(EagerConfig());
  Event<void(int64_t)> event("Order.Event", &authority, nullptr,
                             &dispatcher);
  dispatcher.InstallAuthorizer(event, &ForceLastAuthorizer, nullptr,
                               authority);
  g_order_log.clear();
  // The extension *asks* for First; the authorizer overrides to Last.
  auto second = dispatcher.InstallHandler(
      event, &OrderSecond, {.order = {OrderKind::kFirst},
                            .module = &extension});
  auto first = dispatcher.InstallHandler(
      event, &OrderFirst, {.order = {OrderKind::kFirst},
                           .module = &extension});
  (void)second;
  (void)first;
  event.Raise(0);
  EXPECT_EQ(g_order_log, (std::vector<int>{2, 1}))
      << "install order preserved: both forced to Last";
}

}  // namespace
}  // namespace spin
