// Handler exceptions and dispatcher introspection.
//
// C++ exceptions cannot unwind through runtime-generated frames, so a
// handler that may throw must declare it ({.may_throw = true}), pinning its
// event to the interpreter where propagation is well-defined.
#include <stdexcept>

#include <gtest/gtest.h>

#include "src/core/dispatcher.h"
#include "tests/eager_config.h"

namespace spin {
namespace {

struct AppError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void ThrowingHandler(int64_t v) {
  if (v < 0) {
    throw AppError("negative input");
  }
}
void QuietHandler(int64_t) {}
bool TrueGuard(int64_t) { return true; }

TEST(ExceptionTest, MayThrowHandlerPropagatesToRaiser) {
  Module module("Throwing");
  Dispatcher dispatcher;
  Event<void(int64_t)> event("Throw.Event", &module, nullptr, &dispatcher);
  dispatcher.InstallHandler(event, &TrueGuard, &ThrowingHandler,
                            {.may_throw = true, .module = &module});
  dispatcher.InstallHandler(event, &QuietHandler, {.module = &module});
  EXPECT_NO_THROW(event.Raise(1));
  EXPECT_THROW(event.Raise(-1), AppError);
}

TEST(ExceptionTest, MayThrowForcesInterpretedDispatch) {
  if (!codegen::CodegenAvailable()) {
    GTEST_SKIP();
  }
  Module module("Throwing");
  // Eager: the two plain installs compile stubs, the may_throw one not.
  Dispatcher dispatcher(EagerConfig());
  Event<void(int64_t)> event("Throw.Event", &module, nullptr, &dispatcher);
  dispatcher.InstallHandler(event, &QuietHandler, {.module = &module});
  dispatcher.InstallHandler(event, &QuietHandler, {.module = &module});
  uint64_t before = dispatcher.stats().stub_compiles;
  dispatcher.InstallHandler(event, &ThrowingHandler,
                            {.may_throw = true, .module = &module});
  // The rebuild after the may_throw install must not have compiled a stub.
  std::string description = dispatcher.Describe(event);
  EXPECT_NE(description.find("interpreted"), std::string::npos)
      << description;
  EXPECT_EQ(dispatcher.stats().stub_compiles, before);
}

TEST(ExceptionTest, ExceptionLeavesDispatcherConsistent) {
  Module module("Throwing");
  Dispatcher dispatcher;
  Event<void(int64_t)> event("Throw.Event", &module, nullptr, &dispatcher);
  dispatcher.InstallHandler(event, &ThrowingHandler,
                            {.may_throw = true, .module = &module});
  for (int i = 0; i < 10; ++i) {
    EXPECT_THROW(event.Raise(-1), AppError);
  }
  // The epoch guard unwound correctly each time: reconfiguration (which
  // synchronizes with raises) must not deadlock or crash.
  dispatcher.InstallHandler(event, &QuietHandler, {.module = &module});
  EXPECT_NO_THROW(event.Raise(1));
  dispatcher.epoch().Synchronize();
}

// --- Describe --------------------------------------------------------------

TEST(DescribeTest, ReportsDispatchKinds) {
  Module module("Desc");
  // Eager: the guarded install compiles a stub.
  Dispatcher dispatcher(EagerConfig());
  Event<void(int64_t)> event("Desc.Event", &module, &QuietHandler,
                             &dispatcher);
  EXPECT_NE(dispatcher.Describe(event).find("direct call"),
            std::string::npos);

  dispatcher.InstallHandler(event, &TrueGuard, &QuietHandler,
                            {.module = &module});
  std::string description = dispatcher.Describe(event);
  if (codegen::CodegenAvailable()) {
    EXPECT_NE(description.find("generated stub"), std::string::npos);
    EXPECT_NE(description.find("generated code:"), std::string::npos);
  }
  EXPECT_NE(description.find("handlers: 2 sync"), std::string::npos);
  EXPECT_NE(description.find("guards: 1"), std::string::npos);
  EXPECT_NE(description.find("Desc.Event"), std::string::npos);
}

TEST(DescribeTest, ReportsLazyPending) {
  if (!codegen::CodegenAvailable()) {
    GTEST_SKIP();
  }
  Module module("Desc");
  Dispatcher::Config config;
  config.lazy_compile = true;
  Dispatcher dispatcher(config);
  Event<void(int64_t)> event("Desc.Lazy", &module, nullptr, &dispatcher);
  dispatcher.InstallHandler(event, &TrueGuard, &QuietHandler,
                            {.module = &module});
  EXPECT_NE(dispatcher.Describe(event).find("lazy"), std::string::npos);
}

}  // namespace
}  // namespace spin
