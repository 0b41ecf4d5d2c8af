// Quickstart: the event model in one file.
//
//   - declare a typed event with an intrinsic handler (a procedure call),
//   - install extra handlers with their guards (native, closure and
//     micro-program), closures, and ordering,
//   - fold results, fall back to a default handler,
//   - uninstall and watch the system revert.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "src/core/dispatcher.h"

namespace {

spin::Module g_console_module("Console");

// The intrinsic handler: the procedure that shares the event's name. An
// event with only its intrinsic handler *is* a procedure call (Figure 1).
int64_t WriteLine(const char* text, int64_t level) {
  std::printf("  [console] (%lld) %s\n", static_cast<long long>(level), text);
  return 1;
}

// A syslog-style extension: only interested in important messages.
bool ImportantOnly(const char* text, int64_t level) {
  (void)text;
  return level >= 2;
}

int64_t Syslog(const char* text, int64_t level) {
  std::printf("  [syslog]  (%lld) %s\n", static_cast<long long>(level), text);
  return 1;
}

// A rate-limiter closure demonstrating per-installation state.
struct Budget {
  int64_t remaining;
};

// Guards travel with the handler: a closure guard over the same state...
bool WithinBudget(Budget* budget, const char* text, int64_t level) {
  (void)text;
  (void)level;
  return budget->remaining > 0;
}

// ...and a micro-program guard the dispatch stub can inline: level >= min.
spin::micro::Program LevelAtLeast(uint64_t min) {
  return std::move(spin::micro::ProgramBuilder(/*num_args=*/2,
                                               /*functional=*/true)
                       .LoadArg(0, 1)
                       .LoadImm(1, min)
                       .CmpLeU(2, 1, 0)
                       .Ret(2))
      .Build();
}

int64_t Count(Budget* budget, const char* text, int64_t level) {
  (void)text;
  (void)level;
  --budget->remaining;
  std::printf("  [counter] budget now %lld\n",
              static_cast<long long>(budget->remaining));
  return 1;
}

}  // namespace

int main() {
  spin::Dispatcher& dispatcher = spin::Dispatcher::Global();

  // Every procedure is implicitly an event; declaring one takes its name,
  // its authority (the defining module), and the intrinsic handler.
  spin::Event<int64_t(const char*, int64_t)> write_line(
      "Console.WriteLine", &g_console_module, &WriteLine);

  std::printf("1. intrinsic only — dispatched as a direct procedure call "
              "(direct_fn=%p):\n",
              write_line.direct_fn());
  write_line.Raise("hello, SPIN", 1);

  std::printf("2. install a guarded extension handler:\n");
  auto syslog = dispatcher.InstallHandler(write_line, &ImportantOnly,
                                          &Syslog,
                                          {.module = &g_console_module});
  write_line.Raise("routine message", 1);   // guard filters syslog out
  write_line.Raise("disk on fire", 3);      // both handlers run

  std::printf("3. closures carry per-installation state; guards of every "
              "form arrive in the same install:\n");
  Budget budget{5};
  auto counter = dispatcher.InstallHandler(
      write_line, &Count, &budget,
      {.order = {spin::OrderKind::kFirst},
       .guards = {spin::MakeGuard(&WithinBudget, &budget),
                  spin::MakeMicroGuard(LevelAtLeast(2))},
       .module = &g_console_module});
  write_line.Raise("uncounted message", 1);  // the micro guard declines
  write_line.Raise("counted message", 2);

  std::printf("4. results fold across handlers (sum policy):\n");
  dispatcher.SetResultPolicy(write_line, spin::ResultPolicy::kSum,
                             &g_console_module);
  int64_t fired = write_line.Raise("how many handlers ran?", 3);
  std::printf("  -> %lld handlers contributed\n",
              static_cast<long long>(fired));

  std::printf("5. uninstall restores the original binding:\n");
  dispatcher.Uninstall(syslog, &g_console_module);
  dispatcher.Uninstall(counter, &g_console_module);
  dispatcher.SetResultPolicy(write_line, spin::ResultPolicy::kLast,
                             &g_console_module);
  write_line.Raise("back to normal", 1);
  std::printf("  direct bypass restored: %s\n",
              write_line.direct_fn() != nullptr ? "yes" : "no");

  std::printf("6. events with no willing handler throw; defaults catch:\n");
  spin::Event<int64_t(const char*, int64_t)> audit("Console.Audit",
                                                   &g_console_module);
  try {
    audit.Raise("nobody listens", 1);
  } catch (const spin::NoHandlerError& e) {
    std::printf("  caught: %s\n", e.what());
  }
  dispatcher.InstallDefaultHandler(
      audit, +[](const char* text, int64_t) -> int64_t {
        std::printf("  [default] %s\n", text);
        return 0;
      },
      {.module = &g_console_module});
  audit.Raise("default handler speaking", 1);

  std::printf("quickstart done.\n");
  return 0;
}
