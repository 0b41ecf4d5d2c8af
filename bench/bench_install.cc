// Installation overhead (§3.1 "Installation overhead").
//
// "Each time a new handler is installed for an event, the dispatcher
// regenerates the data structures and code associated with that event.
// Consequently, the overhead to install n handlers is O(n^2) ... The time
// to install a single handler is about 150us, whereas to install 100
// handlers on the same event takes about 30 milliseconds."
//
// We reproduce the protocol exactly: every install triggers a full table
// regeneration and stub recompilation; the cumulative cost over n installs
// is quadratic. Absolute numbers reflect 2026 hardware.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/dispatcher.h"

namespace {

uint64_t g_state = 1;

double InstallNCumulativeUs(int n, int repeats, bool lazy = false) {
  spin::Module module("InstallBench");
  std::vector<double> samples;
  for (int r = 0; r < repeats; ++r) {
    spin::Dispatcher::Config config;
    config.lazy_compile = lazy;
    spin::Dispatcher dispatcher(config);
    spin::Event<void(int64_t)> event("Bench.Install", &module, nullptr,
                                     &dispatcher);
    uint64_t start = spin::NowNs();
    for (int i = 0; i < n; ++i) {
      auto binding = dispatcher.InstallMicroHandler(
          event, spin::micro::ReturnConst(1, 0, false), {.module = &module});
      dispatcher.AddMicroGuard(binding,
                               spin::micro::GuardGlobalEq(&g_state, 1));
    }
    samples.push_back(static_cast<double>(spin::NowNs() - start) / 1e3);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Steady-state cost of one install+uninstall pair with `population`
// handlers already resident (each operation regenerates the event's
// dispatch structures, so the pair's cost grows with the population).
// Eager compilation, so each operation also compiles the event's stub, as
// a change to a hot event does.
spin::bench::LatencyStats InstallPairStats(int population) {
  spin::Module module("InstallBench");
  spin::Dispatcher::Config config;
  config.lazy_compile = false;
  spin::Dispatcher dispatcher(config);
  spin::Event<void(int64_t)> event("Bench.Install", &module, nullptr,
                                   &dispatcher);
  std::vector<spin::BindingHandle> resident;
  for (int i = 0; i < population; ++i) {
    resident.push_back(dispatcher.InstallMicroHandler(
        event, spin::micro::ReturnConst(1, 0, false), {.module = &module}));
  }
  return spin::bench::NsPerOpStats(
      [&] {
        auto binding = dispatcher.InstallMicroHandler(
            event, spin::micro::ReturnConst(1, 0, false),
            {.module = &module});
        dispatcher.Uninstall(binding, &module);
      },
      /*samples=*/2000, /*batch=*/1);
}

}  // namespace

int main() {
  using spin::bench::Rule;
  std::printf("Installation overhead (paper: ~150us for 1 handler, ~30ms "
              "for 100; O(n^2) total)\n");
  Rule('=');
  std::printf("%-10s %-18s %-20s\n", "handlers", "cumulative (us)",
              "per-install avg (us)");
  Rule();
  double t1 = 0;
  double t100 = 0;
  for (int n : {1, 5, 10, 25, 50, 100}) {
    double us = InstallNCumulativeUs(n, 5);
    std::printf("%-10d %-18.1f %-20.2f\n", n, us, us / n);
    if (n == 1) {
      t1 = us;
    }
    if (n == 100) {
      t100 = us;
    }
  }
  Rule();
  std::printf("cumulative(100)/cumulative(1) = %.0fx  "
              "(a linear regeneration would give 100x; the paper's "
              "quadratic regime gives ~200x: 150us -> 30ms)\n",
              t100 / t1);
  std::printf("expected shape: per-install cost grows with installed "
              "handlers (quadratic cumulative)\n\n");

  // The "more incremental (and economical) approach to installation" the
  // paper anticipates (§3.1): defer code generation until the event is
  // raised enough to prove hot.
  std::printf("with incremental (lazy) installation — the paper's "
              "anticipated approach, implemented:\n");
  std::printf("%-10s %-20s %-20s\n", "handlers", "eager (us)", "lazy (us)");
  for (int n : {10, 50, 100}) {
    std::printf("%-10d %-20.1f %-20.1f\n", n, InstallNCumulativeUs(n, 5),
                InstallNCumulativeUs(n, 5, /*lazy=*/true));
  }
  std::printf("expected shape: lazy installs stay near-linear; the "
              "compilation cost is paid once at promotion\n");

  std::printf("\nlatency distributions (JSON, 1 row per case):\n");
  spin::bench::JsonRow("install", "install_pair_pop0", InstallPairStats(0));
  spin::bench::JsonRow("install", "install_pair_pop10", InstallPairStats(10));
  spin::bench::JsonRow("install", "install_pair_pop50", InstallPairStats(50));
  return 0;
}
