// Table 1: "The overhead of event dispatching."
//
// Paper setup: "Guards compare a global variable to a constant and return
// true, and handlers return without performing any work." Rows: number of
// arguments {0, 1, 5}; columns: plain procedure call (the intrinsic case)
// and {1, 5, 10, 50} handlers, each measured with guards/handlers executing
// out of line ("no inline") and inlined into the generated dispatch
// routine ("inline").
//
// Paper numbers (133 MHz Alpha, in us):
//   args  proc-call   1:no-inl 1:inl   5:no-inl 5:inl  10:no-inl 10:inl  50:no-inl 50:inl
//   0     0.10        0.37     0.23    1.18     0.41   2.15      0.63    11.69     2.48
//   1     0.13        0.39     0.24    1.25     0.45   2.32      0.72    11.51     2.87
//   5     0.14        0.97     0.42    1.61     1.55   2.88      1.32    14.45     5.65
//
// The shape to reproduce: dispatch cost grows linearly with handler count;
// inlining wins by 2-5x; the intrinsic case is an ordinary procedure call.
// Beyond Table 1, this binary measures how dispatch scales with raiser
// threads: a threads x handlers matrix of aggregate raise throughput, sync
// and async. `bench_table1_dispatch [--matrix-only] [out.json]` writes the
// matrix as BENCH_dispatch.json for trend tracking in CI.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/dispatcher.h"

namespace spin {
namespace {

uint64_t g_state = 1;       // the global the guards compare
uint64_t g_sink = 0;

void Intrinsic0() { benchmark::DoNotOptimize(g_sink += 1); }
void Intrinsic1(int64_t a) { benchmark::DoNotOptimize(g_sink += a); }
void Intrinsic5(int64_t a, int64_t b, int64_t c, int64_t d, int64_t e) {
  benchmark::DoNotOptimize(g_sink += a + b + c + d + e);
}

template <typename EventT>
void InstallBenchBindings(Dispatcher& dispatcher, EventT& event,
                          const Module& module, int handlers,
                          int event_args) {
  for (int i = 0; i < handlers; ++i) {
    auto binding = dispatcher.InstallMicroHandler(
        event, micro::ReturnConst(event_args, 0, /*functional=*/false),
        {.module = &module});
    dispatcher.AddMicroGuard(binding, micro::GuardGlobalEq(&g_state, 1));
  }
}

struct Cell {
  double no_inline_us;
  double inline_us;
};

template <typename Sig>
struct Runner;

template <typename... A>
struct Runner<void(A...)> {
  static double MeasureRaise(Event<void(A...)>& event) {
    [[maybe_unused]] int64_t v = 1;
    return bench::NsPerOp([&] { event.Raise(static_cast<A>(v)...); },
                          /*iters=*/100000) /
           1e3;
  }

  static bench::LatencyStats MeasureRaiseStats(Event<void(A...)>& event) {
    [[maybe_unused]] int64_t v = 1;
    return bench::NsPerOpStats([&] { event.Raise(static_cast<A>(v)...); });
  }
};

template <typename Sig>
Cell MeasureHandlers(const Module& module, int handlers, int event_args) {
  Cell cell{};
  for (bool inline_micro : {false, true}) {
    Dispatcher::Config config;
    config.inline_micro = inline_micro;
    Dispatcher dispatcher(config);
    Event<Sig> event("Bench.Event", &module, nullptr, &dispatcher);
    InstallBenchBindings(dispatcher, event, module, handlers, event_args);
    double us = Runner<Sig>::MeasureRaise(event);
    (inline_micro ? cell.inline_us : cell.no_inline_us) = us;
  }
  return cell;
}

template <typename Sig, typename IntrinsicFn>
double MeasureIntrinsic(const Module& module, IntrinsicFn intrinsic) {
  Dispatcher dispatcher;
  Event<Sig> event("Bench.Intrinsic", &module, intrinsic, &dispatcher);
  return Runner<Sig>::MeasureRaise(event);
}

template <typename Sig>
bench::LatencyStats HandlerStats(const Module& module, int handlers,
                                 int event_args, bool inline_micro) {
  Dispatcher::Config config;
  config.inline_micro = inline_micro;
  Dispatcher dispatcher(config);
  Event<Sig> event("Bench.Event", &module, nullptr, &dispatcher);
  InstallBenchBindings(dispatcher, event, module, handlers, event_args);
  return Runner<Sig>::MeasureRaiseStats(event);
}

template <typename Sig, typename IntrinsicFn>
bench::LatencyStats IntrinsicStats(const Module& module,
                                   IntrinsicFn intrinsic) {
  Dispatcher dispatcher;
  Event<Sig> event("Bench.Intrinsic", &module, intrinsic, &dispatcher);
  return Runner<Sig>::MeasureRaiseStats(event);
}

// --- Scaling matrix ------------------------------------------------------
//
// threads x handlers aggregate throughput, sync and async. Sync raisers all
// read the event's one table; async raisers each submit to their own home
// queue of a 16-worker pool.

constexpr size_t kMatrixPoolWorkers = 16;

void MatrixSink(int64_t a) { benchmark::DoNotOptimize(g_sink += a); }

struct MatrixRow {
  const char* mode;  // "sync" | "async"
  int threads;
  int handlers;
  double raises_per_sec;
  double ns_per_raise;
};

// Runs `threads` raisers against a fresh dispatcher; returns aggregate
// throughput over the timed region.
template <typename RaiseBody>
MatrixRow MeasureMatrixCell(const char* mode, int threads, int handlers,
                            size_t iters, Event<void(int64_t)>& event,
                            RaiseBody body) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> raisers;
  raisers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    raisers.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (size_t i = 0; i < iters; ++i) {
        event.Raise(static_cast<int64_t>(i));
      }
    });
  }
  while (ready.load() < threads) {
    std::this_thread::yield();
  }
  auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : raisers) {
    t.join();
  }
  body();  // mode-specific settle step (e.g. drain the pool)
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  double total = static_cast<double>(iters) * threads;
  return {mode, threads, handlers, total / secs, secs * 1e9 / total};
}

MatrixRow SyncMatrixCell(const Module& module, int threads, int handlers) {
  Dispatcher::Config config;
  config.allow_direct = false;  // measure the table path, not the bypass
  Dispatcher dispatcher(config);
  Event<void(int64_t)> event("Bench.Matrix", &module, nullptr, &dispatcher);
  for (int i = 0; i < handlers; ++i) {
    dispatcher.InstallMicroHandler(event,
                                   micro::ReturnConst(1, 0, /*functional=*/false),
                                   {.module = &module});
  }
  size_t iters = std::max<size_t>(20000, 200000 / static_cast<size_t>(handlers));
  return MeasureMatrixCell("sync", threads, handlers, iters, event, [] {});
}

MatrixRow AsyncMatrixCell(const Module& module, int threads, int handlers) {
  // A dedicated pool: each raiser submits to its own home queue, and idle
  // workers steal from the others.
  ThreadPool pool(kMatrixPoolWorkers);
  Dispatcher::Config config;
  config.allow_direct = false;
  config.pool = &pool;
  Dispatcher dispatcher(config);
  Event<void(int64_t)> event("Bench.Matrix", &module, nullptr, &dispatcher);
  for (int i = 0; i < handlers; ++i) {
    dispatcher.InstallHandler(event, &MatrixSink,
                              {.async = true, .module = &module});
  }
  size_t iters = std::max<size_t>(200, 10000 / static_cast<size_t>(handlers));
  return MeasureMatrixCell("async", threads, handlers, iters, event,
                           [&] { pool.Drain(); });
}

void WriteMatrixJson(const char* path, const std::vector<MatrixRow>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"dispatch_matrix\",\n"
               "  \"hardware_threads\": %u,\n  \"rows\": [\n",
               std::thread::hardware_concurrency());
  for (size_t i = 0; i < rows.size(); ++i) {
    const MatrixRow& r = rows[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"threads\": %d, "
                 "\"handlers\": %d, \"raises_per_sec\": %.0f, "
                 "\"ns_per_raise\": %.1f}%s\n",
                 r.mode, r.threads, r.handlers, r.raises_per_sec,
                 r.ns_per_raise, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

void RunScalingMatrix(const Module& module, const char* out_path) {
  const int kThreadCounts[] = {1, 2, 4, 8, 16};
  const int kHandlerCounts[] = {1, 10, 100};
  std::vector<MatrixRow> rows;

  std::printf("\nScaling matrix (aggregate Mraises/s; %u hw threads)\n",
              std::thread::hardware_concurrency());
  bench::Rule('=');
  std::printf("%-6s %-9s | %-12s %-12s\n", "thr", "handlers", "sync",
              "async");
  bench::Rule();
  for (int threads : kThreadCounts) {
    for (int handlers : kHandlerCounts) {
      MatrixRow sync = SyncMatrixCell(module, threads, handlers);
      MatrixRow async = AsyncMatrixCell(module, threads, handlers);
      rows.push_back(sync);
      rows.push_back(async);
      std::printf("%-6d %-9d | %-12.3f %-12.3f\n", threads, handlers,
                  sync.raises_per_sec / 1e6, async.raises_per_sec / 1e6);
    }
  }
  bench::Rule('=');
  WriteMatrixJson(out_path, rows);
  std::printf("matrix written to %s\n", out_path);
}

}  // namespace
}  // namespace spin

int main(int argc, char** argv) {
  using spin::bench::NsPerOp;
  using spin::bench::Rule;

  // bench_table1_dispatch [--matrix-only] [out.json]
  bool matrix_only = false;
  const char* matrix_path = "BENCH_dispatch.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--matrix-only") == 0) {
      matrix_only = true;
    } else {
      matrix_path = argv[i];
    }
  }

  spin::Module module("Table1");
  if (matrix_only) {
    spin::RunScalingMatrix(module, matrix_path);
    return 0;
  }
  const int kHandlerCounts[] = {1, 5, 10, 50};

  std::printf("Table 1: overhead of event dispatching (all times in us)\n");
  std::printf("guards compare a global to a constant and return true; "
              "handlers do no work\n");
  Rule('=');
  std::printf("%-6s %-10s", "args", "proc-call");
  for (int n : kHandlerCounts) {
    char head[32];
    std::snprintf(head, sizeof(head), "%d:no-inl", n);
    std::printf(" %-9s", head);
    std::snprintf(head, sizeof(head), "%d:inl", n);
    std::printf(" %-8s", head);
  }
  std::printf("\n");
  Rule();

  // Plain procedure call baselines through a volatile pointer (what a
  // Modula-3 procedure call compiles to: one indirect call).
  void (*volatile call0)() = &spin::Intrinsic0;
  void (*volatile call1)(int64_t) = &spin::Intrinsic1;
  void (*volatile call5)(int64_t, int64_t, int64_t, int64_t, int64_t) =
      &spin::Intrinsic5;

  for (int args : {0, 1, 5}) {
    double proc_us = 0;
    switch (args) {
      case 0:
        proc_us = NsPerOp([&] { call0(); }) / 1e3;
        break;
      case 1:
        proc_us = NsPerOp([&] { call1(1); }) / 1e3;
        break;
      default:
        proc_us = NsPerOp([&] { call5(1, 2, 3, 4, 5); }) / 1e3;
        break;
    }
    std::printf("%-6d %-10.4f", args, proc_us);
    for (int n : kHandlerCounts) {
      spin::Cell cell{};
      switch (args) {
        case 0:
          cell = spin::MeasureHandlers<void()>(module, n, 0);
          break;
        case 1:
          cell = spin::MeasureHandlers<void(int64_t)>(module, n, 1);
          break;
        default:
          cell = spin::MeasureHandlers<void(int64_t, int64_t, int64_t,
                                            int64_t, int64_t)>(module, n, 5);
          break;
      }
      std::printf(" %-9.4f %-8.4f", cell.no_inline_us, cell.inline_us);
    }
    std::printf("\n");
  }
  Rule();

  // The intrinsic column of the paper's table: an event with only its
  // intrinsic handler is dispatched as a procedure call.
  std::printf("intrinsic-only event raise (should track proc-call):\n");
  std::printf("  0 args: %.4f us\n",
              spin::MeasureIntrinsic<void()>(module, &spin::Intrinsic0));
  std::printf("  1 arg : %.4f us\n",
              spin::MeasureIntrinsic<void(int64_t)>(module,
                                                    &spin::Intrinsic1));
  std::printf("  5 args: %.4f us\n",
              spin::MeasureIntrinsic<void(int64_t, int64_t, int64_t, int64_t,
                                          int64_t)>(module,
                                                    &spin::Intrinsic5));
  Rule('=');
  std::printf("expected shape: linear growth in handlers; inline < no-inline;"
              " intrinsic ~ proc call\n");

  // Machine-readable latency distributions for representative cells.
  std::printf("\nlatency distributions (JSON, 1 row per case):\n");
  spin::bench::JsonRow(
      "table1", "args1_proc_call",
      spin::bench::NsPerOpStats([&] { call1(1); }));
  spin::bench::JsonRow(
      "table1", "args1_intrinsic",
      spin::IntrinsicStats<void(int64_t)>(module, &spin::Intrinsic1));
  spin::bench::JsonRow("table1", "args1_h10_no_inline",
                       spin::HandlerStats<void(int64_t)>(
                           module, 10, 1, /*inline_micro=*/false));
  spin::bench::JsonRow("table1", "args1_h10_inline",
                       spin::HandlerStats<void(int64_t)>(
                           module, 10, 1, /*inline_micro=*/true));

  spin::RunScalingMatrix(module, matrix_path);
  return 0;
}
