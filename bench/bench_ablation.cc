// Ablation of the dispatcher's design decisions (DESIGN.md D1-D4):
//   D1 intrinsic bypass, D3 runtime code generation (+ inlining, +
//   peephole), D4 guard reordering.
//
// Workload: the Table 1 midpoint — an event with one int64 argument and 10
// handlers, each gated by a global-compare guard — plus an intrinsic-only
// event for D1 and a mixed native/micro guard set for D4.
#include <cstdio>
#include <string_view>

#include "bench/bench_util.h"
#include "src/core/dispatcher.h"
#include "src/obs/trace.h"

namespace {

uint64_t g_state = 1;
uint64_t g_sink = 0;

void IntrinsicHandler(int64_t v) { benchmark::DoNotOptimize(g_sink += v); }

bool ExpensiveNativeGuard(int64_t) {
  // An out-of-line guard with a non-trivial body (a short hash loop).
  uint64_t h = g_state;
  for (int i = 0; i < 16; ++i) {
    h = h * 1099511628211ull + 0x9e3779b97f4a7c15ull;
  }
  benchmark::DoNotOptimize(h);
  return h != 0 || g_state < 2;  // always true, opaque to the compiler
}

// Shared setup for the Table 1 midpoint workload (10 guarded handlers),
// measured either as a median (table) or a distribution (JSON row).
template <typename Measure>
auto WithTenHandlers(const spin::Dispatcher::Config& config,
                     Measure measure) {
  spin::Module module("Ablation");
  spin::Dispatcher dispatcher(config);
  spin::Event<void(int64_t)> event("Ablate.Event", &module, nullptr,
                                   &dispatcher);
  for (int i = 0; i < 10; ++i) {
    auto binding = dispatcher.InstallMicroHandler(
        event, spin::micro::ReturnConst(1, 0, false), {.module = &module});
    dispatcher.AddMicroGuard(binding,
                             spin::micro::GuardGlobalEq(&g_state, 1));
  }
  return measure(event);
}

double MeasureTenHandlers(const spin::Dispatcher::Config& config) {
  return WithTenHandlers(config, [](auto& event) {
    return spin::bench::NsPerOp([&] { event.Raise(7); }, 100000);
  });
}

spin::bench::LatencyStats StatsTenHandlers(
    const spin::Dispatcher::Config& config, size_t samples) {
  return WithTenHandlers(config, [samples](auto& event) {
    return spin::bench::NsPerOpStats([&] { event.Raise(7); }, samples);
  });
}

// The same workload with the flight recorder + span propagation live:
// every raise opens a span and writes begin/end + per-handler records
// plus the kPhase self-time segments PhaseScope stamps.
spin::bench::LatencyStats StatsTenHandlersTraced(
    const spin::Dispatcher::Config& config, size_t samples) {
  spin::obs::FlightRecorder::Global().Reset();
  return WithTenHandlers(config, [samples](auto& event) {
    event.owner().SetTracing({spin::obs::TraceMode::kFull});
    auto stats = spin::bench::NsPerOpStats([&] { event.Raise(7); },
                                           samples);
    event.owner().SetTracing({spin::obs::TraceMode::kOff});
    return stats;
  });
}

// Sampled tracing at 1-in-rate: production tables stay installed and the
// sampled-out raises pay only the decision (a thread-local countdown).
spin::bench::LatencyStats StatsTenHandlersSampled(
    const spin::Dispatcher::Config& config, uint32_t rate, size_t samples) {
  spin::obs::FlightRecorder::Global().Reset();
  return WithTenHandlers(config, [rate, samples](auto& event) {
    event.owner().SetTracing({spin::obs::TraceMode::kSampled, rate});
    auto stats = spin::bench::NsPerOpStats([&] { event.Raise(7); },
                                           samples);
    event.owner().SetTracing({spin::obs::TraceMode::kOff, 1});
    return stats;
  });
}

double MeasureIntrinsic(bool allow_direct) {
  spin::Module module("Ablation");
  spin::Dispatcher::Config config;
  config.allow_direct = allow_direct;
  spin::Dispatcher dispatcher(config);
  spin::Event<void(int64_t)> event("Ablate.Intrinsic", &module,
                                   &IntrinsicHandler, &dispatcher);
  return spin::bench::NsPerOp([&] { event.Raise(7); });
}

// A Table 2-like shape for the decision tree: 32 bindings, each guarded by
// a distinct port constant; every raise matches exactly one.
double MeasurePortDemux(bool guard_tree) {
  spin::Module module("Ablation");
  spin::Dispatcher::Config config;
  config.guard_tree = guard_tree;
  spin::Dispatcher dispatcher(config);
  struct Pkt {
    uint8_t data[16];
  };
  spin::Event<void(Pkt*)> event("Ablate.Demux", &module, nullptr,
                                &dispatcher);
  for (int i = 0; i < 32; ++i) {
    auto binding = dispatcher.InstallMicroHandler(
        event, spin::micro::ReturnConst(1, 0, false), {.module = &module});
    dispatcher.AddMicroGuard(
        binding, spin::micro::GuardArgFieldEq(
                     1, 0, 4, 2, ~0ull, static_cast<uint64_t>(1000 + i)));
  }
  Pkt pkt{};
  pkt.data[4] = static_cast<uint8_t>((1000 + 31) & 0xff);
  pkt.data[5] = static_cast<uint8_t>((1000 + 31) >> 8);
  return spin::bench::NsPerOp([&] { event.Raise(&pkt); }, 100000);
}

double MeasureGuardReorder(bool reorder) {
  // One binding, two guards: an expensive out-of-line native guard that
  // always passes and a cheap inlinable micro guard that always fails.
  // FUNCTIONAL guards are order-free, so the dispatcher may evaluate the
  // cheap one first and short-circuit the expensive call (§2.3).
  spin::Module module("Ablation");
  spin::Dispatcher::Config config;
  config.reorder_guards = reorder;
  spin::Dispatcher dispatcher(config);
  spin::Event<void(int64_t)> event("Ablate.Guards", &module, nullptr,
                                   &dispatcher);
  // Default handler so raises with zero fired handlers do not throw.
  dispatcher.InstallDefaultHandler(event, +[](int64_t) {},
                                   {.module = &module});
  auto binding = dispatcher.InstallMicroHandler(
      event, spin::micro::ReturnConst(1, 0, false), {.module = &module});
  dispatcher.AddGuard(event, binding, &ExpensiveNativeGuard);
  dispatcher.AddMicroGuard(binding,
                           spin::micro::ReturnConst(1, 0, true));  // false
  return spin::bench::NsPerOp([&] { event.Raise(7); }, 100000);
}

}  // namespace

// Machine-independent ratio row: both sides measured on this machine in
// this process, so the quotient survives hardware changes and can gate
// tightly in CI where absolute nanoseconds cannot.
void RatioRow(const char* name, uint64_t num, uint64_t den) {
  std::printf("{\"bench\":\"ablation\",\"case\":\"%s\",\"p50_ratio\":%.3f}\n",
              name,
              den == 0 ? 0.0
                       : static_cast<double>(num) / static_cast<double>(den));
}

int main(int argc, char** argv) {
  using spin::bench::Rule;
  // --smoke: JSON rows only, at reduced sample counts — the CI bench
  // gate's input. The human-readable tables (large-batch medians) are
  // the slow part and say nothing bench_diff.py consumes.
  const bool smoke = argc > 1 && std::string_view(argv[1]) == "--smoke";
  const size_t samples = smoke ? 2000 : 10000;

  spin::Dispatcher::Config full;
  spin::Dispatcher::Config no_inline = full;
  no_inline.inline_micro = false;
  spin::Dispatcher::Config interp = full;
  interp.enable_jit = false;

  if (!smoke) {
    std::printf("Ablation of dispatcher design decisions (ns per raise)\n");
    Rule('=');

    std::printf("D1 intrinsic bypass (1 intrinsic handler):\n");
    std::printf("  %-40s %8.1f ns\n", "direct-call bypass on",
                MeasureIntrinsic(true));
    std::printf("  %-40s %8.1f ns\n", "bypass off (full dispatch path)",
                MeasureIntrinsic(false));

    std::printf("D3 runtime code generation (10 guarded handlers):\n");
    std::printf("  %-40s %8.1f ns\n", "JIT + inline + peephole",
                MeasureTenHandlers(full));
    spin::Dispatcher::Config no_opt = full;
    no_opt.optimize = false;
    std::printf("  %-40s %8.1f ns\n", "JIT + inline, no peephole",
                MeasureTenHandlers(no_opt));
    std::printf("  %-40s %8.1f ns\n", "JIT, out-of-line guards/handlers",
                MeasureTenHandlers(no_inline));
    std::printf("  %-40s %8.1f ns\n", "interpreter (no codegen)",
                MeasureTenHandlers(interp));

    std::printf("guard decision tree (32-way port demultiplex, worst-case "
                "port):\n");
    std::printf("  %-40s %8.1f ns\n", "linear guard chain",
                MeasurePortDemux(false));
    std::printf("  %-40s %8.1f ns\n", "binary-search decision tree",
                MeasurePortDemux(true));

    std::printf("D4 guard reordering (cheap failing guard + expensive "
                "passing guard):\n");
    std::printf("  %-40s %8.1f ns\n", "reorder on (cheap guard first)",
                MeasureGuardReorder(true));
    std::printf("  %-40s %8.1f ns\n", "reorder off (install order)",
                MeasureGuardReorder(false));

    Rule();
    std::printf("expected shape: each mechanism removes measurable cost; "
                "interpreter is the slowest arm\n");
  }

  spin::bench::LatencyStats stats_full = StatsTenHandlers(full, samples);
  spin::bench::LatencyStats stats_no_inline =
      StatsTenHandlers(no_inline, samples);
  spin::bench::LatencyStats stats_interp = StatsTenHandlers(interp, samples);
  spin::bench::LatencyStats tracing_off = StatsTenHandlers(full, samples);
  spin::bench::LatencyStats tracing_on =
      StatsTenHandlersTraced(full, samples);
  spin::bench::LatencyStats sampled_128 =
      StatsTenHandlersSampled(full, 128, samples);
  spin::bench::LatencyStats sampled_8 =
      StatsTenHandlersSampled(full, 8, samples);

  if (!smoke) {
    std::printf("\ncausal tracing (flight recorder + span propagation, same "
                "10-handler workload):\n");
    std::printf("  %-40s %8llu ns p50\n", "tracing off",
                static_cast<unsigned long long>(tracing_off.p50_ns));
    std::printf("  %-40s %8llu ns p50\n", "sampled 1-in-128",
                static_cast<unsigned long long>(sampled_128.p50_ns));
    std::printf("  %-40s %8llu ns p50\n", "sampled 1-in-8",
                static_cast<unsigned long long>(sampled_8.p50_ns));
    std::printf("  %-40s %8llu ns p50\n", "tracing on (full)",
                static_cast<unsigned long long>(tracing_on.p50_ns));
    std::printf("  sampled-128 / off p50 ratio: %.2fx (budget 2.0x)\n",
                tracing_off.p50_ns == 0
                    ? 0.0
                    : static_cast<double>(sampled_128.p50_ns) /
                          static_cast<double>(tracing_off.p50_ns));
    std::printf("\nlatency distributions (JSON, 1 row per case):\n");
  }

  spin::bench::JsonRow("ablation", "ten_handlers_full", stats_full);
  spin::bench::JsonRow("ablation", "ten_handlers_no_inline",
                       stats_no_inline);
  spin::bench::JsonRow("ablation", "ten_handlers_interp", stats_interp);
  spin::bench::JsonRow("ablation", "ten_handlers_tracing_off", tracing_off);
  spin::bench::JsonRow("ablation", "ten_handlers_sampled_128", sampled_128);
  spin::bench::JsonRow("ablation", "ten_handlers_sampled_8", sampled_8);
  spin::bench::JsonRow("ablation", "ten_handlers_tracing_on", tracing_on);
  RatioRow("sampled_128_over_off", sampled_128.p50_ns, tracing_off.p50_ns);
  RatioRow("tracing_on_over_off", tracing_on.p50_ns, tracing_off.p50_ns);
  RatioRow("interp_over_full", stats_interp.p50_ns, stats_full.p50_ns);
  return 0;
}
