// The always-on observability stack on a web-server-shaped workload.
//
// A tiny "server" serves files from the Vfs: an access-log handler and a
// path-normalizing filter interpose on Open, and a Web.RequestDone event
// with an asynchronous error-log handler finishes each request on the
// thread pool. Three windows run back to back:
//   1. Full-fidelity capture: every raise, guard rejection, handler fire,
//      filter mutation and pool hop lands in the flight recorder; the
//      capture is written as Chrome trace-event JSON (load it at
//      ui.perfetto.dev or chrome://tracing).
//   2. Sampled production window: kSampled 1-in-4 keeps the compiled
//      dispatch tables installed and traces every 4th causal tree whole.
//   3. Watchdog incident: a deliberately slow handler blows its deadline
//      and the armed watchdog reports a slow_handler anomaly.
// The run writes the Prometheus exposition to a .prom file (lint it with
// tools/validate_metrics.py) and a stats JSON-lines file — two cumulative
// captures plus their delta — for tools/spin_top.py.
//
// Build & run:
//   ./build/examples/observability [trace.json [metrics.prom [stats.jsonl]]]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <thread>

#include "src/fs/vfs.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"
#include "src/obs/watchdog.h"

namespace {

spin::Module g_web_module("WebServer");

std::atomic<int> g_requests_logged{0};
std::atomic<int> g_errors_logged{0};

// Guard: only GET-style opens (no create/trunc flags) are access-logged.
bool IsReadOnlyOpen(const char* path, int32_t flags) {
  (void)path;
  return flags == 0;
}

int64_t AccessLog(const char* path, int32_t flags) {
  (void)path;
  (void)flags;
  g_requests_logged.fetch_add(1, std::memory_order_relaxed);
  return 0;
}

// Filter: requests name documents relative to the site root; handlers
// behind the filter see the absolute path.
char g_rewrite_buffer[512];
int64_t NormalizePath(const char*& path, int32_t flags) {
  (void)flags;
  if (path[0] == '/') {
    return 0;
  }
  std::snprintf(g_rewrite_buffer, sizeof(g_rewrite_buffer), "/site/%s",
                path);
  path = g_rewrite_buffer;
  return 0;
}

// Async error logger: guard admits only failed requests.
bool IsError(int64_t status) { return status >= 400; }

void ErrorLog(int64_t status) {
  (void)status;
  g_errors_logged.fetch_add(1, std::memory_order_relaxed);
}

// Default handler: successful requests need no logging, but without a
// default a raise where every guard rejects would throw NoHandlerError.
void RequestDoneDefault(int64_t status) { (void)status; }

// Deliberately misses its deadline so the watchdog window has an incident.
// The handler takes a context so the event is not eligible for the
// intrinsic direct-call bypass — that path is a plain procedure call with
// zero instrumentation, so direct-bypass events are never deadline-checked.
struct ScanState {};
void SlowScan(ScanState*, int64_t) {
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

}  // namespace

int main(int argc, char** argv) {
  const char* trace_path =
      argc > 1 ? argv[1] : "observability_trace.json";
  const char* metrics_path =
      argc > 2 ? argv[2] : "observability_metrics.prom";
  const char* stats_path = argc > 3 ? argv[3] : "observability_stats.jsonl";

  spin::Dispatcher dispatcher;
  spin::fs::Vfs vfs(&dispatcher);
  spin::Event<void(int64_t)> request_done("Web.RequestDone", &g_web_module,
                                          nullptr, &dispatcher);

  // Interpose on Open: the access log runs before the UFS handler (so the
  // fd result stays last), the path filter runs in front of everything.
  dispatcher.InstallHandler(vfs.Open, &IsReadOnlyOpen, &AccessLog,
                            {.order = {spin::OrderKind::kFirst},
                             .module = &g_web_module});
  dispatcher.InstallFilter(vfs.Open, &NormalizePath,
                           {.order = {spin::OrderKind::kFirst},
                            .module = &g_web_module});
  dispatcher.InstallHandler(request_done, &IsError, &ErrorLog,
                            {.async = true, .module = &g_web_module});
  dispatcher.InstallDefaultHandler(request_done, &RequestDoneDefault,
                                   {.module = &g_web_module});

  // Publish some documents.
  for (const char* doc : {"/site/index.html", "/site/logo.png"}) {
    int64_t fd = vfs.Open.Raise(doc, spin::fs::kOpenCreate);
    vfs.Write.Raise(fd, "<html>hello</html>", 18);
    vfs.CloseFd.Raise(fd);
  }

  auto serve = [&](const char* request) {
    int64_t fd = vfs.Open.Raise(request, 0);
    int64_t status;
    if (fd >= 0) {
      char buffer[64];
      vfs.Read.Raise(fd, buffer, sizeof(buffer));
      vfs.CloseFd.Raise(fd);
      status = 200;
    } else {
      status = 404;
    }
    request_done.Raise(status);
  };

  // Window 1 — full-fidelity capture: every record kind exercised.
  dispatcher.SetTracing({spin::obs::TraceMode::kFull});
  const char* requests[] = {"index.html", "logo.png", "missing.html",
                            "index.html", "logo.png", "index.html"};
  for (const char* request : requests) {
    serve(request);
  }
  dispatcher.pool().Drain();  // let async error logs finish inside the window
  auto records = spin::obs::FlightRecorder::Global().Snapshot();
  dispatcher.SetTracing({spin::obs::TraceMode::kOff});

  std::ofstream trace(trace_path);
  spin::obs::WriteChromeTrace(trace, records);
  trace.close();
  std::printf("wrote %zu trace records to %s\n", records.size(),
              trace_path);

  // Window 2 — sampled production mode. The compiled tables stay
  // installed; one raise in four opens a span and its whole causal tree
  // (async error-log hop included) is captured with it. The armed
  // watchdog makes every raise timed, so the latency histograms fill even
  // though most raises trace nothing.
  spin::obs::WatchdogConfig watch;
  watch.period_ms = 0;                 // we drive Poll() deterministically
  watch.slow_handler_ns = 2'000'000;   // 2 ms absolute deadline
  spin::obs::Watchdog::Global().Arm(watch);
  spin::obs::FlightRecorder::Global().Reset();
  dispatcher.SetTracing({spin::obs::TraceMode::kSampled, 4});

  spin::obs::StatsSnapshot before = spin::obs::CaptureStats();
  for (int round = 0; round < 8; ++round) {
    for (const char* request : requests) {
      serve(request);
    }
  }
  dispatcher.pool().Drain();
  spin::obs::Watchdog::Global().Poll();  // stall rules + p99 deadlines
  spin::obs::StatsSnapshot after = spin::obs::CaptureStats();

  auto sampled = spin::obs::FlightRecorder::Global().Snapshot();
  size_t sampled_roots = 0;
  for (const auto& m : sampled) {
    if (m.rec.kind == spin::obs::TraceKind::kRaiseBegin &&
        m.rec.parent == 0) {
      ++sampled_roots;
    }
  }
  std::printf("sampled 1-in-4 window: %zu records, %zu sampled root "
              "spans (48 requests served)\n",
              sampled.size(), sampled_roots);

  // Window 3 — incident: a 5 ms handler against a 2 ms deadline. The
  // inline check fires even though the raise itself is sampled out.
  spin::Event<void(int64_t)> slow_scan("Web.SlowScan", &g_web_module,
                                       nullptr, &dispatcher);
  ScanState scan_state;
  dispatcher.InstallHandler(slow_scan, &SlowScan, &scan_state,
                            {.module = &g_web_module});
  slow_scan.Raise(0);
  uint64_t slow_anomalies = spin::obs::Watchdog::Global().Count(
      spin::obs::AnomalyKind::kSlowHandler);
  std::printf("watchdog: %llu slow_handler anomaly(ies), last measured "
              "%llu ns\n",
              static_cast<unsigned long long>(slow_anomalies),
              static_cast<unsigned long long>(
                  spin::obs::Watchdog::Global().last_value()));

  dispatcher.SetTracing({spin::obs::TraceMode::kOff, 1});
  spin::obs::Watchdog::Global().Disarm();

  // Artifacts: the exposition for validate_metrics.py, and a stats
  // JSON-lines file for spin_top.py — both cumulative captures plus the
  // delta over the sampled window.
  std::ofstream prom(metrics_path);
  spin::obs::ExportMetrics(prom);
  prom.close();
  std::ofstream stats(stats_path);
  spin::obs::WriteJsonStats(stats, before);
  stats << "\n";
  spin::obs::WriteJsonStats(stats, after);
  stats << "\n";
  spin::obs::WriteJsonStats(stats, spin::obs::Delta(before, after));
  stats << "\n";
  stats.close();
  std::printf("wrote %s and %s\n", metrics_path, stats_path);

  std::printf("\n--- Prometheus exposition ---\n");
  spin::obs::ExportMetrics(std::cout);
  std::printf("\n--- Dispatcher describe ---\n");
  dispatcher.DescribeAll(std::cout);

  // Self-check: the capture must span both the raising thread and the
  // pool, and contain every record kind the workload exercised.
  std::set<uint32_t> tids;
  std::set<spin::obs::TraceKind> kinds;
  for (const auto& m : records) {
    tids.insert(m.tid);
    kinds.insert(m.rec.kind);
  }
  bool ok = tids.size() >= 2 &&
            kinds.count(spin::obs::TraceKind::kRaiseBegin) != 0 &&
            kinds.count(spin::obs::TraceKind::kRaiseEnd) != 0 &&
            kinds.count(spin::obs::TraceKind::kHandlerFire) != 0 &&
            kinds.count(spin::obs::TraceKind::kGuardReject) != 0 &&
            kinds.count(spin::obs::TraceKind::kFilterMutate) != 0 &&
            kinds.count(spin::obs::TraceKind::kAsyncEnqueue) != 0 &&
            kinds.count(spin::obs::TraceKind::kAsyncExecute) != 0 &&
            g_requests_logged.load() == 54 && g_errors_logged.load() == 9 &&
            sampled_roots > 0 && sampled.size() < records.size() * 8 &&
            slow_anomalies >= 1;
  std::printf("\n%zu threads, %zu record kinds, %d access-log entries, "
              "%d error-log entries -> %s\n",
              tids.size(), kinds.size(), g_requests_logged.load(),
              g_errors_logged.load(), ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
