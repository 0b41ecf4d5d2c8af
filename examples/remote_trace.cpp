// Causal cross-host tracing: one raise, one span tree, two hosts.
//
// Host atlas raises Pipeline.Stage with three bindings installed: a local
// synchronous handler, a local asynchronous handler (runs on the thread
// pool), and an EventProxy to host borealis. With tracing on, the raise
// allocates a root span; the async handoff pre-allocates a child span that
// both the enqueue and the pool-thread execution record; and the proxy
// ships a wire span in the request trailer, so borealis's dedup/dispatch
// records — and the whole remote dispatch — join the same tree. The
// program writes remote_trace.trace.json (Chrome trace-event JSON): load
// it at ui.perfetto.dev to see one process row per host, the per-thread
// timelines, and flow arrows stitching the handoffs by span id.
//
// Exits nonzero unless the captured tree really spans two hosts and shows
// flow linkage, so it doubles as a smoke test.
//
// Build & run:  ./build/examples/remote_trace [trace.json]
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "src/net/host.h"
#include "src/obs/context.h"
#include "src/obs/obs.h"
#include "src/obs/query.h"
#include "src/obs/trace.h"
#include "src/remote/exporter.h"
#include "src/remote/proxy.h"
#include "src/sim/simulator.h"

namespace {

std::atomic<int> g_local_sync{0};
std::atomic<int> g_local_async{0};
std::atomic<int> g_remote{0};

void LocalStage(int64_t) { g_local_sync.fetch_add(1); }
void AsyncStage(int64_t) { g_local_async.fetch_add(1); }
void RemoteStage(int64_t) { g_remote.fetch_add(1); }

}  // namespace

int main(int argc, char** argv) {
  using namespace spin;
  const char* trace_path =
      argc > 1 ? argv[1] : "remote_trace.trace.json";

  Dispatcher dispatcher;
  sim::Simulator sim;
  net::Wire wire{&sim, sim::LinkModel{}};
  net::Host atlas{"atlas", 0x0a000001, &dispatcher};
  net::Host borealis{"borealis", 0x0a000002, &dispatcher};
  wire.Attach(atlas, borealis);
  remote::Exporter exporter{borealis};

  Event<void(int64_t)> remote_ev("Pipeline.Stage", nullptr, nullptr,
                                 &dispatcher);
  dispatcher.InstallHandler(remote_ev, &RemoteStage);
  exporter.Export(remote_ev);

  Event<void(int64_t)> stage("Pipeline.Stage", nullptr, nullptr,
                             &dispatcher);
  dispatcher.InstallHandler(stage, &LocalStage);
  dispatcher.InstallHandler(stage, &AsyncStage, {.async = true});
  remote::ProxyOptions opts;
  opts.remote_ip = borealis.ip();
  opts.local_port = 9050;
  remote::EventProxy proxy(atlas, &sim, stage, opts);

  // Capture window: everything between SetTracing(kFull) and kOff.
  obs::FlightRecorder::Global().Reset();
  dispatcher.SetTracing({obs::TraceMode::kFull});
  {
    obs::HostScope on_atlas(atlas.trace_host_id());
    stage.Raise(42);
  }
  dispatcher.pool().Drain();
  dispatcher.SetTracing({obs::TraceMode::kOff});

  auto records = obs::FlightRecorder::Global().Snapshot();
  obs::TraceQuery query(records);

  // Find the root span (the top-level raise on atlas) and its tree.
  uint64_t root = 0;
  for (const obs::MergedRecord& m : records) {
    if (m.rec.kind == obs::TraceKind::kRaiseBegin && m.rec.parent == 0 &&
        std::string(m.rec.name) == "Pipeline.Stage") {
      root = m.rec.span;
      break;
    }
  }
  auto tree = query.SpanTree(root);
  std::set<uint32_t> hosts;
  std::set<uint32_t> tids;
  for (const obs::MergedRecord& m : tree) {
    if (m.rec.host != 0) {
      hosts.insert(m.rec.host);
    }
    tids.insert(m.tid);
  }
  std::cout << "span tree: root=" << root << " records=" << tree.size()
            << " spans=" << query.Spans().size() << " hosts=" << hosts.size()
            << " threads=" << tids.size() << "\n";
  for (const obs::MergedRecord& m : tree) {
    std::printf("  %-14s %-18s span=%llu parent=%llu host=%s tid=%u\n",
                obs::TraceKindName(m.rec.kind), m.rec.name,
                static_cast<unsigned long long>(m.rec.span),
                static_cast<unsigned long long>(m.rec.parent),
                obs::TraceHostName(m.rec.host), m.tid);
  }

  std::ofstream trace(trace_path);
  obs::WriteChromeTrace(trace, records);
  trace.close();
  std::cout << "wrote " << trace_path << " — open in ui.perfetto.dev\n";

  // Smoke-test contract: handlers all fired, the tree crosses the wire,
  // and the JSON contains flow linkage.
  if (g_local_sync.load() != 1 || g_local_async.load() != 1 ||
      g_remote.load() != 1) {
    std::cerr << "FAIL: handlers did not all fire\n";
    return 1;
  }
  if (root == 0 || hosts.size() < 2 || tids.size() < 2) {
    std::cerr << "FAIL: span tree does not cross hosts/threads\n";
    return 1;
  }
  std::ostringstream os;
  obs::WriteChromeTrace(os, records);
  const std::string json = os.str();
  if (json.find("\"ph\":\"s\"") == std::string::npos ||
      json.find("\"ph\":\"f\"") == std::string::npos) {
    std::cerr << "FAIL: no flow events in the exported trace\n";
    return 1;
  }
  return 0;
}
