// Causal tracing across the wire: a single raise on host A whose handler
// set spans local sync handlers, a local async handler, and an EventProxy
// to host B must produce ONE span tree covering both hosts and at least
// three threads, with flow-event linkage in the exported Chrome trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/net/host.h"
#include "src/obs/context.h"
#include "src/obs/obs.h"
#include "src/obs/query.h"
#include "src/obs/trace.h"
#include "src/remote/exporter.h"
#include "src/remote/proxy.h"
#include "src/sim/simulator.h"
#include "tests/eager_config.h"

namespace spin {
namespace remote {
namespace {

struct TraceCtx {
  std::atomic<int> local_sync{0};
  std::atomic<int> local_async{0};
  std::atomic<int> server_sync{0};
  std::atomic<int> server_async{0};
};

void LocalSync(TraceCtx* ctx, uint64_t) { ++ctx->local_sync; }
void LocalAsync(TraceCtx* ctx, uint64_t) { ++ctx->local_async; }
void ServerSync(TraceCtx* ctx, uint64_t) { ++ctx->server_sync; }
void ServerAsync(TraceCtx* ctx, uint64_t) { ++ctx->server_async; }

TEST(RemoteTraceTest, OneRaiseYieldsOneSpanTreeAcrossHostsAndThreads) {
  obs::FlightRecorder::Global().Reset();

  // kSpawn gives every async handler a fresh OS thread, so the raising
  // thread, the client-side async handler, and the server-side async
  // handler are guaranteed three distinct recorder tids.
  Dispatcher::Config config;
  config.async_mode = AsyncMode::kSpawn;
  Dispatcher dispatcher(EagerConfig(config));
  sim::Simulator sim;
  net::Wire wire{&sim, sim::LinkModel{}};
  net::Host client_host{"trace-client", 0x0a000101, &dispatcher};
  net::Host server_host{"trace-server", 0x0a000102, &dispatcher};
  wire.Attach(client_host, server_host);
  Exporter exporter{server_host};

  TraceCtx ctx;
  Event<void(uint64_t)> server_ev("Trace.Op", nullptr, nullptr, &dispatcher);
  dispatcher.InstallHandler(server_ev, &ServerSync, &ctx);
  dispatcher.InstallHandler(server_ev, &ServerAsync, &ctx, {.async = true});
  exporter.Export(server_ev);

  Event<void(uint64_t)> client_ev("Trace.Op", nullptr, nullptr, &dispatcher);
  dispatcher.InstallHandler(client_ev, &LocalSync, &ctx);
  dispatcher.InstallHandler(client_ev, &LocalAsync, &ctx, {.async = true});
  ProxyOptions opts;
  opts.remote_ip = server_host.ip();
  opts.local_port = 9040;
  EventProxy proxy(client_host, &sim, client_ev, opts);

  obs::FlightRecorder::Global().Reset();  // drop the handshake records
  dispatcher.SetTracing({obs::TraceMode::kFull});
  {
    obs::HostScope on_client(client_host.trace_host_id());
    client_ev.Raise(7);
  }
  dispatcher.pool().Drain();
  dispatcher.SetTracing({obs::TraceMode::kOff});

  EXPECT_EQ(ctx.local_sync.load(), 1);
  EXPECT_EQ(ctx.local_async.load(), 1);
  EXPECT_EQ(ctx.server_sync.load(), 1);
  EXPECT_EQ(ctx.server_async.load(), 1);

  auto records = obs::FlightRecorder::Global().Snapshot();
  obs::TraceQuery query(records);

  // The top-level raise on the client is the root of everything.
  uint64_t root = 0;
  for (const obs::MergedRecord& m : records) {
    if (m.rec.kind == obs::TraceKind::kRaiseBegin &&
        std::string(m.rec.name) == "Trace.Op" && m.rec.parent == 0) {
      root = m.rec.span;
      break;
    }
  }
  ASSERT_NE(root, 0u);

  std::vector<obs::MergedRecord> tree = query.SpanTree(root);
  ASSERT_FALSE(tree.empty());

  std::set<obs::TraceKind> kinds;
  std::set<uint32_t> hosts;
  std::set<uint32_t> tids;
  for (const obs::MergedRecord& m : tree) {
    kinds.insert(m.rec.kind);
    if (m.rec.host != 0) {
      hosts.insert(m.rec.host);
    }
    tids.insert(m.tid);
  }

  // Local sync handlers, both async handoff ends, and the whole wire
  // crossing all hang off the one root span.
  EXPECT_TRUE(kinds.count(obs::TraceKind::kHandlerFire));
  EXPECT_TRUE(kinds.count(obs::TraceKind::kAsyncEnqueue));
  EXPECT_TRUE(kinds.count(obs::TraceKind::kAsyncExecute));
  EXPECT_TRUE(kinds.count(obs::TraceKind::kRemoteMarshal));
  EXPECT_TRUE(kinds.count(obs::TraceKind::kRemoteSend));
  EXPECT_TRUE(kinds.count(obs::TraceKind::kRemoteDispatch));
  EXPECT_TRUE(kinds.count(obs::TraceKind::kRemoteReply));

  EXPECT_TRUE(hosts.count(client_host.trace_host_id()));
  EXPECT_TRUE(hosts.count(server_host.trace_host_id()));
  EXPECT_GE(hosts.size(), 2u) << "the tree spans both simulated hosts";
  EXPECT_GE(tids.size(), 3u) << "the tree spans at least three threads";

  // The wire span itself has records on both sides of the wire.
  uint64_t wire_span = 0;
  for (const obs::MergedRecord& m : tree) {
    if (m.rec.kind == obs::TraceKind::kRemoteSend) {
      wire_span = m.rec.span;
    }
  }
  ASSERT_NE(wire_span, 0u);
  EXPECT_EQ(query.ParentOf(wire_span), root);
  std::set<uint32_t> wire_hosts;
  for (const obs::MergedRecord& m : tree) {
    if (m.rec.span == wire_span && m.rec.host != 0) {
      wire_hosts.insert(m.rec.host);
    }
  }
  EXPECT_TRUE(wire_hosts.count(client_host.trace_host_id()));
  EXPECT_TRUE(wire_hosts.count(server_host.trace_host_id()));

  // Cross-host accounting: the exporter saw a span minted on another host.
  EXPECT_GE(obs::GetSpanStats().cross_host, 1u);

  // Chrome-trace export: one process row per host, and the wire span is
  // stitched with flow events — a start at the send, a step at the
  // exporter dispatch, a finish at the reply join.
  std::ostringstream os;
  obs::WriteChromeTrace(os, records);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"trace-client\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"trace-server\""), std::string::npos);
  const std::string id = "\"id\":" + std::to_string(wire_span);
  EXPECT_NE(json.find("\"ph\":\"s\"," + id), std::string::npos)
      << "flow start missing for the wire span";
  EXPECT_NE(json.find("\"ph\":\"t\"," + id), std::string::npos)
      << "flow step missing for the wire span";
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\"," + id), std::string::npos)
      << "flow finish missing for the wire span";

  obs::FlightRecorder::Global().Reset();
}

// Sampled tracing across the wire: the trailer doubles as the sampled
// bit, so a sampled tree is captured whole on both hosts and an unsampled
// raise leaves zero records anywhere — while every raise still executes.
TEST(RemoteTraceTest, SampledTreesCrossTheWireWholeOrNotAtAll) {
  obs::FlightRecorder::Global().Reset();

  Dispatcher dispatcher(EagerConfig());
  sim::Simulator sim;
  net::Wire wire{&sim, sim::LinkModel{}};
  net::Host client_host{"sample-client", 0x0a000201, &dispatcher};
  net::Host server_host{"sample-server", 0x0a000202, &dispatcher};
  wire.Attach(client_host, server_host);
  Exporter exporter{server_host};

  TraceCtx ctx;
  Event<void(uint64_t)> server_ev("Sample.Op", nullptr, nullptr,
                                  &dispatcher);
  dispatcher.InstallHandler(server_ev, &ServerSync, &ctx);
  exporter.Export(server_ev);

  Event<void(uint64_t)> client_ev("Sample.Op", nullptr, nullptr,
                                  &dispatcher);
  dispatcher.InstallHandler(client_ev, &LocalSync, &ctx);
  ProxyOptions opts;
  opts.remote_ip = server_host.ip();
  opts.local_port = 9045;
  EventProxy proxy(client_host, &sim, client_ev, opts);

  // Reset the thread-local sampling countdown so the capture pattern
  // below is independent of earlier tests: at rate 1 the next decision
  // fires and zeroes it.
  obs::SetTraceConfig({obs::TraceMode::kSampled, 1});
  { const obs::RaisePlan top_level; }

  obs::FlightRecorder::Global().Reset();  // drop the handshake records
  dispatcher.SetTracing({obs::TraceMode::kSampled, 3});
  for (uint64_t i = 0; i < 9; ++i) {
    obs::HostScope on_client(client_host.trace_host_id());
    client_ev.Raise(i);
  }
  dispatcher.SetTracing({obs::TraceMode::kOff});

  EXPECT_EQ(ctx.local_sync.load(), 9) << "sampling never drops dispatches";
  EXPECT_EQ(ctx.server_sync.load(), 9);

  auto records = obs::FlightRecorder::Global().Snapshot();
  obs::TraceQuery query(records);

  // Control-plane records (rebuilds, stub compiles — SetTracing itself
  // rebuilds every table) legitimately carry no span; everything on the
  // raise and wire paths must sit inside a sampled tree.
  const std::set<obs::TraceKind> raise_kinds = {
      obs::TraceKind::kRaiseBegin,    obs::TraceKind::kRaiseEnd,
      obs::TraceKind::kHandlerFire,   obs::TraceKind::kGuardReject,
      obs::TraceKind::kAsyncEnqueue,  obs::TraceKind::kAsyncExecute,
      obs::TraceKind::kRemoteMarshal, obs::TraceKind::kRemoteSend,
      obs::TraceKind::kRemoteDispatch, obs::TraceKind::kRemoteReply,
      obs::TraceKind::kRemoteRetry,   obs::TraceKind::kRemoteTimeout,
  };
  std::vector<uint64_t> roots;
  size_t dispatches = 0;
  size_t replies = 0;
  for (const obs::MergedRecord& m : records) {
    if (m.rec.kind == obs::TraceKind::kRaiseBegin && m.rec.parent == 0 &&
        std::string(m.rec.name) == "Sample.Op") {
      roots.push_back(m.rec.span);
    }
    if (m.rec.kind == obs::TraceKind::kRemoteDispatch) {
      ++dispatches;
    }
    if (m.rec.kind == obs::TraceKind::kRemoteReply) {
      ++replies;
    }
    if (raise_kinds.count(m.rec.kind)) {
      EXPECT_NE(m.rec.span, 0u) << obs::TraceKindName(m.rec.kind)
                                << " escaped the sampled trees";
    }
  }
  EXPECT_EQ(roots.size(), 3u) << "9 raises at 1-in-3";
  EXPECT_EQ(dispatches, 3u)
      << "the exporter must capture exactly the sampled raises";
  EXPECT_EQ(replies, 3u);

  // Each sampled tree holds the whole roundtrip: both hosts, the wire
  // span, and the server-side dispatch.
  for (uint64_t root : roots) {
    std::set<obs::TraceKind> kinds;
    std::set<uint32_t> hosts;
    for (const obs::MergedRecord& m : query.SpanTree(root)) {
      kinds.insert(m.rec.kind);
      if (m.rec.host != 0) {
        hosts.insert(m.rec.host);
      }
    }
    EXPECT_TRUE(kinds.count(obs::TraceKind::kRemoteMarshal)) << root;
    EXPECT_TRUE(kinds.count(obs::TraceKind::kRemoteSend)) << root;
    EXPECT_TRUE(kinds.count(obs::TraceKind::kRemoteDispatch)) << root;
    EXPECT_TRUE(kinds.count(obs::TraceKind::kRemoteReply)) << root;
    EXPECT_TRUE(hosts.count(client_host.trace_host_id()));
    EXPECT_TRUE(hosts.count(server_host.trace_host_id()));
  }
  obs::FlightRecorder::Global().Reset();
}

// An untraced raise still crosses the wire (the trailer is simply absent),
// and old-format frames without the trailer decode fine.
TEST(RemoteTraceTest, TracingOffFramesCarryNoTrailer) {
  RequestMsg msg;
  msg.kind = RaiseKind::kSync;
  msg.request_id = 3;
  msg.token = 9;
  msg.event_name = "Plain.Op";
  std::string encoded = EncodeRequest(msg);

  RequestMsg decoded;
  ASSERT_TRUE(DecodeRequest(encoded, &decoded));
  EXPECT_EQ(decoded.span_id, 0u);
  EXPECT_EQ(decoded.origin_host, 0u);

  msg.span_id = 0xabcdef12345678ull;
  msg.origin_host = 4;
  std::string traced = EncodeRequest(msg);
  EXPECT_EQ(traced.size(), encoded.size() + 12)
      << "the trailer costs 12 bytes and only when tracing is on";
  ASSERT_TRUE(DecodeRequest(traced, &decoded));
  EXPECT_EQ(decoded.span_id, msg.span_id);
  EXPECT_EQ(decoded.origin_host, msg.origin_host);

  // A present trailer with a zero span id is malformed, not "untraced".
  std::string zeroed = traced;
  for (size_t i = encoded.size(); i < encoded.size() + 8; ++i) {
    zeroed[i] = '\0';
  }
  EXPECT_FALSE(DecodeRequest(zeroed, &decoded));
}

}  // namespace
}  // namespace remote
}  // namespace spin
