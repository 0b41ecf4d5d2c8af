// CriticalPath (DESIGN.md §15): deterministic attribution arithmetic over a
// hand-built span tree, and the acceptance scenario — a traced two-host
// remote roundtrip must attribute at least 95% of the root span's wall time
// to named phases, with the wire's simulator-clock transit reported as a
// virtual duration alongside.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "src/net/host.h"
#include "src/obs/context.h"
#include "src/obs/critical_path.h"
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

size_t PhaseIdx(obs::Phase phase) { return static_cast<size_t>(phase); }

// The whole breakdown, for a failed coverage bound: which phase lost the
// time shows only with the numbers.
std::string Describe(const obs::CriticalPath::PhaseBreakdown& attr) {
  std::ostringstream os;
  os << "coverage " << attr.coverage << ", wall " << attr.wall_ns
     << " ns, tracked " << attr.tracked_ns << " ns, residual "
     << attr.residual_ns << " ns; self ns:";
  for (size_t i = 0; i < obs::kNumPhases; ++i) {
    os << " " << obs::PhaseName(static_cast<obs::Phase>(i)) << "="
       << attr.self_ns[i];
  }
  return os.str();
}

obs::MergedRecord Rec(obs::TraceKind kind, const char* name, uint64_t ts,
                      uint64_t span, uint64_t parent, uint64_t arg = 0,
                      uint64_t end = 0) {
  obs::MergedRecord m;
  m.rec.kind = kind;
  m.rec.name = name;
  m.rec.ts_ns = ts;
  m.rec.span = span;
  m.rec.parent = parent;
  m.rec.arg = arg;
  m.rec.end_ns = end;
  return m;
}

// A two-level synthetic tree with known numbers:
//   span 1 "CP.Root"  [1000, 2000]   interp self 600
//   span 2 "CP.Child" [1200, 1400]   handler_body 150, wire_virtual 5000
//   span 3 "CP.Side"  [1100, 1150]   (no phases)
std::vector<obs::MergedRecord> SyntheticTree() {
  const char* root_name = obs::Intern("CP.Root");
  const char* child_name = obs::Intern("CP.Child");
  const char* side_name = obs::Intern("CP.Side");
  std::vector<obs::MergedRecord> records;
  records.push_back(Rec(obs::TraceKind::kRaiseBegin, root_name, 1000, 1, 0));
  records.push_back(
      Rec(obs::TraceKind::kPhase, root_name, 1000, 1, 0,
          obs::PackPhaseArg(obs::Phase::kInterp, 600), /*end=*/1900));
  records.push_back(Rec(obs::TraceKind::kRaiseBegin, side_name, 1100, 3, 1));
  records.push_back(Rec(obs::TraceKind::kRaiseEnd, side_name, 1150, 3, 1));
  records.push_back(Rec(obs::TraceKind::kRaiseBegin, child_name, 1200, 2, 1));
  records.push_back(
      Rec(obs::TraceKind::kPhase, child_name, 1200, 2, 1,
          obs::PackPhaseArg(obs::Phase::kHandlerBody, 150), /*end=*/1400));
  records.push_back(
      Rec(obs::TraceKind::kPhase, child_name, 1300, 2, 1,
          obs::PackPhaseArg(obs::Phase::kWireVirtual, 5000), /*end=*/0));
  records.push_back(Rec(obs::TraceKind::kRaiseEnd, root_name, 2000, 1, 0));
  return records;
}

TEST(CriticalPathTest, AttributeSumsSelfTimesAndExposesResidual) {
  obs::TraceQuery query(SyntheticTree());
  obs::CriticalPath cp(query);

  std::vector<uint64_t> roots = cp.Roots();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0], 1u);

  obs::CriticalPath::PhaseBreakdown attr = cp.Attribute(1);
  EXPECT_EQ(attr.wall_ns, 1000u);
  EXPECT_EQ(attr.tracked_ns, 750u);  // 600 interp + 150 handler_body
  EXPECT_EQ(attr.residual_ns, 250u);
  EXPECT_DOUBLE_EQ(attr.coverage, 0.75);
  EXPECT_EQ(attr.self_ns[PhaseIdx(obs::Phase::kInterp)], 600u);
  EXPECT_EQ(attr.self_ns[PhaseIdx(obs::Phase::kHandlerBody)], 150u);
  // The virtual wire transit is reported alongside, never added to tracked.
  EXPECT_EQ(attr.virtual_ns[PhaseIdx(obs::Phase::kWireVirtual)], 5000u);
  EXPECT_EQ(attr.self_ns[PhaseIdx(obs::Phase::kWireVirtual)], 0u);

  // An unknown root is all zeros, not a crash or a partial answer.
  obs::CriticalPath::PhaseBreakdown missing = cp.Attribute(99);
  EXPECT_EQ(missing.wall_ns, 0u);
  EXPECT_EQ(missing.tracked_ns, 0u);
  EXPECT_DOUBLE_EQ(missing.coverage, 0.0);
}

TEST(CriticalPathTest, LongestPathDescendsIntoTheWidestChild) {
  obs::TraceQuery query(SyntheticTree());
  obs::CriticalPath cp(query);

  std::vector<obs::CriticalPath::CriticalStep> path = cp.LongestPath(1);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0].span, 1u);
  EXPECT_EQ(std::string(path[0].name), "CP.Root");
  EXPECT_EQ(path[0].wall_ns, 1000u);
  // Root self = wall minus both children's extents (200 + 50).
  EXPECT_EQ(path[0].self_ns, 750u);
  EXPECT_EQ(path[0].dominant, obs::Phase::kInterp);
  EXPECT_EQ(path[0].dominant_ns, 600u);

  // span 2 (wall 200) beats span 3 (wall 50).
  EXPECT_EQ(path[1].span, 2u);
  EXPECT_EQ(path[1].wall_ns, 200u);
  EXPECT_EQ(path[1].dominant, obs::Phase::kHandlerBody);
  EXPECT_EQ(path[1].dominant_ns, 150u);
}

TEST(CriticalPathTest, FoldedStacksCarryPhaseAndUntrackedLeaves) {
  obs::TraceQuery query(SyntheticTree());
  obs::CriticalPath cp(query);

  std::ostringstream os;
  cp.WriteFolded(os);
  const std::string folded = os.str();
  EXPECT_NE(folded.find("CP.Root;interp 600"), std::string::npos);
  EXPECT_NE(folded.find("CP.Root;CP.Child;handler_body 150"),
            std::string::npos);
  // Root: 1000 wall - 600 own - 250 children wall = 150 untracked.
  EXPECT_NE(folded.find("CP.Root;(untracked) 150"), std::string::npos);
  EXPECT_NE(folded.find("CP.Root;CP.Child;(untracked) 50"),
            std::string::npos);
  // Virtual durations stay off the host-clock flamegraph.
  EXPECT_EQ(folded.find("wire_virtual"), std::string::npos);

  std::vector<obs::CriticalPath::EventPhases> by_event = cp.AggregateByEvent();
  ASSERT_GE(by_event.size(), 2u);
  bool saw_child = false;
  for (const obs::CriticalPath::EventPhases& e : by_event) {
    if (std::string(e.event) == "CP.Child") {
      saw_child = true;
      EXPECT_EQ(e.self_ns[PhaseIdx(obs::Phase::kHandlerBody)], 150u);
      EXPECT_EQ(e.virtual_ns[PhaseIdx(obs::Phase::kWireVirtual)], 5000u);
    }
  }
  EXPECT_TRUE(saw_child);
}

struct RoundtripCtx {
  int local = 0;
  int server = 0;
};
void LocalHandler(RoundtripCtx* ctx, uint64_t) { ++ctx->local; }
void ServerHandler(RoundtripCtx* ctx, uint64_t) { ++ctx->server; }

// Shared acceptance fixture: one traced raise that crosses the simulated
// wire to an exporting host and joins the reply, then a CriticalPath over
// the snapshot. Returns the attribution of the raise's root span.
obs::CriticalPath::PhaseBreakdown TraceOneRoundtrip(uint16_t port,
                                                    bool sampled,
                                                    std::string* folded_out) {
  obs::FlightRecorder::Global().Reset();

  Dispatcher dispatcher(EagerConfig());
  sim::Simulator sim;
  net::Wire wire{&sim, sim::LinkModel{}};
  net::Host client_host{"cp-client", 0x0a000301, &dispatcher};
  net::Host server_host{"cp-server", 0x0a000302, &dispatcher};
  wire.Attach(client_host, server_host);
  Exporter exporter{server_host};

  RoundtripCtx ctx;
  Event<void(uint64_t)> server_ev("CP.Op", nullptr, nullptr, &dispatcher);
  dispatcher.InstallHandler(server_ev, &ServerHandler, &ctx);
  exporter.Export(server_ev);

  Event<void(uint64_t)> client_ev("CP.Op", nullptr, nullptr, &dispatcher);
  dispatcher.InstallHandler(client_ev, &LocalHandler, &ctx);
  ProxyOptions opts;
  opts.remote_ip = server_host.ip();
  opts.local_port = port;
  EventProxy proxy(client_host, &sim, client_ev, opts);

  obs::FlightRecorder::Global().Reset();  // drop the handshake records
  if (sampled) {
    // Zero the thread-local countdown so rate 1 samples the next raise.
    obs::SetTraceConfig({obs::TraceMode::kSampled, 1});
    { const obs::RaisePlan top_level; }
    dispatcher.SetTracing({obs::TraceMode::kSampled, 1});
  } else {
    dispatcher.SetTracing({obs::TraceMode::kFull});
  }
  {
    obs::HostScope on_client(client_host.trace_host_id());
    client_ev.Raise(7);
  }
  dispatcher.SetTracing({obs::TraceMode::kOff, 1});

  EXPECT_EQ(ctx.local, 1);
  EXPECT_EQ(ctx.server, 1);

  auto records = obs::FlightRecorder::Global().Snapshot();
  obs::TraceQuery query(records);
  obs::CriticalPath cp(query);

  uint64_t root = 0;
  uint64_t wire_span = 0;
  for (const obs::MergedRecord& m : records) {
    if (m.rec.kind == obs::TraceKind::kRaiseBegin && m.rec.parent == 0 &&
        std::string(m.rec.name) == "CP.Op") {
      root = m.rec.span;
    }
    if (m.rec.kind == obs::TraceKind::kRemoteSend) {
      wire_span = m.rec.span;
    }
  }
  EXPECT_NE(root, 0u);
  EXPECT_NE(wire_span, 0u);
  std::vector<uint64_t> roots = cp.Roots();
  EXPECT_TRUE(std::find(roots.begin(), roots.end(), root) != roots.end());

  // The latency-bounding chain starts at the raise and reaches the wire
  // span (the roundtrip dominates a single local handler).
  std::vector<obs::CriticalPath::CriticalStep> path = cp.LongestPath(root);
  EXPECT_FALSE(path.empty());
  if (!path.empty()) {
    EXPECT_EQ(path.front().span, root);
  }
  bool path_hits_wire = false;
  for (const obs::CriticalPath::CriticalStep& step : path) {
    if (step.span == wire_span) {
      path_hits_wire = true;
    }
  }
  EXPECT_TRUE(path_hits_wire);

  if (folded_out != nullptr) {
    std::ostringstream os;
    cp.WriteFolded(os);
    *folded_out = os.str();
  }
  obs::CriticalPath::PhaseBreakdown attr = cp.Attribute(root);
  obs::FlightRecorder::Global().Reset();
  return attr;
}

// Acceptance: a fully-traced remote roundtrip attributes >= 95% of the
// root span's wall time to named phases, the marshal/wire/dispatch/
// unmarshal stages all show up, and the simulator-clock wire transit is
// reported as a virtual duration.
TEST(CriticalPathTest, TracedRoundtripAttributesNinetyFivePercent) {
  std::string folded;
  obs::CriticalPath::PhaseBreakdown attr =
      TraceOneRoundtrip(9050, /*sampled=*/false, &folded);

  EXPECT_GT(attr.wall_ns, 0u);
  EXPECT_LE(attr.tracked_ns, attr.wall_ns)
      << "real-time self-times partition the wall; they cannot exceed it";
  EXPECT_EQ(attr.residual_ns, attr.wall_ns - attr.tracked_ns);
  EXPECT_GE(attr.coverage, 0.95) << Describe(attr);

  EXPECT_GT(attr.self_ns[PhaseIdx(obs::Phase::kMarshal)], 0u);
  EXPECT_GT(attr.self_ns[PhaseIdx(obs::Phase::kWire)], 0u);
  EXPECT_GT(attr.self_ns[PhaseIdx(obs::Phase::kDispatch)], 0u);
  EXPECT_GT(attr.self_ns[PhaseIdx(obs::Phase::kUnmarshal)], 0u);
  EXPECT_GT(attr.virtual_ns[PhaseIdx(obs::Phase::kWireVirtual)], 0u)
      << "wire transit is simulator time, reported in the virtual column";

  EXPECT_NE(folded.find("CP.Op"), std::string::npos);
  EXPECT_NE(folded.find(";wire "), std::string::npos);
  EXPECT_NE(folded.find("(untracked)"), std::string::npos);
}

// The same bar holds on the sampled path, where the client keeps its
// production dispatch table (stub when the JIT is available).
TEST(CriticalPathTest, SampledRoundtripAttributesNinetyFivePercent) {
  obs::CriticalPath::PhaseBreakdown attr =
      TraceOneRoundtrip(9051, /*sampled=*/true, nullptr);
  EXPECT_GT(attr.wall_ns, 0u);
  EXPECT_GE(attr.coverage, 0.95) << Describe(attr);
  EXPECT_GT(attr.self_ns[PhaseIdx(obs::Phase::kWire)], 0u);
  EXPECT_GT(attr.virtual_ns[PhaseIdx(obs::Phase::kWireVirtual)], 0u);
}

}  // namespace
}  // namespace remote
}  // namespace spin
