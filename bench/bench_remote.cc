// Remote event dispatch: sync roundtrips, async throughput, and the retry
// path under injected loss.
//
// The paper's dispatcher is local; src/remote extends it across the
// simulated 10 Mb/s wire (the Table 2 link model: 800 ns/byte + 25 us
// propagation per hop). The numbers of interest:
//   - a sync remote raise is wire-time dominated: the virtual-time
//     roundtrip is ~150 us while the measured host processing (marshal +
//     dispatch + unmarshal, real clock) is orders of magnitude smaller;
//   - payload grows the roundtrip at the serialization rate, 9 request
//     bytes (tag + value) per argument;
//   - under injected loss the median stays at the clean roundtrip while
//     the tail absorbs the 2 ms retry timeouts.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/errors.h"
#include "src/net/host.h"
#include "src/obs/context.h"
#include "src/obs/critical_path.h"
#include "src/obs/query.h"
#include "src/obs/trace.h"
#include "src/remote/exporter.h"
#include "src/remote/proxy.h"
#include "src/sim/simulator.h"

namespace {

using spin::bench::LatencyStats;

// Client + server attached to one wire; mirrors the remote_test fixture.
struct Rig {
  spin::Dispatcher dispatcher;
  spin::sim::Simulator sim;
  spin::net::Wire wire{&sim, spin::sim::LinkModel{}};
  spin::net::Host client{"client", 0x0a000001, &dispatcher};
  spin::net::Host server{"server", 0x0a000002, &dispatcher};
  spin::remote::Exporter exporter{server};

  explicit Rig(const spin::Dispatcher::Config& config = {})
      : dispatcher(config) {
    wire.Attach(client, server);
  }

  spin::remote::ProxyOptions Opts(uint16_t local_port) {
    spin::remote::ProxyOptions opts;
    opts.remote_ip = server.ip();
    opts.local_port = local_port;
    return opts;
  }
};

LatencyStats StatsFromSamples(std::vector<uint64_t> lat) {
  LatencyStats stats;
  if (lat.empty()) {
    return stats;
  }
  uint64_t total = 0;
  for (uint64_t v : lat) {
    total += v;
  }
  std::sort(lat.begin(), lat.end());
  stats.mean_ns =
      static_cast<double>(total) / static_cast<double>(lat.size());
  auto pct = [&](double q) {
    return lat[static_cast<size_t>(static_cast<double>(lat.size() - 1) * q)];
  };
  stats.p50_ns = pct(0.50);
  stats.p90_ns = pct(0.90);
  stats.p99_ns = pct(0.99);
  stats.max_ns = lat.back();
  return stats;
}

uint64_t Sum0() { return 1; }
uint64_t Sum2(uint64_t a, uint64_t b) { return a + b; }
uint64_t Sum4(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
  return a + b + c + d;
}
uint64_t Sum8(uint64_t a, uint64_t b, uint64_t c, uint64_t d, uint64_t e,
              uint64_t f, uint64_t g, uint64_t h) {
  return a + b + c + d + e + f + g + h;
}

struct SyncResult {
  LatencyStats wire;    // virtual-time roundtrip (what the raiser waits)
  LatencyStats host;    // real-clock processing per raise
  size_t request_bytes; // encoded request payload
};

// One proxy, `rounds` sync raises; virtual-time and wall-time per raise.
template <typename... Args>
SyncResult SyncRoundtrip(int rounds, uint64_t (*handler)(Args...),
                         Args... args) {
  Rig rig;
  spin::Event<uint64_t(Args...)> server_ev("Bench.Remote", nullptr, nullptr,
                                           &rig.dispatcher);
  rig.dispatcher.InstallHandler(server_ev, handler);
  rig.exporter.Export(server_ev);
  spin::Event<uint64_t(Args...)> client_ev("Bench.Remote", nullptr, nullptr,
                                           &rig.dispatcher);
  spin::remote::EventProxy proxy(rig.client, &rig.sim, client_ev,
                                 rig.Opts(9100));

  client_ev.Raise(args...);  // warmup (exporter map, socket path)
  std::vector<uint64_t> wire_ns(rounds);
  std::vector<uint64_t> host_ns(rounds);
  for (int i = 0; i < rounds; ++i) {
    uint64_t v0 = rig.sim.now_ns();
    uint64_t w0 = spin::NowNs();
    client_ev.Raise(args...);
    host_ns[i] = spin::NowNs() - w0;
    wire_ns[i] = rig.sim.now_ns() - v0;
  }

  spin::remote::RequestMsg probe;
  probe.event_name = "Bench.Remote";
  probe.params.assign(sizeof...(Args),
                      spin::remote::WireParam{
                          static_cast<uint8_t>(spin::TypeClass::kUInt64),
                          false});
  probe.args.assign(sizeof...(Args), 0);
  return SyncResult{StatsFromSamples(std::move(wire_ns)),
                    StatsFromSamples(std::move(host_ns)),
                    spin::remote::EncodeRequest(probe).size()};
}

// The cost of causal tracing on the sync remote path: the same 2-arg
// roundtrip with the flight recorder + span propagation on vs off. The
// span trailer adds 12 request bytes (~9.6 us of virtual wire time at
// 800 ns/byte); the host-side delta is the span bookkeeping itself
// (context save/restore, trailer encode/decode, trace records).
SyncResult SyncRoundtripTraced(int rounds, bool tracing) {
  Rig rig;
  spin::Event<uint64_t(uint64_t, uint64_t)> server_ev(
      "Bench.Remote", nullptr, nullptr, &rig.dispatcher);
  rig.dispatcher.InstallHandler(server_ev, &Sum2);
  rig.exporter.Export(server_ev);
  spin::Event<uint64_t(uint64_t, uint64_t)> client_ev(
      "Bench.Remote", nullptr, nullptr, &rig.dispatcher);
  spin::remote::EventProxy proxy(rig.client, &rig.sim, client_ev,
                                 rig.Opts(9104));

  client_ev.Raise(1, 2);  // warmup (exporter map, socket path)
  if (tracing) {
    spin::obs::FlightRecorder::Global().Reset();
    rig.dispatcher.SetTracing({spin::obs::TraceMode::kFull});
  }
  std::vector<uint64_t> wire_ns(rounds);
  std::vector<uint64_t> host_ns(rounds);
  {
    spin::obs::HostScope on_client(rig.client.trace_host_id());
    for (int i = 0; i < rounds; ++i) {
      uint64_t v0 = rig.sim.now_ns();
      uint64_t w0 = spin::NowNs();
      client_ev.Raise(i, i);
      host_ns[i] = spin::NowNs() - w0;
      wire_ns[i] = rig.sim.now_ns() - v0;
    }
  }
  if (tracing) {
    rig.dispatcher.SetTracing({spin::obs::TraceMode::kOff});
  }

  spin::remote::RequestMsg probe;
  probe.event_name = "Bench.Remote";
  probe.params.assign(2, spin::remote::WireParam{
                             static_cast<uint8_t>(spin::TypeClass::kUInt64),
                             false});
  probe.args.assign(2, 0);
  if (tracing) {
    probe.span_id = 1;
    probe.origin_host = 1;
  }
  return SyncResult{StatsFromSamples(std::move(wire_ns)),
                    StatsFromSamples(std::move(host_ns)),
                    spin::remote::EncodeRequest(probe).size()};
}

// An imposed always-true guard matching the event's arity (passed via the
// authorizer ctx), so the same authorizer serves the 2- and 8-arg phase
// attribution cells.
bool PassingArityAuthorizer(spin::AuthRequest& request, void* ctx) {
  if (request.op == spin::AuthOp::kInstall) {
    request.ImposeGuard(spin::MakeImposedMicroGuard(spin::micro::ReturnConst(
        static_cast<int>(reinterpret_cast<intptr_t>(ctx)), /*value=*/1,
        /*functional=*/true)));
  }
  return true;
}

// Where does a remote roundtrip spend its time? Trace a batch of sync
// raises, then fold the kPhase records with obs::CriticalPath into one
// attribution row: real-clock self-time per phase (marshal, wire,
// dispatch, unmarshal, guard_eval, handler_body, ...) summed over every
// raise's span tree, plus the virtual-clock wire transit and the
// explicit untracked residual. `coverage` is tracked real time over the
// summed span walls — critical_path_test holds it above 0.95 on this
// exact path. Payload scales by argument count (9 request bytes each);
// the scalar wire format has no bulk-payload parameter, so "big" is
// args8 (72 B encoded), not 4 KB.
template <typename... Args>
void PhaseAttributionRow(const char* name, bool with_guard, int rounds,
                         uint64_t (*handler)(Args...), Args... args) {
  Rig rig;
  spin::Module authority{"Bench.PhaseAuthority"};
  spin::Event<uint64_t(Args...)> server_ev(
      "Bench.Phases", with_guard ? &authority : nullptr, nullptr,
      &rig.dispatcher);
  rig.dispatcher.InstallHandler(server_ev, handler);
  if (with_guard) {
    // An imposed always-true guard: adds a guard_eval phase on the
    // exporter-side dispatch without rejecting anything.
    rig.dispatcher.InstallAuthorizer(
        server_ev, &PassingArityAuthorizer,
        reinterpret_cast<void*>(static_cast<intptr_t>(sizeof...(Args))),
        authority);
  }
  rig.exporter.Export(server_ev);
  spin::Event<uint64_t(Args...)> client_ev("Bench.Phases", nullptr, nullptr,
                                           &rig.dispatcher);
  spin::remote::EventProxy proxy(rig.client, &rig.sim, client_ev,
                                 rig.Opts(9105));

  client_ev.Raise(args...);  // warmup (exporter map, socket path)
  spin::obs::FlightRecorder::Global().Reset();
  rig.dispatcher.SetTracing({spin::obs::TraceMode::kFull});
  {
    spin::obs::HostScope on_client(rig.client.trace_host_id());
    for (int i = 0; i < rounds; ++i) {
      client_ev.Raise(args...);
    }
  }
  rig.dispatcher.SetTracing({spin::obs::TraceMode::kOff});

  spin::obs::TraceQuery query(spin::obs::FlightRecorder::Global().Snapshot());
  spin::obs::CriticalPath paths(query);
  uint64_t wall = 0;
  uint64_t tracked = 0;
  uint64_t self[spin::obs::kNumPhases] = {};
  uint64_t virt[spin::obs::kNumPhases] = {};
  for (uint64_t root : paths.Roots()) {
    spin::obs::CriticalPath::PhaseBreakdown b = paths.Attribute(root);
    wall += b.wall_ns;
    tracked += b.tracked_ns;
    for (size_t p = 0; p < spin::obs::kNumPhases; ++p) {
      self[p] += b.self_ns[p];
      virt[p] += b.virtual_ns[p];
    }
  }
  std::printf("{\"bench\":\"remote_phases\",\"case\":\"%s\","
              "\"roundtrips\":%d,\"wall_ns\":%llu,\"tracked_ns\":%llu,"
              "\"residual_ns\":%llu,\"coverage\":%.4f",
              name, rounds, static_cast<unsigned long long>(wall),
              static_cast<unsigned long long>(tracked),
              static_cast<unsigned long long>(wall > tracked ? wall - tracked
                                                             : 0),
              wall == 0 ? 0.0
                        : static_cast<double>(tracked) /
                              static_cast<double>(wall));
  for (size_t p = 0; p < spin::obs::kNumPhases; ++p) {
    if (self[p] != 0) {
      std::printf(",\"%s_ns\":%llu",
                  spin::obs::PhaseName(static_cast<spin::obs::Phase>(p)),
                  static_cast<unsigned long long>(self[p]));
    }
  }
  for (size_t p = 0; p < spin::obs::kNumPhases; ++p) {
    if (virt[p] != 0) {
      std::printf(",\"%s_virtual_ns\":%llu",
                  spin::obs::PhaseName(static_cast<spin::obs::Phase>(p)),
                  static_cast<unsigned long long>(virt[p]));
    }
  }
  std::printf("}\n");
}

// Sync raises against a wire with seeded random loss: the median stays at
// the clean roundtrip, the tail pays the retry timeouts.
LatencyStats RetryPathStats(int rounds, double loss, uint64_t seed,
                            int* timed_out) {
  Rig rig;
  rig.wire.SetRandomLoss(loss, seed);
  spin::Event<uint64_t(uint64_t, uint64_t)> server_ev(
      "Bench.Remote", nullptr, nullptr, &rig.dispatcher);
  rig.dispatcher.InstallHandler(server_ev, &Sum2);
  rig.exporter.Export(server_ev);
  spin::Event<uint64_t(uint64_t, uint64_t)> client_ev(
      "Bench.Remote", nullptr, nullptr, &rig.dispatcher);
  spin::remote::ProxyOptions opts = rig.Opts(9101);
  opts.max_attempts = 10;
  spin::remote::EventProxy proxy(rig.client, &rig.sim, client_ev, opts);

  std::vector<uint64_t> wire_ns;
  wire_ns.reserve(rounds);
  *timed_out = 0;
  for (int i = 0; i < rounds; ++i) {
    uint64_t v0 = rig.sim.now_ns();
    try {
      client_ev.Raise(i, i);
      wire_ns.push_back(rig.sim.now_ns() - v0);
    } catch (const spin::RemoteError&) {
      ++*timed_out;  // deterministic outcome of the seed; not a sample
    }
  }
  return StatsFromSamples(std::move(wire_ns));
}

// Install-time authorization (§2.5 across the wire): every proxy pays one
// BindRequest/BindReply handshake before its first raise. When the event
// carries an authorizer the exporter also runs the auth callback and
// serializes any imposed guards into the reply.
bool BenchAuthorizer(spin::AuthRequest& request, void*) {
  if (request.op == spin::AuthOp::kInstall) {
    request.ImposeGuard(spin::MakeImposedMicroGuard(
        spin::micro::ReturnConst(/*num_args=*/2, /*value=*/1,
                                 /*functional=*/true)));
  }
  return true;
}

// A wireable imposed guard that REJECTS the bench payload: admit only
// raises whose first argument equals a magic value the bench never sends.
// FUNCTIONAL and address-free, so it survives the wire admission verifier
// on the receiving side.
spin::micro::Program RejectingGuard() {
  return std::move(
             spin::micro::ProgramBuilder(/*num_args=*/2, /*functional=*/true)
                 .LoadArg(0, 0)
                 .LoadImm(1, 0x5eedfeedull)
                 .CmpEq(2, 0, 1)
                 .Ret(2))
      .Build();
}

bool RejectingAuthorizer(spin::AuthRequest& request, void*) {
  if (request.op == spin::AuthOp::kInstall) {
    request.ImposeGuard(spin::MakeImposedMicroGuard(RejectingGuard()));
  }
  return true;
}

struct GuardRejectResult {
  LatencyStats raise_host;  // real-clock cost of one rejected raise
  uint64_t wire_ns;         // virtual time consumed by the raise loop
};

// A dispatcher with runtime code generation on or off.
spin::Dispatcher::Config JitConfig(bool jit) {
  spin::Dispatcher::Config config;
  config.enable_jit = jit;
  return config;
}

// Per-raise cost of a REJECTING guard on a plain local binding: the
// dispatcher evaluates the guard, skips the guarded handler, and the
// event's default implementation (§2.3) answers instead. On a JIT
// dispatcher the guard is inlined into the event's stub; without one it
// is interpreted.
GuardRejectResult GuardRejectLocal(int rounds, bool jit) {
  spin::Dispatcher dispatcher(JitConfig(jit));
  spin::Event<uint64_t(uint64_t, uint64_t)> ev("Bench.GuardLocal", nullptr,
                                               nullptr, &dispatcher);
  dispatcher.InstallDefaultHandler(ev, &Sum2);
  spin::BindingHandle guarded = dispatcher.InstallHandler(ev, &Sum2);
  dispatcher.AddMicroGuard(guarded, RejectingGuard());

  ev.Raise(1, 2);  // warmup (dispatch plan, guard body)
  std::vector<uint64_t> host_ns(rounds);
  for (int i = 0; i < rounds; ++i) {
    uint64_t w0 = spin::NowNs();
    ev.Raise(static_cast<uint64_t>(i), static_cast<uint64_t>(i));
    host_ns[i] = spin::NowNs() - w0;
  }
  return GuardRejectResult{StatsFromSamples(std::move(host_ns)), 0};
}

// The same rejecting guard imposed ACROSS THE WIRE: the exporter's
// authorizer ships it in the BindReply, the proxy's admission verifier
// re-checks it, and the proxy binding is installed with it. The proxy
// binding is erased, so its event is interpreted on either dispatcher. A
// rejected raise is settled entirely on the raising host — the guard
// fires before EventProxy::Invoke, so no datagram leaves and wire_ns
// stays zero.
GuardRejectResult GuardRejectRemote(int rounds, bool jit) {
  Rig rig(JitConfig(jit));
  spin::Module authority{"Bench.GuardAuthority"};
  spin::Event<uint64_t(uint64_t, uint64_t)> server_ev(
      "Bench.Guard", &authority, nullptr, &rig.dispatcher);
  rig.dispatcher.InstallHandler(server_ev, &Sum2);
  rig.dispatcher.InstallAuthorizer(server_ev, &RejectingAuthorizer, nullptr,
                                   authority);
  rig.exporter.Export(server_ev);
  // The client event carries a default implementation so a guard-rejected
  // raise still produces a result instead of a no-handler throw — the
  // same fallback the local case uses, so the rows differ only in how
  // the guarded binding was installed.
  spin::Event<uint64_t(uint64_t, uint64_t)> client_ev(
      "Bench.Guard", nullptr, nullptr, &rig.dispatcher);
  rig.dispatcher.InstallDefaultHandler(client_ev, &Sum2);
  spin::remote::EventProxy proxy(rig.client, &rig.sim, client_ev,
                                 rig.Opts(9104));

  client_ev.Raise(1, 2);  // warmup; already rejected locally
  uint64_t v0 = rig.sim.now_ns();
  std::vector<uint64_t> host_ns(rounds);
  for (int i = 0; i < rounds; ++i) {
    uint64_t w0 = spin::NowNs();
    client_ev.Raise(static_cast<uint64_t>(i), static_cast<uint64_t>(i));
    host_ns[i] = spin::NowNs() - w0;
  }
  return GuardRejectResult{StatsFromSamples(std::move(host_ns)),
                           rig.sim.now_ns() - v0};
}

struct BindResult {
  LatencyStats bind_wire;   // virtual-time cost of the bind handshake
  LatencyStats raise_wire;  // virtual-time cost of one sync raise after it
};

BindResult BindHandshakeOverhead(int rounds, bool with_authorizer) {
  Rig rig;
  spin::Module authority{"Bench.Authority"};
  spin::Event<uint64_t(uint64_t, uint64_t)> server_ev(
      "Bench.Bind", &authority, nullptr, &rig.dispatcher);
  rig.dispatcher.InstallHandler(server_ev, &Sum2);
  if (with_authorizer) {
    rig.dispatcher.InstallAuthorizer(server_ev, &BenchAuthorizer, nullptr,
                                     authority);
  }
  rig.exporter.Export(server_ev);
  spin::Event<uint64_t(uint64_t, uint64_t)> client_ev(
      "Bench.Bind", nullptr, nullptr, &rig.dispatcher);

  std::vector<uint64_t> bind_ns(rounds);
  std::vector<uint64_t> raise_ns(rounds);
  for (int i = 0; i < rounds; ++i) {
    uint64_t v0 = rig.sim.now_ns();
    spin::remote::EventProxy proxy(rig.client, &rig.sim, client_ev,
                                   rig.Opts(9103));
    bind_ns[i] = rig.sim.now_ns() - v0;
    v0 = rig.sim.now_ns();
    client_ev.Raise(i, i);
    raise_ns[i] = rig.sim.now_ns() - v0;
  }
  return BindResult{StatsFromSamples(std::move(bind_ns)),
                    StatsFromSamples(std::move(raise_ns))};
}

struct AsyncResult {
  double raises_per_sec;  // wall-clock enqueue+drain+flush pipeline rate
  LatencyStats enqueue;   // real-clock cost of one fire-and-forget raise
  uint64_t delivered;
};

AsyncResult AsyncThroughput(int batches, int batch_size) {
  Rig rig;
  std::atomic<uint64_t> delivered{0};
  spin::Event<void(uint64_t)> server_ev("Bench.Async", nullptr, nullptr,
                                        &rig.dispatcher);
  rig.dispatcher.InstallLambda(server_ev, [&delivered](uint64_t) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  });
  rig.exporter.Export(server_ev);
  spin::Event<void(uint64_t)> client_ev("Bench.Async", nullptr, nullptr,
                                        &rig.dispatcher);
  spin::remote::ProxyOptions opts = rig.Opts(9102);
  opts.kind = spin::remote::RaiseKind::kAsync;
  spin::remote::EventProxy proxy(rig.client, &rig.sim, client_ev, opts);

  std::vector<uint64_t> enqueue_ns;
  enqueue_ns.reserve(static_cast<size_t>(batches) * batch_size);
  uint64_t wall_start = spin::NowNs();
  for (int b = 0; b < batches; ++b) {
    for (int i = 0; i < batch_size; ++i) {
      uint64_t t0 = spin::NowNs();
      client_ev.Raise(static_cast<uint64_t>(i));
      enqueue_ns.push_back(spin::NowNs() - t0);
    }
    rig.dispatcher.pool().Drain();  // marshals run on pool threads
    proxy.Flush();                  // sim thread hands datagrams to the wire
    rig.sim.Run();
  }
  uint64_t wall_ns = spin::NowNs() - wall_start;
  AsyncResult result;
  result.raises_per_sec = static_cast<double>(batches) * batch_size * 1e9 /
                          static_cast<double>(wall_ns);
  result.enqueue = StatsFromSamples(std::move(enqueue_ns));
  result.delivered = delivered.load();
  return result;
}

}  // namespace

int main() {
  using spin::bench::JsonRow;
  using spin::bench::Rule;
  std::printf("Remote event dispatch (10 Mb/s wire, 25 us propagation per "
              "hop; roundtrip in VIRTUAL ns,\nhost processing in real ns)\n");
  Rule('=');

  std::printf("sync roundtrip vs payload size:\n");
  std::printf("%-8s %-10s %-16s %-18s %-16s\n", "args", "req bytes",
              "wire p50 (us)", "host proc p50 (ns)", "wire share");
  Rule();
  const int kRounds = 400;
  struct NamedSync {
    const char* name;
    SyncResult r;
  };
  std::vector<NamedSync> sync_rows;
  sync_rows.push_back({"sync_rt_args0", SyncRoundtrip(kRounds, &Sum0)});
  sync_rows.push_back({"sync_rt_args2",
                       SyncRoundtrip<uint64_t, uint64_t>(kRounds, &Sum2, 1,
                                                         2)});
  sync_rows.push_back(
      {"sync_rt_args4",
       SyncRoundtrip<uint64_t, uint64_t, uint64_t, uint64_t>(kRounds, &Sum4,
                                                             1, 2, 3, 4)});
  sync_rows.push_back(
      {"sync_rt_args8",
       SyncRoundtrip<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                     uint64_t, uint64_t, uint64_t>(kRounds, &Sum8, 1, 2, 3,
                                                   4, 5, 6, 7, 8)});
  for (size_t i = 0; i < sync_rows.size(); ++i) {
    const SyncResult& r = sync_rows[i].r;
    // Wire and host times live on different clocks (virtual vs. real);
    // the ratio still shows which one the raiser actually waits on.
    double share = static_cast<double>(r.wire.p50_ns) /
                   static_cast<double>(r.wire.p50_ns + r.host.p50_ns);
    std::printf("%-8d %-10zu %-16.1f %-18llu %.4f\n",
                static_cast<int>(i == 0 ? 0 : 1u << i), r.request_bytes,
                static_cast<double>(r.wire.p50_ns) / 1e3,
                static_cast<unsigned long long>(r.host.p50_ns), share);
  }
  Rule();
  std::printf("expected shape: roundtrip is wire-dominated (~150 us) and "
              "grows ~7.2 us per extra\nargument (9 request bytes — tag + "
              "value — at 800 ns/byte); host processing is noise\nbeside "
              "it\n\n");

  const double kLoss = 0.2;
  int timed_out = 0;
  LatencyStats retry = RetryPathStats(kRounds, kLoss, /*seed=*/42,
                                      &timed_out);
  std::printf("retry path (%.0f%% seeded random loss, 10 attempts, 2 ms "
              "first timeout):\n", kLoss * 100);
  std::printf("  p50 %.1f us   p90 %.1f us   p99 %.1f us   max %.1f us   "
              "timed out %d/%d\n",
              static_cast<double>(retry.p50_ns) / 1e3,
              static_cast<double>(retry.p90_ns) / 1e3,
              static_cast<double>(retry.p99_ns) / 1e3,
              static_cast<double>(retry.max_ns) / 1e3, timed_out, kRounds);
  std::printf("expected shape: p50 stays at the clean roundtrip; the tail "
              "absorbs 2/6/14 ms of\nbacked-off retries\n\n");

  BindResult bind_open = BindHandshakeOverhead(/*rounds=*/100,
                                               /*with_authorizer=*/false);
  BindResult bind_auth = BindHandshakeOverhead(/*rounds=*/100,
                                               /*with_authorizer=*/true);
  std::printf("auth handshake (bind before first raise, amortized over the "
              "proxy's lifetime):\n");
  std::printf("%-24s %-16s %-16s %-10s\n", "case", "bind p50 (us)",
              "raise p50 (us)", "bind/raise");
  Rule();
  struct NamedBind {
    const char* label;
    const char* json;
    const BindResult* r;
  };
  const NamedBind bind_rows[] = {
      {"open (no authorizer)", "bind_open", &bind_open},
      {"authorized + guard", "bind_authorized", &bind_auth},
  };
  for (const NamedBind& row : bind_rows) {
    std::printf("%-24s %-16.1f %-16.1f %.2f\n", row.label,
                static_cast<double>(row.r->bind_wire.p50_ns) / 1e3,
                static_cast<double>(row.r->raise_wire.p50_ns) / 1e3,
                static_cast<double>(row.r->bind_wire.p50_ns) /
                    static_cast<double>(row.r->raise_wire.p50_ns));
  }
  Rule();
  std::printf("expected shape: a bind costs about one raise roundtrip (same "
              "wire, small frames);\nthe authorizer adds bytes for the "
              "imposed guard, not a second roundtrip — a one-time\ncost "
              "against the proxy's whole raise stream\n\n");

  const int kGuardRounds = 2000;
  GuardRejectResult g_local = GuardRejectLocal(kGuardRounds, /*jit=*/true);
  GuardRejectResult g_local_interp =
      GuardRejectLocal(kGuardRounds, /*jit=*/false);
  GuardRejectResult g_remote_jit =
      GuardRejectRemote(kGuardRounds, /*jit=*/true);
  GuardRejectResult g_remote_interp =
      GuardRejectRemote(kGuardRounds, /*jit=*/false);
  std::printf("verified guard on the raise path (imposed guard REJECTS "
              "every raise; real ns per raise):\n");
  std::printf("%-28s %-12s %-12s %-12s %-14s\n", "case", "p50 (ns)",
              "p90 (ns)", "p99 (ns)", "wire time (ns)");
  Rule();
  struct NamedGuard {
    const char* label;
    const char* json;
    const GuardRejectResult* r;
  };
  const NamedGuard guard_rows[] = {
      {"local guard (JIT)", "guard_reject_local", &g_local},
      {"local guard (no JIT)", "guard_reject_local_interp",
       &g_local_interp},
      {"remote imposed (JIT)", "guard_reject_remote_jit", &g_remote_jit},
      {"remote imposed (no JIT)", "guard_reject_remote_interp",
       &g_remote_interp},
  };
  for (const NamedGuard& row : guard_rows) {
    std::printf("%-28s %-12llu %-12llu %-12llu %-14llu\n", row.label,
                static_cast<unsigned long long>(row.r->raise_host.p50_ns),
                static_cast<unsigned long long>(row.r->raise_host.p90_ns),
                static_cast<unsigned long long>(row.r->raise_host.p99_ns),
                static_cast<unsigned long long>(row.r->wire_ns));
  }
  Rule();
  std::printf("expected shape: the verifier runs once at bind and the "
              "imposed guard is interpreted\nper raise, as the erased proxy "
              "binding is never stub-compiled; a rejected raise\nsends zero "
              "datagrams (wire time 0)\n\n");

  SyncResult tr_off = SyncRoundtripTraced(kRounds, /*tracing=*/false);
  SyncResult tr_on = SyncRoundtripTraced(kRounds, /*tracing=*/true);
  std::printf("causal tracing on the sync path (2-arg roundtrip; span "
              "trailer = +%zu req bytes):\n",
              tr_on.request_bytes - tr_off.request_bytes);
  std::printf("  %-16s wire p50 %8.1f us   host proc p50 %6llu ns\n",
              "tracing off",
              static_cast<double>(tr_off.wire.p50_ns) / 1e3,
              static_cast<unsigned long long>(tr_off.host.p50_ns));
  std::printf("  %-16s wire p50 %8.1f us   host proc p50 %6llu ns\n",
              "tracing on",
              static_cast<double>(tr_on.wire.p50_ns) / 1e3,
              static_cast<unsigned long long>(tr_on.host.p50_ns));
  std::printf("expected shape: the wire p50 grows by the trailer's "
              "serialization time (~9.6 us);\nthe host-side span "
              "bookkeeping adds ~2 us of real time against a ~180 us\n"
              "virtual-time roundtrip\n\n");

  AsyncResult async = AsyncThroughput(/*batches=*/50, /*batch_size=*/64);
  std::printf("async fire-and-forget (batches of 64 through the pool "
              "outbox):\n");
  std::printf("  pipeline rate %.0f raises/s, enqueue p50 %llu ns, "
              "delivered %llu/3200\n",
              async.raises_per_sec,
              static_cast<unsigned long long>(async.enqueue.p50_ns),
              static_cast<unsigned long long>(async.delivered));
  std::printf("expected shape: the raiser pays only the enqueue; wire time "
              "overlaps across the batch\n");

  std::printf("\nlatency distributions (JSON, 1 row per case; sync/retry "
              "rows are virtual-time ns):\n");
  for (const NamedSync& row : sync_rows) {
    JsonRow("remote", row.name, row.r.wire);
  }
  {
    char name[48];
    std::snprintf(name, sizeof(name), "sync_rt_loss%d",
                  static_cast<int>(kLoss * 100));
    JsonRow("remote", name, retry);
  }
  for (const NamedBind& row : bind_rows) {
    JsonRow("remote", row.json, row.r->bind_wire);
  }
  for (const NamedGuard& row : guard_rows) {
    JsonRow("remote", row.json, row.r->raise_host);
  }
  JsonRow("remote", "sync_rt_tracing_off", tr_off.wire);
  JsonRow("remote", "sync_rt_tracing_on", tr_on.wire);
  JsonRow("remote", "sync_rt_tracing_off_host", tr_off.host);
  JsonRow("remote", "sync_rt_tracing_on_host", tr_on.host);
  JsonRow("remote", "async_enqueue", async.enqueue);

  std::printf("\nphase attribution (traced sync roundtrips folded by "
              "obs::CriticalPath; EXPERIMENTS.md table):\n");
  const int kPhaseRounds = 64;
  PhaseAttributionRow<uint64_t, uint64_t>("args2_guard_off", false,
                                          kPhaseRounds, &Sum2, 1, 2);
  PhaseAttributionRow<uint64_t, uint64_t>("args2_guard_on", true,
                                          kPhaseRounds, &Sum2, 1, 2);
  PhaseAttributionRow<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                      uint64_t, uint64_t, uint64_t>(
      "args8_guard_off", false, kPhaseRounds, &Sum8, 1, 2, 3, 4, 5, 6, 7, 8);
  PhaseAttributionRow<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                      uint64_t, uint64_t, uint64_t>(
      "args8_guard_on", true, kPhaseRounds, &Sum8, 1, 2, 3, 4, 5, 6, 7, 8);
  return 0;
}
