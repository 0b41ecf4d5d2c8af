// The repository benchmark. One process builds the whole world (a local
// event population, a fleet of simulated hosts, and a client/server pair
// for remote dispatch), measures every end-to-end metric in short windows
// spread over the run, and prints one JSON result line.
//
//   perfbench --workload <zipf|uniform|nojit> --seed <n> --seconds <s>
//             --trace <0|1> [--spans-out <path>]
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the
// per-layer metrics: the benchmark's own spans are on in every other
// round, so the run also reports the spans' overhead on each end-to-end
// metric (traced / untraced windows of the same run).
//
// Inputs come from the seed alone; the same seed builds the same world
// and replays the same traces. See README.md for why each workload and
// metric exists.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "dispatch_part.h"
#include "fleet_part.h"
#include "measure.h"
#include "rpc_part.h"
#include "spans.h"
#include "src/obs/export.h"
#include "src/obs/obs.h"
#include "src/rt/thread_pool.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

// What distinguishes the workloads: how concentrated the traffic is, and
// whether the dispatchers generate code. Every run builds the same kinds
// of world and measures every metric.
struct Workload {
  bool zipf;
  size_t fleet_pairs;
  size_t fleet_conns_per_pair;
  bool enable_jit;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      args->trace = value == "1";
    } else if (key == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

bool LookupWorkload(const std::string& name, Workload* out) {
  if (name == "zipf") {
    *out = Workload{true, 16, 16, true};
    return true;
  }
  if (name == "uniform") {
    *out = Workload{false, 64, 4, true};
    return true;
  }
  if (name == "nojit") {
    *out = Workload{false, 64, 4, false};
    return true;
  }
  return false;
}

// A gated metric, measured in plain windows and (traced run only) in
// windows with the benchmark's spans on.
struct Gated {
  Series plain;
  Series traced;
  Gated(const char* name, const char* unit, Kernel kernel, Clock clock,
        double scale, int kernel_runs = 1)
      : plain(name, unit, kernel, clock, scale, kernel_runs),
        traced(name, unit, kernel, clock, scale, kernel_runs) {}
  Series& pick(bool traced_round) { return traced_round ? traced : plain; }
};

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Kinds of the dispatch tables live on a dispatcher's events, read from
// Describe(): direct call, generated stub (a decision tree is a stub too),
// or interpreted.
struct TableKinds {
  uint64_t direct = 0, stub = 0, interp = 0;
  uint64_t total() const { return direct + stub + interp; }
};

TableKinds LiveTableKinds(const spin::Dispatcher& dispatcher) {
  std::ostringstream text;
  dispatcher.DescribeAll(text);
  std::istringstream in(text.str());
  const std::string key = "  dispatch: ";
  TableKinds kinds;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) {
      continue;
    }
    if (line.find("direct", key.size()) != std::string::npos) {
      ++kinds.direct;
    } else if (line.find("stub", key.size()) != std::string::npos) {
      ++kinds.stub;
    } else {
      ++kinds.interp;
    }
  }
  return kinds;
}

// spin_trace_overwrites_total of the global flight recorder, from
// obs::ExportMetrics.
uint64_t TraceOverwrites() {
  std::ostringstream text;
  spin::obs::ExportMetrics(text);
  std::istringstream in(text.str());
  std::string line;
  const std::string key = "spin_trace_overwrites_total{recorder=\"global\"} ";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtoull(line.c_str() + key.size(), nullptr, 10);
    }
  }
  return 0;
}

// Span operation ids: rounds count from 0, episodes' set-up and teardown
// from here.
constexpr uint64_t kEpisodeOp = uint64_t{1} << 32;

class Runner {
 public:
  Runner(const Args& args, const Workload& workload)
      : args_(args), workload_(workload), pool_(2) {}

  void Run();
  void Print();

 private:
  void Episode(size_t index);
  void Round(size_t round, DispatchPart& dispatch, FleetPart& fleet,
             RpcPart& rpc);

  const Args args_;
  const Workload workload_;
  spin::ThreadPool pool_;
  Checks checks_;

  // A set-up takes 20-300 ms, so its kernel runs 32 times (~10 ms).
  Gated setup_{"setup_s", "s", Kernel::kMapString, Clock::kThreadCpu, 1e-9,
               32};
  Gated raise_{"raise_ns", "ns", Kernel::kMapString, Clock::kThreadCpu, 1};
  Gated async_{"async_raise_ns", "ns", Kernel::kMapString, Clock::kWall, 1};
  Gated reconfig_{"reconfig_us", "us", Kernel::kMapString, Clock::kThreadCpu,
                  1e-3};
  Gated host_{"host_ms_per_vs", "ms", Kernel::kSimQueue, Clock::kThreadCpu,
              1e-6};
  Gated rpc_{"rpc_us", "us", Kernel::kSimQueue, Clock::kThreadCpu, 1e-3};
  double goodput_ = 0;
  double goodput_by_parity_[2] = {0, 0};  // plain / traced episodes
  size_t episodes_ = 0;
  size_t rounds_ = 0;  // over the whole run

  // Per-layer observations (filled in every run, reported by --trace 1).
  std::map<Shape, std::vector<double>> shape_ns_;
  std::vector<double> install_ns_, uninstall_ns_, guard_change_ns_;
  std::vector<double> epoch_backlog_, drain_ns_, swap_ms_, teardown_s_;
  std::vector<double> bind_ns_, codec_ns_, server_dispatch_ns_, verify_ns_;
  std::vector<double> jit_on_ns_, jit_off_ns_;
  uint64_t reconfig_calls_ = 0, rebuilds_ = 0, stub_compiles_ = 0;
  uint64_t async_raises_ = 0, async_tasks_ = 0;
  uint64_t async_batches_ = 0, steals_ = 0;
  uint64_t steady_events_ = 0, steady_cpu_ns_ = 0, steady_steps_ = 0;
  TableKinds live_tables_{};
  double setup_rebuilds_per_event_ = 0;
  double overwrites_per_raise_ = 0;
  spin::fleet::FleetReport report_{};
  double roundtrip_vns_ = 0;
  uint64_t exporter_requests_ = 0, dedup_hits_ = 0, guard_rejects_ = 0;
};

void Runner::Run() {
  Spans::BindToThisThread();
  uint64_t start = WallNs();
  uint64_t budget = static_cast<uint64_t>(args_.seconds * 1e9);
  uint64_t longest = 0;
  // Start another episode only while it is expected to end in time.
  while (episodes_ == 0 || WallNs() - start + longest <= budget) {
    uint64_t t0 = WallNs();
    Episode(episodes_);
    longest = std::max(longest, WallNs() - t0);
    ++episodes_;
  }
}

void Runner::Episode(size_t index) {
  // Set-up: alternate plain and traced episodes in the traced run.
  bool traced_setup = args_.trace && index % 2 == 1;
  Spans::SetEnabled(traced_setup);
  Spans::SetOperation(kEpisodeOp + index);
  uint64_t cpu0 = ThreadCpuNs();
  std::unique_ptr<DispatchPart> dispatch;
  {
    Span span("setup.dispatch");
    dispatch = std::make_unique<DispatchPart>(DispatchOptions{
        workload_.zipf, args_.seed, &pool_, workload_.enable_jit});
  }
  uint64_t cpu1 = ThreadCpuNs();
  std::unique_ptr<FleetPart> fleet;
  {
    Span span("setup.fleet");
    fleet = std::make_unique<FleetPart>(FleetPartOptions{
        workload_.fleet_pairs, workload_.fleet_conns_per_pair, args_.seed,
        &pool_, workload_.enable_jit});
  }
  std::unique_ptr<RpcPart> rpc;
  {
    Span span("setup.rpc");
    rpc = std::make_unique<RpcPart>(RpcOptions{
        workload_.zipf, args_.seed, &pool_, workload_.enable_jit});
  }
  setup_.pick(traced_setup).Add(ThreadCpuNs() - cpu0, 1);
  Spans::SetEnabled(false);

  if (args_.trace && index == 0) {
    live_tables_ = LiveTableKinds(dispatch->dispatcher());
    setup_rebuilds_per_event_ =
        static_cast<double>(dispatch->dispatcher().stats().rebuilds) /
        static_cast<double>(std::max<uint64_t>(live_tables_.total(), 1));
  }
  uint64_t overwrites = args_.trace ? TraceOverwrites() : 0;

  if (args_.trace && !traced_setup) {
    // codegen.compile_share: the same population without the JIT.
    jit_on_ns_.push_back(static_cast<double>(cpu1 - cpu0));
    uint64_t t0 = ThreadCpuNs();
    {
      DispatchPart nojit(
          DispatchOptions{workload_.zipf, args_.seed, &pool_, false});
    }
    jit_off_ns_.push_back(static_cast<double>(ThreadCpuNs() - t0));
  }

  for (size_t round = 0; !fleet->done(); ++round) {
    Round(round, *dispatch, *fleet, *rpc);
  }
  Spans::SetEnabled(false);
  if (args_.trace) {
    // Per remote raise of this episode; the last episode's figure is
    // reported, so it does not grow with the number of episodes.
    overwrites_per_raise_ =
        static_cast<double>(TraceOverwrites() - overwrites) /
        static_cast<double>(std::max<uint64_t>(rpc->raises(), 1));
  }

  const spin::fleet::FleetReport& report = fleet->Finish(checks_);
  if (index == 0) {
    goodput_ = report.delivered_per_sec;
  } else if (report.delivered_per_sec != goodput_) {
    checks_.Fail("fleet goodput differs between episodes of one seed");
  }
  goodput_by_parity_[traced_setup ? 1 : 0] = report.delivered_per_sec;
  report_ = report;
  dispatch->Verify(checks_);
  rpc->Verify(checks_);

  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(install_ns_, dispatch->install_ns());
  append(uninstall_ns_, dispatch->uninstall_ns());
  append(guard_change_ns_, dispatch->guard_change_ns());
  append(epoch_backlog_, dispatch->epoch_backlog());
  append(bind_ns_, rpc->bind_ns());
  roundtrip_vns_ = rpc->roundtrip_virtual_ns();
  exporter_requests_ = rpc->exporter().requests();
  dedup_hits_ = rpc->exporter().dedup_hits();
  guard_rejects_ = rpc->exporter().guard_rejected();

  Spans::SetEnabled(traced_setup);
  Spans::SetOperation(kEpisodeOp + index);
  uint64_t t0 = ThreadCpuNs();
  {
    Span span("fleet.teardown");
    fleet.reset();
  }
  Spans::SetEnabled(false);
  teardown_s_.push_back(static_cast<double>(ThreadCpuNs() - t0) * 1e-9);
  rpc.reset();
  dispatch.reset();
}

void Runner::Round(size_t round, DispatchPart& dispatch, FleetPart& fleet,
                   RpcPart& rpc) {
  // In the traced run, even rounds carry the benchmark's spans.
  bool traced = args_.trace && round % 2 == 0;
  Spans::SetEnabled(traced);
  Spans::SetOperation(rounds_++);

  Series& raise = raise_.pick(traced);
  uint64_t start = raise.Now();
  size_t n;
  {
    Span span("core.raise_batch");
    n = dispatch.RaiseWindow();
  }
  raise.Finish(start, static_cast<double>(n));
  dispatch.Settle();

  Series& async = async_.pick(traced);
  uint64_t executed = pool_.executed();
  uint64_t steals = pool_.steals();
  uint64_t drain_ns = 0;
  start = async.Now();
  {
    Span span("core.async_batch");
    n = dispatch.AsyncBatch(&drain_ns);
  }
  async.Finish(start, static_cast<double>(n));
  async_tasks_ += pool_.executed() - executed;
  steals_ += pool_.steals() - steals;
  async_raises_ += n;
  ++async_batches_;
  drain_ns_.push_back(static_cast<double>(drain_ns));
  dispatch.Settle();

  Series& reconfig = reconfig_.pick(traced);
  spin::Dispatcher::Stats before = dispatch.dispatcher().stats();
  start = reconfig.Now();
  {
    Span span("core.reconfig_burst");
    n = dispatch.ReconfigBurst();
  }
  reconfig.Finish(start, static_cast<double>(n));
  spin::Dispatcher::Stats after = dispatch.dispatcher().stats();
  reconfig_calls_ += n;
  rebuilds_ += after.rebuilds - before.rebuilds;
  stub_compiles_ += after.stub_compiles - before.stub_compiles;

  Series& host = host_.pick(traced);
  start = host.Now();
  size_t events = fleet.Step();
  uint64_t step_cpu = host.Now() - start;
  if (fleet.last_step_steady()) {
    host.Add(step_cpu, static_cast<double>(FleetPart::kStepNs) * 1e-9);
    if (!traced) {
      steady_events_ += events;
      steady_cpu_ns_ += step_cpu;
      ++steady_steps_;
    }
  } else if (fleet.last_step_swapped()) {
    swap_ms_.push_back(static_cast<double>(step_cpu) * 1e-6);
  }

  Series& remote = rpc_.pick(traced);
  RpcPart::SetSampledTracing(true);
  start = remote.Now();
  {
    Span span("remote.raise_batch");
    n = rpc.Window();
  }
  remote.Finish(start, static_cast<double>(n));
  RpcPart::SetSampledTracing(false);

  if (args_.trace && round % 8 == 0) {
    for (Shape shape : {Shape::kH1, Shape::kH2, Shape::kH5, Shape::kH10,
                        Shape::kH50, Shape::kReject}) {
      shape_ns_[shape].push_back(dispatch.ShapeProbe(shape, 512));
    }
    codec_ns_.push_back(rpc.CodecProbe(256));
    server_dispatch_ns_.push_back(rpc.ServerDispatchProbe(256));
    verify_ns_.push_back(rpc.VerifyProbe(256));
  }
}

struct Out {
  std::ostringstream os;
  bool first = true;
  void Metric(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", value);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
};

// The phases a sampled remote raise records, by obs::PhaseName, so the
// result keeps its keys if the program renumbers or adds phases. The
// remote windows never wait in a pool queue or back off, so queue_wait and
// backoff are left out. "routine" merges stub and interp: the dispatch
// routine is one or the other depending on the event and the workload.
// wire_virtual is simulator time (unit vns).
const char* const kPhaseNames[] = {"guard_eval", "handler_body", "routine",
                                   "marshal",    "wire",         "dispatch",
                                   "unmarshal",  "wire_virtual"};

// Span names the traced run reduces to per-layer self time.
const char* const kSpanNames[] = {
    "setup.dispatch",  "setup.fleet",         "setup.rpc",
    "core.raise_batch", "core.raise_probe",   "core.async_batch",
    "rt.drain",        "core.reconfig_burst", "core.install",
    "core.uninstall",  "core.guard",          "sim.step",
    "remote.raise_batch", "remote.handler",   "remote.bind",
    "remote.codec",    "fleet.teardown"};

void Runner::Print() {
  Out out;
  const Gated* timed[] = {&setup_, &raise_, &async_, &reconfig_, &host_,
                          &rpc_};
  if (!args_.trace) {
    for (const Gated* g : timed) {
      out.Metric(g->plain.name(), g->plain.Value(),
                 g->plain.unit().c_str());
    }
    out.Metric("goodput_per_vs", goodput_, "1/s");
  } else {
    auto ns_to_us = [](double ns) { return ns * 1e-3; };
    out.Metric("core.raise_ns.h1", Median(shape_ns_[Shape::kH1]), "ns");
    out.Metric("core.raise_ns.h2", Median(shape_ns_[Shape::kH2]), "ns");
    out.Metric("core.raise_ns.h5", Median(shape_ns_[Shape::kH5]), "ns");
    out.Metric("core.raise_ns.h10", Median(shape_ns_[Shape::kH10]), "ns");
    out.Metric("core.raise_ns.h50", Median(shape_ns_[Shape::kH50]), "ns");
    out.Metric("core.raise_ns.reject", Median(shape_ns_[Shape::kReject]),
               "ns");
    out.Metric("core.install_us", ns_to_us(Median(install_ns_)), "us");
    out.Metric("core.uninstall_us", ns_to_us(Median(uninstall_ns_)), "us");
    out.Metric("core.guard_change_us", ns_to_us(Median(guard_change_ns_)),
               "us");
    double calls = static_cast<double>(std::max<uint64_t>(reconfig_calls_, 1));
    out.Metric("core.rebuilds_per_change",
               static_cast<double>(rebuilds_) / calls, "count");
    out.Metric("core.stub_compiles_per_change",
               static_cast<double>(stub_compiles_) / calls, "count");
    out.Metric("core.setup_rebuilds_per_event", setup_rebuilds_per_event_,
               "count");
    out.Metric("core.tables.direct", static_cast<double>(live_tables_.direct),
               "count");
    out.Metric("core.tables.stub", static_cast<double>(live_tables_.stub),
               "count");
    out.Metric("core.tables.interp", static_cast<double>(live_tables_.interp),
               "count");
    out.Metric("core.async_tasks_per_raise",
               static_cast<double>(async_tasks_) /
                   static_cast<double>(std::max<uint64_t>(async_raises_, 1)),
               "count");
    double on = Median(jit_on_ns_);
    out.Metric("codegen.compile_share",
               on > 0 ? 1.0 - Median(jit_off_ns_) / on : 0, "share");
    out.Metric("micro.verify_us", ns_to_us(Median(verify_ns_)), "us");
    out.Metric("rt.drain_us", ns_to_us(Median(drain_ns_)), "us");
    out.Metric("rt.steals_per_batch",
               static_cast<double>(steals_) /
                   static_cast<double>(std::max<uint64_t>(async_batches_, 1)),
               "count");
    out.Metric("rt.epoch_backlog", Median(epoch_backlog_), "count");

    std::map<std::string, std::pair<uint64_t, uint64_t>> phases;
    for (const spin::obs::PhaseStats& stats : spin::obs::SnapshotPhaseStats()) {
      for (size_t p = 0; p < spin::obs::kNumPhases; ++p) {
        std::string name =
            spin::obs::PhaseName(static_cast<spin::obs::Phase>(p));
        if (name == "stub" || name == "interp") {
          name = "routine";
        }
        auto& [sum, count] = phases[name];
        sum += stats.phases[p].sum;
        count += stats.phases[p].count;
      }
    }
    for (const char* phase : kPhaseNames) {
      auto [sum, count] = phases[phase];
      out.Metric(std::string("obs.phase_ns.") + phase,
                 count == 0 ? 0
                            : static_cast<double>(sum) /
                                  static_cast<double>(count),
                 std::string(phase) == "wire_virtual" ? "vns" : "ns");
    }
    out.Metric("obs.trace_overwrites_per_raise", overwrites_per_raise_,
               "count");

    double vs = static_cast<double>(steady_steps_) *
                static_cast<double>(FleetPart::kStepNs) * 1e-9;
    out.Metric("sim.events_per_vs",
               vs > 0 ? static_cast<double>(steady_events_) / vs : 0, "1/s");
    out.Metric("sim.host_ns_per_event",
               steady_events_ == 0
                   ? 0
                   : static_cast<double>(steady_cpu_ns_) /
                         static_cast<double>(steady_events_),
               "ns");
    double duration_vs = static_cast<double>(FleetPart::kDurationNs) * 1e-9;
    double frames_per_vs =
        static_cast<double>(report_.frames_offered) / duration_vs;
    out.Metric("net.frames_per_vs", frames_per_vs, "1/s");
    out.Metric("net.retransmissions_per_vs",
               static_cast<double>(report_.retransmissions) / duration_vs,
               "1/s");
    out.Metric("net.loss_ratio",
               report_.frames_offered == 0
                   ? 0
                   : static_cast<double>(report_.frames_lost) /
                         static_cast<double>(report_.frames_offered),
               "share");
    out.Metric("net.host_ns_per_frame",
               frames_per_vs > 0 ? host_.plain.Value() * 1e6 / frames_per_vs
                                 : 0,
               "ns");
    out.Metric("net.swap_ms", Median(swap_ms_), "ms");
    out.Metric("remote.bind_us", ns_to_us(Median(bind_ns_)), "us");
    out.Metric("remote.codec_ns", Median(codec_ns_), "ns");
    out.Metric("remote.server_dispatch_ns", Median(server_dispatch_ns_),
               "ns");
    out.Metric("remote.exporter_requests",
               static_cast<double>(exporter_requests_), "count");
    out.Metric("remote.dedup_hits", static_cast<double>(dedup_hits_),
               "count");
    out.Metric("remote.guard_rejects", static_cast<double>(guard_rejects_),
               "count");
    out.Metric("remote.roundtrip_vus", roundtrip_vns_ * 1e-3, "vus");
    out.Metric("fleet.teardown_s", Median(teardown_s_), "s");

    for (const Gated* g : timed) {
      const Series& s = g->plain;
      out.Metric(s.name() + ".raw_p50", s.Raw(0.5), s.unit().c_str());
      out.Metric(s.name() + ".raw_p10", s.Raw(0.1), s.unit().c_str());
    }
    for (const Gated* g : timed) {
      double plain = g->plain.Value();
      out.Metric("trace.overhead." + g->plain.name(),
                 plain > 0 ? g->traced.Value() / plain : 0, "x");
    }
    out.Metric("trace.overhead.goodput_per_vs",
               goodput_by_parity_[0] > 0
                   ? goodput_by_parity_[1] / goodput_by_parity_[0]
                   : 0,
               "x");
    out.Metric("kernel.map_string_ns", raise_.plain.KernelMedianNs(), "ns");
    out.Metric("kernel.sim_queue_ns", rpc_.plain.KernelMedianNs(), "ns");
    const auto totals = Spans::totals();
    for (const char* name : kSpanNames) {
      auto it = totals.find(name);
      double self = it == totals.end() || it->second.count == 0
                        ? 0
                        : static_cast<double>(it->second.self_ns) /
                              static_cast<double>(it->second.count);
      out.Metric(std::string("self_ns.") + name, self, "ns");
    }
  }

  // Raw medians and kernel costs go to stderr on every run, so a reader
  // can convert the gated values back and see the two-speed drift.
  std::fprintf(stderr, "perfbench-raw {");
  for (size_t i = 0; i < std::size(timed); ++i) {
    const Series& s = timed[i]->plain;
    std::fprintf(stderr,
                 "%s\"%s\": {\"raw_p50\": %.10g, \"raw_p10\": %.10g, "
                 "\"kernel_ns\": %.10g, \"windows\": %zu}",
                 i == 0 ? "" : ", ", s.name().c_str(), s.Raw(0.5), s.Raw(0.1),
                 s.KernelMedianNs(), s.samples());
  }
  std::fprintf(stderr, ", \"episodes\": %zu}\n", episodes_);

  bool correct = checks_.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(checks_.attempted, 1)),
      static_cast<unsigned long long>(checks_.failed), out.os.str().c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  perfbench::Workload workload{};
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <zipf|uniform|nojit> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans-out <path>]\n");
    return 2;
  }
  if (!perfbench::LookupWorkload(args.workload, &workload)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  perfbench::Runner runner(args, workload);
  runner.Run();
  if (args.trace && !args.spans_out.empty() &&
      !perfbench::Spans::Write(args.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.spans_out.c_str());
    return 1;
  }
  runner.Print();
  return 0;
}
