// Macro-workload fleet bench: per-stack throughput and latency under loss.
//
// Runs the src/fleet driver over a grid of (stack, loss rate): 100 host
// pairs (200 hosts), 20 connections each (2000 concurrent connections),
// one virtual second of open-loop request/response traffic per cell. Each
// cell gets a fresh dispatcher, so no cell pays for another's bindings.
//
// The headline contrast is at 5% loss: stop_and_wait pays a full RTO
// (50 ms here) for every lost segment, while reno and rack_lite recover
// mid-stream losses from dup-ACK feedback in about one round-trip, so
// both deliver more responses per virtual second.
//
// Usage: bench_fleet [--smoke] [out.json]  — rows go to stdout; with a
// file argument the full JSON document is also written there (CI uploads
// it as BENCH_fleet.json).
//
// --smoke shrinks the grid to 4 deterministic virtual-time cells (8
// hosts, 16 connections, 200 ms) for the CI regression gate: every
// number in a smoke row derives from the simulator clock and a seeded
// loss stream, so tools/bench_diff.py can hold them to a near-exact
// threshold against bench/BENCH_fleet_smoke.json on any machine.
//
// Full-grid rows also carry host_ns_per_frame: steady_clock time spent in
// Fleet::Run (the simulated second, not set-up or teardown) divided by
// the frames the wires carried. It is host-clock, so smoke rows never
// carry it.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/dispatcher.h"
#include "src/fleet/fleet.h"

namespace {

std::string RunCell(const std::string& stack, double loss, bool smoke,
                    uint32_t trace_sample_rate = 0) {
  spin::Dispatcher dispatcher;

  spin::fleet::FleetOptions options;
  options.pairs = smoke ? 4 : 100;
  options.conns_per_pair = smoke ? 4 : 20;
  options.stack = stack;
  options.loss = loss;
  options.seed = 42;
  options.duration_ns = smoke ? 200'000'000 : 1'000'000'000;
  options.trace_sample_rate = trace_sample_rate;

  spin::fleet::Fleet fleet(&dispatcher, options);
  auto start = std::chrono::steady_clock::now();
  spin::fleet::FleetReport report = fleet.Run();
  std::chrono::duration<double, std::nano> host =
      std::chrono::steady_clock::now() - start;
  std::string row = spin::fleet::ReportJson(options, report);
  if (!smoke && report.frames_offered != 0) {
    row.pop_back();  // the closing brace
    row += ", \"host_ns_per_frame\": " +
           std::to_string(std::llround(
               host.count() / static_cast<double>(report.frames_offered))) +
           "}";
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  const std::vector<std::string> stacks =
      smoke ? std::vector<std::string>{"stop_and_wait", "reno"}
            : std::vector<std::string>{"stop_and_wait", "reno", "rack_lite"};
  const std::vector<double> losses =
      smoke ? std::vector<double>{0.0, 0.05}
            : std::vector<double>{0.0, 0.01, 0.05};

  std::vector<std::string> rows;
  for (const std::string& stack : stacks) {
    for (double loss : losses) {
      std::string row = RunCell(stack, loss, smoke);
      std::cout << row << "\n" << std::flush;
      rows.push_back(row);
    }
  }
  if (!smoke) {
    // One traced cell for the full run: sampled tracing at 1-in-64 with
    // the phase self-time totals appended (phase_self_ns). Not part of
    // the smoke gate — the totals are host-clock, machine-dependent.
    std::string row = RunCell("reno", 0.0, /*smoke=*/false,
                              /*trace_sample_rate=*/64);
    std::cout << row << "\n" << std::flush;
    rows.push_back(row);
  }

  std::string doc = "{\n  \"bench\": \"fleet\",\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    doc += "    " + rows[i] + (i + 1 < rows.size() ? "," : "") + "\n";
  }
  doc += "  ]\n}\n";

  if (out_path != nullptr) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", out_path);
      return 1;
    }
    out << doc;
  }
  return 0;
}
