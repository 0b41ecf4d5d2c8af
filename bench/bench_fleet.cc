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
// carry it. Each grid cell runs kRepeats times, each on a fresh
// dispatcher: the row's host_ns_per_frame is the median of the runs, with
// host_ns_per_frame_min and _max, and the bench exits non-zero if a
// repeat's virtual-time report differs from the first run's. The traced
// cell runs once.
#include <algorithm>
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

constexpr int kRepeats = 3;

struct Cell {
  std::string report;            // ReportJson: virtual-time fields
  double host_ns_per_frame = 0;  // Fleet::Run's host time per frame
};

Cell RunCell(const std::string& stack, double loss, bool smoke,
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
  Cell cell;
  cell.report = spin::fleet::ReportJson(options, report);
  if (report.frames_offered != 0) {
    cell.host_ns_per_frame =
        host.count() / static_cast<double>(report.frames_offered);
  }
  return cell;
}

// `report` with the median, min and max of `host_ns` appended.
std::string WithHostTime(std::string report, std::vector<double> host_ns) {
  std::sort(host_ns.begin(), host_ns.end());
  auto field = [](const char* name, double ns) {
    return std::string(", \"") + name +
           "\": " + std::to_string(std::llround(ns));
  };
  report.pop_back();  // the closing brace
  return report + field("host_ns_per_frame", host_ns[host_ns.size() / 2]) +
         field("host_ns_per_frame_min", host_ns.front()) +
         field("host_ns_per_frame_max", host_ns.back()) + "}";
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

  int status = 0;
  std::vector<std::string> rows;
  for (const std::string& stack : stacks) {
    for (double loss : losses) {
      Cell cell = RunCell(stack, loss, smoke);
      std::string row = cell.report;
      if (!smoke) {
        std::vector<double> host_ns = {cell.host_ns_per_frame};
        for (int r = 1; r < kRepeats; ++r) {
          Cell repeat = RunCell(stack, loss, smoke);
          if (repeat.report != cell.report) {
            std::fprintf(stderr,
                         "%s at loss %g: repeat %d's virtual-time report "
                         "differs from the first run's\n",
                         stack.c_str(), loss, r + 1);
            status = 1;
          }
          host_ns.push_back(repeat.host_ns_per_frame);
        }
        row = WithHostTime(row, host_ns);
      }
      std::cout << row << "\n" << std::flush;
      rows.push_back(row);
    }
  }
  if (!smoke) {
    // One traced cell for the full run: sampled tracing at 1-in-64 with
    // the phase self-time totals appended (phase_self_ns). Not part of
    // the smoke gate — the totals are host-clock, machine-dependent.
    Cell cell = RunCell("reno", 0.0, /*smoke=*/false,
                        /*trace_sample_rate=*/64);
    std::string row = WithHostTime(cell.report, {cell.host_ns_per_frame});
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
  return status;
}
