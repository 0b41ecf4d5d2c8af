// A miniature fleet run: pluggable TCP stacks under loss, with an
// authorizer-gated mid-run hot-swap.
//
// Eight host pairs (one lossy wire each) carry 32 concurrent connections
// of open-loop request/response traffic on the reno stack. A §2.5
// authorizer on every host's Tcp.* stack events allows only
// {reno, rack_lite}: halfway through the run every connection hot-swaps
// to rack_lite (granted — the byte streams must survive the handover
// intact), then attempts stop_and_wait (denied — each endpoint keeps its
// incumbent stack and the denial is tallied, never dropping a byte).
//
// The run writes the Prometheus exposition — including the spin_fleet_*
// series — to a .prom file (lint it with tools/validate_metrics.py) and
// two cumulative stats captures plus their delta as JSON lines for
// tools/spin_top.py.
//
// Build & run:
//   ./build/examples/fleet [metrics.prom [stats.jsonl]]
#include <cstdio>
#include <fstream>
#include <iostream>

#include "src/core/dispatcher.h"
#include "src/fleet/fleet.h"
#include "src/obs/export.h"

int main(int argc, char** argv) {
  const char* prom_path = argc > 1 ? argv[1] : "fleet_metrics.prom";
  const char* stats_path = argc > 2 ? argv[2] : "fleet_stats.jsonl";

  spin::Dispatcher dispatcher;

  spin::fleet::FleetOptions options;
  options.pairs = 8;
  options.conns_per_pair = 4;
  options.stack = "reno";
  options.loss = 0.01;
  options.seed = 7;
  options.duration_ns = 1'000'000'000;
  options.allowed_stacks = {"reno", "rack_lite"};

  spin::fleet::Fleet fleet(&dispatcher, options);
  spin::obs::StatsSnapshot before = spin::obs::CaptureStats();

  // Halfway: swap everyone to rack_lite (allowed), then try to sneak in
  // stop_and_wait (not on the allow-list: denied, incumbent stays).
  fleet.ScheduleSwap(options.duration_ns / 2, "rack_lite");
  fleet.ScheduleSwap(options.duration_ns / 2 + 1, "stop_and_wait");

  spin::fleet::FleetReport report = fleet.Run();
  std::cout << spin::fleet::ReportJson(options, report) << "\n";

  {
    std::ofstream prom(prom_path);
    spin::obs::ExportMetrics(prom);
  }
  {
    spin::obs::StatsSnapshot after = spin::obs::CaptureStats();
    std::ofstream stats(stats_path);
    spin::obs::WriteJsonStats(stats, before);
    stats << "\n";
    spin::obs::WriteJsonStats(stats, after);
    stats << "\n";
    spin::obs::WriteJsonStats(stats, spin::obs::Delta(before, after));
    stats << "\n";
  }
  std::printf("wrote %s and %s\n", prom_path, stats_path);

  bool ok = report.established == report.connections &&
            report.responses_delivered > 0 && report.dead == 0 &&
            report.swaps_granted == 2 * report.connections &&
            report.swaps_denied == 2 * report.connections &&
            report.streams_intact;
  if (!ok) {
    std::fprintf(stderr, "FLEET SMOKE FAILED\n");
    return 1;
  }
  std::printf("fleet smoke ok: %llu responses, swap granted %zu denied %zu\n",
              static_cast<unsigned long long>(report.responses_delivered),
              report.swaps_granted, report.swaps_denied);
  return 0;
}
