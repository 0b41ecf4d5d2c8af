// Macro-workload driver: a simulated fleet of hosts serving open-loop
// request/response traffic over pluggable TCP stacks.
//
// This is the "millions of users"-shaped scenario the ROADMAP calls for:
// hundreds of Hosts paired off over lossy Wires, thousands of concurrent
// TcpEndpoint connections, all advanced in virtual time by one
// sim::Simulator. Every connection binds a stack from src/net/stacks/
// (selection and hot-swap run through the hosts' §2.5 authorizer when an
// allow-list is configured) and reports request latency through the obs
// histogram registry — the numbers surface in ExportMetrics,
// CaptureStats/WriteJsonStats, and tools/spin_top.py like any other event.
//
// Traffic is open-loop: each connection issues a fixed-size request every
// request_interval_ns of virtual time regardless of completions, and the
// server answers each full request with a fixed-size response. Both byte
// streams carry position-derived patterns, so the fleet can assert
// end-to-end that no connection's delivered stream was dropped or
// reordered — including across a mid-run stack hot-swap.
#ifndef SRC_FLEET_FLEET_H_
#define SRC_FLEET_FLEET_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/core/dispatcher.h"
#include "src/net/compress.h"
#include "src/net/host.h"
#include "src/net/stacks/tcp_stack.h"
#include "src/net/tcp.h"
#include "src/obs/obs.h"
#include "src/sim/simulator.h"

namespace spin {
namespace fleet {

struct FleetOptions {
  size_t pairs = 8;           // client/server host pairs, one wire each
  size_t conns_per_pair = 4;  // concurrent connections per pair
  std::string stack = "reno";
  double loss = 0.0;    // per-frame drop probability on every wire
  uint64_t seed = 1;    // loss streams derive from seed + pair index
  uint64_t rto_ns = 50'000'000;
  uint32_t max_retries = 8;
  size_t request_bytes = 256;
  size_t response_bytes = 8 * 1460;
  uint64_t request_interval_ns = 100'000'000;  // per connection, open loop
  uint64_t duration_ns = 1'000'000'000;        // virtual run length
  uint64_t bandwidth_bps = 100'000'000;
  uint64_t propagation_ns = 25'000;
  bool compress = false;  // interpose CompressionExtension on every wire
  // Non-empty: attach a StackAuthorizer with this allow-list to every
  // host's stack events (must include `stack` or nothing binds).
  std::vector<std::string> allowed_stacks;
  // Nonzero: run with sampled tracing at 1-in-this rate and report the
  // fleet's phase-level self-time totals (FleetReport::phase_self_ns).
  // Resets the global flight recorder and phase stats, so only one traced
  // fleet should run at a time. 0 keeps tracing off and the report free
  // of machine-dependent fields — CI smoke rows stay deterministic.
  uint32_t trace_sample_rate = 0;
};

struct FleetReport {
  size_t hosts = 0;
  size_t connections = 0;
  size_t established = 0;
  size_t dead = 0;
  uint64_t requests_sent = 0;
  uint64_t responses_delivered = 0;
  uint64_t response_bytes_delivered = 0;
  uint64_t retransmissions = 0;
  uint64_t frames_offered = 0;
  uint64_t frames_lost = 0;
  double delivered_per_sec = 0;  // responses per virtual second
  uint64_t latency_p50_ns = 0;   // request -> full response, virtual time
  uint64_t latency_p99_ns = 0;
  size_t swaps_granted = 0;
  size_t swaps_denied = 0;
  // Every delivered byte matched its position-derived pattern on every
  // connection (no drops, no reordering, including across hot-swaps).
  bool streams_intact = true;
  // trace_sample_rate != 0 only: host-clock self-time per phase summed
  // over every sampled raise the fleet dispatched (guard_eval,
  // handler_body, interp, queue_wait, ...), from SnapshotPhaseStats.
  bool traced = false;
  uint64_t phase_self_ns[obs::kNumPhases] = {};
};

class Fleet {
 public:
  Fleet(Dispatcher* dispatcher, const FleetOptions& options);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Schedules a hot-swap of every connection (both endpoints) to `stack`
  // at virtual time `at_ns`. Each endpoint's swap runs through the §2.5
  // authorizer; grants and denials are tallied in the report.
  void ScheduleSwap(uint64_t at_ns, const std::string& stack,
                    void* credentials = nullptr);

  // Runs the workload to options.duration_ns of virtual time.
  FleetReport Run();

  sim::Simulator& sim() { return sim_; }
  const FleetOptions& options() const { return options_; }

 private:
  struct Conn {
    std::unique_ptr<net::TcpEndpoint> client;
    std::unique_ptr<net::TcpEndpoint> server;
    uint64_t server_rx = 0;       // request-stream bytes verified
    uint64_t client_rx = 0;       // response-stream bytes verified
    uint64_t request_backlog = 0; // server bytes not yet answered
    uint64_t server_tx = 0;       // response-stream bytes sent
    uint64_t requests = 0;
    uint64_t responses = 0;
    std::deque<uint64_t> sent_at_ns;  // open requests, FIFO
    bool intact = true;
  };

  struct Pair {
    std::unique_ptr<net::Host> client_host;
    std::unique_ptr<net::Host> server_host;
    std::unique_ptr<net::Wire> wire;
    std::unique_ptr<net::CompressionExtension> compression;
    std::vector<std::unique_ptr<Conn>> conns;
  };

  static void ExportMetricsSource(void* ctx, std::ostream& os);

  void BuildPair(size_t index);
  void Tick(Conn* conn);
  void OnServerData(Conn* conn, const std::string& chunk);
  void OnClientData(Conn* conn, const std::string& chunk);

  Dispatcher* dispatcher_;
  FleetOptions options_;
  sim::Simulator sim_;
  std::unique_ptr<net::StackAuthorizer> authorizer_;
  std::vector<std::unique_ptr<Pair>> pairs_;
  std::shared_ptr<obs::EventMetrics> latency_;
  uint64_t requests_sent_ = 0;
  uint64_t responses_delivered_ = 0;
  uint64_t response_bytes_delivered_ = 0;
  size_t swaps_granted_ = 0;
  size_t swaps_denied_ = 0;
};

// One bench/CI row: run a fresh fleet (own dispatcher implied by caller)
// and serialize the report as a JSON object.
std::string ReportJson(const FleetOptions& options,
                       const FleetReport& report);

}  // namespace fleet
}  // namespace spin

#endif  // SRC_FLEET_FLEET_H_
