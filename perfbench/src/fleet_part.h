// The fleet part of the benchmark world: a src/fleet Fleet over lossy
// wires with reno, hot-swapped to rack_lite and back mid-run through an
// allow-list authorizer, advanced in fixed virtual-time steps.
#ifndef PERFBENCH_FLEET_PART_H_
#define PERFBENCH_FLEET_PART_H_

#include <cstdint>
#include <memory>

#include "checks.h"
#include "src/core/dispatcher.h"
#include "src/fleet/fleet.h"

namespace perfbench {

struct FleetPartOptions {
  size_t pairs = 16;
  size_t conns_per_pair = 16;
  uint64_t seed = 1;
  spin::ThreadPool* pool = nullptr;
  bool enable_jit = true;
};

class FleetPart {
 public:
  static constexpr uint64_t kStepNs = 10'000'000;       // one sim().Run() step
  static constexpr uint64_t kDurationNs = 2'000'000'000;
  static constexpr uint64_t kWarmupNs = 300'000'000;    // connection set-up
  static constexpr uint64_t kSwapOutNs = 800'000'000;   // reno -> rack_lite
  static constexpr uint64_t kSwapBackNs = 1'400'000'000;

  // Builds the fleet; this is the part's share of setup_s.
  explicit FleetPart(const FleetPartOptions& options);
  ~FleetPart();
  FleetPart(const FleetPart&) = delete;
  FleetPart& operator=(const FleetPart&) = delete;

  bool done() const { return now_ns_ >= kDurationNs; }

  // Advances one step; returns the simulator events it executed.
  size_t Step();

  // The step just taken: whether it counts toward host_ms_per_vs (past
  // warm-up, no hot-swap inside it), and whether it held a swap.
  bool last_step_steady() const { return last_steady_; }
  bool last_step_swapped() const { return last_swap_; }

  // Finishes the run (Fleet::Run) and checks its report.
  const spin::fleet::FleetReport& Finish(Checks& checks);

 private:
  spin::Dispatcher dispatcher_;
  spin::fleet::Fleet fleet_;
  uint64_t now_ns_ = 0;
  bool last_steady_ = false;
  bool last_swap_ = false;
  spin::fleet::FleetReport report_;
};

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_PART_H_
