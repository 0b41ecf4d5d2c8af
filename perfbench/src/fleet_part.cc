#include "fleet_part.h"

#include <string>

#include "spans.h"

namespace perfbench {
namespace {

spin::Dispatcher::Config MakeConfig(const FleetPartOptions& options) {
  spin::Dispatcher::Config config;
  config.enable_jit = options.enable_jit;
  config.pool = options.pool;
  return config;
}

spin::fleet::FleetOptions MakeOptions(const FleetPartOptions& options) {
  spin::fleet::FleetOptions fleet;
  fleet.pairs = options.pairs;
  fleet.conns_per_pair = options.conns_per_pair;
  fleet.stack = "reno";
  fleet.loss = 0.01;
  fleet.seed = options.seed;
  fleet.duration_ns = FleetPart::kDurationNs;
  fleet.allowed_stacks = {"reno", "rack_lite"};
  return fleet;
}

}  // namespace

FleetPart::FleetPart(const FleetPartOptions& options)
    : dispatcher_(MakeConfig(options)),
      fleet_(&dispatcher_, MakeOptions(options)) {
  fleet_.ScheduleSwap(kSwapOutNs, "rack_lite");
  fleet_.ScheduleSwap(kSwapBackNs, "reno");
}

FleetPart::~FleetPart() = default;

size_t FleetPart::Step() {
  uint64_t from = now_ns_;
  now_ns_ += kStepNs;
  last_swap_ = (from < kSwapOutNs && kSwapOutNs <= now_ns_) ||
               (from < kSwapBackNs && kSwapBackNs <= now_ns_);
  last_steady_ = from >= kWarmupNs && !last_swap_;
  Span span("sim.step");
  return fleet_.sim().Run(now_ns_);
}

const spin::fleet::FleetReport& FleetPart::Finish(Checks& checks) {
  report_ = fleet_.Run();
  const spin::fleet::FleetReport& r = report_;
  checks.attempted += r.requests_sent + r.swaps_granted + r.swaps_denied;
  if (r.established != r.connections) {
    checks.Fail(std::to_string(r.connections - r.established) +
                    " fleet connections never established",
                r.connections - r.established);
  }
  if (r.dead != 0) {
    checks.Fail(std::to_string(r.dead) + " fleet connections dead", r.dead);
  }
  if (!r.streams_intact) {
    checks.Fail("a fleet byte stream was dropped or reordered");
  }
  if (r.swaps_denied != 0 || r.swaps_granted != 4 * r.connections) {
    checks.Fail("fleet hot-swaps: " + std::to_string(r.swaps_granted) +
                    " granted, " + std::to_string(r.swaps_denied) +
                    " denied",
                r.swaps_denied + (r.swaps_granted < 4 * r.connections
                                      ? 4 * r.connections - r.swaps_granted
                                      : 0));
  }
  if (r.responses_delivered == 0) {
    checks.Fail("the fleet delivered no responses");
  }
  return report_;
}

}  // namespace perfbench
