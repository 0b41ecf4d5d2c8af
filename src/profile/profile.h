// Event profiling (the instrumentation behind Table 3).
//
// "We instrumented the kernel and extension code to generate call graph
// information with counts and elapsed times" (§3.2). Under
// obs::TraceMode::kTimed every raise is timed into its event's latency
// histograms (src/obs); this module switches that mode on and snapshots the
// histograms into the same columns Table 3 prints: event name, raised,
// time, handlers, guards.
#ifndef SRC_PROFILE_PROFILE_H_
#define SRC_PROFILE_PROFILE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/dispatcher.h"

namespace spin {
namespace profile {

struct EventProfile {
  std::string name;
  uint64_t raised = 0;
  double time_s = 0;
  size_t handlers = 0;
  size_t guards = 0;
  // Raise-latency distribution (the raise kinds merged), from the
  // observability histograms. Percentiles are log-bucket upper bounds.
  uint64_t p50_ns = 0;
  uint64_t p90_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t max_ns = 0;
};

// RAII: sets the dispatcher's mode to kTimed for its lifetime and restores
// the previous trace configuration on exit.
class Profiler {
 public:
  explicit Profiler(Dispatcher& dispatcher);
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // Clears accumulated counters on every event.
  void Reset();

  // Snapshots all events, ordered by raise count (descending). Events with
  // zero raises are included only when `include_idle`.
  std::vector<EventProfile> Snapshot(bool include_idle = false) const;

  // Snapshot restricted to the given events (e.g. one host's stack).
  std::vector<EventProfile> SnapshotOf(
      const std::vector<const EventBase*>& events) const;

  // Prints the Table 3 layout.
  static void PrintTable(std::ostream& os,
                         const std::vector<EventProfile>& profiles);

 private:
  static EventProfile Sample(const EventBase& event);

  Dispatcher& dispatcher_;
  const obs::TraceConfig prev_;
};

}  // namespace profile
}  // namespace spin

#endif  // SRC_PROFILE_PROFILE_H_
