// Discrete-event simulation substrate.
//
// Stands in for the paper's second machine and 10 Mb/s Ethernet (§3.2):
// virtual time advances through an event queue; link models charge
// serialization and propagation delay in virtual nanoseconds. Protocol
// processing runs as real host code, so its cost can be measured with the
// real clock and reported alongside the modeled wire time (see
// bench_table2_udp and EXPERIMENTS.md for the calibration discussion).
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace spin {
namespace sim {

class Simulator {
 public:
  uint64_t now_ns() const { return now_ns_; }

  // Schedules `fn` at absolute virtual time `at_ns` (clamped to now).
  void At(uint64_t at_ns, std::function<void()> fn) {
    queue_.push_back(Entry{at_ns < now_ns_ ? now_ns_ : at_ns, next_seq_++,
                           std::move(fn)});
    std::push_heap(queue_.begin(), queue_.end(), Later{});
  }

  void After(uint64_t delay_ns, std::function<void()> fn) {
    At(now_ns_ + delay_ns, std::move(fn));
  }

  // Runs events until the queue drains or virtual time passes `until_ns`.
  // Returns the number of events executed.
  size_t Run(uint64_t until_ns = ~0ull) {
    size_t executed = 0;
    while (!queue_.empty() && queue_.front().at_ns <= until_ns) {
      RunNext();
      ++executed;
    }
    return executed;
  }

  bool RunOne() {
    if (queue_.empty()) {
      return false;
    }
    RunNext();
    return true;
  }

  size_t pending() const { return queue_.size(); }

 private:
  struct Entry {
    uint64_t at_ns;
    uint64_t seq;  // FIFO among simultaneous events
    std::function<void()> fn;
  };

  // Heap order: the entry that runs first sits at the front.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.at_ns != b.at_ns ? a.at_ns > b.at_ns : a.seq > b.seq;
    }
  };

  // Moves the earliest entry out of the heap, then runs it: the callable is
  // never copied.
  void RunNext() {
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    Entry entry = std::move(queue_.back());
    queue_.pop_back();
    now_ns_ = entry.at_ns;
    entry.fn();
  }

  std::vector<Entry> queue_;  // min-heap on (at_ns, seq)
  uint64_t now_ns_ = 0;
  uint64_t next_seq_ = 0;
};

// A link's timing model. The paper's testbed: 10 Mb/s shared Ethernet.
struct LinkModel {
  uint64_t bandwidth_bps = 10'000'000;
  uint64_t propagation_ns = 25'000;  // per-hop latency incl. device costs

  uint64_t SerializationNs(size_t bytes) const {
    return bytes * 8ull * 1'000'000'000ull / bandwidth_bps;
  }
  uint64_t TransferNs(size_t bytes) const {
    return SerializationNs(bytes) + propagation_ns;
  }
};

}  // namespace sim
}  // namespace spin

#endif  // SRC_SIM_SIMULATOR_H_
