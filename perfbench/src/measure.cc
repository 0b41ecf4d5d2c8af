#include "measure.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <queue>

#include "inputs.h"

namespace perfbench {
namespace {

uint64_t ReadClock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

[[noreturn]] void KernelBroken(const char* which) {
  std::fprintf(stderr, "perfbench: reference kernel %s checksum mismatch\n",
               which);
  std::exit(3);
}

// std::map + std::string churn: the allocation and pointer-chasing mix of
// building a dispatch population, a reconfiguration burst and a raise
// window. Keys are longer than the small-string buffer, so every key
// allocates.
constexpr int kMapInserts = 1200;
constexpr int kMapKeys = 701;

void MapStringKernel() {
  std::map<std::string, uint64_t> table;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  uint64_t inserted = 0;
  for (int i = 0; i < kMapInserts; ++i) {
    std::string key = "perfbench.event." +
                      std::to_string(NextRandom(x) % kMapKeys) + ".binding";
    table[key] += static_cast<uint64_t>(i);
    inserted += static_cast<uint64_t>(i);
  }
  uint64_t found = 0;
  for (int i = 0; i < kMapKeys; i += 2) {
    auto it = table.find("perfbench.event." + std::to_string(i) + ".binding");
    if (it != table.end()) {
      found += it->second;
      table.erase(it);
    }
  }
  uint64_t left = 0;
  for (const auto& [key, value] : table) {
    left += value;
  }
  if (found + left != inserted) {
    KernelBroken("map_string");
  }
}

// A simulator-shaped queue: a priority queue of std::function entries
// carrying freshly built byte-pattern payloads, popped in time order and
// verified, the way a fleet step or a remote roundtrip spends its time.
constexpr int kQueueEntries = 900;

struct QueueEntry {
  uint64_t at;
  uint64_t seq;
  std::function<void()> fn;
  bool operator>(const QueueEntry& other) const {
    return at != other.at ? at > other.at : seq > other.seq;
  }
};

char PatternByte(uint64_t offset) {
  return static_cast<char>('a' + offset % 29);
}

void SimQueueKernel() {
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>
      queue;
  uint64_t x = 0x2545f4914f6cdd1dull;
  uint64_t verified = 0;
  uint64_t expected = 0;
  for (int i = 0; i < kQueueEntries; ++i) {
    size_t size = 48 + NextRandom(x) % 160;
    uint64_t offset = NextRandom(x) % 4096;
    std::string payload(size, '\0');
    for (size_t b = 0; b < size; ++b) {
      payload[b] = PatternByte(offset + b);
    }
    expected += size;
    queue.push(QueueEntry{NextRandom(x) % 1'000'000, static_cast<uint64_t>(i),
                          [payload = std::move(payload), offset, &verified] {
                            for (size_t b = 0; b < payload.size(); ++b) {
                              if (payload[b] != PatternByte(offset + b)) {
                                return;
                              }
                            }
                            verified += payload.size();
                          }});
  }
  while (!queue.empty()) {
    QueueEntry entry = queue.top();
    queue.pop();
    entry.fn();
  }
  if (verified != expected) {
    KernelBroken("sim_queue");
  }
}

}  // namespace

uint64_t ThreadCpuNs() { return ReadClock(CLOCK_THREAD_CPUTIME_ID); }
uint64_t WallNs() { return ReadClock(CLOCK_MONOTONIC); }

double NominalNs(Kernel kernel) {
  return kernel == Kernel::kMapString ? kMapStringNominalNs
                                      : kSimQueueNominalNs;
}

uint64_t RunKernel(Kernel kernel, Clock clock) {
  uint64_t start = clock == Clock::kWall ? WallNs() : ThreadCpuNs();
  if (kernel == Kernel::kMapString) {
    MapStringKernel();
  } else {
    SimQueueKernel();
  }
  uint64_t end = clock == Clock::kWall ? WallNs() : ThreadCpuNs();
  return end - start;
}

Series::Series(std::string name, std::string unit, Kernel kernel, Clock clock,
               double scale, int kernel_runs)
    : name_(std::move(name)),
      unit_(std::move(unit)),
      kernel_(kernel),
      clock_(clock),
      scale_(scale),
      kernel_runs_(kernel_runs) {}

uint64_t Series::Now() const {
  return clock_ == Clock::kWall ? WallNs() : ThreadCpuNs();
}

void Series::Add(uint64_t cost_ns, double ops) {
  uint64_t ref_ns = 0;
  for (int i = 0; i < kernel_runs_; ++i) {
    ref_ns += RunKernel(kernel_, clock_);
  }
  ref_ns /= static_cast<uint64_t>(kernel_runs_);
  if (ops <= 0 || ref_ns == 0) {
    return;
  }
  double per_op = static_cast<double>(cost_ns) / ops;
  raw_.push_back(per_op * scale_);
  ref_ns_.push_back(static_cast<double>(ref_ns));
  normalized_.push_back(per_op / static_cast<double>(ref_ns) *
                        NominalNs(kernel_) * scale_);
}

double Series::Raw(double q) const { return Quantile(raw_, q); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace perfbench
