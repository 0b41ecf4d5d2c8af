// Seeded input generation shared by the benchmark's parts.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// xorshift64; `x` must start nonzero.
inline uint64_t NextRandom(uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// Zipf weights with exponent 1: index i has weight 1 / (i + 1).
inline std::vector<double> ZipfWeights(size_t n) {
  std::vector<double> weights;
  for (size_t i = 0; i < n; ++i) {
    weights.push_back(1.0 / static_cast<double>(i + 1));
  }
  return weights;
}

// A trace of `length` indices into `weights` in which each index appears
// in proportion to its weight (whole counts, largest remainders first),
// in an order shuffled by `rng`. Every seed gets the same mix; the seed
// only decides the order.
inline std::vector<uint32_t> Schedule(const std::vector<double>& weights,
                                      size_t length, uint64_t& rng) {
  double total = 0;
  for (double w : weights) {
    total += w;
  }
  std::vector<uint32_t> trace;
  trace.reserve(length);
  std::vector<std::pair<double, uint32_t>> remainders;
  for (size_t i = 0; i < weights.size(); ++i) {
    double exact = weights[i] / total * static_cast<double>(length);
    size_t whole = static_cast<size_t>(exact);
    trace.insert(trace.end(), whole, static_cast<uint32_t>(i));
    remainders.emplace_back(exact - static_cast<double>(whole),
                            static_cast<uint32_t>(i));
  }
  std::stable_sort(
      remainders.begin(), remainders.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t k = 0; trace.size() < length; ++k) {
    trace.push_back(remainders[k].second);
  }
  for (size_t i = trace.size() - 1; i > 0; --i) {
    std::swap(trace[i], trace[NextRandom(rng) % (i + 1)]);
  }
  return trace;
}

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
