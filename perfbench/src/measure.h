// Timing for the repository benchmark: clocks, the two reference kernels,
// and the windowed estimator every gated metric goes through.
//
// The host this benchmark was built on drifts between a fast and a slow
// state every 5-30 s, and allocation-heavy code runs up to ~1.9x slower
// in the slow one. Raw window times therefore report whichever state a
// run landed in. Each window is instead followed, on the same thread, by
// a fixed reference kernel shaped like the window's work, and normalized:
//
//   (window cost / kernel cost) x kernel nominal cost
//
// The nominal cost is a constant of the benchmark, so the result keeps
// its unit (s, us, ns). A run's value is the median of its normalized
// windows. The raw medians and kernel costs are reported beside it, so a
// reader can convert back and can see a program change that moves a
// kernel (the map+string kernel shares the process heap).
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// CPU time consumed by the calling thread, in ns.
uint64_t ThreadCpuNs();
// Monotonic wall clock, in ns.
uint64_t WallNs();

enum class Kernel { kMapString, kSimQueue };
enum class Clock { kThreadCpu, kWall };

// Nominal costs of one kernel run on the calling thread's CPU clock (the
// fast-state medians measured when the benchmark was written; see
// README.md). They only fix the scale of the reported numbers: a run's
// value is (window / kernel) x nominal.
inline constexpr double kMapStringNominalNs = 300'000;
inline constexpr double kSimQueueNominalNs = 550'000;

double NominalNs(Kernel kernel);

// Runs the kernel once and returns its cost on `clock`. Both kernels
// allocate, touch and free everything they use, and check their own
// output; a wrong checksum aborts the benchmark.
uint64_t RunKernel(Kernel kernel, Clock clock);

// Quantile of `values` by linear interpolation (values are copied).
double Quantile(std::vector<double> values, double q);

// One gated metric: windows of work, each followed by its kernel.
class Series {
 public:
  // `scale` converts ns per op into the metric's unit (1e-3 for us, ...).
  // `kernel_runs` is how often the kernel runs after each window; a long
  // window (a whole set-up) takes the mean of many runs, so one
  // sub-millisecond kernel run does not stand for a window of many ms.
  Series(std::string name, std::string unit, Kernel kernel, Clock clock,
         double scale, int kernel_runs = 1);

  // Records one window that did `ops` operations in `cost_ns` on the
  // series' clock, then runs the kernel right away.
  void Add(uint64_t cost_ns, double ops);

  // The series' clock; a window runs from one reading to Finish.
  uint64_t Now() const;
  void Finish(uint64_t start, double ops) { Add(Now() - start, ops); }

  size_t samples() const { return normalized_.size(); }
  const std::string& name() const { return name_; }
  const std::string& unit() const { return unit_; }

  // The gated value: the median of the normalized per-op costs.
  double Value() const { return Quantile(normalized_, 0.5); }
  // Raw per-op cost quantile (0.5 = raw_p50, 0.1 = raw_p10).
  double Raw(double q) const;
  // Median kernel cost per run, ns on the series' clock.
  double KernelMedianNs() const { return Quantile(ref_ns_, 0.5); }

 private:
  std::string name_;
  std::string unit_;
  Kernel kernel_;
  Clock clock_;
  double scale_;
  int kernel_runs_;
  std::vector<double> normalized_;
  std::vector<double> raw_;
  std::vector<double> ref_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
