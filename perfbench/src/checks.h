// Output checks shared by the benchmark's parts: every part counts the
// operations it attempted and the ones whose output was wrong.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <cstdio>
#include <string>

namespace perfbench {

struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t reported = 0;

  // Counts `n` failed operations and prints the first few reasons to
  // stderr (stdout carries only the result line).
  void Fail(const std::string& what, uint64_t n = 1) {
    failed += n;
    if (reported < 20) {
      ++reported;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
