// The benchmark's own spans, recorded on the benchmark thread around calls
// into the program's layers (a raise batch, an install, a Drain(), a
// simulator step, a proxy construction, a codec call, an exported
// handler body).
//
// Spans are kept in memory and written out at exit. Each closed span's
// self time (its duration minus the time its child spans cover) is added
// to its name's total as it closes, so the per-layer reduction covers
// every span even when the kept list is capped.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class Spans {
 public:
  struct Totals {
    uint64_t count = 0;
    uint64_t self_ns = 0;
  };

  // Records spans opened on the calling thread while enabled; other
  // threads never record.
  static void BindToThisThread();
  static void SetEnabled(bool enabled);
  static bool enabled() { return enabled_; }

  // The operation the next spans belong to (a round, or an episode's
  // set-up and teardown); it is recorded with every span.
  static void SetOperation(uint64_t op);

  static void Open(const char* name);
  static void Close();

  // Self time per span name, over every span closed so far.
  static std::map<std::string, Totals> totals();

  // Writes the kept spans as JSON lines: name, start_ns, end_ns, parent
  // (index or -1) and op.
  static bool Write(const std::string& path);

 private:
  static bool enabled_;
};

// RAII span. Cheap when disabled: one branch on a global flag.
class Span {
 public:
  explicit Span(const char* name) : active_(Spans::enabled()) {
    if (active_) {
      Spans::Open(name);
    }
  }
  ~Span() {
    if (active_) {
      Spans::Close();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
