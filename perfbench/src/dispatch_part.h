// The local-dispatch part of the benchmark world: a few hundred events
// shaped like the paper's Tables 1 and 3, a seeded raise trace over them
// that follows Table 3's counts (zipf) or is uniform, an eighth of them
// async on the benchmark's pool, and reconfiguration bursts on the cold
// tail.
#ifndef PERFBENCH_DISPATCH_PART_H_
#define PERFBENCH_DISPATCH_PART_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "checks.h"
#include "src/core/dispatcher.h"

namespace perfbench {

// Event shapes. The population's shape at each popularity rank is fixed;
// the seed only draws message contents, arguments and the order of the
// traces, whose mix is fixed, so every seed sees the same mix of work.
enum class Shape : uint8_t {
  kTable3,   // one of Table 3's events, with the paper's handlers and guards
  kDirect,   // intrinsic handler only: the direct-call fast path
  kH1,
  kH2,
  kH5,
  kH10,
  kH50,
  kReject,   // every guard is false; the default handler runs
  kAsync1,   // one async handler
  kAsync10,  // ten async handlers
  kFilter,   // a by-ref filter ahead of three guarded handlers
  kFold,     // five result-returning handlers under a custom fold
  kChain,    // a handler that raises a second event
};

struct DispatchOptions {
  bool zipf = true;
  uint64_t seed = 1;
  spin::ThreadPool* pool = nullptr;
  bool enable_jit = true;
};

class DispatchPart {
 public:
  static constexpr size_t kSlots = 64;
  static constexpr size_t kMsgs = 8;

  // Per raise: what the handlers read. Each event owns its messages, so a
  // handler finds its counters through the message it was raised with.
  struct Msg {
    uint64_t kind = 0;  // matched by the micro field-equality guards
    uint64_t* fires = nullptr;
    std::atomic<uint64_t>* async_fires = nullptr;
    uint64_t* default_fires = nullptr;
    spin::Event<void(Msg*, uint64_t)>* chain = nullptr;
    Msg* chain_msg = nullptr;
  };

  // Builds the population; this is the part's share of setup_s.
  explicit DispatchPart(const DispatchOptions& options);
  ~DispatchPart();
  DispatchPart(const DispatchPart&) = delete;
  DispatchPart& operator=(const DispatchPart&) = delete;

  // One window of sync raises from the trace. Returns the raise count.
  size_t RaiseWindow();

  // A batch of raises on async events, then ThreadPool::Drain(). Returns
  // the raise count; *drain_ns gets the wall time blocked in Drain().
  size_t AsyncBatch(uint64_t* drain_ns);

  // One reconfiguration burst on the cold tail: 16 guarded installs, 16
  // uninstalls, and the imposed micro guard moved to another cold event
  // (one RemoveGuard, one ImposeMicroGuard). Returns the
  // number of install-side calls.
  size_t ReconfigBurst();

  // Raises `n` times on the first event of `shape` (by rank) and returns
  // the wall ns per raise (the per-layer core.raise_ns.* probe).
  double ShapeProbe(Shape shape, size_t n);

  // Folds the raises made since the last call into the predicted counts,
  // against the bindings installed now. Untimed; call it after each raise
  // window, before the bindings change.
  void Settle();

  // Compares every handler's fire count, every default-handler count and
  // every folded result with what the trace predicts.
  void Verify(Checks& checks);

  spin::Dispatcher& dispatcher() { return *dispatcher_; }

  // Per-call wall ns of the install-side calls made so far.
  const std::vector<double>& install_ns() const { return install_ns_; }
  const std::vector<double>& uninstall_ns() const { return uninstall_ns_; }
  const std::vector<double>& guard_change_ns() const {
    return guard_change_ns_;
  }
  // EpochDomain::retired_count() after each burst.
  const std::vector<double>& epoch_backlog() const { return epoch_backlog_; }

 private:
  struct Pred {
    enum Kind : uint8_t { kKindEq, kResidue } kind;
    uint64_t value;
    bool Admits(const Msg& msg, uint64_t x) const;
  };
  struct Shadow {
    size_t slot;
    bool async;
    std::vector<Pred> guards;
  };
  struct Info;
  struct TraceEntry {
    uint32_t event;
    uint32_t msg;
    uint64_t x;
  };

  void Build(size_t rank, Shape shape);
  spin::BindingHandle InstallCounted(Info& info, size_t slot,
                                     const Pred* guard, bool async);
  void Predict(Info& info, size_t msg, uint64_t x);
  void ImposeGuard(size_t rank);
  void RemoveImposedGuard();
  std::vector<TraceEntry> MakeTrace(const std::vector<size_t>& ranks,
                                    const std::vector<double>& weights,
                                    size_t length);

  DispatchOptions options_;
  spin::Module module_{"Perfbench.Dispatch"};
  std::unique_ptr<spin::Dispatcher> dispatcher_;
  std::vector<std::unique_ptr<Info>> infos_;  // by popularity rank
  std::unique_ptr<spin::Event<uint64_t(Msg*, uint64_t)>> fold_;
  size_t fold_rank_ = 0;
  uint64_t fold_mismatches_ = 0;

  std::vector<TraceEntry> sync_trace_;
  std::vector<TraceEntry> async_trace_;
  size_t sync_pos_ = 0;
  size_t async_pos_ = 0;
  size_t pending_ = 0;        // sync trace entries not yet predicted
  size_t pending_async_ = 0;  // async trace entries not yet predicted

  // Reconfiguration state: extra bindings on cold events, oldest first,
  // and the event whose first binding carries the imposed guard.
  std::vector<size_t> cold_;
  size_t cold_cursor_ = 0;
  struct Extra {
    size_t rank;
    size_t slot;
    spin::BindingHandle handle;
  };
  std::deque<Extra> extras_;
  size_t imposed_rank_ = 0;
  uint64_t rng_ = 0;

  std::vector<double> install_ns_;
  std::vector<double> uninstall_ns_;
  std::vector<double> guard_change_ns_;
  std::vector<double> epoch_backlog_;
  uint64_t calls_ = 0;
  uint64_t raises_ = 0;
  uint64_t async_raises_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DISPATCH_PART_H_
