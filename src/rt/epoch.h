// Epoch-based reclamation (EBR).
//
// The paper replaces an event's handler list "atomically with respect to event
// dispatch by using a single memory access to replace the old list with the
// new one" (§3). In SPIN the old list could be leaked or reclaimed lazily; in
// a long-running C++ library we must actually free retired dispatch tables and
// generated code, but only after every in-flight raise that might still be
// reading them has finished. Classic three-epoch EBR provides exactly that:
// raises are wrapped in an EpochDomain::Guard; installs retire the old table
// and it is freed two epoch advances later.
//
// Readers (raises) pay two uncontended thread-local atomic stores and one
// fence; writers (installs) pay a mutex, which matches the paper's model of
// rare reconfiguration and frequent dispatch.
//
// Multiple domains per thread: every dispatcher reclaims through the global
// domain, but the class stays general, and a thread may hold guards of
// several independent domains at once, nested in any order. Each thread
// therefore caches a small set of (domain, record) pairs keyed by a
// never-reused domain id, and a Guard pins the record it entered through,
// so exits always decrement the right domain's nesting count no matter how
// guards interleave. Records are never freed — a destroyed domain's
// records go to a global recycle pool — so a stale cache entry (dead
// domain, id mismatch) is detected without ever dereferencing it.
#ifndef SRC_RT_EPOCH_H_
#define SRC_RT_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/rt/spinlock.h"

namespace spin {

class EpochDomain {
 public:
  EpochDomain();
  ~EpochDomain();
  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  // Process-wide domain shared by all dispatchers.
  static EpochDomain& Global();

  // RAII critical-section token. Nestable: inner guards piggyback on the
  // outermost one (a handler may itself raise events), including across
  // distinct domains — each guard pins the record it entered through.
  class Guard {
   public:
    explicit Guard(EpochDomain& domain);
    ~Guard();
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    EpochDomain& domain_;
    void* record_;  // ThreadRecord*, owned by (thread, domain)
  };

  // Schedules `p` to be destroyed with `deleter` once no critical section
  // that could observe it remains. Thread-safe.
  void Retire(void* p, void (*deleter)(void*));

  // Tries to advance the epoch and reclaim; returns objects freed. Called
  // automatically from Retire past a threshold; exposed for tests and for
  // the dispatcher's quiescent points.
  size_t Flush();

  // Blocks (spinning) until everything retired before the call is freed.
  // Requires that no raise currently on *this thread* holds a guard.
  void Synchronize();

  // Diagnostics.
  size_t retired_count() const;
  uint64_t epoch() const { return global_epoch_.load(std::memory_order_relaxed); }
  // Objects freed over the domain's lifetime. With retired_count(), exposes
  // reclamation lag to the metric exporter.
  uint64_t reclaimed_total() const {
    return reclaimed_total_.load(std::memory_order_relaxed);
  }

 private:
  struct ThreadRecord {
    std::atomic<uint64_t> epoch{kIdle};
    std::atomic<bool> in_use{false};
    uint32_t nesting = 0;  // accessed only by the owning thread
    ThreadRecord* next = nullptr;
  };

  struct Retired {
    void* ptr;
    void (*deleter)(void*);
  };

  static constexpr uint64_t kIdle = ~0ull;
  static constexpr size_t kFlushThreshold = 64;

  ThreadRecord* AcquireRecord();
  ThreadRecord* Enter();
  void Exit(ThreadRecord* rec);
  // Returns true if the epoch advanced. Caller holds retire_lock_.
  bool TryAdvanceLocked();
  size_t ReclaimLocked();

  // Never reused across domains; lets stale thread-local cache entries for
  // a destroyed domain be recognized without dereferencing their record.
  const uint64_t id_;

  std::atomic<ThreadRecord*> records_{nullptr};
  std::atomic<uint64_t> global_epoch_{0};
  mutable Spinlock retire_lock_;
  std::vector<Retired> retired_[3];
  std::atomic<size_t> retired_total_{0};
  std::atomic<uint64_t> reclaimed_total_{0};
};

}  // namespace spin

#endif  // SRC_RT_EPOCH_H_
