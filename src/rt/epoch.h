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
// One domain, one record per thread: every dispatcher reclaims through
// EpochDomain::Global(), the only domain. A thread takes a record at its
// first guard and keeps it in a thread_local; at thread exit the record is
// marked free, and the next new thread reuses it before a record is
// allocated. So the list a writer walks to advance the epoch holds as many
// records as there were threads alive at once, not every thread that ever
// entered a guard (AsyncMode::kSpawn starts one thread per async raise).
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
  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  // The process-wide domain shared by all dispatchers, and the only one.
  static EpochDomain& Global();

  // RAII critical-section token. Nestable: inner guards piggyback on the
  // outermost one (a handler may itself raise events).
  class Guard {
   public:
    explicit Guard(EpochDomain& domain);
    ~Guard();
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    void* record_;  // the thread's ThreadRecord
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
  // Thread records on the list a writer walks, in use or free.
  size_t record_count() const;
  uint64_t epoch() const { return global_epoch_.load(std::memory_order_relaxed); }
  // Objects freed over the domain's lifetime. With retired_count(), exposes
  // reclamation lag to the metric exporter.
  uint64_t reclaimed_total() const {
    return reclaimed_total_.load(std::memory_order_relaxed);
  }

 private:
  struct ThreadRecord {
    std::atomic<uint64_t> epoch{kIdle};
    std::atomic<bool> in_use{false};  // owned by a live thread
    uint32_t nesting = 0;  // accessed only by the owning thread
    ThreadRecord* next = nullptr;
  };
  // Frees the calling thread's record at thread exit.
  struct RecordRelease {
    ~RecordRelease();
  };

  struct Retired {
    void* ptr;
    void (*deleter)(void*);
  };

  static constexpr uint64_t kIdle = ~0ull;
  static constexpr size_t kFlushThreshold = 64;

  EpochDomain() = default;
  ~EpochDomain() = default;

  ThreadRecord* AcquireRecord();
  ThreadRecord* Enter();
  static void Exit(ThreadRecord* rec);
  // Returns true if the epoch advanced. Caller holds retire_lock_.
  bool TryAdvanceLocked();
  size_t ReclaimLocked();

  static thread_local ThreadRecord* t_record_;

  std::atomic<ThreadRecord*> records_{nullptr};
  std::atomic<uint64_t> global_epoch_{0};
  mutable Spinlock retire_lock_;
  std::vector<Retired> retired_[3];
  std::atomic<size_t> retired_total_{0};
  std::atomic<uint64_t> reclaimed_total_{0};
};

}  // namespace spin

#endif  // SRC_RT_EPOCH_H_
