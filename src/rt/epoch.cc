#include "src/rt/epoch.h"

#include "src/obs/trace.h"
#include "src/rt/panic.h"

namespace spin {

thread_local EpochDomain::ThreadRecord* EpochDomain::t_record_ = nullptr;

EpochDomain& EpochDomain::Global() {
  static EpochDomain* domain = new EpochDomain();  // intentionally leaked
  return *domain;
}

EpochDomain::RecordRelease::~RecordRelease() {
  // Thread exit: no guard is held, so the record is idle. Hand it to the
  // next thread that needs one; it stays on the list, idle, meanwhile.
  ThreadRecord* rec = t_record_;
  t_record_ = nullptr;
  rec->in_use.store(false, std::memory_order_release);
}

EpochDomain::ThreadRecord* EpochDomain::AcquireRecord() {
  // Registers the release at this thread's exit. (A guard entered by a
  // thread_local destructor that runs after it takes a record it never
  // gives back; the record stays idle, so it costs a list entry only.)
  [[maybe_unused]] static thread_local RecordRelease release;
  ThreadRecord* rec = nullptr;
  for (ThreadRecord* r = records_.load(std::memory_order_acquire);
       r != nullptr; r = r->next) {
    bool in_use = false;
    if (!r->in_use.load(std::memory_order_relaxed) &&
        r->in_use.compare_exchange_strong(in_use, true,
                                          std::memory_order_acquire)) {
      rec = r;  // a record freed by an exited thread
      break;
    }
  }
  if (rec == nullptr) {
    rec = new ThreadRecord();
    rec->in_use.store(true, std::memory_order_relaxed);
    ThreadRecord* head = records_.load(std::memory_order_relaxed);
    do {
      rec->next = head;
    } while (!records_.compare_exchange_weak(head, rec,
                                             std::memory_order_release,
                                             std::memory_order_relaxed));
  }
  t_record_ = rec;
  return rec;
}

EpochDomain::ThreadRecord* EpochDomain::Enter() {
  ThreadRecord* rec = t_record_;
  if (rec == nullptr) {
    rec = AcquireRecord();
  }
  if (rec->nesting++ > 0) {
    return rec;  // already pinned by an enclosing guard
  }
  rec->epoch.store(global_epoch_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  // The store above must be visible before any read of protected data, and
  // before a writer samples our epoch during TryAdvance.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  return rec;
}

void EpochDomain::Exit(ThreadRecord* rec) {
  SPIN_DCHECK(rec != nullptr && rec->nesting > 0);
  if (--rec->nesting == 0) {
    rec->epoch.store(kIdle, std::memory_order_release);
  }
}

EpochDomain::Guard::Guard(EpochDomain& domain) : record_(domain.Enter()) {}

EpochDomain::Guard::~Guard() { Exit(static_cast<ThreadRecord*>(record_)); }

void EpochDomain::Retire(void* p, void (*deleter)(void*)) {
  bool flush = false;
  {
    std::lock_guard<Spinlock> lock(retire_lock_);
    uint64_t e = global_epoch_.load(std::memory_order_relaxed);
    retired_[e % 3].push_back(Retired{p, deleter});
    flush = retired_total_.fetch_add(1, std::memory_order_relaxed) + 1 >=
            kFlushThreshold;
  }
  if (flush) {
    Flush();
  }
}

bool EpochDomain::TryAdvanceLocked() {
  uint64_t e = global_epoch_.load(std::memory_order_relaxed);
  for (ThreadRecord* rec = records_.load(std::memory_order_acquire);
       rec != nullptr; rec = rec->next) {
    uint64_t seen = rec->epoch.load(std::memory_order_acquire);
    if (seen != kIdle && seen != e) {
      return false;  // a reader is still in an older epoch
    }
  }
  global_epoch_.store(e + 1, std::memory_order_release);
  return true;
}

size_t EpochDomain::ReclaimLocked() {
  // Everything retired in epoch e is safe once the global epoch reaches e+2:
  // no reader pinned at e or e+1 can still reference it.
  uint64_t e = global_epoch_.load(std::memory_order_relaxed);
  if (e < 2) {
    return 0;
  }
  std::vector<Retired>& list = retired_[(e - 2) % 3];
  size_t n = list.size();
  for (const Retired& r : list) {
    r.deleter(r.ptr);
  }
  list.clear();
  retired_total_.fetch_sub(n, std::memory_order_relaxed);
  if (n > 0) {
    reclaimed_total_.fetch_add(n, std::memory_order_relaxed);
    obs::FlightRecorder::Global().Emit(obs::TraceKind::kEpochReclaim,
                                       "epoch", n);
  }
  return n;
}

size_t EpochDomain::Flush() {
  std::lock_guard<Spinlock> lock(retire_lock_);
  size_t freed = ReclaimLocked();
  if (TryAdvanceLocked()) {
    freed += ReclaimLocked();
  }
  return freed;
}

void EpochDomain::Synchronize() {
  // Advance the epoch twice, reclaiming after each advance. Items retired at
  // epoch e live in bucket e%3 and are freed when the epoch reaches e+2, so
  // two advances flush everything retired before the call. Reclaiming before
  // each advance preserves the invariant that the bucket about to become
  // "current" is empty. The caller must not hold a Guard on this domain.
  int advances = 0;
  while (advances < 2) {
    bool advanced = false;
    {
      std::lock_guard<Spinlock> lock(retire_lock_);
      ReclaimLocked();
      advanced = TryAdvanceLocked();
      if (advanced) {
        ReclaimLocked();
      }
    }
    if (advanced) {
      ++advances;
    } else {
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
    }
  }
}

size_t EpochDomain::retired_count() const {
  return retired_total_.load(std::memory_order_relaxed);
}

size_t EpochDomain::record_count() const {
  size_t n = 0;
  for (ThreadRecord* rec = records_.load(std::memory_order_acquire);
       rec != nullptr; rec = rec->next) {
    ++n;
  }
  return n;
}

}  // namespace spin
