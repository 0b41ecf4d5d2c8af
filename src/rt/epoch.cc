#include "src/rt/epoch.h"

#include "src/obs/trace.h"
#include "src/rt/panic.h"

namespace spin {
namespace {

// Per-thread cache of (domain, record) pairs. A thread can hold guards on
// several domains at once — the global domain plus any independent domain
// a component creates — so a single cached pair is not enough. Entries are
// keyed by the domain's never-reused id: an entry for a destroyed domain
// can never produce a false hit, and is recognized as stale (and replaced)
// without its record pointer ever being dereferenced.
struct TlsSlot {
  uint64_t domain_id = 0;  // 0 = empty
  EpochDomain* domain = nullptr;
  void* record = nullptr;
};

constexpr size_t kTlsSlots = 8;

struct TlsCache {
  TlsSlot slots[kTlsSlots];
  size_t next_victim = 0;
};

thread_local TlsCache g_tls;

std::atomic<uint64_t> g_next_domain_id{1};

uint64_t NextDomainId() {
  return g_next_domain_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

EpochDomain& EpochDomain::Global() {
  static EpochDomain* domain = new EpochDomain();  // intentionally leaked
  return *domain;
}

EpochDomain::EpochDomain() : id_(NextDomainId()) {}

namespace {

// Records of destroyed domains. They are never freed: a thread's cache may
// still hold a pointer into a dead domain's record list, and while such an
// entry is never *dereferenced* (its domain id can no longer match), keeping
// the memory alive makes that property cheap to maintain and lets new
// domains recycle the records instead of leaking per-domain.
Spinlock g_record_pool_lock;
void* g_record_pool_head = nullptr;  // chained via ThreadRecord::next

}  // namespace

EpochDomain::~EpochDomain() {
  // Free everything still retired; callers must have quiesced.
  for (auto& list : retired_) {
    for (const Retired& r : list) {
      r.deleter(r.ptr);
    }
    list.clear();
  }
  ThreadRecord* rec = records_.load(std::memory_order_acquire);
  if (rec != nullptr) {
    ThreadRecord* tail = rec;
    while (tail->next != nullptr) {
      tail = tail->next;
    }
    std::lock_guard<Spinlock> lock(g_record_pool_lock);
    tail->next = static_cast<ThreadRecord*>(g_record_pool_head);
    g_record_pool_head = rec;
  }
}

EpochDomain::ThreadRecord* EpochDomain::AcquireRecord() {
  for (TlsSlot& slot : g_tls.slots) {
    if (slot.domain == this && slot.domain_id == id_) {
      return static_cast<ThreadRecord*>(slot.record);
    }
  }
  // Slow path: adopt a record for this (thread, domain) pair. Prefer one
  // recycled from a destroyed domain, then allocate.
  ThreadRecord* rec = nullptr;
  {
    std::lock_guard<Spinlock> lock(g_record_pool_lock);
    if (g_record_pool_head != nullptr) {
      rec = static_cast<ThreadRecord*>(g_record_pool_head);
      g_record_pool_head = rec->next;
    }
  }
  if (rec != nullptr) {
    rec->epoch.store(kIdle, std::memory_order_relaxed);
    rec->in_use.store(true, std::memory_order_relaxed);
    rec->nesting = 0;
  } else {
    rec = new ThreadRecord();
    rec->in_use.store(true, std::memory_order_relaxed);
  }
  ThreadRecord* head = records_.load(std::memory_order_relaxed);
  do {
    rec->next = head;
  } while (!records_.compare_exchange_weak(head, rec,
                                           std::memory_order_release,
                                           std::memory_order_relaxed));
  // Cache it: take an empty slot, else evict round-robin. Eviction only
  // overwrites the slot — the displaced record stays registered with its
  // domain (a later cache miss on that domain simply registers a fresh
  // record), and any guard currently holding it keeps its direct pointer.
  TlsSlot* victim = nullptr;
  for (TlsSlot& slot : g_tls.slots) {
    if (slot.domain_id == 0) {
      victim = &slot;
      break;
    }
  }
  if (victim == nullptr) {
    victim = &g_tls.slots[g_tls.next_victim];
    g_tls.next_victim = (g_tls.next_victim + 1) % kTlsSlots;
  }
  victim->domain_id = id_;
  victim->domain = this;
  victim->record = rec;
  return rec;
}

EpochDomain::ThreadRecord* EpochDomain::Enter() {
  ThreadRecord* rec = AcquireRecord();
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

EpochDomain::Guard::Guard(EpochDomain& domain)
    : domain_(domain), record_(domain.Enter()) {}

EpochDomain::Guard::~Guard() {
  domain_.Exit(static_cast<ThreadRecord*>(record_));
}

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

}  // namespace spin
