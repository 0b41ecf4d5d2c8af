// Worker threads backing asynchronous events (§2.6 "Runaway handlers").
//
// The paper spawns a new thread of control per asynchronous raise and
// measures 38-90 us of added latency, attributing it to thread creation. We
// provide both disciplines:
//   - kSpawn: a fresh std::thread per task (paper-faithful; bench_async
//     measures its cost),
//   - kPooled: a fixed worker pool (the obvious optimization the paper notes
//     it had not yet applied: "asynchronous events ... have not been
//     optimized").
//
// A task is one fixed-size record (Task): the submitted callable is stored
// in place, never on the heap, and a callable that does not fit is a
// compile-time error. The dispatcher submits one record per async raise,
// which runs that raise's admitted handler bodies in dispatch order on one
// worker, so a blocking body delays only the later bodies of its own raise.
//
// The pooled discipline is multi-queue: one ring of records per worker,
// each with its own lock, the way per-queue NIC rings keep producers off one
// shared ring. A ring is a power-of-two array that doubles when full; it
// never drops, blocks or shrinks. SubmitTo(queue, task) pins work to a
// queue — the sharded dispatcher routes each shard's async outbox to its own
// queue — and plain Submit round-robins. Worker i drains queue i first and
// steals from the other queues' tails when its own runs dry, so a skewed
// shard hash degrades to shared-queue behavior instead of idling workers.
// Per-queue depth/executed/stolen counters feed the shard-labeled metric
// export.
//
// Wake rule: a worker is *searching* while it is awake and not running a
// task. A submit wakes a parked worker only when no worker is searching and
// no earlier wake is still pending; the searcher that takes a task while
// others stay queued wakes one parked peer, so a long task never strands
// work behind it while another worker sleeps. Workers never spin.
#ifndef SRC_RT_THREAD_POOL_H_
#define SRC_RT_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace spin {

enum class AsyncMode {
  kPooled,  // run on a fixed worker pool
  kSpawn,   // spawn a fresh thread per task, detached tracking via counters
};

class ThreadPool {
 public:
  // One task record: a callable of at most kBytes, stored in place.
  class Task {
   public:
    static constexpr size_t kBytes = 160;

    // True when a callable of type F fits a record. Submit and SubmitTo
    // reject every other callable at compile time.
    template <typename F>
    static constexpr bool kFits =
        sizeof(F) <= kBytes && alignof(F) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<F>;

    Task() = default;
    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, Task>>>
    explicit Task(F&& fn) : ops_(&kOps<D>) {
      static_assert(kFits<D>,
                    "a pool task must fit one Task record (Task::kBytes)");
      ::new (storage_) D(std::forward<F>(fn));
    }
    Task(Task&& other) noexcept { Take(other); }
    Task& operator=(Task&& other) noexcept {
      if (this != &other) {
        Reset();
        Take(other);
      }
      return *this;
    }
    ~Task() { Reset(); }

    void operator()() { ops_->run(storage_); }
    // Destroys the stored callable, releasing whatever it captured.
    void Reset() {
      if (ops_ != nullptr) {
        ops_->destroy(storage_);
        ops_ = nullptr;
      }
    }

   private:
    struct Ops {
      void (*run)(void* self);
      void (*relocate)(void* dst, void* src);  // move into dst, destroy src
      void (*destroy)(void* self);
    };
    template <typename D>
    static constexpr Ops kOps = {
        [](void* self) { (*static_cast<D*>(self))(); },
        [](void* dst, void* src) {
          if constexpr (std::is_trivially_copyable_v<D>) {
            std::memcpy(dst, src, sizeof(D));
          } else {
            ::new (dst) D(std::move(*static_cast<D*>(src)));
            static_cast<D*>(src)->~D();
          }
        },
        [](void* self) { static_cast<D*>(self)->~D(); },
    };

    void Take(Task& other) {
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }

    alignas(std::max_align_t) unsigned char storage_[kBytes];
    const Ops* ops_ = nullptr;
  };

  explicit ThreadPool(size_t workers = std::thread::hardware_concurrency());
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Process-wide pool used by dispatchers unless configured otherwise.
  static ThreadPool& Global();

  // Enqueues (or spawns) a task. Never blocks on task execution. Pooled
  // tasks are spread round-robin across the queues.
  template <typename F>
  void Submit(F&& task, AsyncMode mode = AsyncMode::kPooled) {
    size_t queue = mode == AsyncMode::kSpawn
                       ? 0
                       : next_queue_.fetch_add(1, std::memory_order_relaxed);
    Post(queue, Task(std::forward<F>(task)), mode);
  }

  // Enqueues a task on queue `queue % queues()`. The queue's pinned worker
  // drains it in FIFO order; idle workers may steal from the tail. kSpawn
  // ignores the queue index.
  template <typename F>
  void SubmitTo(size_t queue, F&& task, AsyncMode mode = AsyncMode::kPooled) {
    Post(queue, Task(std::forward<F>(task)), mode);
  }

  // Blocks until all submitted tasks (pooled and spawned) have finished.
  void Drain();

  size_t pending() const;

  // Number of queues (== number of workers).
  size_t queues() const { return queues_.size(); }

  // Tasks sitting in the pooled queues, not yet picked up by a worker.
  size_t queue_depth() const;
  // Depth of one queue.
  size_t queue_depth(size_t queue) const;

  // Tasks that have finished executing (pooled and spawned) over the pool's
  // lifetime. Monotonic; for metric export.
  uint64_t executed() const {
    return executed_.load(std::memory_order_relaxed);
  }
  // Finished tasks that were submitted to `queue` (whether run by the
  // pinned worker or a thief).
  uint64_t executed(size_t queue) const;

  // Tasks stolen across all queues / stolen from one queue's tail.
  uint64_t steals() const;
  uint64_t steals(size_t queue) const;

 private:
  // Records in a power-of-two ring that doubles when full. The pinned
  // worker pops the front (FIFO); thieves pop the back.
  class TaskRing {
   public:
    bool empty() const { return head_ == tail_; }
    void PushBack(Task&& task);
    void PopFront(Task* out);
    void PopBack(Task* out);

   private:
    void Grow();

    std::unique_ptr<Task[]> slots_;
    size_t capacity_ = 0;  // a power of two once the first push allocates
    size_t head_ = 0;      // oldest record (indices wrap modulo capacity_)
    size_t tail_ = 0;      // one past the newest record
  };

  struct alignas(64) Queue {
    mutable std::mutex mu;
    TaskRing tasks;
    std::atomic<size_t> depth{0};
    std::atomic<uint64_t> executed{0};  // submitted here and finished
    std::atomic<uint64_t> stolen{0};    // taken from this queue by a thief
  };

  void Post(size_t queue, Task&& task, AsyncMode mode);
  void Enqueue(size_t queue, Task&& task);
  void Spawn(Task&& task);
  void WorkerLoop(size_t index);
  // Pops a task for worker `index`: own queue front first, then steals from
  // the other queues' tails. Returns the source queue in *from.
  bool TryPop(size_t index, Task* task, size_t* from);
  // Wakes one parked worker when none is searching and no wake is pending.
  void WakeIfNoneSearching();
  void FinishTask();

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;

  // Sleep/idle/shutdown coordination. Every counter the wake rule reads is
  // seq_cst, so a submitter and a worker going to sleep cannot both miss
  // each other's update. The submit fast path never takes mu_ unless it
  // wakes a worker.
  mutable std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::atomic<size_t> queued_{0};     // tasks in queues
  std::atomic<size_t> searching_{0};  // workers awake and not running a task
  std::atomic<size_t> sleepers_{0};   // workers parked on wake_ (changed
                                      // under mu_)
  // A notify is in flight that no worker has yet returned from wait_ to
  // absorb. Set and cleared under mu_; read lock-free as a hint.
  std::atomic<bool> wake_pending_{false};
  std::atomic<size_t> in_flight_{0};  // queued + executing + spawned
  // Detached spawn threads still inside the pool (they touch mu_/idle_ in
  // FinishTask after in_flight_ hits zero). The destructor must not tear
  // the pool down until each one has made its final store here.
  std::atomic<size_t> spawn_live_{0};
  std::atomic<uint64_t> next_queue_{0};  // round-robin cursor for Submit
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> steals_{0};
  bool shutdown_ = false;  // guarded by mu_
};

}  // namespace spin

#endif  // SRC_RT_THREAD_POOL_H_
