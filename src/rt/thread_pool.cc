#include "src/rt/thread_pool.h"

#include <utility>

#include "src/rt/panic.h"

namespace spin {

namespace {
// Records a queue's ring holds before its first doubling.
constexpr size_t kInitialRingRecords = 64;

// The calling thread's home ticket, dealt at its first submit; a pool
// uses it modulo its queue count.
constexpr uint64_t kNoHome = ~uint64_t{0};
thread_local uint64_t g_home = kNoHome;
std::atomic<uint64_t> g_next_home{0};
}  // namespace

void ThreadPool::TaskRing::PushBack(Task&& task) {
  if (tail_ - head_ == capacity_) {
    Grow();
  }
  slots_[tail_++ & (capacity_ - 1)] = std::move(task);
}

void ThreadPool::TaskRing::PopFront(Task* out) {
  *out = std::move(slots_[head_++ & (capacity_ - 1)]);
}

void ThreadPool::TaskRing::PopBack(Task* out) {
  *out = std::move(slots_[--tail_ & (capacity_ - 1)]);
}

void ThreadPool::TaskRing::Grow() {
  const size_t grown = capacity_ == 0 ? kInitialRingRecords : capacity_ * 2;
  auto slots = std::make_unique<Task[]>(grown);
  for (size_t i = 0; i < capacity_; ++i) {
    slots[i] = std::move(slots_[(head_ + i) & (capacity_ - 1)]);
  }
  slots_ = std::move(slots);
  head_ = 0;
  tail_ = capacity_;
  capacity_ = grown;
}

ThreadPool::ThreadPool(size_t workers) {
  if (workers == 0) {
    workers = 2;
  }
  queues_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  Drain();
  // Drain returns when in_flight_ hits zero, but a detached spawn thread
  // decrements in_flight_ *inside* FinishTask and then notifies idle_ —
  // both touch members of this object. Wait for each spawn thread's final
  // release store before destroying anything.
  while (spawn_live_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool();  // intentionally leaked
  return *pool;
}

size_t ThreadPool::HomeQueue() const {
  if (g_home == kNoHome) {
    g_home = g_next_home.fetch_add(1, std::memory_order_relaxed);
  }
  return static_cast<size_t>(g_home % queues_.size());
}

void ThreadPool::Post(size_t queue, Task&& task, AsyncMode mode) {
  if (mode == AsyncMode::kSpawn) {
    Spawn(std::move(task));
  } else {
    Enqueue(queue, std::move(task));
  }
}

void ThreadPool::Spawn(Task&& task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    SPIN_ASSERT(!shutdown_);
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    spawn_live_.fetch_add(1, std::memory_order_relaxed);
  }
  std::thread([this, task = std::move(task)]() mutable {
    task();
    task.Reset();
    executed_.fetch_add(1, std::memory_order_relaxed);
    FinishTask();
    // Last touch of the pool: after this store the destructor may proceed.
    spawn_live_.fetch_sub(1, std::memory_order_release);
  }).detach();
}

void ThreadPool::Enqueue(size_t index, Task&& task) {
  Queue& q = *queues_[index % queues_.size()];
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(q.mu);
    q.tasks.PushBack(std::move(task));
    q.depth.fetch_add(1, std::memory_order_relaxed);
  }
  // Publish the task before reading who is searching: a worker that stops
  // searching after this increment re-checks queued_ before it parks.
  queued_.fetch_add(1, std::memory_order_seq_cst);
  WakeIfNoneSearching();
}

void ThreadPool::WakeIfNoneSearching() {
  if (searching_.load(std::memory_order_seq_cst) != 0 ||
      sleepers_.load(std::memory_order_seq_cst) == 0 ||
      wake_pending_.load(std::memory_order_seq_cst)) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Under mu_ a counted sleeper is inside wake_.wait, so some worker
    // returns from it after this store and clears the flag again.
    if (wake_pending_.load(std::memory_order_seq_cst) ||
        sleepers_.load(std::memory_order_seq_cst) == 0) {
      return;
    }
    wake_pending_.store(true, std::memory_order_seq_cst);
  }
  wake_.notify_one();
}

bool ThreadPool::TryPop(size_t index, Task* task, size_t* from) {
  const size_t n = queues_.size();
  Queue& own = *queues_[index];
  {
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      own.tasks.PopFront(task);
      own.depth.fetch_sub(1, std::memory_order_relaxed);
      *from = index;
      return true;
    }
  }
  for (size_t j = 1; j < n; ++j) {
    size_t v = (index + j) % n;
    Queue& victim = *queues_[v];
    // Cheap unlocked peek; the locked re-check below is authoritative.
    if (victim.depth.load(std::memory_order_relaxed) == 0) {
      continue;
    }
    std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.tasks.empty()) {
      continue;
    }
    victim.tasks.PopBack(task);
    victim.depth.fetch_sub(1, std::memory_order_relaxed);
    victim.stolen.fetch_add(1, std::memory_order_relaxed);
    steals_.fetch_add(1, std::memory_order_relaxed);
    *from = v;
    return true;
  }
  return false;
}

void ThreadPool::FinishTask() {
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Lock/unlock so a Drain caller between its predicate check and its
    // wait cannot miss the notification.
    { std::lock_guard<std::mutex> lock(mu_); }
    idle_.notify_all();
  }
}

void ThreadPool::WorkerLoop(size_t index) {
  searching_.fetch_add(1, std::memory_order_seq_cst);
  Task task;
  while (true) {
    size_t from = index;
    if (TryPop(index, &task, &from)) {
      queued_.fetch_sub(1, std::memory_order_seq_cst);
      // The last searcher hands the search on before it runs its task, so
      // queued work never waits behind a long task while a peer sleeps.
      if (searching_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
          queued_.load(std::memory_order_seq_cst) > 0) {
        WakeIfNoneSearching();
      }
      task();
      task.Reset();  // release captures before accounting the finish
      executed_.fetch_add(1, std::memory_order_relaxed);
      queues_[from]->executed.fetch_add(1, std::memory_order_relaxed);
      FinishTask();
      searching_.fetch_add(1, std::memory_order_seq_cst);
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    searching_.fetch_sub(1, std::memory_order_seq_cst);
    while (!shutdown_ && queued_.load(std::memory_order_seq_cst) == 0) {
      wake_.wait(lock);
      // Every return absorbs the pending wake, also when this worker parks
      // again because a peer took the task: a flag left set would stop
      // every later submit from waking anyone.
      wake_pending_.store(false, std::memory_order_seq_cst);
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    searching_.fetch_add(1, std::memory_order_seq_cst);
    if (shutdown_ && queued_.load(std::memory_order_relaxed) == 0) {
      return;
    }
  }
}

void ThreadPool::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

size_t ThreadPool::pending() const {
  return in_flight_.load(std::memory_order_relaxed);
}

size_t ThreadPool::queue_depth() const {
  size_t total = 0;
  for (const auto& q : queues_) {
    total += q->depth.load(std::memory_order_relaxed);
  }
  return total;
}

size_t ThreadPool::queue_depth(size_t queue) const {
  return queues_[queue % queues_.size()]->depth.load(
      std::memory_order_relaxed);
}

uint64_t ThreadPool::executed(size_t queue) const {
  return queues_[queue % queues_.size()]->executed.load(
      std::memory_order_relaxed);
}

uint64_t ThreadPool::steals() const {
  return steals_.load(std::memory_order_relaxed);
}

uint64_t ThreadPool::steals(size_t queue) const {
  return queues_[queue % queues_.size()]->stolen.load(
      std::memory_order_relaxed);
}

}  // namespace spin
