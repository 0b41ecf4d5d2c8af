#include "src/codegen/exec_memory.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>

#include "src/rt/panic.h"

namespace spin {
namespace codegen {
namespace {

std::atomic<size_t> g_total_mapped{0};

size_t PageSize() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// Address space the pool reserves each time it runs out.
constexpr size_t kChunkPages = 256;

// The process-wide slot pool (see the header). Slots are carved from
// PROT_NONE reservations: making a slot's pages PROT_READ|PROT_WRITE turns
// them into their own mapping, and the untouched pages after them stay
// PROT_NONE as the guard. A chunk's first page stays PROT_NONE too, so
// every slot has PROT_NONE neighbours on both sides and never merges with
// a mapping placed next to the chunk.
class SlotPool {
 public:
  // Leaked on purpose: code buffers may be destroyed by static destructors.
  static SlotPool& Get() {
    static SlotPool* pool = new SlotPool();
    return *pool;
  }

  // Returns an idle slot of `pages` pages, or nullptr.
  uint8_t* Take(size_t pages) {
    std::lock_guard<std::mutex> lock(mu_);
    if (pages < free_.size() && !free_[pages].empty()) {
      uint8_t* slot = free_[pages].back();
      free_[pages].pop_back();
      return slot;
    }
    return CarveLocked(pages);
  }

  // Takes back an idle slot.
  void Give(uint8_t* slot, size_t pages) {
    std::lock_guard<std::mutex> lock(mu_);
    if (pages >= free_.size()) {
      free_.resize(pages + 1);
    }
    free_[pages].push_back(slot);
  }

 private:
  uint8_t* CarveLocked(size_t pages) {
    // The slot and its guard, an odd number of pages in all (so one or two
    // guard pages): at an even stride every slot's page number would have
    // the same low bit, and the TLBs, whose sets are indexed by the low
    // bits of the page number, would hold generated code in half of them.
    size_t span = ((pages + 1) | 1) * PageSize();
    if (chunk_left_ < span) {
      size_t bytes = std::max(kChunkPages * PageSize(), span + PageSize());
      void* chunk = mmap(nullptr, bytes, PROT_NONE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
      if (chunk == MAP_FAILED) {
        return nullptr;
      }
      chunk_next_ = static_cast<uint8_t*>(chunk) + PageSize();
      chunk_left_ = bytes - PageSize();
    }
    uint8_t* slot = chunk_next_;
    if (mprotect(slot, pages * PageSize(), PROT_READ | PROT_WRITE) != 0) {
      return nullptr;
    }
    chunk_next_ += span;
    chunk_left_ -= span;
    return slot;
  }

  std::mutex mu_;
  std::vector<std::vector<uint8_t*>> free_;  // idle slots by page count
  uint8_t* chunk_next_ = nullptr;            // unused part of the last chunk
  size_t chunk_left_ = 0;
};

}  // namespace

CodeBuffer::CodeBuffer(void* base, size_t code_size, size_t mapped_size)
    : base_(base), code_size_(code_size), mapped_size_(mapped_size) {
  g_total_mapped.fetch_add(mapped_size, std::memory_order_relaxed);
}

std::unique_ptr<CodeBuffer> CodeBuffer::Create(
    const std::vector<uint8_t>& code) {
  SPIN_ASSERT(!code.empty());
  size_t pages = (code.size() + PageSize() - 1) / PageSize();
  size_t mapped = pages * PageSize();
  uint8_t* slot = SlotPool::Get().Take(pages);
  if (slot == nullptr) {
    return nullptr;
  }
  std::memcpy(slot, code.data(), code.size());
  if (mprotect(slot, mapped, PROT_READ | PROT_EXEC) != 0) {
    SlotPool::Get().Give(slot, pages);
    return nullptr;
  }
  return std::unique_ptr<CodeBuffer>(
      new CodeBuffer(slot, code.size(), mapped));
}

CodeBuffer::~CodeBuffer() {
  g_total_mapped.fetch_sub(mapped_size_, std::memory_order_relaxed);
  // A slot that cannot be made writable again is leaked, never reused.
  if (mprotect(base_, mapped_size_, PROT_READ | PROT_WRITE) == 0) {
    SlotPool::Get().Give(static_cast<uint8_t*>(base_),
                         mapped_size_ / PageSize());
  }
}

size_t CodeBuffer::TotalMappedBytes() {
  return g_total_mapped.load(std::memory_order_relaxed);
}

}  // namespace codegen
}  // namespace spin
