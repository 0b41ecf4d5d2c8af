// Executable memory for runtime-generated code, with strict W^X discipline.
//
// Code lives in slots drawn from one process-wide pool. A slot is a run of
// whole pages that forms its own mapping, followed by one or two PROT_NONE
// guard pages, so changing a slot's protection never splits or merges a
// larger mapping. A slot has two states:
//   idle  PROT_READ|PROT_WRITE  (in the pool's free list for its page count)
//   live  PROT_READ|PROT_EXEC   (owned by one CodeBuffer)
// Create copies the code into an idle slot and makes one mprotect call to
// RX; the destructor makes one mprotect call back to RW and returns the
// slot to the pool. No page is ever writable and executable at once. The
// pool grows by reserving address space in fixed-size chunks (a larger one
// only for a slot that would not fit) and never unmaps while the process
// runs, so idle slots never outnumber the peak count of live ones.
#ifndef SRC_CODEGEN_EXEC_MEMORY_H_
#define SRC_CODEGEN_EXEC_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace spin {
namespace codegen {

class CodeBuffer {
 public:
  // Copies `code` into a live slot. Returns nullptr if the platform
  // refuses executable memory.
  static std::unique_ptr<CodeBuffer> Create(const std::vector<uint8_t>& code);

  // Returns the slot to the pool. Callers destroy a buffer only once no
  // thread can still be executing it (dispatch tables retire through the
  // epoch domain).
  ~CodeBuffer();
  CodeBuffer(const CodeBuffer&) = delete;
  CodeBuffer& operator=(const CodeBuffer&) = delete;

  const void* entry() const { return base_; }
  size_t code_size() const { return code_size_; }
  size_t mapped_size() const { return mapped_size_; }

  // Total bytes of live generated code (diagnostics; feeds the "too many
  // handlers" memory-accounting story of §2.6). Idle slots do not count.
  static size_t TotalMappedBytes();

 private:
  CodeBuffer(void* base, size_t code_size, size_t mapped_size);

  void* base_;
  size_t code_size_;
  size_t mapped_size_;
};

}  // namespace codegen
}  // namespace spin

#endif  // SRC_CODEGEN_EXEC_MEMORY_H_
