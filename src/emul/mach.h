// The Mach system-call emulator of Figures 2 and 3.
//
// Installs a guarded handler on MachineTrap.Syscall: the guard admits only
// strands whose address space is a registered Mach task (IsMachTask), and
// the handler dispatches on ms.v0 exactly as Figure 2 does (-65 ->
// vm_allocate, ...). The module also demonstrates the authorization flow
// of Figure 3: as the authority over its own service event it can impose
// per-address-space guards on third-party handlers.
#ifndef SRC_EMUL_MACH_H_
#define SRC_EMUL_MACH_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "src/kernel/kernel.h"

namespace spin {
namespace emul {

// Mach syscall numbers (negative, per the Alpha Mach convention the paper's
// Figure 2 shows).
inline constexpr int64_t kMachVmAllocate = -65;
inline constexpr int64_t kMachVmDeallocate = -66;
inline constexpr int64_t kMachTaskSelf = -28;

class MachEmulator {
 public:
  explicit MachEmulator(Kernel& kernel);

  // Marks an address space as a Mach task (the SyscallGuard predicate).
  void AdoptTask(AddressSpace& space);
  void DropTask(AddressSpace& space);
  bool IsMachTask(const AddressSpace* space) const;

  uint64_t handled() const { return handled_; }
  const Module& module() const { return module_; }

 private:
  // Figure 2's SyscallGuard / Syscall pair.
  static bool SyscallGuard(MachEmulator* emulator, Strand* strand,
                           SavedState& state);
  static void Syscall(MachEmulator* emulator, Strand* strand,
                      SavedState& state);

  void VmAllocate(Strand& strand, SavedState& state);
  void VmDeallocate(Strand& strand, SavedState& state);

  Module module_{"MachEmulator"};
  Kernel& kernel_;
  std::unordered_set<uint64_t> tasks_;
  std::unordered_map<uint64_t, uint64_t> brk_;  // per-space bump pointer
  uint64_t handled_ = 0;
  BindingSet binding_;  // last: uninstalls before what Syscall uses
};

}  // namespace emul
}  // namespace spin

#endif  // SRC_EMUL_MACH_H_
