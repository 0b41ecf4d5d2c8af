#include "src/emul/mach.h"

namespace spin {
namespace emul {

MachEmulator::MachEmulator(Kernel& kernel) : kernel_(kernel) {
  // Figure 2's initialization block:
  //   Dispatcher.InstallHandler(MachineTrap.Syscall, SyscallGuard, Syscall)
  binding_ = kernel_.dispatcher().InstallHandler(
      kernel_.MachineTrapSyscall, &MachEmulator::Syscall, this,
      {.guards = {MakeGuard(&MachEmulator::SyscallGuard, this)},
       .module = &module_});
}

MachEmulator::~MachEmulator() {
  if (binding_ != nullptr && binding_->active.load()) {
    kernel_.dispatcher().Uninstall(binding_, &module_);
  }
}

void MachEmulator::AdoptTask(AddressSpace& space) {
  tasks_.insert(space.id());
}

void MachEmulator::DropTask(AddressSpace& space) {
  tasks_.erase(space.id());
}

bool MachEmulator::IsMachTask(const AddressSpace* space) const {
  return space != nullptr && tasks_.count(space->id()) > 0;
}

bool MachEmulator::SyscallGuard(MachEmulator* emulator, Strand* strand,
                                SavedState& state) {
  (void)state;
  return emulator->IsMachTask(strand->space());
}

void MachEmulator::Syscall(MachEmulator* emulator, Strand* strand,
                           SavedState& state) {
  ++emulator->handled_;
  switch (state.v0) {
    case kMachVmAllocate:
      emulator->VmAllocate(*strand, state);
      break;
    case kMachVmDeallocate:
      emulator->VmDeallocate(*strand, state);
      break;
    case kMachTaskSelf:
      state.v0 = static_cast<int64_t>(strand->space()->id());
      state.error = 0;
      break;
    default:
      state.error = 78;  // unknown Mach trap
      state.v0 = -1;
      break;
  }
}

void MachEmulator::VmAllocate(Strand& strand, SavedState& state) {
  AddressSpace& space = *strand.space();
  uint64_t size = static_cast<uint64_t>(state.a[0]);
  uint64_t pages = (size + kPageSize - 1) / kPageSize;
  uint64_t& brk = brk_[space.id()];
  if (brk == 0) {
    brk = 0x10000000;  // Mach task heap base
  }
  uint64_t base = brk;
  for (uint64_t i = 0; i < pages; ++i) {
    // Fault each page in through the VM event path (a Mach vm_allocate in
    // SPIN ultimately exercised the same trusted pager).
    kernel_.vm.Access(space, brk + i * kPageSize, kAccessWrite);
  }
  brk += pages * kPageSize;
  state.v0 = static_cast<int64_t>(base);
  state.error = 0;
}

void MachEmulator::VmDeallocate(Strand& strand, SavedState& state) {
  AddressSpace& space = *strand.space();
  uint64_t base = static_cast<uint64_t>(state.a[0]);
  uint64_t size = static_cast<uint64_t>(state.a[1]);
  for (uint64_t addr = base; addr < base + size; addr += kPageSize) {
    space.Unmap(addr);
  }
  state.v0 = 0;
  state.error = 0;
}

}  // namespace emul
}  // namespace spin
