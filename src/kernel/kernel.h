// The kernel substrate: scheduler, trap layer, and the events that SPIN's
// core system services raise (§2.2, §3.2 / Table 3).
//
// "The kernel provides no native system call handling facilities. Instead,
// the MachineTrap module, which implements basic trap handling, exports an
// event Syscall through the MachineTrap interface." Extensions (the Mach
// and OSF/1 emulators in src/emul/) install guarded handlers on it.
//
// Strand.Run is raised on every scheduling operation, exactly the hook the
// paper's user-space thread packages attached to.
#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/core/dispatcher.h"
#include "src/kernel/strand.h"
#include "src/kernel/vm.h"

namespace spin {

class Kernel {
  // Module identities (authorities over the events below). Declared first:
  // the events' constructors install intrinsics with these modules as
  // authority, so they must be constructed before any event member.
  Module strand_module_{"Strand"};
  Module machine_trap_module_{"MachineTrap"};

 public:
  explicit Kernel(Dispatcher* dispatcher = &Dispatcher::Global());

  Dispatcher& dispatcher() { return *dispatcher_; }

  // --- Events (the kernel's extension surface) --------------------------

  // Raised on every scheduling operation.
  Event<void(Strand*)> StrandRun;
  // Raised on every system call trap; extensions dispatch on state.v0.
  Event<void(Strand*, SavedState&)> MachineTrapSyscall;
  // Raised on every clock tick with the new kernel time; extensions hook
  // it for timeouts, profiling, or aging policies.
  Event<void(int64_t)> ClockTick;

  Vm vm;

  const Module& strand_module() const { return strand_module_; }
  const Module& machine_trap_module() const { return machine_trap_module_; }

  // --- Strand management -------------------------------------------------

  AddressSpace& CreateAddressSpace();
  Strand& CreateStrand(std::string name, Strand::StepFn step,
                       AddressSpace* space = nullptr);

  // Trap entry: saves nothing extra (SavedState lives in the strand),
  // switches to kernel context, and raises MachineTrap.Syscall.
  void Syscall(Strand& strand);

  void Block(Strand& strand);
  void Wake(Strand& strand);
  void Kill(Strand& strand);

  // --- Virtual kernel clock and timers ---------------------------------

  uint64_t now_ns() const { return clock_ns_; }
  // Advances the clock, raises Clock.Tick, and wakes expired sleepers.
  void Tick(uint64_t delta_ns);
  // Blocks `strand` until the kernel clock reaches `wake_ns`.
  void SleepUntil(Strand& strand, uint64_t wake_ns);
  size_t sleeping() const { return sleepers_.size(); }

  // --- Scheduler -----------------------------------------------------------

  // Round-robin until no strand is runnable (or the quantum cap is hit).
  // When the run queue drains but sleepers remain, the clock jumps to the
  // next timer expiry, as an idle kernel would.
  // Returns the number of quanta executed.
  uint64_t RunUntilIdle(uint64_t max_quanta = 1u << 20);

  Strand* current() const { return current_; }
  uint64_t context_switches() const { return context_switches_; }
  uint64_t syscall_count() const { return syscalls_; }
  size_t runnable() const { return run_queue_.size(); }

 private:
  static void IdleStrandRun(Strand*) {}  // intrinsic scheduler hook
  static void UnknownSyscall(Strand*, SavedState& state);

  Dispatcher* dispatcher_;

  static void IdleClockTick(int64_t) {}

  std::vector<std::unique_ptr<Strand>> strands_;
  std::vector<std::unique_ptr<AddressSpace>> spaces_;
  std::deque<Strand*> run_queue_;
  // (wake_ns, strand), kept sorted by wake time; small and rarely deep.
  std::vector<std::pair<uint64_t, Strand*>> sleepers_;
  Strand* current_ = nullptr;
  uint64_t next_id_ = 1;
  uint64_t clock_ns_ = 0;
  uint64_t context_switches_ = 0;
  uint64_t syscalls_ = 0;
};

}  // namespace spin

#endif  // SRC_KERNEL_KERNEL_H_
