#include "src/kernel/kernel.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "src/rt/panic.h"

namespace spin {
namespace {

// Models the machine-dependent trap path: "the machine dependent part of
// the kernel saves the state of the trapping thread, changes the state of
// the system to allow safe execution in the kernel context" (§2.2). A real
// user->kernel->user round trip on the host charges the simulated syscall
// with a realistic trap cost, so the microbenchmark overhead numbers
// (bench_micro_overhead) compare event dispatch against a genuine trap.
void SimulateTrapEntry() {
#if defined(__linux__)
  ::syscall(SYS_getpid);
#endif
}

// Models the register-file save/restore of a context switch.
struct RegisterFile {
  uint8_t bytes[512];
};
RegisterFile g_machine_regs;

}  // namespace

Kernel::Kernel(Dispatcher* dispatcher)
    : StrandRun("Strand.Run", &strand_module_, &Kernel::IdleStrandRun,
                dispatcher),
      MachineTrapSyscall("MachineTrap.Syscall", &machine_trap_module_,
                         nullptr, dispatcher),
      ClockTick("Clock.Tick", &strand_module_, &Kernel::IdleClockTick,
                dispatcher),
      vm(dispatcher),
      dispatcher_(dispatcher) {
  // With no emulator installed a system call must not crash the kernel:
  // the default handler reports "unknown syscall" in the saved state.
  dispatcher_->InstallDefaultHandler(MachineTrapSyscall,
                                     &Kernel::UnknownSyscall,
                                     {.module = &machine_trap_module_});
}

void Kernel::UnknownSyscall(Strand*, SavedState& state) {
  state.error = 78;  // ENOSYS on OSF/1
  state.v0 = -1;
}

AddressSpace& Kernel::CreateAddressSpace() {
  spaces_.push_back(std::make_unique<AddressSpace>(next_id_++));
  return *spaces_.back();
}

Strand& Kernel::CreateStrand(std::string name, Strand::StepFn step,
                             AddressSpace* space) {
  strands_.push_back(std::make_unique<Strand>(next_id_++, std::move(name),
                                              std::move(step), space));
  Strand* strand = strands_.back().get();
  run_queue_.push_back(strand);
  return *strand;
}

void Kernel::Syscall(Strand& strand) {
  ++syscalls_;
  SimulateTrapEntry();
  // State is saved in the strand; raise the event and let guards route it
  // (Figure 2).
  MachineTrapSyscall.Raise(&strand, strand.saved_state());
}

void Kernel::Block(Strand& strand) {
  strand.set_state(StrandState::kBlocked);
}

void Kernel::Wake(Strand& strand) {
  if (strand.state() == StrandState::kBlocked) {
    strand.set_state(StrandState::kReady);
    run_queue_.push_back(&strand);
  }
}

void Kernel::Kill(Strand& strand) { strand.set_state(StrandState::kDone); }

void Kernel::Tick(uint64_t delta_ns) {
  clock_ns_ += delta_ns;
  ClockTick.Raise(static_cast<int64_t>(clock_ns_));
  // Wake expired sleepers (kept sorted: earliest at the back for cheap
  // pops).
  while (!sleepers_.empty() && sleepers_.back().first <= clock_ns_) {
    Strand* strand = sleepers_.back().second;
    sleepers_.pop_back();
    Wake(*strand);
  }
}

void Kernel::SleepUntil(Strand& strand, uint64_t wake_ns) {
  Block(strand);
  sleepers_.emplace_back(wake_ns, &strand);
  std::sort(sleepers_.begin(), sleepers_.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
}

uint64_t Kernel::RunUntilIdle(uint64_t max_quanta) {
  uint64_t quanta = 0;
  while (quanta < max_quanta) {
    if (run_queue_.empty()) {
      if (sleepers_.empty()) {
        break;
      }
      // Idle: jump the clock to the next timer expiry.
      uint64_t next = sleepers_.back().first;
      Tick(next > clock_ns_ ? next - clock_ns_ : 0);
      continue;
    }
    Strand* strand = run_queue_.front();
    run_queue_.pop_front();
    if (strand->state() == StrandState::kDone ||
        strand->state() == StrandState::kBlocked) {
      continue;
    }
    ++context_switches_;
    current_ = strand;
    strand->set_state(StrandState::kRunning);
    // Save/restore the machine register file (context-switch cost model).
    std::memcpy(strand->register_file(), &g_machine_regs,
                sizeof(g_machine_regs));
    StrandRun.Raise(strand);  // every scheduling op raises Strand.Run
    bool more = strand->RunQuantum();
    ++quanta;
    current_ = nullptr;
    if (!more || strand->state() == StrandState::kDone) {
      strand->set_state(StrandState::kDone);
    } else if (strand->state() == StrandState::kRunning) {
      strand->set_state(StrandState::kReady);
      run_queue_.push_back(strand);
    }
    // Blocked strands re-enter the queue through Wake().
  }
  return quanta;
}

}  // namespace spin
