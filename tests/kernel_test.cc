// Kernel substrate tests: scheduler + Strand.Run, the trap layer, and the
// VM.PageFault event machinery (§2.2, §2.3).
#include <gtest/gtest.h>

#include "src/kernel/kernel.h"
#include "tests/eager_config.h"

namespace spin {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  Dispatcher dispatcher_{EagerConfig()};
  Kernel kernel_{&dispatcher_};
};

TEST_F(KernelTest, StrandsRunRoundRobin) {
  std::vector<int> order;
  kernel_.CreateStrand("a", [&](Strand&) {
    order.push_back(1);
    return order.size() < 5;
  });
  kernel_.CreateStrand("b", [&](Strand&) {
    order.push_back(2);
    return order.size() < 5;
  });
  uint64_t quanta = kernel_.RunUntilIdle();
  EXPECT_GE(quanta, 5u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 1);
}

TEST_F(KernelTest, StrandRunRaisedPerSchedulingOperation) {
  std::vector<uint64_t> scheduled;
  dispatcher_.InstallLambda(
      kernel_.StrandRun, [&](Strand* s) { scheduled.push_back(s->id()); },
      {.module = &kernel_.strand_module()});
  Strand& a = kernel_.CreateStrand("a", [](Strand&) { return false; });
  Strand& b = kernel_.CreateStrand("b", [](Strand&) { return false; });
  kernel_.RunUntilIdle();
  // The intrinsic scheduler hook plus our extension both ran; our log has
  // one entry per quantum.
  EXPECT_EQ(scheduled, (std::vector<uint64_t>{a.id(), b.id()}));
  EXPECT_EQ(kernel_.context_switches(), 2u);
}

TEST_F(KernelTest, UnknownSyscallGetsDefaultHandler) {
  Strand& strand = kernel_.CreateStrand("app", [](Strand&) { return false; });
  strand.saved_state().v0 = 9999;
  kernel_.Syscall(strand);
  EXPECT_EQ(strand.saved_state().error, 78);
  EXPECT_EQ(kernel_.syscall_count(), 1u);
}

TEST_F(KernelTest, BlockAndWake) {
  int runs = 0;
  Strand& sleeper = kernel_.CreateStrand("sleeper", [&](Strand&) {
    ++runs;
    return false;
  });
  kernel_.Block(sleeper);
  EXPECT_EQ(kernel_.RunUntilIdle(), 0u) << "blocked strand must not run";
  kernel_.Wake(sleeper);
  EXPECT_EQ(kernel_.RunUntilIdle(), 1u);
  EXPECT_EQ(runs, 1);
}

TEST_F(KernelTest, KilledStrandStopsRunning) {
  int runs = 0;
  Strand& strand = kernel_.CreateStrand("victim", [&](Strand& s) {
    ++runs;
    if (runs == 2) {
      s.set_state(StrandState::kDone);
    }
    return true;
  });
  (void)strand;
  kernel_.RunUntilIdle();
  EXPECT_EQ(runs, 2);
}

// --- VM -------------------------------------------------------------------

TEST_F(KernelTest, DefaultPagerMapsZeroPages) {
  AddressSpace& space = kernel_.CreateAddressSpace();
  EXPECT_FALSE(space.IsMapped(0x5000, kAccessRead));
  uint8_t value = 0xff;
  EXPECT_TRUE(kernel_.vm.Read(space, 0x5000, &value));
  EXPECT_EQ(value, 0) << "demand-zero page";
  EXPECT_EQ(kernel_.vm.fault_count(), 1u);
  EXPECT_EQ(kernel_.vm.default_pager_count(), 1u);
  // Second access: no fault.
  EXPECT_TRUE(kernel_.vm.Read(space, 0x5001, &value));
  EXPECT_EQ(kernel_.vm.fault_count(), 1u);
}

TEST_F(KernelTest, WriteThenReadThroughVm) {
  AddressSpace& space = kernel_.CreateAddressSpace();
  EXPECT_TRUE(kernel_.vm.Write(space, 0x7abc, 0x42));
  uint8_t value = 0;
  EXPECT_TRUE(kernel_.vm.Read(space, 0x7abc, &value));
  EXPECT_EQ(value, 0x42);
}

struct SegmentPager {
  uint64_t base;
  uint64_t limit;
  int faults = 0;
};

// An extension pager interested only in its own segment — the guard shape
// of §2.1: "an extension that is interested in handling page fault events
// for its data segment can define a guard that checks whether the faulting
// address is in that segment."
bool SegmentGuard(SegmentPager* pager, AddressSpace*, uint64_t addr,
                  int32_t) {
  return addr >= pager->base && addr < pager->limit;
}

bool SegmentFault(SegmentPager* pager, AddressSpace* space, uint64_t addr,
                  int32_t) {
  ++pager->faults;
  space->MapZeroPage(addr, kAccessRead | kAccessWrite);
  uint8_t* frame = space->FrameFor(addr);
  frame[addr % kPageSize] = 0xab;  // "paged in" recognizable content
  return true;
}

TEST_F(KernelTest, GuardedExtensionPagerHandlesItsSegment) {
  SegmentPager pager{0x100000, 0x200000};
  auto binding = dispatcher_.InstallHandler(
      kernel_.vm.PageFault, &SegmentFault, &pager,
      {.module = &kernel_.vm.module()});
  dispatcher_.AddGuard(kernel_.vm.PageFault, binding, &SegmentGuard, &pager);

  AddressSpace& space = kernel_.CreateAddressSpace();
  uint8_t value = 0;
  // Inside the segment: the extension pager serves the fault, the default
  // pager does not run (it is a default handler).
  EXPECT_TRUE(kernel_.vm.Read(space, 0x100400, &value));
  EXPECT_EQ(value, 0xab);
  EXPECT_EQ(pager.faults, 1);
  EXPECT_EQ(kernel_.vm.default_pager_count(), 0u);
  // Outside: trusted default pager.
  EXPECT_TRUE(kernel_.vm.Read(space, 0x300000, &value));
  EXPECT_EQ(value, 0);
  EXPECT_EQ(pager.faults, 1);
  EXPECT_EQ(kernel_.vm.default_pager_count(), 1u);
}

bool RefusingPager(AddressSpace*, uint64_t, int32_t) { return false; }

TEST_F(KernelTest, InaccessiblePageCrashesAccess) {
  // Replace the default pager story: install a handler that refuses; the
  // logical-or of results is false -> access fails (the "VM system crashes
  // the application" case).
  dispatcher_.InstallHandler(kernel_.vm.PageFault, &RefusingPager,
                             {.module = &kernel_.vm.module()});
  AddressSpace& space = kernel_.CreateAddressSpace();
  uint8_t value = 0;
  EXPECT_FALSE(kernel_.vm.Read(space, 0x9000, &value));
}

TEST_F(KernelTest, ProtectionEnforced) {
  AddressSpace& space = kernel_.CreateAddressSpace();
  space.MapZeroPage(0x4000, kAccessRead);  // read-only mapping
  EXPECT_TRUE(space.IsMapped(0x4000, kAccessRead));
  EXPECT_FALSE(space.IsMapped(0x4000, kAccessWrite));
  // A write access faults; the default pager remaps read-write.
  EXPECT_TRUE(kernel_.vm.Write(space, 0x4000, 1));
  EXPECT_EQ(kernel_.vm.fault_count(), 1u);
}

// --- Syscall dispatch through strands ------------------------------------

TEST_F(KernelTest, SyscallFromStrandBody) {
  dispatcher_.InstallLambda(
      kernel_.MachineTrapSyscall,
      [](Strand*, SavedState& state) {
        if (state.v0 == 42) {
          state.v0 = 1234;
          state.error = 0;
        }
      },
      {.module = &kernel_.machine_trap_module()});
  Strand& strand = kernel_.CreateStrand(
      "app",
      [&](Strand& s) {
        s.saved_state().v0 = 42;
        kernel_.Syscall(s);
        return false;
      },
      &kernel_.CreateAddressSpace());
  kernel_.RunUntilIdle();
  EXPECT_EQ(strand.saved_state().v0, 1234);
}

}  // namespace
}  // namespace spin
