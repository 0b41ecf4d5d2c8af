// Emulator extension tests: the Mach emulator of Figures 2/3, the OSF/1
// emulator slice, the OsfNet port events, and the async syscall tracer.
#include <set>

#include <gtest/gtest.h>

#include "src/emul/mach.h"
#include "src/emul/osf.h"
#include "tests/eager_config.h"

namespace spin {
namespace emul {
namespace {

class EmulTest : public ::testing::Test {
 protected:
  Dispatcher dispatcher_{EagerConfig()};
  Kernel kernel_{&dispatcher_};
  fs::Vfs vfs_{&dispatcher_};
};

TEST_F(EmulTest, MachGuardAdmitsOnlyMachTasks) {
  MachEmulator mach(kernel_);
  AddressSpace& mach_space = kernel_.CreateAddressSpace();
  AddressSpace& other_space = kernel_.CreateAddressSpace();
  mach.AdoptTask(mach_space);

  Strand& mach_strand = kernel_.CreateStrand(
      "mach", [](Strand&) { return false; }, &mach_space);
  Strand& other_strand = kernel_.CreateStrand(
      "other", [](Strand&) { return false; }, &other_space);

  mach_strand.saved_state().v0 = kMachTaskSelf;
  kernel_.Syscall(mach_strand);
  EXPECT_EQ(mach_strand.saved_state().v0,
            static_cast<int64_t>(mach_space.id()));
  EXPECT_EQ(mach.handled(), 1u);

  other_strand.saved_state().v0 = kMachTaskSelf;
  kernel_.Syscall(other_strand);
  EXPECT_EQ(mach.handled(), 1u) << "guard must filter non-Mach tasks";
  EXPECT_EQ(other_strand.saved_state().error, 78)
      << "unhandled syscalls land in the default handler";
}

TEST_F(EmulTest, MachVmAllocateMapsMemory) {
  MachEmulator mach(kernel_);
  AddressSpace& space = kernel_.CreateAddressSpace();
  mach.AdoptTask(space);
  Strand& strand = kernel_.CreateStrand(
      "mach", [](Strand&) { return false; }, &space);

  strand.saved_state().v0 = kMachVmAllocate;
  strand.saved_state().a[0] = 3 * kPageSize;
  kernel_.Syscall(strand);
  int64_t base = strand.saved_state().v0;
  ASSERT_GT(base, 0);
  EXPECT_TRUE(space.IsMapped(base, kAccessWrite));
  EXPECT_TRUE(space.IsMapped(base + 2 * kPageSize, kAccessWrite));
  EXPECT_GE(kernel_.vm.fault_count(), 3u);

  strand.saved_state().v0 = kMachVmDeallocate;
  strand.saved_state().a[0] = base;
  strand.saved_state().a[1] = 3 * kPageSize;
  kernel_.Syscall(strand);
  EXPECT_FALSE(space.IsMapped(base, kAccessRead));
}

TEST_F(EmulTest, TwoEmulatorsCoexistOnOneEvent) {
  // The paper's configuration: multiple OS emulators installed on the same
  // MachineTrap.Syscall event, discriminated purely by guards.
  MachEmulator mach(kernel_);
  OsfEmulator osf(kernel_, vfs_);
  AddressSpace& mach_space = kernel_.CreateAddressSpace();
  AddressSpace& osf_space = kernel_.CreateAddressSpace();
  mach.AdoptTask(mach_space);
  osf.AdoptTask(osf_space);

  Strand& osf_strand = kernel_.CreateStrand(
      "osf", [](Strand&) { return false; }, &osf_space);
  osf_strand.saved_state().v0 = kOsfOpen;
  osf_strand.saved_state().a[0] =
      reinterpret_cast<int64_t>("/tmp/file");
  osf_strand.saved_state().a[1] = fs::kOpenCreate;
  kernel_.Syscall(osf_strand);
  EXPECT_GE(osf_strand.saved_state().v0, 0);
  EXPECT_EQ(osf.handled(), 1u);
  EXPECT_EQ(mach.handled(), 0u);
  EXPECT_TRUE(vfs_.Exists("/tmp/file"));
}

TEST_F(EmulTest, OsfReadWriteThroughVfs) {
  OsfEmulator osf(kernel_, vfs_);
  AddressSpace& space = kernel_.CreateAddressSpace();
  osf.AdoptTask(space);
  Strand& strand = kernel_.CreateStrand(
      "osf", [](Strand&) { return false; }, &space);

  auto syscall = [&](int64_t n, int64_t a0, int64_t a1, int64_t a2) {
    strand.saved_state() = SavedState{};
    strand.saved_state().v0 = n;
    strand.saved_state().a[0] = a0;
    strand.saved_state().a[1] = a1;
    strand.saved_state().a[2] = a2;
    kernel_.Syscall(strand);
    return strand.saved_state().v0;
  };

  int64_t fd = syscall(kOsfOpen, reinterpret_cast<int64_t>("/data"),
                       fs::kOpenCreate, 0);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(syscall(kOsfWrite, fd, reinterpret_cast<int64_t>("unix"), 4), 4);
  EXPECT_EQ(syscall(kOsfClose, fd, 0, 0), 0);

  fd = syscall(kOsfOpen, reinterpret_cast<int64_t>("/data"), 0, 0);
  char buf[8] = {};
  EXPECT_EQ(syscall(kOsfRead, fd, reinterpret_cast<int64_t>(buf), 8), 4);
  EXPECT_STREQ(buf, "unix");
}

TEST_F(EmulTest, SelectRaisesEventNotify) {
  OsfEmulator osf(kernel_, vfs_);
  AddressSpace& space = kernel_.CreateAddressSpace();
  osf.AdoptTask(space);
  int notifies = 0;
  dispatcher_.InstallLambda(osf.EventNotify, [&](Strand*) { ++notifies; },
                            {.module = &osf.module()});
  Strand& strand = kernel_.CreateStrand(
      "osf", [](Strand&) { return false; }, &space);
  strand.saved_state().v0 = kOsfSelect;
  kernel_.Syscall(strand);
  strand.saved_state().v0 = kOsfSelect;  // the handler overwrites v0
  kernel_.Syscall(strand);
  EXPECT_EQ(notifies, 2);
  EXPECT_EQ(osf.selects(), 2u);
}

TEST_F(EmulTest, OsfNetPortEvents) {
  OsfNet osfnet(&dispatcher_);
  osfnet.RegisterPort(80);
  osfnet.RegisterPort(6000);
  EXPECT_EQ(osfnet.ports().size(), 2u);
  osfnet.UnregisterPort(80);
  EXPECT_EQ(osfnet.ports().size(), 1u);
  EXPECT_EQ(osfnet.AddTcpPortHandler.handler_count(), 1u);
}

TEST_F(EmulTest, AsyncSyscallTracerRecordsOnlyItsApplication) {
  OsfEmulator osf(kernel_, vfs_);
  AddressSpace& traced = kernel_.CreateAddressSpace();
  AddressSpace& other = kernel_.CreateAddressSpace();
  osf.AdoptTask(traced);
  osf.AdoptTask(other);
  SyscallTracer tracer(kernel_, traced);

  Strand& traced_strand = kernel_.CreateStrand(
      "traced", [](Strand&) { return false; }, &traced);
  Strand& other_strand = kernel_.CreateStrand(
      "other", [](Strand&) { return false; }, &other);

  traced_strand.saved_state().v0 = kOsfSelect;
  kernel_.Syscall(traced_strand);
  other_strand.saved_state().v0 = kOsfSelect;
  kernel_.Syscall(other_strand);
  traced_strand.saved_state().v0 = kOsfClose;
  kernel_.Syscall(traced_strand);

  dispatcher_.pool().Drain();
  std::vector<SyscallTracer::Record> records = tracer.Take();
  ASSERT_EQ(records.size(), 2u);
  // Detached recording: arrival order is unspecified, content is not.
  std::multiset<int64_t> syscalls;
  for (const auto& record : records) {
    EXPECT_EQ(record.strand_id, traced_strand.id());
    syscalls.insert(record.syscall);
  }
  EXPECT_EQ(syscalls, (std::multiset<int64_t>{kOsfClose, kOsfSelect}));
}

}  // namespace
}  // namespace emul
}  // namespace spin
