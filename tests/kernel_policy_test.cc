// Replaceable paging policy (§1: applications may "replace an existing
// paging policy"): the VM's victim-selection event ships with a FIFO
// handler; an extension swaps in LRU by uninstalling it and installing its
// own — the deregister/register model of §2.1.
#include <gtest/gtest.h>

#include "src/kernel/kernel.h"
#include "tests/eager_config.h"

namespace spin {
namespace {

class PolicyTest : public ::testing::Test {
 protected:
  Dispatcher dispatcher_{EagerConfig()};
  Kernel kernel_{&dispatcher_};
};

int64_t LruPolicy(AddressSpace* space) {
  return static_cast<int64_t>(space->LruVictim());
}

TEST_F(PolicyTest, FifoEvictsOldestMapping) {
  kernel_.vm.SetResidentLimit(3);
  AddressSpace& space = kernel_.CreateAddressSpace();
  uint8_t value = 0;
  // Touch pages 0, 1, 2 (in that order), then re-touch 0 heavily.
  for (uint64_t page : {0, 1, 2}) {
    kernel_.vm.Read(space, page * kPageSize, &value);
  }
  kernel_.vm.Read(space, 0, &value);
  kernel_.vm.Read(space, 0, &value);
  // Page 3 faults: FIFO evicts page 0 (mapped first) despite its recency.
  kernel_.vm.Read(space, 3 * kPageSize, &value);
  EXPECT_EQ(kernel_.vm.eviction_count(), 1u);
  EXPECT_FALSE(space.IsMapped(0, kAccessRead));
  EXPECT_TRUE(space.IsMapped(1 * kPageSize, kAccessRead));
}

TEST_F(PolicyTest, ExtensionReplacesFifoWithLru) {
  kernel_.vm.SetResidentLimit(3);
  // The §2.1 replacement model: deregister the existing implementation,
  // register the alternate.
  dispatcher_.Uninstall(kernel_.vm.fifo_policy_binding(),
                        &kernel_.vm.module());
  dispatcher_.InstallHandler(kernel_.vm.SelectVictim, &LruPolicy,
                             {.module = &kernel_.vm.module()});

  AddressSpace& space = kernel_.CreateAddressSpace();
  uint8_t value = 0;
  for (uint64_t page : {0, 1, 2}) {
    kernel_.vm.Read(space, page * kPageSize, &value);
  }
  // Re-touch page 0: under LRU, page 1 is now the coldest.
  kernel_.vm.Read(space, 0, &value);
  kernel_.vm.Read(space, 3 * kPageSize, &value);
  EXPECT_EQ(kernel_.vm.eviction_count(), 1u);
  EXPECT_TRUE(space.IsMapped(0, kAccessRead)) << "LRU keeps the hot page";
  EXPECT_FALSE(space.IsMapped(1 * kPageSize, kAccessRead));
}

TEST_F(PolicyTest, NoPolicyRefusesEvictionGracefully) {
  kernel_.vm.SetResidentLimit(2);
  dispatcher_.Uninstall(kernel_.vm.fifo_policy_binding(),
                        &kernel_.vm.module());
  AddressSpace& space = kernel_.CreateAddressSpace();
  uint8_t value = 0;
  for (uint64_t page = 0; page < 5; ++page) {
    EXPECT_TRUE(kernel_.vm.Read(space, page * kPageSize, &value));
  }
  // The default "no victim" handler refused every eviction: the space
  // exceeds its limit but the system stays alive.
  EXPECT_EQ(kernel_.vm.eviction_count(), 0u);
  EXPECT_EQ(space.resident_pages(), 5u);
}

TEST_F(PolicyTest, UnlimitedByDefault) {
  AddressSpace& space = kernel_.CreateAddressSpace();
  uint8_t value = 0;
  for (uint64_t page = 0; page < 64; ++page) {
    kernel_.vm.Read(space, page * kPageSize, &value);
  }
  EXPECT_EQ(kernel_.vm.eviction_count(), 0u);
  EXPECT_EQ(space.resident_pages(), 64u);
}

TEST_F(PolicyTest, EvictionChurnUnderPressure) {
  kernel_.vm.SetResidentLimit(4);
  AddressSpace& space = kernel_.CreateAddressSpace();
  uint8_t value = 0;
  // A sequential scan of 32 pages with a 4-page window evicts on nearly
  // every new page.
  for (uint64_t page = 0; page < 32; ++page) {
    EXPECT_TRUE(kernel_.vm.Read(space, page * kPageSize, &value));
  }
  EXPECT_GE(kernel_.vm.eviction_count(), 28u);
  EXPECT_LE(space.resident_pages(), 4u);
}

}  // namespace
}  // namespace spin
