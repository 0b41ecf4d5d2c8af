// The code-slot pool behind CodeBuffer: buffers of any page count run,
// every live buffer is its own r-x mapping between PROT_NONE pages, no
// mapping in the process is ever writable and executable, destroyed slots
// are handed out again, and threads may create and destroy buffers at once.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/codegen/exec_memory.h"
#include "src/codegen/stub_compiler.h"

namespace spin {
namespace codegen {
namespace {

class ExecMemoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!CodegenAvailable()) {
      GTEST_SKIP() << "generated code cannot run on this host";
    }
  }
};

size_t PageSize() { return static_cast<size_t>(sysconf(_SC_PAGESIZE)); }

// A routine spanning `pages` pages: a nop sled across every page boundary,
// then `mov eax, value; ret`.
std::vector<uint8_t> Routine(size_t pages, uint32_t value) {
  std::vector<uint8_t> code((pages - 1) * PageSize() + 58, 0x90);
  code.push_back(0xB8);
  for (int i = 0; i < 4; ++i) {
    code.push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
  code.push_back(0xC3);
  return code;
}

uint32_t Call(const CodeBuffer& buffer) {
  return reinterpret_cast<uint32_t (*)()>(
      const_cast<void*>(buffer.entry()))();
}

struct Mapping {
  uintptr_t start = 0;
  uintptr_t end = 0;
  std::string perms;
};

std::vector<Mapping> Mappings() {
  std::vector<Mapping> out;
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    unsigned long start = 0;
    unsigned long end = 0;
    char perms[5] = {};
    if (std::sscanf(line.c_str(), "%lx-%lx %4s", &start, &end, perms) == 3) {
      out.push_back({start, end, perms});
    }
  }
  return out;
}

Mapping MappingAt(const void* address) {
  auto a = reinterpret_cast<uintptr_t>(address);
  for (const Mapping& m : Mappings()) {
    if (m.start <= a && a < m.end) {
      return m;
    }
  }
  return {};
}

// The mappings that are writable and executable at once, as "start perms".
std::vector<std::string> WritableAndExecutable() {
  std::vector<std::string> bad;
  for (const Mapping& m : Mappings()) {
    if (m.perms.size() >= 3 && m.perms[1] == 'w' && m.perms[2] == 'x') {
      char line[64];
      std::snprintf(line, sizeof(line), "%lx %s",
                    static_cast<unsigned long>(m.start), m.perms.c_str());
      bad.emplace_back(line);
    }
  }
  return bad;
}

TEST_F(ExecMemoryTest, OneTwoAndThreePageBuffersRun) {
  for (size_t pages = 1; pages <= 3; ++pages) {
    auto code = Routine(pages, static_cast<uint32_t>(0x1000 + pages));
    auto buffer = CodeBuffer::Create(code);
    ASSERT_NE(buffer, nullptr);
    EXPECT_EQ(buffer->code_size(), code.size());
    EXPECT_EQ(buffer->mapped_size(), pages * PageSize());
    EXPECT_EQ(Call(*buffer), 0x1000 + pages);
  }
}

TEST_F(ExecMemoryTest, LiveBufferIsItsOwnReadExecuteMapping) {
  std::vector<std::unique_ptr<CodeBuffer>> live;
  for (size_t pages = 1; pages <= 3; ++pages) {
    live.push_back(CodeBuffer::Create(Routine(pages, 7)));
    ASSERT_NE(live.back(), nullptr);
  }
  for (const auto& buffer : live) {
    auto start = reinterpret_cast<uintptr_t>(buffer->entry());
    Mapping slot = MappingAt(buffer->entry());
    EXPECT_EQ(slot.start, start);
    EXPECT_EQ(slot.end, start + buffer->mapped_size());
    EXPECT_EQ(slot.perms, "r-xp");
    // PROT_NONE on both sides: the page before belongs to the previous
    // slot's guard or the chunk's first page.
    EXPECT_EQ(MappingAt(reinterpret_cast<const void*>(start - 1)).perms,
              "---p");
    EXPECT_EQ(MappingAt(reinterpret_cast<const void*>(
                            start + buffer->mapped_size()))
                  .perms,
              "---p");
  }
}

TEST_F(ExecMemoryTest, NoMappingIsWritableAndExecutable) {
  size_t before = CodeBuffer::TotalMappedBytes();
  std::vector<std::unique_ptr<CodeBuffer>> live(48);
  size_t live_bytes = 0;
  for (uint32_t i = 0; i < 4000; ++i) {
    auto& slot = live[(i * 7) % live.size()];
    if (slot != nullptr) {
      live_bytes -= slot->mapped_size();
    }
    slot = CodeBuffer::Create(Routine(1 + i % 3, i));
    ASSERT_NE(slot, nullptr);
    live_bytes += slot->mapped_size();
    ASSERT_EQ(Call(*slot), i);
    // Only live code counts, not the idle slots kept in the pool.
    ASSERT_EQ(CodeBuffer::TotalMappedBytes(), before + live_bytes);
    if (i % 1000 == 999) {
      EXPECT_EQ(WritableAndExecutable(), std::vector<std::string>{});
    }
  }
  live.clear();
  EXPECT_EQ(CodeBuffer::TotalMappedBytes(), before);
  EXPECT_EQ(WritableAndExecutable(), std::vector<std::string>{});
}

TEST_F(ExecMemoryTest, DestroyedSlotIsHandedOutAgain) {
  auto first = CodeBuffer::Create(Routine(2, 1));
  ASSERT_NE(first, nullptr);
  const void* address = first->entry();
  first.reset();
  auto second = CodeBuffer::Create(Routine(2, 2));
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->entry(), address);
  EXPECT_EQ(MappingAt(address).perms, "r-xp");
  EXPECT_EQ(Call(*second), 2u);  // the new code, not the slot's old bytes
}

TEST_F(ExecMemoryTest, FourThreadsCreateAndDestroyAtOnce) {
  constexpr int kThreads = 4;
  constexpr uint32_t kRounds = 1500;
  std::vector<std::thread> threads;
  std::vector<uint32_t> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &failures] {
      std::vector<std::unique_ptr<CodeBuffer>> live(8);
      for (uint32_t i = 0; i < kRounds; ++i) {
        uint32_t value = static_cast<uint32_t>(t) * 1000000 + i;
        auto buffer = CodeBuffer::Create(Routine(1 + (i + t) % 3, value));
        if (buffer == nullptr || Call(*buffer) != value) {
          ++failures[t];
        }
        live[i % live.size()] = std::move(buffer);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0u) << "thread " << t;
  }
  EXPECT_EQ(WritableAndExecutable(), std::vector<std::string>{});
}

}  // namespace
}  // namespace codegen
}  // namespace spin
