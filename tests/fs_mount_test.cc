// Multi-filesystem composition: LogFs mounted beside the base UFS on the
// same events, demultiplexed purely by guards (§1: "provide a new
// in-kernel file system"; §1.2's composition argument).
#include <cctype>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "src/fs/logfs.h"
#include "src/fs/vfs.h"
#include "tests/eager_config.h"

namespace spin {
namespace fs {
namespace {

class MountTest : public ::testing::Test {
 protected:
  std::string ReadAll(int64_t fd) {
    std::string out;
    char buf[64];
    int64_t n;
    while ((n = vfs_.Read.Raise(fd, buf, sizeof(buf))) > 0) {
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }

  void WriteFile(const std::string& path, const std::string& content) {
    int64_t fd = vfs_.Open.Raise(path.c_str(), kOpenCreate);
    ASSERT_GE(fd, 0);
    vfs_.Write.Raise(fd, content.data(),
                     static_cast<int64_t>(content.size()));
    vfs_.CloseFd.Raise(fd);
  }

  Dispatcher dispatcher_{EagerConfig()};
  Vfs vfs_{&dispatcher_};
};

TEST_F(MountTest, LogFsHandlesItsPrefix) {
  LogFs logfs(vfs_, "/log/");
  WriteFile("/log/journal", "entry one");
  int64_t fd = vfs_.Open.Raise("/log/journal", 0);
  ASSERT_GE(fd, Vfs::kMountFdRange) << "LogFs must use its own fd range";
  EXPECT_EQ(ReadAll(fd), "entry one");
  vfs_.CloseFd.Raise(fd);
  EXPECT_FALSE(vfs_.Exists("/log/journal"))
      << "the base UFS never saw the mounted path";
  EXPECT_GE(logfs.log_records(), 1u);
}

TEST_F(MountTest, TwoFilesystemsCoexist) {
  LogFs logfs(vfs_, "/log/");
  WriteFile("/etc/passwd", "root");
  WriteFile("/log/audit", "login");
  EXPECT_TRUE(vfs_.Exists("/etc/passwd"));
  EXPECT_FALSE(vfs_.Exists("/log/audit"));
  int64_t ufs_fd = vfs_.Open.Raise("/etc/passwd", 0);
  int64_t log_fd = vfs_.Open.Raise("/log/audit", 0);
  EXPECT_LT(ufs_fd, Vfs::kMountFdRange);
  EXPECT_GE(log_fd, Vfs::kMountFdRange);
  EXPECT_EQ(ReadAll(ufs_fd), "root");
  EXPECT_EQ(ReadAll(log_fd), "login");
  vfs_.CloseFd.Raise(ufs_fd);
  vfs_.CloseFd.Raise(log_fd);
}

TEST_F(MountTest, AppendsAccumulateInTheLog) {
  LogFs logfs(vfs_, "/log/");
  int64_t fd = vfs_.Open.Raise("/log/j", kOpenCreate);
  vfs_.Write.Raise(fd, "aaa", 3);
  vfs_.Write.Raise(fd, "bbb", 3);
  vfs_.CloseFd.Raise(fd);
  // Open record + two writes.
  EXPECT_EQ(logfs.log_records(), 3u);
  fd = vfs_.Open.Raise("/log/j", 0);
  EXPECT_EQ(ReadAll(fd), "aaabbb");
  vfs_.CloseFd.Raise(fd);
}

TEST_F(MountTest, CompactionPreservesContents) {
  LogFs logfs(vfs_, "/log/");
  WriteFile("/log/a", "alpha");
  WriteFile("/log/b", "beta");
  vfs_.Remove.Raise("/log/b");
  size_t before = logfs.log_records();
  logfs.Compact();
  EXPECT_LT(logfs.log_records(), before);
  EXPECT_EQ(logfs.log_records(), 1u) << "only /log/a survives";
  int64_t fd = vfs_.Open.Raise("/log/a", 0);
  EXPECT_EQ(ReadAll(fd), "alpha");
  vfs_.CloseFd.Raise(fd);
  EXPECT_EQ(vfs_.Open.Raise("/log/b", 0), kErrNoEnt);
}

TEST_F(MountTest, TruncateDropsOldRecords) {
  LogFs logfs(vfs_, "/log/");
  WriteFile("/log/t", "old contents");
  int64_t fd = vfs_.Open.Raise("/log/t", kOpenTrunc);
  vfs_.Write.Raise(fd, "new", 3);
  vfs_.CloseFd.Raise(fd);
  fd = vfs_.Open.Raise("/log/t", 0);
  EXPECT_EQ(ReadAll(fd), "new");
  vfs_.CloseFd.Raise(fd);
}

TEST_F(MountTest, RemoveThenRecreate) {
  LogFs logfs(vfs_, "/log/");
  WriteFile("/log/x", "first");
  EXPECT_EQ(vfs_.Remove.Raise("/log/x"), 0);
  EXPECT_EQ(vfs_.Open.Raise("/log/x", 0), kErrNoEnt);
  WriteFile("/log/x", "second");
  int64_t fd = vfs_.Open.Raise("/log/x", 0);
  EXPECT_EQ(ReadAll(fd), "second");
  vfs_.CloseFd.Raise(fd);
}

TEST_F(MountTest, UnmountRestoresErrors) {
  {
    LogFs logfs(vfs_, "/log/");
    WriteFile("/log/gone", "data");
  }
  // LogFs destroyed: nothing claims /log paths; the default handler
  // answers with kErrNoEnt (UFS guards still decline nothing — the mount
  // registration is gone, so UFS now claims the path and misses).
  EXPECT_EQ(vfs_.Open.Raise("/log/gone", 0), kErrNoEnt);
}

TEST_F(MountTest, MountThatCannotInstallLeavesNothingBehind) {
  // Room for two of LogFs's five guarded bindings: the third install fails
  // the quota. The constructor must take back the mount and the two
  // bindings whose closure is the LogFs that never finished constructing.
  const size_t per_binding = sizeof(Binding) + GuardClause{}.MemoryBytes();
  dispatcher_.quota().SetLimit(per_binding * 5 / 2);
  const size_t opens = vfs_.Open.handler_count();
  const size_t reads = vfs_.Read.handler_count();
  try {
    LogFs logfs(vfs_, "/log/");
    FAIL() << "expected InstallError";
  } catch (const InstallError& e) {
    EXPECT_EQ(e.status(), InstallStatus::kQuotaExceeded);
  }
  EXPECT_EQ(vfs_.Open.handler_count(), opens);
  EXPECT_EQ(vfs_.Read.handler_count(), reads);
  // Nothing claims /log/ any more: the base UFS answers and misses.
  EXPECT_EQ(vfs_.Open.Raise("/log/x", 0), kErrNoEnt);
}

TEST_F(MountTest, ForeignFdRangeRejected) {
  LogFs logfs(vfs_, "/log/");
  char buf[8];
  // An fd in LogFs's range that was never opened: LogFs claims and rejects.
  EXPECT_EQ(vfs_.Read.Raise(Vfs::kMountFdRange + 999, buf, 8), kErrBadFd);
  // An fd beyond every range: the default handler answers.
  EXPECT_EQ(vfs_.Read.Raise(10 * Vfs::kMountFdRange, buf, 8), kErrBadFd);
}

TEST_F(MountTest, DosFilterComposesWithMounts) {
  // Three extensions on one event: the DOS name filter (ordered first),
  // LogFs (guard on the prefix), and base UFS.
  LogFs logfs(vfs_, "/log/");
  static char converted[128];
  dispatcher_.InstallFilter(
      vfs_.Open,
      +[](const char*& path, int32_t) -> int64_t {
        if (path[0] != '\0' && path[1] == ':') {
          size_t out = 0;
          for (const char* p = path + 2; *p && out + 1 < sizeof(converted);
               ++p) {
            converted[out++] =
                *p == '\\' ? '/' : static_cast<char>(std::tolower(*p));
          }
          converted[out] = '\0';
          path = converted;
        }
        return 0;
      },
      {.order = {OrderKind::kFirst}, .module = &vfs_.module()});
  int64_t fd = vfs_.Open.Raise("L:\\LOG\\DOS.TXT", kOpenCreate);
  ASSERT_GE(fd, Vfs::kMountFdRange)
      << "the translated name must land in LogFs";
  vfs_.Write.Raise(fd, "dos->log", 8);
  vfs_.CloseFd.Raise(fd);
  int64_t fd2 = vfs_.Open.Raise("/log/dos.txt", 0);
  EXPECT_EQ(ReadAll(fd2), "dos->log");
  vfs_.CloseFd.Raise(fd2);
}

}  // namespace
}  // namespace fs
}  // namespace spin
