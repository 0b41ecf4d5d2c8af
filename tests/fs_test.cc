// VFS tests, including the §2.3 filter example: an MS-DOS name space
// provided over the UNIX file system by a path-rewriting filter.
#include <cctype>
#include <cstring>

#include <gtest/gtest.h>

#include "src/fs/vfs.h"
#include "tests/eager_config.h"

namespace spin {
namespace fs {
namespace {

class FsTest : public ::testing::Test {
 protected:
  Dispatcher dispatcher_{EagerConfig()};
  Vfs vfs_{&dispatcher_};
};

TEST_F(FsTest, CreateWriteReadRoundTrip) {
  int64_t fd = vfs_.Open.Raise("/etc/motd", kOpenCreate);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(vfs_.Write.Raise(fd, "hello spin", 10), 10);
  EXPECT_EQ(vfs_.CloseFd.Raise(fd), 0);

  fd = vfs_.Open.Raise("/etc/motd", 0);
  ASSERT_GE(fd, 0);
  char buf[32] = {};
  EXPECT_EQ(vfs_.Read.Raise(fd, buf, 32), 10);
  EXPECT_STREQ(buf, "hello spin");
  EXPECT_EQ(vfs_.CloseFd.Raise(fd), 0);
}

TEST_F(FsTest, OpenMissingWithoutCreateFails) {
  EXPECT_EQ(vfs_.Open.Raise("/nope", 0), kErrNoEnt);
}

TEST_F(FsTest, TruncateOnOpen) {
  int64_t fd = vfs_.Open.Raise("/f", kOpenCreate);
  vfs_.Write.Raise(fd, "0123456789", 10);
  vfs_.CloseFd.Raise(fd);
  fd = vfs_.Open.Raise("/f", kOpenTrunc);
  char buf[8];
  EXPECT_EQ(vfs_.Read.Raise(fd, buf, 8), 0);
  vfs_.CloseFd.Raise(fd);
}

TEST_F(FsTest, BadFdRejected) {
  char buf[4];
  EXPECT_EQ(vfs_.Read.Raise(99, buf, 4), kErrBadFd);
  EXPECT_EQ(vfs_.Write.Raise(99, buf, 4), kErrBadFd);
  EXPECT_EQ(vfs_.CloseFd.Raise(99), kErrBadFd);
}

TEST_F(FsTest, RemoveFile) {
  int64_t fd = vfs_.Open.Raise("/gone", kOpenCreate);
  vfs_.CloseFd.Raise(fd);
  EXPECT_TRUE(vfs_.Exists("/gone"));
  EXPECT_EQ(vfs_.Remove.Raise("/gone"), 0);
  EXPECT_FALSE(vfs_.Exists("/gone"));
  EXPECT_EQ(vfs_.Remove.Raise("/gone"), kErrNoEnt);
}

TEST_F(FsTest, FdsAreRecycled) {
  int64_t fd1 = vfs_.Open.Raise("/a", kOpenCreate);
  vfs_.CloseFd.Raise(fd1);
  int64_t fd2 = vfs_.Open.Raise("/b", kOpenCreate);
  EXPECT_EQ(fd1, fd2);
  vfs_.CloseFd.Raise(fd2);
}

// --- The MS-DOS name filter ---------------------------------------------------

// Translates "C:\DIR\FILE.TXT" to "/dir/file.txt". The converted string
// must outlive the dispatch; a static arena mirrors the kernel-resident
// buffer a SPIN extension would own.
struct DosState {
  char converted[256];
  int conversions = 0;
};
DosState g_dos;

int64_t DosOpenFilter(const char*& path, int32_t flags) {
  (void)flags;
  if (path[0] != '\0' && path[1] == ':') {  // looks like a DOS path
    ++g_dos.conversions;
    size_t out = 0;
    for (const char* p = path + 2; *p != '\0' && out + 1 < sizeof(g_dos.converted); ++p) {
      g_dos.converted[out++] =
          *p == '\\' ? '/' : static_cast<char>(std::tolower(*p));
    }
    g_dos.converted[out] = '\0';
    path = g_dos.converted;
  }
  return 0;  // a filter's own result is superseded by the real handler
}

TEST_F(FsTest, DosNameFilterTranslatesTransparently) {
  g_dos = DosState{};
  dispatcher_.InstallFilter(vfs_.Open, &DosOpenFilter,
                            {.order = {OrderKind::kFirst},
                             .module = &vfs_.module()});
  int64_t fd = vfs_.Open.Raise("C:\\ETC\\MOTD.TXT", kOpenCreate);
  ASSERT_GE(fd, 0);
  vfs_.Write.Raise(fd, "dos!", 4);
  vfs_.CloseFd.Raise(fd);
  EXPECT_EQ(g_dos.conversions, 1);
  EXPECT_TRUE(vfs_.Exists("/etc/motd.txt"))
      << "the UNIX layer must see the translated name";
  EXPECT_FALSE(vfs_.Exists("C:\\ETC\\MOTD.TXT"));

  // UNIX names pass through untouched.
  int64_t fd2 = vfs_.Open.Raise("/etc/motd.txt", 0);
  EXPECT_GE(fd2, 0);
  vfs_.CloseFd.Raise(fd2);
  EXPECT_EQ(g_dos.conversions, 1);
}

TEST_F(FsTest, FilterResultDoesNotMaskRealHandler) {
  dispatcher_.InstallFilter(vfs_.Open, &DosOpenFilter,
                            {.order = {OrderKind::kFirst},
                             .module = &vfs_.module()});
  // Default result policy is kLast: the UFS handler's fd wins over the
  // filter's 0.
  int64_t fd = vfs_.Open.Raise("/x", kOpenCreate);
  int64_t fd2 = vfs_.Open.Raise("/y", kOpenCreate);
  EXPECT_NE(fd, fd2);
}

}  // namespace
}  // namespace fs
}  // namespace spin
