// LogFs: a log-structured filesystem provided as an extension (§1: "an
// application may provide a new in-kernel file system").
//
// LogFs attaches to the same five VFS events as the base UFS
// implementation; its guards claim exactly the paths under its mount
// prefix and the fds in its private range, while the UFS guards decline
// them. The two filesystems compose without referencing each other — the
// multi-extension composition that §1.2 argues dynamic linking alone
// cannot express.
//
// Storage model: an append-only log of (path, data) records. Writes append
// records; reads materialize a file by replaying its records in order;
// Compact() folds each file's records into one.
#ifndef SRC_FS_LOGFS_H_
#define SRC_FS_LOGFS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fs/vfs.h"

namespace spin {
namespace fs {

class LogFs {
 public:
  // Mounts the filesystem over `prefix` (e.g. "/log/").
  LogFs(Vfs& vfs, std::string prefix);
  ~LogFs();
  LogFs(const LogFs&) = delete;
  LogFs& operator=(const LogFs&) = delete;

  const std::string& prefix() const { return prefix_; }
  size_t log_records() const { return log_.size(); }
  uint64_t compactions() const { return compactions_; }

  // Folds each file's records into a single record (the log-structured
  // cleaner).
  void Compact();

 private:
  struct Record {
    std::string path;
    uint64_t offset;
    std::vector<uint8_t> data;
    bool tombstone;
  };
  struct OpenFile {
    std::string path;
    size_t offset = 0;
    bool open = false;
  };

  // Handlers.
  static int64_t LogOpen(LogFs* fs, const char* path, int32_t flags);
  static int64_t LogRead(LogFs* fs, int64_t fd, char* buf, int64_t len);
  static int64_t LogWrite(LogFs* fs, int64_t fd, const char* buf,
                          int64_t len);
  static int64_t LogClose(LogFs* fs, int64_t fd);
  static int64_t LogRemove(LogFs* fs, const char* path);

  // Guards (one per event signature).
  static bool OpenGuard(LogFs* fs, const char* path, int32_t flags);
  static bool ReadGuard(LogFs* fs, int64_t fd, char* buf, int64_t len);
  static bool WriteGuard(LogFs* fs, int64_t fd, const char* buf,
                         int64_t len);
  static bool CloseGuard(LogFs* fs, int64_t fd);
  static bool RemoveGuard(LogFs* fs, const char* path);

  bool UnderPrefix(const char* path) const;
  bool OwnsFd(int64_t fd) const {
    return fd >= fd_base_ && fd < fd_base_ + Vfs::kMountFdRange;
  }
  // Replays the log for `path`; returns false when the file does not exist
  // (no records, or the latest is a tombstone).
  bool Materialize(const std::string& path,
                   std::vector<uint8_t>* out) const;

  Vfs& vfs_;
  std::string prefix_;
  int64_t fd_base_;
  Module module_{"LogFs"};
  std::vector<Record> log_;
  std::vector<OpenFile> fds_;
  uint64_t compactions_ = 0;
  BindingSet bindings_;  // last: uninstalls before what the handlers use
};

}  // namespace fs
}  // namespace spin

#endif  // SRC_FS_LOGFS_H_
