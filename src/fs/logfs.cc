#include "src/fs/logfs.h"

#include <algorithm>
#include <map>
#include <string_view>

namespace spin {
namespace fs {

LogFs::LogFs(Vfs& vfs, std::string prefix)
    : vfs_(vfs),
      prefix_(std::move(prefix)),
      fd_base_(vfs.AllocateMountFdBase()) {
  vfs_.RegisterMount(prefix_);
  Dispatcher& d = vfs_.dispatcher();
  try {
    bindings_.push_back(d.InstallHandler(
        vfs_.Open, &LogFs::LogOpen, this,
        {.guards = {MakeGuard(&LogFs::OpenGuard, this)}, .module = &module_}));
    bindings_.push_back(d.InstallHandler(
        vfs_.Read, &LogFs::LogRead, this,
        {.guards = {MakeGuard(&LogFs::ReadGuard, this)}, .module = &module_}));
    bindings_.push_back(d.InstallHandler(
        vfs_.Write, &LogFs::LogWrite, this,
        {.guards = {MakeGuard(&LogFs::WriteGuard, this)}, .module = &module_}));
    bindings_.push_back(d.InstallHandler(
        vfs_.CloseFd, &LogFs::LogClose, this,
        {.guards = {MakeGuard(&LogFs::CloseGuard, this)}, .module = &module_}));
    bindings_.push_back(d.InstallHandler(
        vfs_.Remove, &LogFs::LogRemove, this,
        {.guards = {MakeGuard(&LogFs::RemoveGuard, this)},
         .module = &module_}));
  } catch (...) {
    Unmount();  // no destructor runs for a constructor that throws
    throw;
  }
}

LogFs::~LogFs() { Unmount(); }

void LogFs::Unmount() {
  vfs_.UnregisterMount(prefix_);
  for (const BindingHandle& binding : bindings_) {
    if (binding->active.load()) {
      vfs_.dispatcher().Uninstall(binding, &module_);
    }
  }
}

bool LogFs::UnderPrefix(const char* path) const {
  return std::string_view(path).substr(0, prefix_.size()) == prefix_;
}

bool LogFs::OpenGuard(LogFs* fs, const char* path, int32_t) {
  return fs->UnderPrefix(path);
}
bool LogFs::ReadGuard(LogFs* fs, int64_t fd, char*, int64_t) {
  return fs->OwnsFd(fd);
}
bool LogFs::WriteGuard(LogFs* fs, int64_t fd, const char*, int64_t) {
  return fs->OwnsFd(fd);
}
bool LogFs::CloseGuard(LogFs* fs, int64_t fd) { return fs->OwnsFd(fd); }
bool LogFs::RemoveGuard(LogFs* fs, const char* path) {
  return fs->UnderPrefix(path);
}

bool LogFs::Materialize(const std::string& path,
                        std::vector<uint8_t>* out) const {
  bool exists = false;
  out->clear();
  for (const Record& record : log_) {
    if (record.path != path) {
      continue;
    }
    if (record.tombstone) {
      exists = false;
      out->clear();
      continue;
    }
    exists = true;
    if (out->size() < record.offset + record.data.size()) {
      out->resize(record.offset + record.data.size());
    }
    std::copy(record.data.begin(), record.data.end(),
              out->begin() + record.offset);
  }
  return exists;
}

int64_t LogFs::LogOpen(LogFs* fs, const char* path, int32_t flags) {
  std::string name(path);
  std::vector<uint8_t> content;
  bool exists = fs->Materialize(name, &content);
  if (!exists) {
    if ((flags & kOpenCreate) == 0) {
      return kErrNoEnt;
    }
    fs->log_.push_back(Record{name, 0, {}, false});
  } else if ((flags & kOpenTrunc) != 0) {
    fs->log_.push_back(Record{name, 0, {}, true});   // drop old contents
    fs->log_.push_back(Record{name, 0, {}, false});  // recreate empty
  }
  for (size_t i = 0; i < fs->fds_.size(); ++i) {
    if (!fs->fds_[i].open) {
      fs->fds_[i] = OpenFile{name, 0, true};
      return fs->fd_base_ + static_cast<int64_t>(i);
    }
  }
  fs->fds_.push_back(OpenFile{name, 0, true});
  return fs->fd_base_ + static_cast<int64_t>(fs->fds_.size() - 1);
}

int64_t LogFs::LogRead(LogFs* fs, int64_t fd, char* buf, int64_t len) {
  size_t slot = static_cast<size_t>(fd - fs->fd_base_);
  if (slot >= fs->fds_.size() || !fs->fds_[slot].open) {
    return kErrBadFd;
  }
  OpenFile& file = fs->fds_[slot];
  std::vector<uint8_t> content;
  if (!fs->Materialize(file.path, &content)) {
    return kErrNoEnt;
  }
  size_t available =
      content.size() > file.offset ? content.size() - file.offset : 0;
  size_t n = std::min(available, static_cast<size_t>(len));
  std::copy_n(content.data() + file.offset, n, buf);
  file.offset += n;
  return static_cast<int64_t>(n);
}

int64_t LogFs::LogWrite(LogFs* fs, int64_t fd, const char* buf,
                        int64_t len) {
  size_t slot = static_cast<size_t>(fd - fs->fd_base_);
  if (slot >= fs->fds_.size() || !fs->fds_[slot].open) {
    return kErrBadFd;
  }
  OpenFile& file = fs->fds_[slot];
  Record record;
  record.path = file.path;
  record.offset = file.offset;
  record.data.assign(buf, buf + len);
  record.tombstone = false;
  fs->log_.push_back(std::move(record));
  file.offset += static_cast<size_t>(len);
  return len;
}

int64_t LogFs::LogClose(LogFs* fs, int64_t fd) {
  size_t slot = static_cast<size_t>(fd - fs->fd_base_);
  if (slot >= fs->fds_.size() || !fs->fds_[slot].open) {
    return kErrBadFd;
  }
  fs->fds_[slot].open = false;
  return 0;
}

int64_t LogFs::LogRemove(LogFs* fs, const char* path) {
  std::string name(path);
  std::vector<uint8_t> content;
  if (!fs->Materialize(name, &content)) {
    return kErrNoEnt;
  }
  fs->log_.push_back(Record{name, 0, {}, true});
  return 0;
}

void LogFs::Compact() {
  ++compactions_;
  // Materialize every live file, then rebuild the log with one record per
  // file.
  std::map<std::string, std::vector<uint8_t>> live;
  for (const Record& record : log_) {
    if (record.tombstone) {
      live.erase(record.path);
      continue;
    }
    std::vector<uint8_t>& content = live[record.path];
    if (content.size() < record.offset + record.data.size()) {
      content.resize(record.offset + record.data.size());
    }
    std::copy(record.data.begin(), record.data.end(),
              content.begin() + record.offset);
  }
  log_.clear();
  for (auto& [path, content] : live) {
    log_.push_back(Record{path, 0, std::move(content), false});
  }
}

}  // namespace fs
}  // namespace spin
