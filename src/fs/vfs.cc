#include "src/fs/vfs.h"

#include <algorithm>
#include <string_view>

namespace spin {
namespace fs {

Vfs::Vfs(Dispatcher* dispatcher)
    : Open("Fs.Open", &module_, nullptr, dispatcher),
      Read("Fs.Read", &module_, nullptr, dispatcher),
      Write("Fs.Write", &module_, nullptr, dispatcher),
      CloseFd("Fs.Close", &module_, nullptr, dispatcher),
      Remove("Fs.Remove", &module_, nullptr, dispatcher),
      dispatcher_(dispatcher) {
  // The base (UFS-style) implementation plays the intrinsic-handler role;
  // it carries the Vfs instance as a closure, so it is installed explicitly
  // rather than through the intrinsic slot. Guards decline mounted paths
  // and foreign fd ranges so mounted filesystems can coexist.
  dispatcher_->InstallHandler(
      Open, &Vfs::UfsOpen, this,
      {.guards = {MakeGuard(&Vfs::BaseOpenGuard, this)}, .module = &module_});
  dispatcher_->InstallHandler(
      Read, &Vfs::UfsRead, this,
      {.guards = {MakeGuard(&Vfs::BaseReadGuard, this)}, .module = &module_});
  dispatcher_->InstallHandler(
      Write, &Vfs::UfsWrite, this,
      {.guards = {MakeGuard(&Vfs::BaseWriteGuard, this)}, .module = &module_});
  dispatcher_->InstallHandler(
      CloseFd, &Vfs::UfsClose, this,
      {.guards = {MakeGuard(&Vfs::BaseCloseGuard, this)}, .module = &module_});
  dispatcher_->InstallHandler(
      Remove, &Vfs::UfsRemove, this,
      {.guards = {MakeGuard(&Vfs::BaseRemoveGuard, this)}, .module = &module_});

  // Operations nobody claims (a mounted prefix whose filesystem vanished,
  // an fd from a foreign range) fail with errno-style results instead of
  // NoHandlerError.
  dispatcher_->InstallDefaultHandler(
      Open, +[](const char*, int32_t) -> int64_t { return kErrNoEnt; },
      {.module = &module_});
  dispatcher_->InstallDefaultHandler(
      Read, +[](int64_t, char*, int64_t) -> int64_t { return kErrBadFd; },
      {.module = &module_});
  dispatcher_->InstallDefaultHandler(
      Write,
      +[](int64_t, const char*, int64_t) -> int64_t { return kErrBadFd; },
      {.module = &module_});
  dispatcher_->InstallDefaultHandler(
      CloseFd, +[](int64_t) -> int64_t { return kErrBadFd; },
      {.module = &module_});
  dispatcher_->InstallDefaultHandler(
      Remove, +[](const char*) -> int64_t { return kErrNoEnt; },
      {.module = &module_});
}

void Vfs::RegisterMount(const std::string& prefix) {
  mounts_.push_back(prefix);
}

void Vfs::UnregisterMount(const std::string& prefix) {
  mounts_.erase(std::remove(mounts_.begin(), mounts_.end(), prefix),
                mounts_.end());
}

bool Vfs::PathMounted(const char* path) const {
  std::string_view view(path);
  for (const std::string& prefix : mounts_) {
    if (view.substr(0, prefix.size()) == prefix) {
      return true;
    }
  }
  return false;
}

bool Vfs::BaseOpenGuard(Vfs* vfs, const char* path, int32_t) {
  return !vfs->PathMounted(path);
}
bool Vfs::BaseReadGuard(Vfs* vfs, int64_t fd, char*, int64_t) {
  (void)vfs;
  return fd < kMountFdRange;
}
bool Vfs::BaseWriteGuard(Vfs* vfs, int64_t fd, const char*, int64_t) {
  (void)vfs;
  return fd < kMountFdRange;
}
bool Vfs::BaseCloseGuard(Vfs* vfs, int64_t fd) {
  (void)vfs;
  return fd < kMountFdRange;
}
bool Vfs::BaseRemoveGuard(Vfs* vfs, const char* path) {
  return !vfs->PathMounted(path);
}

int64_t Vfs::UfsOpen(Vfs* vfs, const char* path, int32_t flags) {
  ++vfs->ops_;
  std::string name(path);
  auto it = vfs->files_.find(name);
  if (it == vfs->files_.end()) {
    if ((flags & kOpenCreate) == 0) {
      return kErrNoEnt;
    }
    vfs->files_.emplace(name, std::vector<uint8_t>());
  } else if ((flags & kOpenTrunc) != 0) {
    it->second.clear();
  }
  for (size_t fd = 0; fd < vfs->fds_.size(); ++fd) {
    if (!vfs->fds_[fd].open) {
      vfs->fds_[fd] = OpenFile{name, 0, true};
      return static_cast<int64_t>(fd);
    }
  }
  vfs->fds_.push_back(OpenFile{name, 0, true});
  return static_cast<int64_t>(vfs->fds_.size() - 1);
}

int64_t Vfs::UfsRead(Vfs* vfs, int64_t fd, char* buf, int64_t len) {
  ++vfs->ops_;
  if (fd < 0 || static_cast<size_t>(fd) >= vfs->fds_.size() ||
      !vfs->fds_[fd].open) {
    return kErrBadFd;
  }
  OpenFile& file = vfs->fds_[fd];
  const std::vector<uint8_t>& data = vfs->files_[file.path];
  size_t available = data.size() > file.offset ? data.size() - file.offset : 0;
  size_t n = std::min(available, static_cast<size_t>(len));
  std::copy_n(data.data() + file.offset, n, buf);
  file.offset += n;
  return static_cast<int64_t>(n);
}

int64_t Vfs::UfsWrite(Vfs* vfs, int64_t fd, const char* buf, int64_t len) {
  ++vfs->ops_;
  if (fd < 0 || static_cast<size_t>(fd) >= vfs->fds_.size() ||
      !vfs->fds_[fd].open) {
    return kErrBadFd;
  }
  OpenFile& file = vfs->fds_[fd];
  std::vector<uint8_t>& data = vfs->files_[file.path];
  if (data.size() < file.offset + len) {
    data.resize(file.offset + len);
  }
  std::copy_n(buf, len, data.data() + file.offset);
  file.offset += len;
  return len;
}

int64_t Vfs::UfsClose(Vfs* vfs, int64_t fd) {
  ++vfs->ops_;
  if (fd < 0 || static_cast<size_t>(fd) >= vfs->fds_.size() ||
      !vfs->fds_[fd].open) {
    return kErrBadFd;
  }
  vfs->fds_[fd].open = false;
  return 0;
}

int64_t Vfs::UfsRemove(Vfs* vfs, const char* path) {
  ++vfs->ops_;
  return vfs->files_.erase(std::string(path)) > 0 ? 0 : kErrNoEnt;
}

}  // namespace fs
}  // namespace spin
