// The OSF/1 (Digital UNIX) emulator slice used by the Table 3 workload:
// read/write/open/close/select system calls over the VFS, the
// Events.EventNotify event raised by the select implementation, and the
// OsfNet port-handler events.
#ifndef SRC_EMUL_OSF_H_
#define SRC_EMUL_OSF_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "src/fs/vfs.h"
#include "src/kernel/kernel.h"

namespace spin {
namespace emul {

// OSF/1 syscall numbers.
inline constexpr int64_t kOsfRead = 3;
inline constexpr int64_t kOsfWrite = 4;
inline constexpr int64_t kOsfOpen = 45;
inline constexpr int64_t kOsfClose = 6;
inline constexpr int64_t kOsfSelect = 93;
inline constexpr int64_t kOsfNanosleep = 203;  // a[0] = duration in ns
inline constexpr int64_t kOsfGetTime = 116;    // -> kernel clock in v0

// OsfNet: the networking glue module whose Add/DelTcpPortHandler events
// appear in Table 3 — raised as applications bind and release TCP ports.
class OsfNet {
 public:
  explicit OsfNet(Dispatcher* dispatcher);

  Event<void(int32_t)> AddTcpPortHandler;
  Event<void(int32_t)> DelTcpPortHandler;

  void RegisterPort(int32_t port);
  void UnregisterPort(int32_t port);

  const std::unordered_set<int32_t>& ports() const { return ports_; }
  const Module& module() const { return module_; }

 private:
  static void OnAddPort(OsfNet* net, int32_t port);
  static void OnDelPort(OsfNet* net, int32_t port);

  Module module_{"OsfNet"};
  std::unordered_set<int32_t> ports_;
};

class OsfEmulator {
 public:
  OsfEmulator(Kernel& kernel, fs::Vfs& vfs);

  // Raised by the select implementation (Table 3's Events.EventNotify).
  Event<void(Strand*)> EventNotify;

  void AdoptTask(AddressSpace& space);
  bool IsOsfTask(const AddressSpace* space) const;

  uint64_t handled() const { return handled_; }
  uint64_t selects() const { return selects_; }
  const Module& module() const { return module_; }

 private:
  static bool SyscallGuard(OsfEmulator* emulator, Strand* strand,
                           SavedState& state);
  static void Syscall(OsfEmulator* emulator, Strand* strand,
                      SavedState& state);

  Module module_{"OsfUnix"};
  Kernel& kernel_;
  fs::Vfs& vfs_;
  std::unordered_set<uint64_t> tasks_;
  uint64_t handled_ = 0;
  uint64_t selects_ = 0;
  BindingSet binding_;  // last: uninstalls before what Syscall uses
};

// A per-application asynchronous system-call tracer (§2.6: "our in-kernel
// UNIX server uses asynchronous events to implement a per-application
// system call tracer"). MachineTrap.Syscall takes its state by reference,
// and by-ref events may not be asynchronous — so the tracer's guarded
// synchronous hook copies the two words it needs and raises its own
// fully-asynchronous Tracer.Record event; log processing runs detached.
class SyscallTracer {
 public:
  SyscallTracer(Kernel& kernel, AddressSpace& traced);

  struct Record {
    uint64_t strand_id;
    int64_t syscall;
  };

  // The detached recording channel (configured as an asynchronous event).
  Event<void(int64_t, int64_t)> RecordEvent;

  // Drain recorded entries (thread-safe; the handler runs on pool threads).
  std::vector<Record> Take();
  size_t count() const;

 private:
  static bool TraceGuard(SyscallTracer* tracer, Strand* strand,
                         SavedState& state);
  static void Trace(SyscallTracer* tracer, Strand* strand,
                    SavedState& state);
  static void OnRecord(SyscallTracer* tracer, int64_t strand_id,
                       int64_t syscall);

  Module module_{"SyscallTracer"};
  Kernel& kernel_;
  uint64_t traced_space_;
  mutable Spinlock mu_;
  std::vector<Record> records_;
  // Last: uninstalls the hook and the recorder, then drains the detached
  // recordings, before the records they append to go.
  BindingSet bindings_;
};

}  // namespace emul
}  // namespace spin

#endif  // SRC_EMUL_OSF_H_
