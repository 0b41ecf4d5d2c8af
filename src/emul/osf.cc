#include "src/emul/osf.h"

namespace spin {
namespace emul {

// --- OsfNet -------------------------------------------------------------------

OsfNet::OsfNet(Dispatcher* dispatcher)
    : AddTcpPortHandler("OsfNet.AddTcpPortHandler", &module_, nullptr,
                        dispatcher),
      DelTcpPortHandler("OsfNet.DelTcpPortHandler", &module_, nullptr,
                        dispatcher) {
  dispatcher->InstallHandler(AddTcpPortHandler, &OsfNet::OnAddPort, this,
                             {.module = &module_});
  dispatcher->InstallHandler(DelTcpPortHandler, &OsfNet::OnDelPort, this,
                             {.module = &module_});
}

void OsfNet::OnAddPort(OsfNet* net, int32_t port) { net->ports_.insert(port); }
void OsfNet::OnDelPort(OsfNet* net, int32_t port) { net->ports_.erase(port); }

void OsfNet::RegisterPort(int32_t port) { AddTcpPortHandler.Raise(port); }
void OsfNet::UnregisterPort(int32_t port) { DelTcpPortHandler.Raise(port); }

// --- OsfEmulator ----------------------------------------------------------------

OsfEmulator::OsfEmulator(Kernel& kernel, fs::Vfs& vfs)
    : EventNotify("Events.EventNotify", &module_, nullptr,
                  &kernel.dispatcher()),
      kernel_(kernel),
      vfs_(vfs) {
  // select() raises EventNotify; with no listener installed the raise must
  // be harmless, so provide a no-op default.
  kernel_.dispatcher().InstallDefaultHandler(
      EventNotify, +[](Strand*) {}, {.module = &module_});
  binding_.Add(kernel_.dispatcher().InstallHandler(
      kernel_.MachineTrapSyscall, &OsfEmulator::Syscall, this,
      {.guards = {MakeGuard(&OsfEmulator::SyscallGuard, this)},
       .module = &module_}));
}

void OsfEmulator::AdoptTask(AddressSpace& space) { tasks_.insert(space.id()); }

bool OsfEmulator::IsOsfTask(const AddressSpace* space) const {
  return space != nullptr && tasks_.count(space->id()) > 0;
}

bool OsfEmulator::SyscallGuard(OsfEmulator* emulator, Strand* strand,
                               SavedState& state) {
  (void)state;
  return emulator->IsOsfTask(strand->space());
}

void OsfEmulator::Syscall(OsfEmulator* emulator, Strand* strand,
                          SavedState& state) {
  ++emulator->handled_;
  switch (state.v0) {
    case kOsfOpen:
      state.v0 = emulator->vfs_.Open.Raise(
          reinterpret_cast<const char*>(state.a[0]),
          static_cast<int32_t>(state.a[1]));
      break;
    case kOsfRead:
      state.v0 = emulator->vfs_.Read.Raise(
          state.a[0], reinterpret_cast<char*>(state.a[1]), state.a[2]);
      break;
    case kOsfWrite:
      state.v0 = emulator->vfs_.Write.Raise(
          state.a[0], reinterpret_cast<const char*>(state.a[1]),
          state.a[2]);
      break;
    case kOsfClose:
      state.v0 = emulator->vfs_.CloseFd.Raise(state.a[0]);
      break;
    case kOsfSelect:
      ++emulator->selects_;
      emulator->EventNotify.Raise(strand);
      state.v0 = 0;
      break;
    case kOsfNanosleep:
      emulator->kernel_.SleepUntil(
          *strand, emulator->kernel_.now_ns() +
                       static_cast<uint64_t>(state.a[0]));
      state.v0 = 0;
      break;
    case kOsfGetTime:
      state.v0 = static_cast<int64_t>(emulator->kernel_.now_ns());
      break;
    default:
      state.error = 78;  // ENOSYS
      state.v0 = -1;
      break;
  }
}

// --- SyscallTracer ---------------------------------------------------------------

SyscallTracer::SyscallTracer(Kernel& kernel, AddressSpace& traced)
    : RecordEvent("Tracer.Record", &module_, nullptr, &kernel.dispatcher()),
      kernel_(kernel),
      traced_space_(traced.id()) {
  bindings_.Add(kernel_.dispatcher().InstallHandler(
      RecordEvent, &SyscallTracer::OnRecord, this, {.module = &module_}));
  kernel_.dispatcher().SetEventAsync(RecordEvent, true, &module_);

  // First-constrained so the trace observes the syscall number before any
  // emulator handler overwrites v0 with its result — the §2.3 ordering
  // rationale ("executed in an order that respects their dependencies").
  bindings_.Add(kernel_.dispatcher().InstallHandler(
      kernel_.MachineTrapSyscall, &SyscallTracer::Trace, this,
      {.order = {OrderKind::kFirst},
       .guards = {MakeGuard(&SyscallTracer::TraceGuard, this)},
       .module = &module_}));
}

bool SyscallTracer::TraceGuard(SyscallTracer* tracer, Strand* strand,
                               SavedState& state) {
  (void)state;
  return strand->space() != nullptr &&
         strand->space()->id() == tracer->traced_space_;
}

void SyscallTracer::Trace(SyscallTracer* tracer, Strand* strand,
                          SavedState& state) {
  tracer->RecordEvent.Raise(static_cast<int64_t>(strand->id()), state.v0);
}

void SyscallTracer::OnRecord(SyscallTracer* tracer, int64_t strand_id,
                             int64_t syscall) {
  std::lock_guard<Spinlock> lock(tracer->mu_);
  tracer->records_.push_back(
      Record{static_cast<uint64_t>(strand_id), syscall});
}

std::vector<SyscallTracer::Record> SyscallTracer::Take() {
  std::lock_guard<Spinlock> lock(mu_);
  std::vector<Record> out;
  out.swap(records_);
  return out;
}

size_t SyscallTracer::count() const {
  std::lock_guard<Spinlock> lock(mu_);
  return records_.size();
}

}  // namespace emul
}  // namespace spin
