#include "src/core/errors.h"

namespace spin {

const char* InstallStatusName(InstallStatus status) {
  switch (status) {
    case InstallStatus::kTypecheckFailed:
      return "typecheck failed";
    case InstallStatus::kNotAuthorized:
      return "operation denied by the event's authorizer";
    case InstallStatus::kQuotaExceeded:
      return "handler memory quota exceeded";
    case InstallStatus::kBadOrderingReference:
      return "ordering constraint references a binding on another event";
    case InstallStatus::kAsyncByRef:
      return "asynchronous execution is illegal for by-ref events";
    case InstallStatus::kEphemeralRequired:
      return "event requires EPHEMERAL handlers";
    case InstallStatus::kInvalidMicroProgram:
      return "micro-program failed validation";
    case InstallStatus::kNotAuthority:
      return "caller is not the event's authority";
    case InstallStatus::kBindingInactive:
      return "binding is no longer installed";
    case InstallStatus::kNoSuchGuard:
      return "binding has no guard at that index";
  }
  return "<bad>";
}

const char* RemoteStatusName(RemoteStatus status) {
  switch (status) {
    case RemoteStatus::kUnmarshalable:
      return "signature is not marshalable for remote dispatch";
    case RemoteStatus::kTimeout:
      return "remote raise timed out";
    case RemoteStatus::kDead:
      return "remote binding is gone";
    case RemoteStatus::kRemoteException:
      return "remote handler threw";
    case RemoteStatus::kProtocol:
      return "remote dispatch protocol error";
    case RemoteStatus::kDenied:
      return "remote install denied by authorizer";
    case RemoteStatus::kRevoked:
      return "remote binding capability revoked";
    case RemoteStatus::kBadGuard:
      return "imposed guard failed admission verification";
  }
  return "<bad>";
}

}  // namespace spin
