// Error types surfaced by the dispatcher.
//
// SPIN used Modula-3 exceptions; we use a small hierarchy rooted at
// DispatchError. Raise-path errors (NoHandlerError) correspond to the §2.3
// rule that "in case no handler runs, a runtime exception is thrown at the
// point the event is raised"; install-path errors carry the typecheck or
// authorization failure.
#ifndef SRC_CORE_ERRORS_H_
#define SRC_CORE_ERRORS_H_

#include <stdexcept>
#include <string>

#include "src/types/typecheck.h"

namespace spin {

class DispatchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Raised (thrown) when an event with no default handler fires no handlers.
class NoHandlerError : public DispatchError {
 public:
  explicit NoHandlerError(const std::string& event_name)
      : DispatchError("no handler fired for event " + event_name) {}
};

enum class InstallStatus {
  kTypecheckFailed,
  kNotAuthorized,
  kQuotaExceeded,
  kBadOrderingReference,
  kAsyncByRef,           // async handler/event on a by-ref event (§2.6)
  kEphemeralRequired,    // event's authority demands EPHEMERAL handlers
  kInvalidMicroProgram,
  kNotAuthority,         // caller could not demonstrate authority (§2.5)
  kBindingInactive,
  kNoSuchGuard,          // guard index past the binding's guard list
};

const char* InstallStatusName(InstallStatus status);

class InstallError : public DispatchError {
 public:
  InstallError(InstallStatus status, const std::string& detail)
      : DispatchError(std::string(InstallStatusName(status)) +
                      (detail.empty() ? "" : ": " + detail)),
        status_(status),
        typecheck_(TypecheckStatus::kOk) {}
  InstallError(TypecheckStatus typecheck, const std::string& detail)
      : DispatchError(std::string(TypecheckStatusName(typecheck)) +
                      (detail.empty() ? "" : ": " + detail)),
        status_(InstallStatus::kTypecheckFailed),
        typecheck_(typecheck) {}

  InstallStatus status() const { return status_; }
  TypecheckStatus typecheck() const { return typecheck_; }

 private:
  InstallStatus status_;
  TypecheckStatus typecheck_;
};

// Misuse of asynchronous raising (result-returning async event without a
// default handler, or Raise() on an event configured fully asynchronous
// with a non-void result).
class AsyncError : public DispatchError {
 public:
  using DispatchError::DispatchError;
};

// Thrown into an EPHEMERAL handler whose time budget expired (§2.6). Only
// EPHEMERAL handlers may observe it; the dispatcher absorbs it.
class TerminatedError : public DispatchError {
 public:
  TerminatedError() : DispatchError("ephemeral handler terminated") {}
};

// --- Remote dispatch (src/remote) ------------------------------------------
//
// When a binding is a proxy for handlers on another host, a raise can fail
// in ways a local dispatch cannot: the signature may not be marshalable,
// the remote side may never answer, the remote binding may be gone, or the
// remote handler may itself have thrown. The error type lives in core so
// that raisers can catch it without depending on the remote layer, exactly
// as they catch NoHandlerError without depending on any handler.
enum class RemoteStatus : uint8_t {
  kUnmarshalable,     // signature rejected at proxy-install time
  kTimeout,           // no reply within the retry budget
  kDead,              // remote binding uninstalled / event unknown
  kRemoteException,   // the remote handler threw; message carried back
  kProtocol,          // malformed or mismatched wire traffic
  kDenied,            // the exporter's authorizer refused the remote install
  kRevoked,           // the capability token backing the binding was revoked
  kBadGuard,          // a wire-received imposed guard failed admission
                      // verification (the BindReply carried a program the
                      // micro::Verify pass refused)
};

const char* RemoteStatusName(RemoteStatus status);

class RemoteError : public DispatchError {
 public:
  RemoteError(RemoteStatus status, const std::string& detail)
      : DispatchError(std::string(RemoteStatusName(status)) +
                      (detail.empty() ? "" : ": " + detail)),
        status_(status) {}

  RemoteStatus status() const { return status_; }

 private:
  RemoteStatus status_;
};

}  // namespace spin

#endif  // SRC_CORE_ERRORS_H_
