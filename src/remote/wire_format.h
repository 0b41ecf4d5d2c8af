// Wire messages for remote event dispatch.
//
// A remote raise travels as a single UDP datagram over the simulated
// network. The format is deliberately small and self-describing: the
// request carries the event name and the marshal tags of every argument so
// the exporter can validate the caller's view of the signature against its
// own before touching the dispatcher.
//
// Version 2 adds install-time authorization (§2.5 across the wire): a
// proxy first performs a BindRequest/BindReply handshake carrying its
// identity (module name) and an opaque credential blob. The exporter runs
// the event's authorizer; a granted bind returns a capability token that
// must accompany every raise, plus any authorizer-imposed guard clauses
// serialized as micro-programs so the proxy can evaluate them before
// marshaling (a guard rejection then costs no roundtrip). Revocations are
// pushed to the bound proxy as Revoke notices, and raises bearing a stale
// token fail with kRevoked.
//
// All integers are big-endian, matching the rest of the packet code.
//
//   header:   magic(2)=0x5350 "SP"  version(1)=2  type(1)
//   request:  kind(1)  request_id(8)  token(8)  name_len(2)  name  argc(1)
//             argc x tag(1)   [tag = TypeClass | by_ref << 7]
//             argc x value(8) [by-value: the 64-bit argument slot;
//                              by-ref: the pointee scalar widened to 64 bits]
//             [span_id(8) origin_host(4)]  -- optional causal-trace trailer:
//             present iff the raiser captured this raise (span_id != 0);
//             absent frames decode with a null span, so v2 peers
//             interoperate both ways. A present trailer with span_id == 0
//             is malformed. Trailer presence doubles as the wire's sampled
//             bit: under sampled tracing the raiser omits the trailer for
//             sampled-out raises and the exporter pins the skip, so a
//             sampled causal tree is captured whole on both hosts or on
//             neither — no format change, no new flag byte.
//   reply:    status(1)  request_id(8)  result(8)  nbyref(1)
//             nbyref x value(8)  [copy-out values of VAR params, in order]
//             errlen(2)  error
//   bind req: bind_id(8)  name_len(2)  name  module_len(2)  module
//             cred_len(2)  credential  argc(1)  argc x tag(1)
//   bind rep: status(1)  bind_id(8)  token(8)  nguards(1)
//             nguards x [num_args(1)  ninsn(2)
//                        ninsn x insn(op(1) dst(1) a(1) b(1) imm(8))]
//             errlen(2)  error
//   revoke:   token(8)  name_len(2)  name
#ifndef SRC_REMOTE_WIRE_FORMAT_H_
#define SRC_REMOTE_WIRE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/micro/program.h"
#include "src/micro/verify.h"

namespace spin {
namespace remote {

inline constexpr uint16_t kWireMagic = 0x5350;  // "SP"
inline constexpr uint8_t kWireVersion = 2;

// Default UDP port an Exporter listens on.
inline constexpr uint16_t kDefaultRemotePort = 7007;

// Decoder bounds: an event carries at most kMaxEventArgs (8) parameters, a
// bind reply at most this many imposed guards, each of bounded size. The
// decoders reject anything larger before allocating.
inline constexpr size_t kMaxWireArgs = 8;
inline constexpr size_t kMaxWireGuards = 8;
inline constexpr size_t kMaxWireGuardInsns = 256;

enum class MsgType : uint8_t {
  kRequest = 1,
  kReply = 2,
  kBindRequest = 3,
  kBindReply = 4,
  kRevoke = 5,
};

enum class RaiseKind : uint8_t {
  kSync = 1,   // the raiser blocks for the reply
  kAsync = 2,  // fire-and-forget; the exporter never replies
};

enum class WireStatus : uint8_t {
  kOk = 0,
  kException = 1,      // the remote dispatch threw; error carries what()
  kUnbound = 2,        // the event was exported once but has been withdrawn
  kNoSuchEvent = 3,    // the exporter never heard of this event
  kBadRequest = 4,     // malformed message or signature mismatch
  kDenied = 5,         // the exporter's authorizer refused the bind
  kRevoked = 6,        // the request's capability token is stale / revoked
  kGuardRejected = 7,  // an imposed guard rejected the raise exporter-side
};

struct WireParam {
  uint8_t cls = 0;      // TypeClass of the wire value
  bool by_ref = false;  // VAR parameter: value copies in and out

  friend bool operator==(const WireParam&, const WireParam&) = default;
};

struct RequestMsg {
  RaiseKind kind = RaiseKind::kSync;
  uint64_t request_id = 0;
  uint64_t token = 0;  // capability granted by the bind handshake
  std::string event_name;
  std::vector<WireParam> params;
  std::vector<uint64_t> args;  // one wire value per param

  // Causal-trace trailer (0 = untraced / old frame): the raiser's wire
  // span id and its RegisterTraceHost id, so the exporter-side dispatch
  // joins the originating span tree.
  uint64_t span_id = 0;
  uint32_t origin_host = 0;
};

struct ReplyMsg {
  WireStatus status = WireStatus::kOk;
  uint64_t request_id = 0;
  uint64_t result = 0;
  std::vector<uint64_t> byref;  // copy-out values, VAR params in order
  std::string error;
};

struct BindRequestMsg {
  uint64_t bind_id = 0;        // request id for dedup/retransmission
  std::string event_name;
  std::string module_name;     // the proxy's identity (AuthRequest requestor)
  std::string credential;      // opaque blob for the exporter's authorizer
  std::vector<WireParam> params;  // the proxy's view of the signature
};

struct BindReplyMsg {
  WireStatus status = WireStatus::kOk;
  uint64_t bind_id = 0;
  uint64_t token = 0;  // valid only when status == kOk
  // Authorizer-imposed guards, serialized for proxy-side evaluation. Each
  // is a FUNCTIONAL, address-free micro-program over the event arguments.
  std::vector<micro::Program> guards;
  // Admission verdict for the received guards. The decoder splits the
  // trust boundary in two: framing damage (truncation, bad counts) still
  // fails the decode — the datagram is indistinguishable from noise — but
  // a well-framed reply whose guard program fails the micro::Verify
  // admission pass decodes successfully with the refusal recorded here
  // (and `guards` cleared), so the proxy can refuse the bind with a typed
  // error instead of timing out.
  micro::VerifyStatus guard_verify = micro::VerifyStatus::kOk;
  uint8_t guard_verify_index = 0;  // which guard failed (valid on != kOk)
  std::string error;
};

struct RevokeMsg {
  uint64_t token = 0;
  std::string event_name;
};

// Encoders replace the contents of `out` but keep its capacity, so a caller
// that reuses one buffer encodes without allocating once the buffer has
// grown to its largest message. The returning forms wrap them.
void EncodeRequest(const RequestMsg& msg, std::string* out);
void EncodeReply(const ReplyMsg& msg, std::string* out);
void EncodeBindRequest(const BindRequestMsg& msg, std::string* out);
void EncodeBindReply(const BindReplyMsg& msg, std::string* out);
void EncodeRevoke(const RevokeMsg& msg, std::string* out);
std::string EncodeRequest(const RequestMsg& msg);
std::string EncodeReply(const ReplyMsg& msg);
std::string EncodeBindRequest(const BindRequestMsg& msg);
std::string EncodeBindReply(const BindReplyMsg& msg);
std::string EncodeRevoke(const RevokeMsg& msg);

// Decoders read the datagram in place and return false on anything
// malformed (bad magic/version/lengths, out-of-bounds counts, invalid guard
// programs); the caller drops the datagram, it never reaches the
// dispatcher. A message decoded into again reuses its strings' and
// vectors' capacity.
bool DecodeRequest(std::string_view wire, RequestMsg* out);
bool DecodeReply(std::string_view wire, ReplyMsg* out);
bool DecodeBindRequest(std::string_view wire, BindRequestMsg* out);
bool DecodeBindReply(std::string_view wire, BindReplyMsg* out);
bool DecodeRevoke(std::string_view wire, RevokeMsg* out);

// Classifies a datagram without decoding the body; false when it is not a
// remote-dispatch message at all.
bool PeekType(std::string_view wire, MsgType* out);

// True when `prog` may travel in a BindReply: FUNCTIONAL and admitted by
// the micro::Verify wire-guard pass — bounded, terminating, pure, and
// address-free (a program that references exporter memory is meaningless
// in the proxy's address space). Arg-relative computation only. This is
// exactly the predicate the receiving decoder enforces, so a wireable
// guard is guaranteed to be admitted on the other side.
bool WireableGuard(const micro::Program& prog);

}  // namespace remote
}  // namespace spin

#endif  // SRC_REMOTE_WIRE_FORMAT_H_
