#include "src/remote/wire_format.h"

namespace spin {
namespace remote {
namespace {

void Put8(std::string& out, uint8_t v) {
  out.push_back(static_cast<char>(v));
}

// A multi-byte field goes out big-endian in one append.
template <typename T>
void PutBE(std::string& out, T v) {
  char bytes[sizeof(T)];
  for (size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<char>(v >> (8 * (sizeof(T) - 1 - i)));
  }
  out.append(bytes, sizeof(T));
}

void Put16(std::string& out, uint16_t v) { PutBE(out, v); }
void Put32(std::string& out, uint32_t v) { PutBE(out, v); }
void Put64(std::string& out, uint64_t v) { PutBE(out, v); }

// Bounds-checked big-endian reader over the datagram payload.
struct Reader {
  const uint8_t* data;
  size_t len;
  size_t pos = 0;

  bool Get8(uint8_t* v) {
    if (pos + 1 > len) {
      return false;
    }
    *v = data[pos++];
    return true;
  }
  bool Get16(uint16_t* v) {
    if (pos + 2 > len) {
      return false;
    }
    *v = static_cast<uint16_t>((data[pos] << 8) | data[pos + 1]);
    pos += 2;
    return true;
  }
  bool Get32(uint32_t* v) {
    if (pos + 4 > len) {
      return false;
    }
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) {
      r = (r << 8) | data[pos + i];
    }
    pos += 4;
    *v = r;
    return true;
  }
  bool Get64(uint64_t* v) {
    if (pos + 8 > len) {
      return false;
    }
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) {
      r = (r << 8) | data[pos + i];
    }
    pos += 8;
    *v = r;
    return true;
  }
  bool GetBytes(size_t n, std::string* v) {
    if (pos + n > len) {
      return false;
    }
    v->assign(reinterpret_cast<const char*>(data + pos), n);
    pos += n;
    return true;
  }
};

void PutHeader(std::string& out, MsgType type) {
  Put16(out, kWireMagic);
  Put8(out, kWireVersion);
  Put8(out, static_cast<uint8_t>(type));
}

// Starts a message in `buffer`: cleared with its capacity kept, header
// written.
std::string& Begin(std::string* buffer, MsgType type, size_t size_hint) {
  buffer->clear();
  buffer->reserve(size_hint);
  PutHeader(*buffer, type);
  return *buffer;
}

bool GetHeader(Reader& r, MsgType expect) {
  uint16_t magic;
  uint8_t version;
  uint8_t type;
  if (!r.Get16(&magic) || !r.Get8(&version) || !r.Get8(&type)) {
    return false;
  }
  return magic == kWireMagic && version == kWireVersion &&
         type == static_cast<uint8_t>(expect);
}

// A 2-byte-length-prefixed string.
void PutString(std::string& out, const std::string& s) {
  Put16(out, static_cast<uint16_t>(s.size()));
  out.append(s);
}

bool GetString(Reader& r, std::string* s) {
  uint16_t n;
  return r.Get16(&n) && r.GetBytes(n, s);
}

void PutParams(std::string& out, const std::vector<WireParam>& params) {
  Put8(out, static_cast<uint8_t>(params.size()));
  for (const WireParam& p : params) {
    Put8(out, static_cast<uint8_t>(p.cls | (p.by_ref ? 0x80 : 0)));
  }
}

bool GetParams(Reader& r, std::vector<WireParam>* params, uint8_t* argc) {
  if (!r.Get8(argc) || *argc > kMaxWireArgs) {
    return false;
  }
  params->clear();
  params->reserve(*argc);
  for (int i = 0; i < *argc; ++i) {
    uint8_t tag;
    if (!r.Get8(&tag)) {
      return false;
    }
    params->push_back(
        WireParam{static_cast<uint8_t>(tag & 0x7f), (tag & 0x80) != 0});
  }
  return true;
}

void PutGuard(std::string& out, const micro::Program& prog) {
  Put8(out, static_cast<uint8_t>(prog.num_args()));
  Put16(out, static_cast<uint16_t>(prog.code().size()));
  for (const micro::Insn& insn : prog.code()) {
    Put8(out, static_cast<uint8_t>(insn.op));
    Put8(out, insn.dst);
    Put8(out, insn.a);
    Put8(out, insn.b);
    Put64(out, insn.imm);
  }
}

// Structural parse only: framing, counts, and field widths. Semantic
// admission (opcode validity, bounds, termination, purity) is the
// verifier's job — DecodeBindReply runs micro::Verify over the parsed
// program so a hostile guard produces a typed refusal the proxy can
// surface, rather than a dropped datagram and a timeout. Out-of-range
// opcode bytes are preserved via the cast; the verifier rejects them as
// kBadOpcode.
bool GetGuard(Reader& r, micro::Program* out) {
  uint8_t num_args;
  uint16_t ninsn;
  if (!r.Get8(&num_args) || num_args > micro::kMaxArgs || !r.Get16(&ninsn) ||
      ninsn == 0 || ninsn > kMaxWireGuardInsns) {
    return false;
  }
  std::vector<micro::Insn> code;
  code.reserve(ninsn);
  for (int i = 0; i < ninsn; ++i) {
    uint8_t op;
    micro::Insn insn;
    if (!r.Get8(&op) || !r.Get8(&insn.dst) || !r.Get8(&insn.a) ||
        !r.Get8(&insn.b) || !r.Get64(&insn.imm)) {
      return false;
    }
    insn.op = static_cast<micro::Op>(op);
    code.push_back(insn);
  }
  *out = micro::Program(std::move(code), num_args, /*functional=*/true);
  return true;
}

}  // namespace

bool WireableGuard(const micro::Program& prog) {
  // Mirror of the receiver's admission check: the sender refuses to
  // serialize exactly what the peer's decoder would refuse to admit, so a
  // guard that leaves this host is never silently dropped on the other
  // side. WireGuardLimits forbids loads and stores alike — addresses do
  // not cross the wire.
  return prog.functional() &&
         micro::Verify(prog, micro::WireGuardLimits()).ok();
}

void EncodeRequest(const RequestMsg& msg, std::string* buffer) {
  std::string& out =
      Begin(buffer, MsgType::kRequest,
            39 + msg.event_name.size() + 9 * msg.params.size());
  Put8(out, static_cast<uint8_t>(msg.kind));
  Put64(out, msg.request_id);
  Put64(out, msg.token);
  PutString(out, msg.event_name);
  PutParams(out, msg.params);
  for (uint64_t v : msg.args) {
    Put64(out, v);
  }
  // Optional trailer: emitted only for traced raises, so untraced frames
  // are byte-identical to pre-trailer v2 and old decoders still read them.
  if (msg.span_id != 0) {
    Put64(out, msg.span_id);
    Put32(out, msg.origin_host);
  }
}

void EncodeReply(const ReplyMsg& msg, std::string* buffer) {
  std::string& out =
      Begin(buffer, MsgType::kReply,
            24 + 8 * msg.byref.size() + msg.error.size());
  Put8(out, static_cast<uint8_t>(msg.status));
  Put64(out, msg.request_id);
  Put64(out, msg.result);
  Put8(out, static_cast<uint8_t>(msg.byref.size()));
  for (uint64_t v : msg.byref) {
    Put64(out, v);
  }
  PutString(out, msg.error);
}

void EncodeBindRequest(const BindRequestMsg& msg, std::string* buffer) {
  std::string& out =
      Begin(buffer, MsgType::kBindRequest,
            19 + msg.event_name.size() + msg.module_name.size() +
                msg.credential.size() + msg.params.size());
  Put64(out, msg.bind_id);
  PutString(out, msg.event_name);
  PutString(out, msg.module_name);
  PutString(out, msg.credential);
  PutParams(out, msg.params);
}

void EncodeBindReply(const BindReplyMsg& msg, std::string* buffer) {
  std::string& out = Begin(buffer, MsgType::kBindReply, 24 + msg.error.size());
  Put8(out, static_cast<uint8_t>(msg.status));
  Put64(out, msg.bind_id);
  Put64(out, msg.token);
  Put8(out, static_cast<uint8_t>(msg.guards.size()));
  for (const micro::Program& guard : msg.guards) {
    PutGuard(out, guard);
  }
  PutString(out, msg.error);
}

void EncodeRevoke(const RevokeMsg& msg, std::string* buffer) {
  std::string& out =
      Begin(buffer, MsgType::kRevoke, 14 + msg.event_name.size());
  Put64(out, msg.token);
  PutString(out, msg.event_name);
}

std::string EncodeRequest(const RequestMsg& msg) {
  std::string out;
  EncodeRequest(msg, &out);
  return out;
}

std::string EncodeReply(const ReplyMsg& msg) {
  std::string out;
  EncodeReply(msg, &out);
  return out;
}

std::string EncodeBindRequest(const BindRequestMsg& msg) {
  std::string out;
  EncodeBindRequest(msg, &out);
  return out;
}

std::string EncodeBindReply(const BindReplyMsg& msg) {
  std::string out;
  EncodeBindReply(msg, &out);
  return out;
}

std::string EncodeRevoke(const RevokeMsg& msg) {
  std::string out;
  EncodeRevoke(msg, &out);
  return out;
}

bool DecodeRequest(std::string_view wire, RequestMsg* out) {
  Reader r{reinterpret_cast<const uint8_t*>(wire.data()), wire.size()};
  if (!GetHeader(r, MsgType::kRequest)) {
    return false;
  }
  uint8_t kind;
  if (!r.Get8(&kind) || (kind != static_cast<uint8_t>(RaiseKind::kSync) &&
                         kind != static_cast<uint8_t>(RaiseKind::kAsync))) {
    return false;
  }
  out->kind = static_cast<RaiseKind>(kind);
  if (!r.Get64(&out->request_id) || !r.Get64(&out->token) ||
      !GetString(r, &out->event_name)) {
    return false;
  }
  uint8_t argc;
  if (!GetParams(r, &out->params, &argc)) {
    return false;
  }
  out->args.clear();
  out->args.reserve(argc);
  for (int i = 0; i < argc; ++i) {
    uint64_t v;
    if (!r.Get64(&v)) {
      return false;
    }
    out->args.push_back(v);
  }
  // Causal-trace trailer: absent on untraced/old frames (null span), and
  // when present it must be exactly 12 bytes with a nonzero span id — a
  // zero id would re-encode without the trailer, breaking canonicality.
  out->span_id = 0;
  out->origin_host = 0;
  if (r.pos != r.len) {
    if (!r.Get64(&out->span_id) || !r.Get32(&out->origin_host) ||
        out->span_id == 0) {
      return false;
    }
  }
  return r.pos == r.len;
}

bool DecodeReply(std::string_view wire, ReplyMsg* out) {
  Reader r{reinterpret_cast<const uint8_t*>(wire.data()), wire.size()};
  if (!GetHeader(r, MsgType::kReply)) {
    return false;
  }
  uint8_t status;
  if (!r.Get8(&status) ||
      status > static_cast<uint8_t>(WireStatus::kGuardRejected)) {
    return false;
  }
  out->status = static_cast<WireStatus>(status);
  uint8_t nbyref;
  if (!r.Get64(&out->request_id) || !r.Get64(&out->result) ||
      !r.Get8(&nbyref) || nbyref > kMaxWireArgs) {
    return false;
  }
  out->byref.clear();
  out->byref.reserve(nbyref);
  for (int i = 0; i < nbyref; ++i) {
    uint64_t v;
    if (!r.Get64(&v)) {
      return false;
    }
    out->byref.push_back(v);
  }
  if (!GetString(r, &out->error)) {
    return false;
  }
  return r.pos == r.len;
}

bool DecodeBindRequest(std::string_view wire, BindRequestMsg* out) {
  Reader r{reinterpret_cast<const uint8_t*>(wire.data()), wire.size()};
  if (!GetHeader(r, MsgType::kBindRequest)) {
    return false;
  }
  if (!r.Get64(&out->bind_id) || !GetString(r, &out->event_name) ||
      !GetString(r, &out->module_name) || !GetString(r, &out->credential)) {
    return false;
  }
  uint8_t argc;
  if (!GetParams(r, &out->params, &argc)) {
    return false;
  }
  return r.pos == r.len;
}

bool DecodeBindReply(std::string_view wire, BindReplyMsg* out) {
  Reader r{reinterpret_cast<const uint8_t*>(wire.data()), wire.size()};
  if (!GetHeader(r, MsgType::kBindReply)) {
    return false;
  }
  uint8_t status;
  if (!r.Get8(&status) ||
      status > static_cast<uint8_t>(WireStatus::kGuardRejected)) {
    return false;
  }
  out->status = static_cast<WireStatus>(status);
  uint8_t nguards;
  if (!r.Get64(&out->bind_id) || !r.Get64(&out->token) ||
      !r.Get8(&nguards) || nguards > kMaxWireGuards) {
    return false;
  }
  out->guards.clear();
  out->guards.reserve(nguards);
  out->guard_verify = micro::VerifyStatus::kOk;
  out->guard_verify_index = 0;
  for (int i = 0; i < nguards; ++i) {
    micro::Program guard;
    if (!GetGuard(r, &guard)) {
      return false;  // framing damage: the datagram is noise, drop it
    }
    // Admission: every wire-received program passes the verifier before it
    // can reach an evaluator (interpreter or JIT). The first refusal is
    // recorded and the remaining guards still parse structurally so the
    // exact-length check below keeps validating the framing.
    if (out->guard_verify == micro::VerifyStatus::kOk) {
      micro::VerifyResult v = micro::Verify(guard, micro::WireGuardLimits());
      if (!v.ok()) {
        out->guard_verify = v.status;
        out->guard_verify_index = static_cast<uint8_t>(i);
      }
    }
    out->guards.push_back(std::move(guard));
  }
  if (out->guard_verify != micro::VerifyStatus::kOk) {
    out->guards.clear();  // refused programs never reach an evaluator
  }
  if (!GetString(r, &out->error)) {
    return false;
  }
  return r.pos == r.len;
}

bool DecodeRevoke(std::string_view wire, RevokeMsg* out) {
  Reader r{reinterpret_cast<const uint8_t*>(wire.data()), wire.size()};
  if (!GetHeader(r, MsgType::kRevoke)) {
    return false;
  }
  if (!r.Get64(&out->token) || !GetString(r, &out->event_name)) {
    return false;
  }
  return r.pos == r.len;
}

bool PeekType(std::string_view wire, MsgType* out) {
  if (wire.size() < 4) {
    return false;
  }
  const uint8_t* d = reinterpret_cast<const uint8_t*>(wire.data());
  uint16_t magic = static_cast<uint16_t>((d[0] << 8) | d[1]);
  if (magic != kWireMagic || d[2] != kWireVersion) {
    return false;
  }
  if (d[3] < static_cast<uint8_t>(MsgType::kRequest) ||
      d[3] > static_cast<uint8_t>(MsgType::kRevoke)) {
    return false;
  }
  *out = static_cast<MsgType>(d[3]);
  return true;
}

}  // namespace remote
}  // namespace spin
