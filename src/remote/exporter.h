// The exporter: the server half of remote event dispatch.
//
// An Exporter listens on a UDP port of its host and makes selected local
// events raisable from other hosts. For each request it materializes a
// RaiseFrame from the wire values (VAR parameters get copy-in/copy-out
// storage), raises the event through the ordinary dispatcher — guards,
// ordering, result folding and all — and ships the result, the final VAR
// values, or the thrown exception back in the reply.
//
// Installation-time authorization (§2.5 across the wire): before raising,
// a remote host must bind. The BindRequest carries the caller's identity
// (module name) and an opaque credential blob; the exporter materializes
// an AuthRequest — requestor is a Module named after the wire identity,
// credentials points at a RemoteBindInfo — and runs it through the event
// owner's Dispatcher::Authorize, the same §2.5 callback a local install
// consults. The authorizer may deny, grant, or grant-with-imposed-guards;
// imposed guards must be wireable micro-programs (see WireableGuard) so
// the proxy can evaluate them before marshaling. A grant mints a random
// 64-bit capability token that must accompany every raise. Tokens are
// bearer capabilities in the Exokernel secure-binding style: possession,
// not source address, is the authority.
//
// Revocation: Unexport (and the explicit Revoke) invalidates tokens,
// pushes a Revoke notice to each bound proxy, and makes raises bearing a
// stale token fail fast with kRevoked. Imposed guards are also enforced
// exporter-side on every raise — proxy-side evaluation saves the
// roundtrip, exporter-side evaluation is the trust boundary.
//
// Delivery is at-most-once per request id: the reply to every sync request
// (and every bind) is cached keyed by (source ip, source port, capability
// token, request id), and a duplicate delivery — a retransmission whose
// original did arrive — replays the cached reply without re-raising the
// event. Scoping by token confines each cache entry to the binding it was
// minted for, so a proxy re-bound on a reused port cannot be answered
// with its predecessor's replies.
// Duplicate async requests are simply dropped. The cache is a FIFO window
// (kDedupWindow entries), sized far beyond any retry budget a proxy can
// configure; once it is full, a new reply reuses the evicted entry's
// storage. A copy that arrives while its original is still dispatching
// (the handler's own sync remote raise pumps the simulator) finds the
// request in flight and is dropped; the original's reply answers it.
#ifndef SRC_REMOTE_EXPORTER_H_
#define SRC_REMOTE_EXPORTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "src/net/host.h"
#include "src/remote/marshal.h"
#include "src/remote/wire_format.h"

namespace spin {
namespace remote {

// What a bind-time AuthRequest's `credentials` points at: the wire-carried
// caller identity and credential blob, plus where the request came from.
// Exporter-side authorizers cast `credentials` to this.
struct RemoteBindInfo {
  uint32_t source_ip = 0;
  uint16_t source_port = 0;
  std::string module_name;  // also the name of the requestor Module
  std::string credential;   // opaque; meaning is the authorizer's business
};

class Exporter {
 public:
  static constexpr size_t kDedupWindow = 1024;

  explicit Exporter(net::Host& host, uint16_t port = kDefaultRemotePort);
  ~Exporter();
  Exporter(const Exporter&) = delete;
  Exporter& operator=(const Exporter&) = delete;

  // Registers `event` for remote raising under its name. Throws
  // RemoteError(kUnmarshalable) when the signature cannot cross the wire,
  // so an export that succeeds can serve every request shape it admits.
  void Export(EventBase& event);

  // Withdraws an export: every outstanding capability for the event is
  // revoked (notices pushed to the bound proxies) and requests for it now
  // earn a kRevoked / kUnbound reply instead of a dispatch.
  void Unexport(EventBase& event);

  // Revokes one capability token. The bound proxy is notified and every
  // subsequent raise bearing the token fails with kRevoked; other bindings
  // to the same event are untouched. Returns false for unknown tokens.
  bool Revoke(uint64_t token);

  uint16_t port() const { return port_; }
  uint64_t requests() const { return requests_; }
  uint64_t dedup_hits() const { return dedup_hits_; }
  uint64_t exceptions() const { return exceptions_; }
  uint64_t bad_requests() const { return bad_requests_; }
  uint64_t unbound_requests() const { return unbound_; }
  uint64_t binds() const { return binds_; }
  uint64_t auth_denied() const { return auth_denied_; }
  uint64_t revoked_tokens() const { return revoked_tokens_; }
  uint64_t revoked_raises() const { return revoked_raises_; }
  uint64_t guard_rejected() const { return guard_rejected_; }
  size_t bound_clients() const { return bound_.size(); }

 private:
  struct Entry {
    EventBase* event;
    MarshalPlan plan;
  };
  // One granted capability: who holds it, for which event, and the
  // authorizer-imposed guards enforced on every raise it accompanies.
  struct BoundClient {
    std::string event_name;
    const Entry* entry = nullptr;  // Unexport revokes before it erases
    uint32_t ip = 0;
    uint16_t port = 0;
    std::unique_ptr<Module> module;       // identity for auth callbacks
    std::shared_ptr<Binding> binding;     // carries the imposed guards
  };
  // (source ip, source port, message type, capability token, request id).
  // The token scopes raise dedup to one binding: a proxy re-bound on the
  // same port holds a fresh token, so cached replies minted for its dead
  // predecessor can never answer it. Binds carry token 0; the type byte
  // keeps their id space disjoint from raises.
  using DedupKey = std::tuple<uint32_t, uint16_t, uint8_t, uint64_t, uint64_t>;
  using ReplayCache = std::map<DedupKey, std::string>;

  // The messages one request decodes into and replies from. A handler may
  // pump the simulator, which delivers further requests to this exporter
  // inside the dispatch, so requests nest; each nesting depth keeps its
  // own pair, reused by every later request at that depth.
  struct Work {
    RequestMsg request;
    ReplyMsg reply;
  };

  void OnDatagram(const net::Packet& packet);
  void OnBindRequest(const net::Packet& packet, std::string_view payload);
  void Dispatch(const RequestMsg& request, ReplyMsg* reply);
  const std::string* Cached(const DedupKey& key) const;
  std::string& CacheEntry(const DedupKey& key);
  BindReplyMsg Bind(const BindRequestMsg& request, uint32_t source_ip,
                    uint16_t source_port);
  void RevokeClient(uint64_t token, const BoundClient& client);
  uint64_t MintToken();
  static void ExportMetricsSource(void* ctx, std::ostream& os);

  net::Host& host_;
  uint16_t port_;
  std::unique_ptr<net::UdpSocket> socket_;
  std::map<std::string, Entry> exports_;
  std::set<std::string> withdrawn_;  // exported once, then removed

  std::map<uint64_t, BoundClient> bound_;  // by capability token
  uint64_t token_rng_;  // splitmix64 state: deterministic per (host, port)

  std::vector<std::unique_ptr<Work>> work_;
  size_t depth_ = 0;  // requests being handled

  ReplayCache replay_;  // encoded cached replies
  // Keys in insertion order: a ring of kDedupWindow whose oldest key sits
  // at replay_next_ once the cache is full.
  std::vector<DedupKey> replay_ring_;
  size_t replay_next_ = 0;
  std::vector<DedupKey> in_flight_;  // requests dispatching, innermost last

  uint64_t requests_ = 0;
  uint64_t dedup_hits_ = 0;
  uint64_t exceptions_ = 0;
  uint64_t bad_requests_ = 0;
  uint64_t unbound_ = 0;
  uint64_t binds_ = 0;
  uint64_t auth_denied_ = 0;
  uint64_t revoked_tokens_ = 0;
  uint64_t revoked_raises_ = 0;
  uint64_t guard_rejected_ = 0;
};

}  // namespace remote
}  // namespace spin

#endif  // SRC_REMOTE_EXPORTER_H_
