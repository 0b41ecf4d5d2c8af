// Event proxies: the client half of remote event dispatch.
//
// An EventProxy installs an ordinary (type-erased) binding on a local
// event, so a plain local `Raise` transparently becomes a remote one: the
// proxy marshals the argument slots per the event's TypeSig, ships them to
// an Exporter on another host, and — for synchronous raises — blocks the
// raiser until the reply carries back the result, the final VAR values, or
// the remote exception.
//
// Before any of that, the proxy binds (§2.5 across the wire): the
// constructor performs a BindRequest/BindReply handshake carrying the
// proxy's module identity and a credential blob (per-proxy override or the
// host's default). The exporter runs the event's authorizer; a denial
// throws RemoteError(kDenied) and installs nothing. A grant returns a
// capability token — stamped on every subsequent raise — plus any
// authorizer-imposed guards, serialized as micro-programs. The proxy's
// local binding is installed with those guards (InstallOptions::guards),
// so a raise the imposed guard rejects is skipped locally, before
// marshaling: the same observable behavior as a guarded local binding,
// minus the roundtrip. The guards are verified once, at bind, and then
// interpreted: the proxy binding is erased, so no stub ever runs them.
// The exporter re-evaluates the guards anyway — proxy-side evaluation is
// an optimization, exporter-side evaluation is the trust boundary.
//
// "Blocks" on a discrete-event simulator means the proxy pumps the
// simulator from inside the raise: it schedules a sentinel no-op at the
// attempt deadline and runs simulator events one at a time until either
// the reply datagram is delivered or virtual time reaches the deadline.
// Each timed-out attempt retransmits the SAME request id with a doubled
// timeout (capped at max_backoff_ns) — the exporter's at-most-once window
// guarantees the event body never runs twice even when an earlier attempt
// was merely delayed, not lost. When the retry budget is exhausted the
// raise throws RemoteError(kTimeout); it never hangs. The bind handshake
// retries on the same schedule.
//
// Asynchronous proxies (RaiseKind::kAsync) are fire-and-forget: the
// binding is installed async, so the marshal runs on the dispatcher's
// thread pool, which enqueues the encoded datagram into an outbox. The
// simulation thread hands outbox entries to the network with Flush() —
// the simulator itself is single-threaded, so pool threads must not touch
// it. Async proxies reject result-returning and VAR signatures at install
// (§2.6's rule, extended across the wire).
//
// Death and revocation: a reply of kUnbound or kNoSuchEvent marks the
// proxy dead (the remote binding is gone; subsequent raises fail fast with
// RemoteError(kDead), no traffic). A kRevoked reply, or a pushed Revoke
// notice matching the proxy's token, marks it revoked: subsequent raises
// fail fast with RemoteError(kRevoked), and Flush() drops queued async
// datagrams instead of transmitting them.
#ifndef SRC_REMOTE_PROXY_H_
#define SRC_REMOTE_PROXY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/dispatcher.h"
#include "src/net/host.h"
#include "src/obs/obs.h"
#include "src/obs/watchdog.h"
#include "src/remote/marshal.h"
#include "src/remote/wire_format.h"
#include "src/sim/simulator.h"

namespace spin {
namespace remote {

struct ProxyOptions {
  uint32_t remote_ip = 0;                    // the exporter's host
  uint16_t remote_port = kDefaultRemotePort;
  uint16_t local_port = 7008;                // this proxy's reply socket
  RaiseKind kind = RaiseKind::kSync;
  uint32_t max_attempts = 5;                 // first send + retries
  uint64_t timeout_ns = 2'000'000;           // first attempt's deadline
  uint64_t max_backoff_ns = 32'000'000;      // timeout doubling cap

  // Placement of the proxy binding among the event's handlers (§2.3
  // "Ordering handlers"). The proxy is an ordinary binding in the event's
  // combined order list, so First/Last/Before/After hold across local
  // handlers and the proxy alike.
  Order order{};

  // Identity presented in the bind handshake. Empty module_name defaults
  // to "Remote.Proxy.<event>"; empty credential defaults to the host's
  // (Host::SetCredential).
  std::string module_name;
  std::string credential;
};

class EventProxy {
 public:
  // Performs the bind handshake, then installs the proxy binding. Throws
  // RemoteError(kUnmarshalable) when the event's signature cannot cross
  // the wire (or, for kAsync, returns a result / takes VAR parameters);
  // RemoteError(kDenied) when the exporter's authorizer refuses the bind;
  // RemoteError(kTimeout) when the handshake exhausts its retry budget.
  // A throwing constructor installs nothing.
  EventProxy(net::Host& host, sim::Simulator* sim, EventBase& event,
             const ProxyOptions& opts);
  ~EventProxy();
  EventProxy(const EventProxy&) = delete;
  EventProxy& operator=(const EventProxy&) = delete;

  // Hands queued fire-and-forget datagrams to the network. Call from the
  // simulation thread (typically after ThreadPool::Drain()); returns the
  // number of datagrams transmitted (0 when dead or revoked — queued
  // datagrams are dropped, matching the fail-fast sync path).
  size_t Flush();

  bool dead() const { return dead_; }
  bool revoked() const { return revoked_; }
  uint64_t token() const { return token_; }
  uint64_t raises() const { return raises_; }
  uint64_t retries() const { return retries_; }
  uint64_t timeouts() const { return timeouts_; }
  uint64_t dead_raises() const { return dead_raises_; }
  uint64_t revoke_notices() const { return revoke_notices_; }
  // Replies held for a raise that has not consumed them yet: 0 between
  // raises, because a reply no raise awaits is dropped on arrival.
  size_t queued_replies() const;

  // Distribution of sync roundtrips in virtual (simulated) nanoseconds.
  const obs::Histogram& roundtrip_hist() const { return roundtrip_; }

  const BindingHandle& binding() const { return binding_[0]; }

 private:
  static uint64_t Invoke(void* fn, void* closure, uint64_t* slots);

  // Constructor-time BindRequest/BindReply exchange. Sets token_ and
  // returns the guards the authorizer imposed; throws on denial/timeout.
  std::vector<micro::Program> BindHandshake();

  // Sends `encoded` and pumps the simulator until arrived() or the retry
  // budget runs out (returns false). Shared by the handshake and sync
  // raises; retransmissions count into retries_.
  bool TransmitAwait(const std::string& encoded, uint64_t trace_arg,
                     const std::function<bool()>& arrived);

  uint64_t RaiseSync(uint64_t* slots);
  void EnqueueAsync(const uint64_t* slots);
  void OnDatagram(const net::Packet& packet);
  static void ExportMetricsSource(void* ctx, std::ostream& os);

  // Anomaly-watchdog probe: reports the retry counter (the watchdog's rate
  // rule flags a retry storm) and the async outbox backlog each period.
  static void WatchdogProbeSource(void* ctx,
                                  std::vector<obs::WatchSample>& out);

  net::Host& host_;
  sim::Simulator* sim_;
  EventBase& event_;
  ProxyOptions opts_;
  MarshalPlan plan_;
  Module module_;
  std::unique_ptr<net::UdpSocket> socket_;
  const char* obs_name_;  // interned event name for trace records
  const char* watch_name_;  // interned "proxy/<event>" for watchdog samples

  uint64_t next_id_ = 1;  // re-seeded from virtual time at construction
  uint64_t token_ = 0;  // capability granted by the bind handshake

  // One sync raise in flight: the encoded request each attempt sends and
  // the slot its reply lands in. A handler the pump runs may raise through
  // this proxy again, so raises nest; each nesting depth keeps its own
  // call, reused by every later raise at that depth.
  struct Call {
    std::string encoded;
    uint64_t id = 0;  // the awaited request id; 0 while idle
    bool replied = false;
    ReplyMsg reply;
  };
  std::vector<std::unique_ptr<Call>> calls_;
  size_t depth_ = 0;        // sync raises in flight
  RequestMsg request_;      // reused per raise; name, params, token fixed
  ReplyMsg incoming_;       // decode target, swapped into its call
  uint64_t bind_id_ = 0;    // the bind the handshake awaits; 0 after it
  std::optional<BindReplyMsg> bind_reply_;
  bool dead_ = false;
  bool revoked_ = false;

  // Async marshals run on pool threads. Each entry remembers the wire span
  // its request was encoded under so Flush() can emit the kRemoteSend flow
  // start against the right span from the simulation thread.
  struct OutboxEntry {
    std::string encoded;
    uint64_t span = 0;
  };
  std::mutex outbox_mu_;
  std::deque<OutboxEntry> outbox_;
  // Entries Flush() has drained from the outbox (sent, or dropped on a
  // dead proxy) — the drain-progress counter for the watchdog's queue
  // stall rule. Guarded by outbox_mu_.
  uint64_t flushed_ = 0;

  // Counters are mutated on raiser/pool threads and read by the watchdog
  // monitor thread and metrics export; atomic so those reads are not a
  // data race. They are independent statistics — ordering is irrelevant.
  std::atomic<uint64_t> raises_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> dead_raises_{0};
  std::atomic<uint64_t> revoke_notices_{0};
  obs::Histogram roundtrip_;

  // Last: uninstalls before anything Invoke uses goes and, for an async
  // proxy, waits until every queued marshal has run.
  BindingSet binding_;
};

}  // namespace remote
}  // namespace spin

#endif  // SRC_REMOTE_PROXY_H_
