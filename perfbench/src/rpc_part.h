// The remote part of the benchmark world: one client host binds proxies
// to events a server host exports, over the simulated 10 Mb/s wire. The
// exporter's authorizer grants every bind with an imposed micro guard,
// which the proxy verifies and compiles; sync remote raises then run
// round-robin or skewed across the proxies with sampled tracing on.
#ifndef PERFBENCH_RPC_PART_H_
#define PERFBENCH_RPC_PART_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "checks.h"
#include "src/core/dispatcher.h"
#include "src/net/host.h"
#include "src/remote/exporter.h"
#include "src/remote/proxy.h"
#include "src/sim/simulator.h"

namespace perfbench {

struct RpcOptions {
  bool zipf = true;
  uint64_t seed = 1;
  spin::ThreadPool* pool = nullptr;
  bool enable_jit = true;
};

class RpcPart {
 public:
  static constexpr uint32_t kTraceSampleRate = 64;

  // Exports the server events and binds every proxy; this is the part's
  // share of setup_s.
  explicit RpcPart(const RpcOptions& options);
  ~RpcPart();
  RpcPart(const RpcPart&) = delete;
  RpcPart& operator=(const RpcPart&) = delete;

  // Sampled tracing at 1-in-kTraceSampleRate, on for the part's windows
  // only. It sets the process-wide obs switch alone: sampled capture keeps
  // the production tables, so no dispatch table is rebuilt.
  static void SetSampledTracing(bool on);

  // One window of sync remote raises; every result and VAR copy-out is
  // compared with a locally computed value. Returns the raise count.
  size_t Window();

  // Per-layer probes, each timed on the wall clock, ns per call.
  double CodecProbe(size_t n);         // encode+decode request and reply
  double ServerDispatchProbe(size_t n);  // the server event raised locally
  double VerifyProbe(size_t n);        // micro::Verify on the imposed guard

  void Verify(Checks& checks);

  // Wall ns of each proxy construction (bind handshake + guard install).
  const std::vector<double>& bind_ns() const { return bind_ns_; }
  // Remote raises made so far, rejected ones included.
  uint64_t raises() const { return raises_; }
  // Virtual ns per remote (not locally rejected) raise.
  double roundtrip_virtual_ns() const;
  const spin::remote::Exporter& exporter() const { return *exporter_; }

 private:
  struct Target;
  struct Request {
    uint32_t target;
    uint64_t a, b, c, d;
    uint64_t expect_result;
    uint64_t expect_var;
  };

  spin::Module server_module_{"Perfbench.RpcServer"};
  spin::Module client_module_{"Perfbench.RpcClient"};
  spin::Dispatcher server_dispatcher_;
  spin::Dispatcher client_dispatcher_;
  spin::sim::Simulator sim_;
  std::unique_ptr<spin::net::Wire> wire_;
  std::unique_ptr<spin::net::Host> server_;
  std::unique_ptr<spin::net::Host> client_;
  std::unique_ptr<spin::remote::Exporter> exporter_;
  std::vector<std::unique_ptr<Target>> targets_;
  std::vector<Request> trace_;
  size_t pos_ = 0;
  std::vector<double> bind_ns_;

  uint64_t raises_ = 0;
  uint64_t remote_raises_ = 0;
  uint64_t virtual_ns_ = 0;
  uint64_t wrong_ = 0;
  uint64_t remote_errors_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_RPC_PART_H_
