// Deterministic chaos: remote dispatch under seeded loss, partition
// windows, and install/uninstall/revoke churn interleaved with raises.
//
// The driver walks a seeded schedule of hostile actions — random wire
// loss, virtual-time partition windows, capability revocation, server-side
// handler uninstall/reinstall — while raising through a proxy the whole
// time. Three properties must hold no matter the seed:
//
//   * At-most-once: every raise value executes the server handler at most
//     once, even when replies are lost and requests retransmitted; a raise
//     that returned success executed exactly once.
//   * No stuck raisers: every raise returns or throws a typed RemoteError
//     within its retry budget — the loop completing (and virtual time
//     staying bounded) is the proof.
//   * Determinism: the same seed replays the identical outcome tally,
//     virtual-time trajectory and loss pattern; a different seed diverges.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/net/host.h"
#include "src/remote/exporter.h"
#include "src/remote/proxy.h"
#include "src/sim/simulator.h"
#include "tests/eager_config.h"

namespace spin {
namespace remote {
namespace {

struct Rng {
  uint64_t state;

  uint64_t Next() {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
};

struct ExecCtx {
  std::map<uint64_t, int> counts;  // raise value -> handler executions
};

uint64_t ChaosHandler(ExecCtx* ctx, uint64_t v) {
  ++ctx->counts[v];
  return v + 1;
}

struct Outcome {
  uint64_t ok = 0;
  uint64_t timeouts = 0;
  uint64_t revoked = 0;
  uint64_t dead = 0;
  uint64_t remote_exceptions = 0;
  uint64_t bind_failures = 0;
  uint64_t skipped = 0;   // rounds with no live proxy to raise through
  uint64_t executed = 0;  // total handler executions
  uint64_t frames_lost = 0;
  uint64_t final_time_ns = 0;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

Outcome RunChaos(uint64_t seed, int rounds) {
  Rng rng{seed};
  Outcome out;

  Dispatcher dispatcher(EagerConfig());
  sim::Simulator sim;
  net::Wire wire(&sim, sim::LinkModel{});
  net::Host client("client", 0x0a000001, &dispatcher);
  net::Host server("server", 0x0a000002, &dispatcher);
  wire.Attach(client, server);
  Exporter exporter(server);

  Event<uint64_t(uint64_t)> server_ev("Chaos.Op", nullptr, nullptr,
                                      &dispatcher);
  ExecCtx exec;
  BindingHandle server_binding =
      dispatcher.InstallHandler(server_ev, &ChaosHandler, &exec);
  bool handler_installed = true;
  exporter.Export(server_ev);

  Event<uint64_t(uint64_t)> client_ev("Chaos.Op", nullptr, nullptr,
                                      &dispatcher);
  auto make_opts = [&] {
    ProxyOptions opts;
    opts.remote_ip = server.ip();
    opts.local_port = 9301;
    opts.max_attempts = 4;
    opts.timeout_ns = 1'000'000;
    return opts;
  };
  auto proxy = std::make_unique<EventProxy>(client, &sim, client_ev,
                                            make_opts());

  std::vector<uint64_t> ok_values;
  for (int round = 0; round < rounds; ++round) {
    // One hostile action per round, then (usually) a raise.
    switch (rng.Below(10)) {
      case 0:
        wire.SetRandomLoss(0.25, rng.Next());
        break;
      case 1:
        wire.SetRandomLoss(0, 0);  // the weather clears
        break;
      case 2: {
        uint64_t now = sim.now_ns();
        wire.SetPartition(now, now + 1 + rng.Below(3'000'000));
        break;
      }
      case 3:
        if (proxy != nullptr) {
          exporter.Revoke(proxy->token());
        }
        break;
      case 4:
        if (handler_installed) {
          dispatcher.Uninstall(server_binding);
        } else {
          server_binding =
              dispatcher.InstallHandler(server_ev, &ChaosHandler, &exec);
        }
        handler_installed = !handler_installed;
        break;
      default:
        break;  // raise-only round
    }

    if (proxy == nullptr) {
      try {
        proxy = std::make_unique<EventProxy>(client, &sim, client_ev,
                                             make_opts());
      } catch (const RemoteError&) {
        ++out.bind_failures;  // loss/partition ate the handshake; retry later
      }
    }
    if (proxy == nullptr) {
      ++out.skipped;
      continue;
    }

    const uint64_t value = static_cast<uint64_t>(round);
    try {
      uint64_t result = client_ev.Raise(value);
      EXPECT_EQ(result, value + 1);
      ++out.ok;
      ok_values.push_back(value);
    } catch (const RemoteError& e) {
      switch (e.status()) {
        case RemoteStatus::kTimeout:
          ++out.timeouts;
          break;
        case RemoteStatus::kRevoked:
          ++out.revoked;
          proxy.reset();  // re-bind on a later round
          break;
        case RemoteStatus::kDead:
          ++out.dead;
          proxy.reset();
          break;
        case RemoteStatus::kRemoteException:
          ++out.remote_exceptions;  // raised into an uninstalled handler
          break;
        default:
          ADD_FAILURE() << "unexpected RemoteError: " << e.what();
          break;
      }
    }
  }

  // Quiesce: heal the wire and drain in-flight datagrams.
  wire.SetRandomLoss(0, 0);
  wire.SetPartition(0, 0);
  sim.Run();

  // --- At-most-once, checked per raise value ---
  for (const auto& [value, count] : exec.counts) {
    EXPECT_LE(count, 1) << "value " << value
                        << " executed twice: at-most-once violated";
    out.executed += static_cast<uint64_t>(count);
  }
  for (uint64_t value : ok_values) {
    EXPECT_EQ(exec.counts[value], 1)
        << "a successful raise of " << value
        << " must have executed exactly once";
  }

  out.frames_lost = wire.frames_lost();
  out.final_time_ns = sim.now_ns();
  return out;
}

TEST(RemoteChaos, AtMostOnceSurvivesLossPartitionsAndRevocation) {
  Outcome out = RunChaos(/*seed=*/0xc4a05'1ull, /*rounds=*/80);
  // The schedule must actually have exercised the interesting paths.
  EXPECT_GT(out.ok, 0u);
  EXPECT_GT(out.revoked, 0u) << "revocation churn never fired";
  EXPECT_GT(out.frames_lost, 0u) << "the wire never dropped anything";
  // No stuck raisers: 80 rounds of budgeted retries fit comfortably in
  // bounded virtual time (4 attempts x <=32ms backoff each, plus slack).
  EXPECT_LT(out.final_time_ns, 60'000'000'000ull);
}

TEST(RemoteChaos, HandlerChurnYieldsTypedErrorsNotHangs) {
  // A seed chosen so the uninstall/reinstall action fires repeatedly: the
  // raises that land in the uninstalled window surface the remote
  // NoHandlerError as RemoteError(kRemoteException).
  Outcome out = RunChaos(/*seed=*/0xdeadull, /*rounds=*/120);
  EXPECT_GT(out.remote_exceptions + out.ok, 0u);
  EXPECT_EQ(out.ok + out.timeouts + out.revoked + out.dead +
                out.remote_exceptions + out.skipped,
            120u)
      << "every round must account for its raise, one way or another";
}

TEST(RemoteChaos, SameSeedReplaysExactly) {
  EXPECT_EQ(RunChaos(7, 60), RunChaos(7, 60))
      << "chaos must be a pure function of the seed";
  EXPECT_NE(RunChaos(7, 60), RunChaos(8, 60))
      << "the seed must actually steer the schedule";
}

}  // namespace
}  // namespace remote
}  // namespace spin
