// Application-specific networking (§3.2): two simulated hosts, UDP
// endpoints whose port guards are micro-programs inlined into the generated
// dispatch routine, and the imposed-guard policy from the paper's
// networking code: "a guard that restricts an application's extension to
// receive packets only when the packets' destination is for a port that had
// been previously assigned to the application."
//
// Build & run:  ./build/examples/packet_filter
#include <cstdio>
#include <memory>
#include <vector>

#include "src/net/host.h"
#include "src/sim/simulator.h"

namespace {

struct PortGrant {
  uint16_t granted_port;
};

// Imposed by the network module's authorizer on every handler installation.
bool GrantedPortGuard(PortGrant* grant, spin::net::Packet* packet) {
  return packet->dst_port() == grant->granted_port;
}

PortGrant g_current_grant;
int g_denied_installs = 0;
// Each installation gets its own grant snapshot (the closure the
// dispatcher passes to the imposed guard); it must outlive the binding.
std::vector<std::unique_ptr<PortGrant>> g_grants;

bool NetworkAuthorizer(spin::AuthRequest& request, void* ctx) {
  (void)ctx;
  if (request.op != spin::AuthOp::kInstall) {
    return true;
  }
  if (g_current_grant.granted_port == 0) {
    ++g_denied_installs;
    return false;  // no port assigned: no packet taps at all
  }
  g_grants.push_back(std::make_unique<PortGrant>(g_current_grant));
  request.ImposeGuard(
      spin::MakeImposedGuard(&GrantedPortGuard, g_grants.back().get()));
  return true;
}

bool GreedyTap(spin::net::Packet*) { return true; }

spin::Module g_app_module("PacketApp");

}  // namespace

int main() {
  spin::Dispatcher dispatcher;
  spin::sim::Simulator sim;
  spin::net::Wire wire(&sim, spin::sim::LinkModel{});
  spin::net::Host alpha("alpha", 0x0a000001, &dispatcher);
  spin::net::Host beta("beta", 0x0a000002, &dispatcher);
  wire.Attach(alpha, beta);

  // The network module guards its packet event with an authorizer.
  dispatcher.InstallAuthorizer(beta.UdpPacketArrived, &NetworkAuthorizer,
                               nullptr, beta.module());

  std::printf("1. an application without a port grant cannot tap packets:\n");
  g_current_grant.granted_port = 0;
  try {
    dispatcher.InstallHandler(beta.UdpPacketArrived, &GreedyTap,
                              {.module = &g_app_module});
  } catch (const spin::InstallError& e) {
    std::printf("  install denied: %s\n", e.what());
  }

  std::printf("2. sockets install under their granted ports:\n");
  g_current_grant.granted_port = 7777;
  int app_packets = 0;
  spin::net::UdpSocket app_socket(beta, 7777,
                                  [&](const spin::net::Packet& packet) {
                                    ++app_packets;
                                    std::printf("  [app] got \"%s\"\n",
                                                packet.UdpPayload().c_str());
                                  });

  g_current_grant.granted_port = 9999;
  int other_packets = 0;
  spin::net::UdpSocket other_socket(
      beta, 9999, [&](const spin::net::Packet&) { ++other_packets; });

  spin::net::UdpSocket sender(alpha, 1234, nullptr);
  sender.SendTo(beta.ip(), 7777, "for the app");
  sender.SendTo(beta.ip(), 9999, "for the other");
  sender.SendTo(beta.ip(), 5555, "for nobody");
  sim.Run();

  std::printf("3. results:\n");
  std::printf("  app received %d, other received %d, dropped %llu\n",
              app_packets, other_packets,
              static_cast<unsigned long long>(beta.dropped_packets()));
  std::printf("  Udp.PacketArrived now has %zu handlers / %zu guards\n",
              beta.UdpPacketArrived.handler_count(),
              beta.UdpPacketArrived.guard_count());
  spin::Dispatcher::Stats stats = dispatcher.stats();
  // Three packets make no event hot: each compiles its stub on its 64th
  // raise (Config::lazy_compile).
  std::printf("  dispatcher generated %llu specialized dispatch routines, "
              "promoted %llu hot events\n",
              static_cast<unsigned long long>(stats.stub_compiles),
              static_cast<unsigned long long>(stats.lazy_promotions));
  std::printf("  wire carried %llu bytes in %llu virtual us\n",
              static_cast<unsigned long long>(wire.bytes_carried()),
              static_cast<unsigned long long>(sim.now_ns() / 1000));
  return app_packets == 1 && other_packets == 1 ? 0 : 1;
}
