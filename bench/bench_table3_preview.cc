// Table 3: "Major events raised while previewing a document."
//
// The paper's workload: Digital's X11 server running on SPIN displays a
// Postscript paper rendered by ghostview on another machine; page images
// arrive over TCP; the kernel's UNIX emulator serves the server's system
// calls; Strand.Run fires on every scheduling operation; Events.EventNotify
// is raised by the select implementation.
//
// Paper counts:   Ether.PacketArrived 2536, Ip 2529, Udp 24, Tcp 2505,
//                 OsfNet.Del/AddTcpPortHandler 3/3, MachineTrap.Syscall
//                 3976, Strand.Run 7936, Events.EventNotify 595.
// Paper times:    23.5s total; 0.12s raising/dispatching events (~0.5% of
//                 total, ~1.7% of kernel time).
//
// We replay the same event mix through the real substrates: a ghostview
// host streams 25 page images (2500 TCP segments) to the X-server host; an
// X-server strand issues ~4000 syscalls (reads/writes via the VFS plus 595
// selects); a second strand provides the background scheduling load.
#include <cstdio>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "src/emul/osf.h"
#include "src/net/tcp.h"
#include "src/profile/profile.h"
#include "src/sim/simulator.h"

namespace {

constexpr int kPages = 25;
constexpr int kSegmentsPerPage = 100;
constexpr size_t kSegmentBytes = 1448;
constexpr int kTargetSelects = 595;
constexpr int kTargetSyscalls = 3976;
constexpr int kUdpControlPackets = 24;

}  // namespace

int main() {
  using spin::bench::Rule;

  // The evaluated system's eager mode: every table generation compiles its
  // stub, so an event raised fewer than 64 times (Udp.PacketArrived) still
  // dispatches through generated code.
  spin::Dispatcher::Config config;
  config.lazy_compile = false;
  spin::Dispatcher dispatcher(config);
  spin::Kernel kernel(&dispatcher);
  spin::fs::Vfs vfs(&dispatcher);
  spin::emul::OsfEmulator osf(kernel, vfs);
  spin::emul::OsfNet osfnet(&dispatcher);
  spin::sim::Simulator sim;
  spin::net::Wire wire(&sim, spin::sim::LinkModel{});
  spin::net::Host spinbox("spinbox", 0x0a000001, &dispatcher);
  spin::net::Host ghost("ghostview", 0x0a000002, &dispatcher);
  wire.Attach(spinbox, ghost);

  spin::profile::Profiler profiler(dispatcher);
  profiler.Reset();
  uint64_t wall_start = spin::NowNs();

  // --- Connection setup: the ports the X session binds (3 add / 3 del). --
  for (int32_t port : {6000, 6001, 6010}) {
    osfnet.RegisterPort(port);
  }

  // Name-service chatter: 24 UDP control packets.
  int udp_got = 0;
  spin::net::UdpSocket ns_socket(spinbox, 111,
                                 [&](const spin::net::Packet&) {
                                   ++udp_got;
                                 });
  spin::net::UdpSocket ns_client(ghost, 30000, nullptr);

  // --- TCP: ghostview streams page images to the X server. ---------------
  std::string framebuffer;
  spin::net::TcpEndpoint xserver(spinbox, 6000);
  xserver.Listen([&](const std::string& data) { framebuffer += data; });
  spin::net::TcpEndpoint gv(ghost, 7001);
  gv.Connect(spinbox.ip(), 6000, nullptr);
  sim.Run();

  // --- The X server strand: syscalls against the emulator. ---------------
  spin::AddressSpace& xspace = kernel.CreateAddressSpace();
  osf.AdoptTask(xspace);
  int64_t fb_fd = -1;
  int syscalls_issued = 0;
  int selects_issued = 0;
  spin::Strand& xstrand = kernel.CreateStrand(
      "Xserver",
      [&](spin::Strand& strand) {
        spin::SavedState& ms = strand.saved_state();
        if (fb_fd < 0) {
          ms = spin::SavedState{};
          ms.v0 = spin::emul::kOsfOpen;
          ms.a[0] = reinterpret_cast<int64_t>("/dev/fb0");
          ms.a[1] = spin::fs::kOpenCreate;
          kernel.Syscall(strand);
          fb_fd = ms.v0;
          ++syscalls_issued;
          return true;
        }
        ms = spin::SavedState{};
        // 595 of the 3976 syscalls are selects (one per ~6.7 operations);
        // the rest write rendered page data into the framebuffer file.
        if (selects_issued * kTargetSyscalls <=
                syscalls_issued * kTargetSelects &&
            selects_issued < kTargetSelects) {
          ms.v0 = spin::emul::kOsfSelect;
          kernel.Syscall(strand);
          ++selects_issued;
        } else {
          static const char kPixels[128] = {1};
          ms.v0 = spin::emul::kOsfWrite;
          ms.a[0] = fb_fd;
          ms.a[1] = reinterpret_cast<int64_t>(kPixels);
          ms.a[2] = sizeof(kPixels);
          kernel.Syscall(strand);
        }
        ++syscalls_issued;
        return syscalls_issued < kTargetSyscalls;
      },
      &xspace);
  (void)xstrand;

  // A background strand (window manager etc.) supplies the other half of
  // the scheduling load without issuing syscalls.
  int background_quanta = 0;
  kernel.CreateStrand("background", [&](spin::Strand&) {
    return ++background_quanta < kTargetSyscalls;
  });

  // --- Drive the workload: stream pages, deliver packets, run strands. ---
  std::string segment(kSegmentBytes, 'P');
  int control_sent = 0;
  for (int page = 0; page < kPages; ++page) {
    for (int chunk = 0; chunk < kSegmentsPerPage; ++chunk) {
      gv.Send(segment);
    }
    if (control_sent < kUdpControlPackets) {
      ns_client.SendTo(spinbox.ip(), 111, "whoami");
      ++control_sent;
    }
    sim.Run();
    kernel.RunUntilIdle((kTargetSyscalls * 2) / kPages);
  }
  // Pad the UDP count to the paper's 24 and drain everything.
  while (control_sent < kUdpControlPackets) {
    ns_client.SendTo(spinbox.ip(), 111, "whoami");
    ++control_sent;
  }
  sim.Run();
  kernel.RunUntilIdle();
  for (int32_t port : {6000, 6001, 6010}) {
    osfnet.UnregisterPort(port);
  }

  uint64_t wall_ns = spin::NowNs() - wall_start;

  // --- Report: the Table 3 rows. ------------------------------------------
  std::printf("Table 3: major events raised while previewing a document\n");
  std::printf("(25 pages, %zu bytes of page images streamed over TCP)\n\n",
              framebuffer.size());
  std::vector<const spin::EventBase*> rows = {
      &spinbox.EtherPacketArrived, &spinbox.IpPacketArrived,
      &spinbox.UdpPacketArrived,   &spinbox.TcpPacketArrived,
      &osfnet.DelTcpPortHandler,   &osfnet.AddTcpPortHandler,
      &kernel.MachineTrapSyscall,  &kernel.StrandRun,
      &osf.EventNotify,
  };
  spin::profile::Profiler::PrintTable(std::cout, profiler.SnapshotOf(rows));

  std::printf("\npaper's counts for the same rows: 2536, 2529, 24, 2505, "
              "3, 3, 3976, 7936, 595\n");
  Rule();

  // --- The §3.2 time breakdown. --------------------------------------------
  double total_s = static_cast<double>(wall_ns) / 1e9;
  uint64_t raises = 0;
  for (const auto& profile : profiler.Snapshot()) {
    raises += profile.raised;
  }
  // Top-level event handling time (nested raises would double-count:
  // Ether's time already contains Ip's, which contains Udp/Tcp's; the
  // syscall time contains the VFS events').
  double top_s = 0;
  for (const spin::EventBase* event :
       std::initializer_list<const spin::EventBase*>{
           &spinbox.EtherPacketArrived, &kernel.MachineTrapSyscall,
           &kernel.StrandRun, &osfnet.AddTcpPortHandler,
           &osfnet.DelTcpPortHandler}) {
    top_s += static_cast<double>(event->raise_ns()) / 1e9;
  }
  // Pure dispatch overhead estimate: the Table 1 single-guarded-handler
  // dispatch cost times the number of raises.
  const double kDispatchNs = 30.0;
  double dispatch_s = static_cast<double>(raises) * kDispatchNs / 1e9;
  std::printf("workload wall time:                %8.3f s "
              "(paper: 23.5 s, mostly idle + X11 rendering)\n",
              total_s);
  std::printf("top-level event handling time:     %8.3f s (%.1f%% of wall)\n",
              top_s, top_s / total_s * 100.0);
  std::printf("events raised:                     %8llu\n",
              static_cast<unsigned long long>(raises));
  std::printf("est. pure dispatch overhead:       %8.4f s (%.1f%% of wall; "
              "paper: 0.12 s = 0.5%% of total, 1.7%% of kernel time)\n",
              dispatch_s, dispatch_s / total_s * 100.0);
  return 0;
}
