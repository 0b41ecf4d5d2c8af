// Network substrate tests: the guard-demultiplexed protocol stack of §3.2.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "src/net/host.h"
#include "src/net/tcp.h"
#include "src/obs/export.h"
#include "src/sim/simulator.h"
#include "tests/eager_config.h"

namespace spin {
namespace net {
namespace {

class NetTest : public ::testing::Test {
 protected:
  NetTest() {
    wire_.Attach(a_, b_);
  }

  Dispatcher dispatcher_{EagerConfig()};
  sim::Simulator sim_;
  net::Wire wire_{&sim_, sim::LinkModel{}};
  Host a_{"hostA", 0x0a000001, &dispatcher_};
  Host b_{"hostB", 0x0a000002, &dispatcher_};
};

TEST_F(NetTest, PacketCodecRoundTrip) {
  Packet p = MakeUdpPacket(0x0a000001, 0x0a000002, 1111, 2222, "hello");
  EXPECT_EQ(p.ether_type(), kEtherTypeIp);
  EXPECT_EQ(p.ip_proto(), kIpProtoUdp);
  EXPECT_EQ(p.ip_src(), 0x0a000001u);
  EXPECT_EQ(p.ip_dst(), 0x0a000002u);
  EXPECT_EQ(p.src_port(), 1111);
  EXPECT_EQ(p.dst_port(), 2222);
  EXPECT_EQ(p.UdpPayload(), "hello");
}

TEST_F(NetTest, UdpDeliveryThroughEventChain) {
  std::string got;
  UdpSocket receiver(b_, 2222, [&](const Packet& p) {
    got = p.UdpPayload();
  });
  UdpSocket sender(a_, 1111, nullptr);
  sender.SendTo(b_.ip(), 2222, "ping");
  sim_.Run();
  EXPECT_EQ(got, "ping");
  EXPECT_EQ(b_.rx_packets(), 1u);
  EXPECT_EQ(b_.dropped_packets(), 0u);
}

TEST_F(NetTest, PortGuardsDiscriminate) {
  // Three sockets; only the matching port's handler fires (Table 2's
  // one-active-endpoint setup).
  int hits_1 = 0;
  int hits_2 = 0;
  int hits_3 = 0;
  UdpSocket s1(b_, 1000, [&](const Packet&) { ++hits_1; });
  UdpSocket s2(b_, 2000, [&](const Packet&) { ++hits_2; });
  UdpSocket s3(b_, 3000, [&](const Packet&) { ++hits_3; });
  UdpSocket sender(a_, 99, nullptr);
  sender.SendTo(b_.ip(), 2000, "x");
  sender.SendTo(b_.ip(), 2000, "y");
  sender.SendTo(b_.ip(), 3000, "z");
  sim_.Run();
  EXPECT_EQ(hits_1, 0);
  EXPECT_EQ(hits_2, 2);
  EXPECT_EQ(hits_3, 1);
}

TEST_F(NetTest, UnclaimedPortIsDropped) {
  UdpSocket sender(a_, 99, nullptr);
  sender.SendTo(b_.ip(), 4444, "nobody home");
  sim_.Run();
  EXPECT_EQ(b_.dropped_packets(), 1u);
}

TEST_F(NetTest, SocketDestructorUninstallsGuard) {
  int hits = 0;
  {
    UdpSocket receiver(b_, 2222, [&](const Packet&) { ++hits; });
    UdpSocket sender(a_, 1, nullptr);
    sender.SendTo(b_.ip(), 2222, "one");
    sim_.Run();
  }
  UdpSocket sender(a_, 1, nullptr);
  sender.SendTo(b_.ip(), 2222, "two");
  sim_.Run();
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(b_.dropped_packets(), 1u);
}

TEST_F(NetTest, WireTimingModel) {
  sim::LinkModel model;  // 10 Mb/s
  // An 8-byte-payload UDP frame is 50 bytes: 40 us serialization at
  // 10 Mb/s plus propagation.
  Packet p = MakeUdpPacket(1, 2, 1, 2, "12345678");
  EXPECT_EQ(p.len, 50u);
  EXPECT_EQ(model.SerializationNs(p.len), 40'000u);
  UdpSocket receiver(b_, 2, nullptr);
  UdpSocket sender(a_, 1, nullptr);
  uint64_t before = sim_.now_ns();
  sender.SendTo(b_.ip(), 2, "12345678");
  sim_.Run();
  EXPECT_EQ(sim_.now_ns() - before, model.TransferNs(50));
}

TEST_F(NetTest, GuardsAreInlinedIntoGeneratedDispatch) {
  if (!codegen::CodegenAvailable()) {
    GTEST_SKIP();
  }
  // The port guards are micro-programs; with several sockets installed the
  // dispatcher must still use a generated stub (not fall back to the
  // interpreter).
  UdpSocket s1(b_, 1000, nullptr);
  UdpSocket s2(b_, 2000, nullptr);
  Dispatcher::Stats stats = dispatcher_.stats();
  EXPECT_GT(stats.stub_compiles, 0u);
}

// --- TCP -------------------------------------------------------------------

TEST_F(NetTest, TcpHandshakeAndData) {
  std::string received;
  TcpEndpoint server(b_, 80);
  server.Listen([&](const std::string& data) { received += data; });
  TcpEndpoint client(a_, 5555);
  client.Connect(b_.ip(), 80, nullptr);
  sim_.Run();
  ASSERT_TRUE(client.established());
  ASSERT_TRUE(server.established());

  client.Send("GET /paper.ps");
  sim_.Run();
  EXPECT_EQ(received, "GET /paper.ps");
  EXPECT_EQ(server.bytes_received(), 13u);
}

TEST_F(NetTest, TcpSegmentsLargeStream) {
  std::string received;
  TcpEndpoint server(b_, 80);
  server.Listen([&](const std::string& data) { received += data; });
  TcpEndpoint client(a_, 5555);
  client.Connect(b_.ip(), 80, nullptr);
  sim_.Run();

  std::string page(100 * 1024, 'P');  // a "page image"
  client.Send(page);
  sim_.Run();
  EXPECT_EQ(received.size(), page.size());
  EXPECT_EQ(received, page);
  // Each data segment triggers a pure ACK back.
  size_t segments = (page.size() + kTcpMss - 1) / kTcpMss;
  EXPECT_GE(client.segments_received(), segments);
}

TEST_F(NetTest, TcpClose) {
  TcpEndpoint server(b_, 80);
  server.Listen(nullptr);
  TcpEndpoint client(a_, 5555);
  client.Connect(b_.ip(), 80, nullptr);
  sim_.Run();
  client.Close();
  sim_.Run();
  EXPECT_EQ(server.state(), TcpEndpoint::State::kCloseWait);
}

TEST_F(NetTest, BidirectionalTcp) {
  std::string at_server;
  std::string at_client;
  TcpEndpoint server(b_, 80);
  server.Listen([&](const std::string& d) { at_server += d; });
  TcpEndpoint client(a_, 5555);
  client.Connect(b_.ip(), 80, [&](const std::string& d) { at_client += d; });
  sim_.Run();
  client.Send("request");
  sim_.Run();
  server.Send("response");
  sim_.Run();
  EXPECT_EQ(at_server, "request");
  EXPECT_EQ(at_client, "response");
}


TEST_F(NetTest, IpChecksumStampedAndVerified) {
  Packet p = MakeUdpPacket(0x0a000001, 0x0a000002, 1, 2, "x");
  EXPECT_TRUE(VerifyIpChecksum(p));
  // Header mutation without restamping must be detectable.
  p.data[kIpProtoOff] = 99;
  EXPECT_FALSE(VerifyIpChecksum(p));
  StampIpChecksum(p);
  EXPECT_TRUE(VerifyIpChecksum(p));
}

TEST_F(NetTest, CorruptedHeaderDroppedByIpInput) {
  int hits = 0;
  UdpSocket receiver(b_, 2222, [&](const Packet&) { ++hits; });
  Packet p = MakeUdpPacket(a_.ip(), b_.ip(), 1111, 2222, "payload");
  p.data[kIpSrcOff] ^= 0xff;  // corrupt after checksum stamping
  b_.Receive(p);
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(b_.checksum_drops(), 1u);
  // An intact packet still flows.
  b_.Receive(MakeUdpPacket(a_.ip(), b_.ip(), 1111, 2222, "payload"));
  EXPECT_EQ(hits, 1);
}


// --- Loss and retransmission (failure injection) ----------------------------

TEST_F(NetTest, LossyWireDropsFrames) {
  wire_.SetLossPattern(3);  // every 3rd frame vanishes
  UdpSocket receiver(b_, 2222, nullptr);
  UdpSocket sender(a_, 1111, nullptr);
  for (int i = 0; i < 9; ++i) {
    sender.SendTo(b_.ip(), 2222, "x");
  }
  sim_.Run();
  EXPECT_EQ(wire_.frames_lost(), 3u);
  EXPECT_EQ(b_.rx_packets(), 6u);
}

TEST_F(NetTest, TcpRetransmitsThroughLoss) {
  std::string received;
  TcpEndpoint server(b_, 80);
  server.Listen([&](const std::string& data) { received += data; });
  TcpEndpoint client(a_, 5555);
  client.Connect(b_.ip(), 80, nullptr);
  sim_.Run();
  ASSERT_TRUE(client.established());

  client.EnableRetransmit(&sim_, /*timeout_ns=*/50'000'000);
  wire_.SetLossPattern(7);  // drop every 7th frame (data and ACKs alike)
  std::string page(64 * 1024, 'R');
  client.Send(page);
  sim_.Run();

  EXPECT_EQ(received.size(), page.size())
      << "go-back-N must deliver the full stream despite loss";
  EXPECT_EQ(received, page);
  EXPECT_GT(client.retransmissions(), 0u);
  EXPECT_GT(wire_.frames_lost(), 0u);
}

TEST_F(NetTest, UdpChecksumStampedAndVerified) {
  Packet p = MakeUdpPacket(0x0a000001, 0x0a000002, 1, 2, "payload");
  EXPECT_TRUE(VerifyUdpChecksum(p));
  // Payload corruption the IP header checksum cannot see.
  p.data[kUdpPayloadOff] ^= 0xff;
  EXPECT_FALSE(VerifyUdpChecksum(p));
  StampUdpChecksum(p);
  EXPECT_TRUE(VerifyUdpChecksum(p));
  // A zero checksum field means "no checksum supplied" (RFC 768).
  p.Put16(kUdpChecksumOff, 0);
  EXPECT_TRUE(VerifyUdpChecksum(p));
}

TEST_F(NetTest, CorruptedPayloadDroppedByUdpInput) {
  int hits = 0;
  UdpSocket receiver(b_, 2222, [&](const Packet&) { ++hits; });
  Packet p = MakeUdpPacket(a_.ip(), b_.ip(), 1111, 2222, "payload");
  p.data[p.len - 1] ^= 0xff;  // flip a payload byte; IP header still valid
  b_.Receive(p);
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(b_.udp_checksum_drops(), 1u);
  EXPECT_EQ(b_.checksum_drops(), 0u);  // the IP layer saw nothing wrong
  b_.Receive(MakeUdpPacket(a_.ip(), b_.ip(), 1111, 2222, "payload"));
  EXPECT_EQ(hits, 1);

  // The drop is visible as a metric, not just a counter.
  std::ostringstream os;
  obs::ExportMetrics(os);
  EXPECT_NE(os.str().find("spin_net_udp_checksum_drops_total{host=\"hostB\""
                          "} 1"),
            std::string::npos);
}

TEST_F(NetTest, SeededRandomLossIsDeterministic) {
  auto run = [this](uint64_t seed) {
    sim::Simulator sim;
    Wire wire(&sim, sim::LinkModel{});
    Host a("lossA", 0x0a000011, &dispatcher_);
    Host b("lossB", 0x0a000012, &dispatcher_);
    wire.Attach(a, b);
    wire.SetRandomLoss(0.3, seed);
    UdpSocket receiver(b, 2222, nullptr);
    UdpSocket sender(a, 1111, nullptr);
    // Per-frame delivery pattern, not just the totals.
    std::vector<bool> delivered;
    uint64_t seen = 0;
    for (int i = 0; i < 64; ++i) {
      sender.SendTo(b.ip(), 2222, "x");
      sim.Run();
      delivered.push_back(b.rx_packets() > seen);
      seen = b.rx_packets();
    }
    return delivered;
  };
  std::vector<bool> first = run(42);
  EXPECT_EQ(first, run(42)) << "same seed must replay the same drops";
  EXPECT_NE(first, run(43));
  size_t drops = std::count(first.begin(), first.end(), false);
  EXPECT_GT(drops, 0u);
  EXPECT_LT(drops, 64u);
}

TEST_F(NetTest, PartitionWindowDropsEverything) {
  UdpSocket receiver(b_, 2222, nullptr);
  UdpSocket sender(a_, 1111, nullptr);
  sender.SendTo(b_.ip(), 2222, "before");
  sim_.Run();
  EXPECT_EQ(b_.rx_packets(), 1u);

  wire_.SetPartition(sim_.now_ns(), sim_.now_ns() + 1'000'000);
  sender.SendTo(b_.ip(), 2222, "during");
  sim_.Run();
  EXPECT_EQ(b_.rx_packets(), 1u);
  EXPECT_EQ(wire_.frames_lost(), 1u);

  wire_.SetPartition(0, 0);  // heal
  sender.SendTo(b_.ip(), 2222, "after");
  sim_.Run();
  EXPECT_EQ(b_.rx_packets(), 2u);
}

TEST_F(NetTest, DropHookSelectsFrames) {
  std::string got;
  UdpSocket receiver(b_, 2222, [&](const Packet& p) {
    got += p.UdpPayload();
  });
  UdpSocket sender(a_, 1111, nullptr);
  wire_.SetDropHook([](const Packet& p, uint64_t, uint64_t) {
    return p.ip_proto() == kIpProtoUdp && p.UdpPayload() == "drop";
  });
  sender.SendTo(b_.ip(), 2222, "keep1");
  sender.SendTo(b_.ip(), 2222, "drop");
  sender.SendTo(b_.ip(), 2222, "keep2");
  sim_.Run();
  EXPECT_EQ(got, "keep1keep2");
  EXPECT_EQ(wire_.frames_lost(), 1u);
}

TEST_F(NetTest, TcpRetransmitsThroughSeededRandomLoss) {
  std::string received;
  TcpEndpoint server(b_, 80);
  server.Listen([&](const std::string& data) { received += data; });
  TcpEndpoint client(a_, 5555);
  client.Connect(b_.ip(), 80, nullptr);
  sim_.Run();
  ASSERT_TRUE(client.established());

  client.EnableRetransmit(&sim_, /*timeout_ns=*/50'000'000);
  wire_.SetRandomLoss(0.05, /*seed=*/99);
  std::string page(64 * 1024, 'S');
  client.Send(page);
  sim_.Run();

  EXPECT_EQ(received, page)
      << "go-back-N must deliver the stream through random loss";
  EXPECT_GT(client.retransmissions(), 0u);
  EXPECT_GT(wire_.frames_lost(), 0u);
}

TEST_F(NetTest, NoRetransmissionsOnCleanWire) {
  std::string received;
  TcpEndpoint server(b_, 80);
  server.Listen([&](const std::string& data) { received += data; });
  TcpEndpoint client(a_, 5555);
  client.Connect(b_.ip(), 80, nullptr);
  sim_.Run();
  client.EnableRetransmit(&sim_, 50'000'000);
  client.Send(std::string(10 * 1024, 'C'));
  sim_.Run();
  EXPECT_EQ(received.size(), 10u * 1024);
  EXPECT_EQ(client.retransmissions(), 0u);
}

// --- Input-path hardening (forged and mis-sequenced segments) --------------

TEST_F(NetTest, StraySynAckOutsideSynSentIgnored) {
  std::string received;
  TcpEndpoint server(b_, 80);
  server.Listen([&](const std::string& data) { received += data; });
  TcpEndpoint client(a_, 5555);
  client.Connect(b_.ip(), 80, nullptr);
  sim_.Run();
  ASSERT_TRUE(server.established());

  // A SYN+ACK at a bogus sequence arriving on an established connection
  // must not reset rcv_next or bounce the state machine.
  b_.Receive(MakeTcpPacket(a_.ip(), b_.ip(), 5555, 80, /*seq=*/99999,
                           /*ack=*/0, kTcpSyn | kTcpAckFlag, ""));
  EXPECT_TRUE(server.established());

  client.Send("still works");
  sim_.Run();
  EXPECT_EQ(received, "still works")
      << "sequencing must be untouched by the stray SYN+ACK";
}

TEST_F(NetTest, StraySynOutsideListenIgnored) {
  TcpEndpoint server(b_, 80);
  server.Listen(nullptr);
  TcpEndpoint client(a_, 5555);
  client.Connect(b_.ip(), 80, nullptr);
  sim_.Run();
  ASSERT_TRUE(client.established());

  // A forged SYN against the established *client* must not restart a
  // passive open on it.
  a_.Receive(MakeTcpPacket(b_.ip(), a_.ip(), 80, 5555, /*seq=*/777,
                           /*ack=*/0, kTcpSyn, ""));
  EXPECT_TRUE(client.established());

  std::string received;
  server.Listen([&](const std::string& data) { received += data; });
  client.Send("after stray syn");
  sim_.Run();
  EXPECT_EQ(received, "after stray syn");
}

TEST_F(NetTest, ReorderedFinDoesNotSkipUndeliveredData) {
  std::string received;
  TcpEndpoint server(b_, 80);
  server.Listen([&](const std::string& data) { received += data; });
  TcpEndpoint client(a_, 5555);
  client.Connect(b_.ip(), 80, nullptr);
  sim_.Run();
  ASSERT_TRUE(server.established());

  // A FIN sequenced past data still outstanding (as if the data frames
  // were lost or reordered behind it) must not advance rcv_next.
  uint32_t premature_seq = 1001 + 500;  // client ISS+1 plus skipped bytes
  b_.Receive(MakeTcpPacket(a_.ip(), b_.ip(), 5555, 80, premature_seq,
                           /*ack=*/0, kTcpFin | kTcpAckFlag, ""));
  EXPECT_TRUE(server.established())
      << "a mis-sequenced FIN must not close the connection";

  client.Send("the real bytes");
  sim_.Run();
  EXPECT_EQ(received, "the real bytes");
  client.Close();
  sim_.Run();
  EXPECT_EQ(server.state(), TcpEndpoint::State::kCloseWait)
      << "the in-order FIN still closes normally";
}

TEST_F(NetTest, SimultaneousClose) {
  TcpEndpoint server(b_, 80);
  server.Listen(nullptr);
  TcpEndpoint client(a_, 5555);
  client.Connect(b_.ip(), 80, nullptr);
  sim_.Run();
  ASSERT_TRUE(client.established());
  ASSERT_TRUE(server.established());

  // Both sides close before either FIN has crossed the wire: the FINs
  // pass each other, each lands in kFinWait, and both sides finish.
  client.Close();
  server.Close();
  sim_.Run();
  EXPECT_EQ(client.state(), TcpEndpoint::State::kClosed);
  EXPECT_EQ(server.state(), TcpEndpoint::State::kClosed);
}

TEST_F(NetTest, DataArrivingInSynReceivedCompletesHandshake) {
  std::string received;
  TcpEndpoint server(b_, 80);
  server.Listen([&](const std::string& data) { received += data; });
  TcpEndpoint client(a_, 5555);

  // Drop the client's bare handshake ACK (frame 3): the server stays in
  // kSynReceived until the first data segment (which also carries ACK)
  // arrives and completes the handshake.
  int frames = 0;
  wire_.SetDropHook([&frames](const Packet&, uint64_t, uint64_t) {
    return ++frames == 3;
  });
  client.Connect(b_.ip(), 80, nullptr);
  sim_.Run();
  ASSERT_TRUE(client.established());
  ASSERT_EQ(server.state(), TcpEndpoint::State::kSynReceived);

  client.Send("data as ack");
  sim_.Run();
  EXPECT_TRUE(server.established());
  EXPECT_EQ(received, "data as ack");
}

TEST_F(NetTest, DuplicateSynReanswersWithSynAck) {
  TcpEndpoint server(b_, 80);
  server.Listen(nullptr);
  TcpEndpoint client(a_, 5555);
  client.UseStack(&sim_, "stop_and_wait", /*rto_ns=*/10'000'000);

  // Drop the server's first SYN+ACK (frame 2): the client's handshake
  // timer retransmits its SYN, and the server — already in kSynReceived —
  // must answer the duplicate with a fresh SYN+ACK, not a new ISS.
  int frames = 0;
  wire_.SetDropHook([&frames](const Packet&, uint64_t, uint64_t) {
    return ++frames == 2;
  });
  client.Connect(b_.ip(), 80, nullptr);
  sim_.Run();
  EXPECT_TRUE(client.established());
  EXPECT_TRUE(server.established());
  EXPECT_GT(client.retransmissions() + server.retransmissions(), 0u);
}

TEST_F(NetTest, DeliveryOrderPreservedUnderSeededLoss) {
  std::string received;
  TcpEndpoint server(b_, 80);
  server.Listen([&](const std::string& data) { received += data; });
  TcpEndpoint client(a_, 5555);
  client.UseStack(&sim_, "reno", /*rto_ns=*/50'000'000);
  client.Connect(b_.ip(), 80, nullptr);
  sim_.Run();
  ASSERT_TRUE(client.established());

  wire_.SetRandomLoss(0.05, /*seed=*/4242);
  // Position-derived bytes: any drop, duplicate, or reorder in the
  // delivered stream breaks the exact-match below.
  std::string page(128 * 1024, '\0');
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<char>('0' + i % 71);
  }
  client.Send(page);
  sim_.Run();
  ASSERT_EQ(received.size(), page.size());
  EXPECT_EQ(received, page);
  EXPECT_GT(wire_.frames_lost(), 0u);
}

}  // namespace
}  // namespace net
}  // namespace spin
