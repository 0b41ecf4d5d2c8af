// Tests for outbound interposition and the transparent compression
// extension (§1's "add compression to network protocols").
#include <gtest/gtest.h>

#include "src/net/compress.h"
#include "src/net/host.h"
#include "src/net/tcp.h"
#include "src/sim/simulator.h"
#include "tests/eager_config.h"

namespace spin {
namespace net {
namespace {

class CompressTest : public ::testing::Test {
 protected:
  CompressTest() { wire_.Attach(a_, b_); }

  Dispatcher dispatcher_{EagerConfig()};
  sim::Simulator sim_;
  Wire wire_{&sim_, sim::LinkModel{}};
  Host a_{"a", 0x0a000001, &dispatcher_};
  Host b_{"b", 0x0a000002, &dispatcher_};
};

TEST(RleTest, RoundTrips) {
  const std::string cases[] = {
      "aaaaaaaaaaaaaaaabbbbbbbbcc",
      std::string(1000, 'x'),
      "ab",
      std::string(255, 'r') + std::string(300, 's'),
  };
  for (const std::string& input : cases) {
    uint8_t compressed[2048];
    uint8_t restored[2048];
    size_t c = RleCompress(reinterpret_cast<const uint8_t*>(input.data()),
                           input.size(), compressed, sizeof(compressed));
    if (c == 0) {
      continue;  // incompressible input: pass-through case
    }
    size_t r = RleDecompress(compressed, c, restored, sizeof(restored));
    ASSERT_EQ(r, input.size());
    EXPECT_EQ(std::string(reinterpret_cast<char*>(restored), r), input);
  }
}

TEST(RleTest, IncompressibleReturnsZero) {
  std::string random;
  for (int i = 0; i < 100; ++i) {
    random.push_back(static_cast<char>(i * 37 + 11));
  }
  uint8_t out[2048];
  EXPECT_EQ(RleCompress(reinterpret_cast<const uint8_t*>(random.data()),
                        random.size(), out, sizeof(out)),
            0u);
}

TEST(RleTest, MalformedDecompressRejected) {
  uint8_t bad_odd[3] = {2, 'a', 1};
  uint8_t out[64];
  EXPECT_EQ(RleDecompress(bad_odd, 3, out, sizeof(out)), 0u);
  uint8_t bad_zero_run[2] = {0, 'a'};
  EXPECT_EQ(RleDecompress(bad_zero_run, 2, out, sizeof(out)), 0u);
  uint8_t overflow[2] = {255, 'a'};
  EXPECT_EQ(RleDecompress(overflow, 2, out, 10), 0u);
}

TEST_F(CompressTest, TransparentEndToEnd) {
  CompressionExtension compression(a_, b_);
  std::string received;
  UdpSocket receiver(b_, 2222, [&](const Packet& packet) {
    received = packet.UdpPayload();
  });
  UdpSocket sender(a_, 1111, nullptr);

  std::string page(900, 'Q');  // highly compressible
  sender.SendTo(b_.ip(), 2222, page);
  sim_.Run();
  EXPECT_EQ(received, page) << "sockets must be unaware of the compression";
  EXPECT_EQ(compression.compressed(), 1u);
  EXPECT_EQ(compression.decompressed(), 1u);
  EXPECT_GT(compression.bytes_saved(), 800u);
  // The wire must have carried the short form.
  EXPECT_LT(wire_.bytes_carried(), 200u);
}

TEST_F(CompressTest, IncompressibleTrafficPassesThrough) {
  CompressionExtension compression(a_, b_);
  std::string payload;
  for (int i = 0; i < 200; ++i) {
    payload.push_back(static_cast<char>(i * 131 + 7));
  }
  std::string received;
  UdpSocket receiver(b_, 2222, [&](const Packet& packet) {
    received = packet.UdpPayload();
  });
  UdpSocket sender(a_, 1111, nullptr);
  sender.SendTo(b_.ip(), 2222, payload);
  sim_.Run();
  EXPECT_EQ(received, payload);
  EXPECT_EQ(compression.compressed(), 0u);
  EXPECT_EQ(compression.decompressed(), 0u);
}

TEST_F(CompressTest, UninstallRestoresPlainTraffic) {
  {
    CompressionExtension compression(a_, b_);
  }
  std::string received;
  UdpSocket receiver(b_, 2222, [&](const Packet& packet) {
    received = packet.UdpPayload();
  });
  UdpSocket sender(a_, 1111, nullptr);
  std::string page(500, 'Z');
  sender.SendTo(b_.ip(), 2222, page);
  sim_.Run();
  EXPECT_EQ(received, page);
  EXPECT_GT(wire_.bytes_carried(), 500u) << "no compression after removal";
}

TEST_F(CompressTest, FailedConstructionLeavesNothingBehind) {
  // Room for the bare compressor but not for the guarded decompressor as
  // well: the second install fails the quota, and the constructor must take
  // back the first, whose closure is the extension that never finished
  // constructing.
  const size_t limit = dispatcher_.quota().limit();
  dispatcher_.quota().SetLimit(sizeof(Binding) * 3 / 2);
  const size_t sends = a_.EtherPacketSend.handler_count();
  try {
    CompressionExtension compression(a_, b_);
    FAIL() << "expected InstallError";
  } catch (const InstallError& e) {
    EXPECT_EQ(e.status(), InstallStatus::kQuotaExceeded);
  }
  EXPECT_EQ(a_.EtherPacketSend.handler_count(), sends);
  dispatcher_.quota().SetLimit(limit);

  // Nothing calls into the destroyed extension: traffic passes plain.
  std::string received;
  UdpSocket receiver(b_, 2222, [&](const Packet& packet) {
    received = packet.UdpPayload();
  });
  UdpSocket sender(a_, 1111, nullptr);
  std::string page(500, 'Z');
  sender.SendTo(b_.ip(), 2222, page);
  sim_.Run();
  EXPECT_EQ(received, page);
}

TEST_F(CompressTest, TcpStreamCompressedTransparently) {
  CompressionExtension compression(a_, b_);
  TcpEndpoint server(b_, 80);
  std::string delivered;
  server.Listen([&](const std::string& chunk) { delivered += chunk; });
  TcpEndpoint client(a_, 5555);
  client.Connect(b_.ip(), 80, nullptr);
  sim_.Run();
  ASSERT_TRUE(client.established());
  // A run-heavy payload shrinks on the wire but arrives byte-identical:
  // the extension transforms below the endpoint, so sequence numbers and
  // ACKs never see the compressed form.
  std::string page(4000, 'G');
  client.Send(page);
  sim_.Run();
  EXPECT_EQ(delivered, page);
  EXPECT_GT(compression.compressed(), 0u);
  EXPECT_EQ(compression.decompressed(), compression.compressed());
}

// --- Outbound policy via imposed guards -----------------------------------

struct PortPolicy {
  uint16_t blocked_port;
};

bool OutboundFirewall(PortPolicy* policy, Packet* packet) {
  return packet->dst_port() != policy->blocked_port;
}

TEST_F(CompressTest, ImposedGuardFirewallsOutboundTraffic) {
  PortPolicy policy{4444};
  dispatcher_.ImposeGuard(a_.EtherPacketSend, a_.transmit_binding(),
                          &OutboundFirewall, &policy);
  int delivered = 0;
  UdpSocket open_receiver(b_, 2222, [&](const Packet&) { ++delivered; });
  UdpSocket blocked_receiver(b_, 4444, [&](const Packet&) { ++delivered; });
  UdpSocket sender(a_, 1111, nullptr);
  sender.SendTo(b_.ip(), 2222, "ok");
  sender.SendTo(b_.ip(), 4444, "blocked");
  sim_.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(a_.tx_dropped_packets(), 1u);
  EXPECT_EQ(b_.rx_packets(), 1u);
}

}  // namespace
}  // namespace net
}  // namespace spin
