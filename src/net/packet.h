// Packets and header codecs (Ethernet / IPv4 / UDP / TCP).
//
// Headers live at fixed offsets in the raw frame so that micro-program
// guards can discriminate on them directly ("guards may discriminate on
// the UDP or TCP port destination field", §3.2) — the same property SPIN's
// packet-filter-style guards relied on.
#ifndef SRC_NET_PACKET_H_
#define SRC_NET_PACKET_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace spin {
namespace net {

inline constexpr size_t kMaxFrame = 1514;

// Header offsets within the frame.
inline constexpr size_t kEtherDstOff = 0;
inline constexpr size_t kEtherSrcOff = 6;
inline constexpr size_t kEtherTypeOff = 12;
inline constexpr size_t kIpOff = 14;
inline constexpr size_t kIpProtoOff = kIpOff + 9;     // 23
inline constexpr size_t kIpSrcOff = kIpOff + 12;      // 26
inline constexpr size_t kIpDstOff = kIpOff + 16;      // 30
inline constexpr size_t kL4Off = kIpOff + 20;         // 34
inline constexpr size_t kSrcPortOff = kL4Off;         // 34
inline constexpr size_t kDstPortOff = kL4Off + 2;     // 36
inline constexpr size_t kUdpLenOff = kL4Off + 4;      // 38
inline constexpr size_t kUdpPayloadOff = kL4Off + 8;  // 42
inline constexpr size_t kTcpSeqOff = kL4Off + 4;      // 38
inline constexpr size_t kTcpAckOff = kL4Off + 8;      // 42
inline constexpr size_t kTcpFlagsOff = kL4Off + 13;   // 47
inline constexpr size_t kTcpPayloadOff = kL4Off + 20; // 54

inline constexpr uint16_t kEtherTypeIp = 0x0800;
inline constexpr uint8_t kIpProtoUdp = 17;
inline constexpr uint8_t kIpProtoTcp = 6;

// TCP flags.
inline constexpr uint8_t kTcpFin = 0x01;
inline constexpr uint8_t kTcpSyn = 0x02;
inline constexpr uint8_t kTcpAckFlag = 0x10;

// Maximum TCP segment payload per frame.
inline constexpr size_t kTcpMss = 1460;

struct Packet {
  uint8_t data[kMaxFrame] = {};
  uint32_t len = 0;

  // Big-endian field accessors.
  uint16_t Get16(size_t off) const {
    return static_cast<uint16_t>((data[off] << 8) | data[off + 1]);
  }
  void Put16(size_t off, uint16_t v) {
    data[off] = static_cast<uint8_t>(v >> 8);
    data[off + 1] = static_cast<uint8_t>(v);
  }
  uint32_t Get32(size_t off) const {
    return (static_cast<uint32_t>(data[off]) << 24) |
           (static_cast<uint32_t>(data[off + 1]) << 16) |
           (static_cast<uint32_t>(data[off + 2]) << 8) |
           static_cast<uint32_t>(data[off + 3]);
  }
  void Put32(size_t off, uint32_t v) {
    data[off] = static_cast<uint8_t>(v >> 24);
    data[off + 1] = static_cast<uint8_t>(v >> 16);
    data[off + 2] = static_cast<uint8_t>(v >> 8);
    data[off + 3] = static_cast<uint8_t>(v);
  }

  uint16_t ether_type() const { return Get16(kEtherTypeOff); }
  uint8_t ip_proto() const { return data[kIpProtoOff]; }
  uint32_t ip_src() const { return Get32(kIpSrcOff); }
  uint32_t ip_dst() const { return Get32(kIpDstOff); }
  uint16_t src_port() const { return Get16(kSrcPortOff); }
  uint16_t dst_port() const { return Get16(kDstPortOff); }
  uint32_t tcp_seq() const { return Get32(kTcpSeqOff); }
  uint32_t tcp_ack() const { return Get32(kTcpAckOff); }
  uint8_t tcp_flags() const { return data[kTcpFlagsOff]; }

  std::string UdpPayload() const { return std::string(UdpPayloadView()); }
  // The payload in place: valid while the packet is (for a delivered frame,
  // during its raise). Empty for a frame too short to hold a UDP header.
  std::string_view UdpPayloadView() const {
    return len < kUdpPayloadOff
               ? std::string_view()
               : std::string_view(
                     reinterpret_cast<const char*>(data + kUdpPayloadOff),
                     len - kUdpPayloadOff);
  }
  std::string TcpPayload() const {
    return std::string(reinterpret_cast<const char*>(data + kTcpPayloadOff),
                       len - kTcpPayloadOff);
  }
};

// The value a 2-byte little-endian load of a big-endian port field yields;
// micro guards compare against this constant.
inline uint64_t PortFieldValue(uint16_t port) {
  return static_cast<uint64_t>(((port & 0xff) << 8) | (port >> 8));
}

inline constexpr size_t kIpChecksumOff = kIpOff + 10;  // 24
inline constexpr size_t kUdpChecksumOff = kL4Off + 6;  // 40

// RFC 791 ones-complement checksum over the 20-byte IP header.
uint16_t IpHeaderChecksum(const Packet& packet);

// Writes the header checksum (done by the packet builders).
void StampIpChecksum(Packet& packet);

// True when the stored checksum matches the header contents.
bool VerifyIpChecksum(const Packet& packet);

// RFC 768 UDP checksum: ones-complement sum over the pseudo-header
// (source/destination address, protocol, UDP length) and the UDP header +
// payload, with the checksum field taken as zero. A computed value of 0 is
// transmitted as 0xffff so that 0 can keep its RFC meaning of "no checksum
// supplied".
uint16_t UdpChecksum(const Packet& packet);

// Writes the UDP checksum (done by MakeUdpPacket and by any extension that
// rewrites the UDP payload in place, e.g. the compression extension).
void StampUdpChecksum(Packet& packet);

// True when the stored checksum matches the segment contents, or when the
// sender supplied none (field is 0).
bool VerifyUdpChecksum(const Packet& packet);

Packet MakeUdpPacket(uint32_t src_ip, uint32_t dst_ip, uint16_t src_port,
                     uint16_t dst_port, const std::string& payload);

Packet MakeTcpPacket(uint32_t src_ip, uint32_t dst_ip, uint16_t src_port,
                     uint16_t dst_port, uint32_t seq, uint32_t ack,
                     uint8_t flags, const std::string& payload);

}  // namespace net
}  // namespace spin

#endif  // SRC_NET_PACKET_H_
