#include "src/net/compress.h"

#include <cstring>

#include "src/micro/program.h"

namespace spin {
namespace net {

size_t RleCompress(const uint8_t* in, size_t n, uint8_t* out, size_t cap) {
  size_t o = 0;
  size_t i = 0;
  while (i < n) {
    uint8_t byte = in[i];
    size_t run = 1;
    while (i + run < n && in[i + run] == byte && run < 255) {
      ++run;
    }
    if (o + 2 > cap) {
      return 0;
    }
    out[o++] = static_cast<uint8_t>(run);
    out[o++] = byte;
    i += run;
  }
  return o < n ? o : 0;  // only worthwhile when it shrinks
}

size_t RleDecompress(const uint8_t* in, size_t n, uint8_t* out, size_t cap) {
  if (n % 2 != 0) {
    return 0;
  }
  size_t o = 0;
  for (size_t i = 0; i < n; i += 2) {
    size_t run = in[i];
    if (run == 0 || o + run > cap) {
      return 0;
    }
    std::memset(out + o, in[i + 1], run);
    o += run;
  }
  return o;
}

CompressionExtension::CompressionExtension(Host& sender, Host& receiver)
    : sender_(sender), receiver_(receiver) {
  compress_binding_ = sender_.dispatcher().InstallHandler(
      sender_.EtherPacketSend, &CompressionExtension::Compress, this,
      {.order = {OrderKind::kFirst}, .module = &module_});
  // Only marked frames reach the decompressor: an inlinable one-byte guard
  // on the TOS marker.
  decompress_binding_ = receiver_.dispatcher().InstallHandler(
      receiver_.EtherPacketArrived, &CompressionExtension::Decompress, this,
      {.order = {OrderKind::kFirst},
       .guards = {MakeMicroGuard(micro::GuardArgFieldEq(
           /*num_args=*/1, /*arg=*/0, kIpTosOff, /*width=*/1, ~0ull,
           kCompressedTos))},
       .module = &module_});
}

CompressionExtension::~CompressionExtension() {
  if (compress_binding_ != nullptr && compress_binding_->active.load()) {
    sender_.dispatcher().Uninstall(compress_binding_, &module_);
  }
  if (decompress_binding_ != nullptr &&
      decompress_binding_->active.load()) {
    receiver_.dispatcher().Uninstall(decompress_binding_, &module_);
  }
}

namespace {

// L4 payload offset for the protocols the codec understands; 0 for
// anything else (left untouched).
size_t PayloadOffset(const Packet& packet) {
  switch (packet.ip_proto()) {
    case kIpProtoUdp:
      return kUdpPayloadOff;
    case kIpProtoTcp:
      return kTcpPayloadOff;
    default:
      return 0;
  }
}

}  // namespace

bool CompressionExtension::Compress(CompressionExtension* ext,
                                    Packet* packet) {
  size_t payload_off = PayloadOffset(*packet);
  if (payload_off == 0 || packet->len <= payload_off + 16) {
    return true;  // not worth it; pass through untouched
  }
  uint8_t scratch[kMaxFrame];
  size_t payload_len = packet->len - payload_off;
  size_t compressed_len = RleCompress(packet->data + payload_off,
                                      payload_len, scratch,
                                      sizeof(scratch));
  if (compressed_len == 0) {
    return true;  // incompressible
  }
  std::memcpy(packet->data + payload_off, scratch, compressed_len);
  packet->len = static_cast<uint32_t>(payload_off + compressed_len);
  packet->data[kIpTosOff] = kCompressedTos;
  StampIpChecksum(*packet);  // the TOS marker changed the header
  if (packet->ip_proto() == kIpProtoUdp) {
    packet->Put16(kUdpLenOff, static_cast<uint16_t>(8 + compressed_len));
    StampUdpChecksum(*packet);  // the payload bytes changed too
  }
  ++ext->compressed_;
  ext->bytes_saved_ += payload_len - compressed_len;
  return true;
}

bool CompressionExtension::Decompress(CompressionExtension* ext,
                                      Packet* packet) {
  size_t payload_off = PayloadOffset(*packet);
  if (payload_off == 0 || packet->len < payload_off) {
    return false;  // marked frame with no decodable payload: drop
  }
  uint8_t scratch[kMaxFrame];
  size_t compressed_len = packet->len - payload_off;
  size_t payload_len = RleDecompress(packet->data + payload_off,
                                     compressed_len, scratch,
                                     kMaxFrame - payload_off);
  if (payload_len == 0) {
    return false;  // malformed; let the stack drop it
  }
  std::memcpy(packet->data + payload_off, scratch, payload_len);
  packet->len = static_cast<uint32_t>(payload_off + payload_len);
  packet->data[kIpTosOff] = 0;  // restore the original header
  StampIpChecksum(*packet);
  if (packet->ip_proto() == kIpProtoUdp) {
    packet->Put16(kUdpLenOff, static_cast<uint16_t>(8 + payload_len));
    StampUdpChecksum(*packet);
  }
  ++ext->decompressed_;
  return false;  // transformed, not consumed: the IP layer still runs
}

}  // namespace net
}  // namespace spin
