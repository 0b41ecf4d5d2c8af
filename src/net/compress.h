// Transparent protocol compression (§1: applications may "add compression
// to network protocols").
//
// A pure-extension feature: the compressor interposes on the sending
// host's Ether.PacketSend event (ordered First, ahead of the wire-transmit
// handler); the decompressor interposes on the receiving host's
// Ether.PacketArrived event, gated by an inlinable micro guard on the IP
// TOS marker byte, ahead of the IP input handler. Neither the stack nor
// the sockets change — the composition is forged entirely "from a
// distance" (§2.7).
#ifndef SRC_NET_COMPRESS_H_
#define SRC_NET_COMPRESS_H_

#include <cstddef>
#include <cstdint>

#include "src/net/host.h"

namespace spin {
namespace net {

// TOS marker for compressed frames.
inline constexpr size_t kIpTosOff = kIpOff + 1;  // 15
inline constexpr uint8_t kCompressedTos = 0x5a;

// Byte-run-length codec. Compress returns the output size, or 0 when the
// input does not shrink (or does not fit `cap`). Decompress returns the
// output size, or 0 on malformed input.
size_t RleCompress(const uint8_t* in, size_t n, uint8_t* out, size_t cap);
size_t RleDecompress(const uint8_t* in, size_t n, uint8_t* out, size_t cap);

class CompressionExtension {
 public:
  // Compresses UDP and TCP payloads sent by `sender` and decompresses
  // them on `receiver`. TCP segments are transformed below the endpoint
  // and its bound stack: sequence numbers, ACKs, and retransmissions all
  // operate on the uncompressed byte stream, so the extension composes
  // in-path with any pluggable stack (src/net/stacks/).
  CompressionExtension(Host& sender, Host& receiver);
  CompressionExtension(const CompressionExtension&) = delete;
  CompressionExtension& operator=(const CompressionExtension&) = delete;

  uint64_t compressed() const { return compressed_; }
  uint64_t decompressed() const { return decompressed_; }
  uint64_t bytes_saved() const { return bytes_saved_; }

 private:
  static bool Compress(CompressionExtension* ext, Packet* packet);
  static bool Decompress(CompressionExtension* ext, Packet* packet);

  Module module_{"Compression"};
  Host& sender_;
  Host& receiver_;
  uint64_t compressed_ = 0;
  uint64_t decompressed_ = 0;
  uint64_t bytes_saved_ = 0;
  BindingSet bindings_;  // last: uninstalls before what the handlers use
};

}  // namespace net
}  // namespace spin

#endif  // SRC_NET_COMPRESS_H_
