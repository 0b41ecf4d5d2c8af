// Position-derived stream patterns for the fleet workload (internal to
// src/fleet; the tests include it).
//
// Byte i of every request stream and every response stream is a pure
// function of i, so a receiver can check that a delivered stream has
// neither holes nor reordering. RequestByte/ResponseByte are the per-byte
// definition. The fleet does not call them per byte: each direction has
// one table holding the pattern's period plus one block of the pattern, so
// any run of up to kPatternBlock bytes starting at any phase is one slice
// of it. PatternChunk copies slices with memcpy and VerifyChunk compares
// against them with memcmp; every byte is still compared.
#ifndef SRC_FLEET_PATTERN_H_
#define SRC_FLEET_PATTERN_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace spin {
namespace fleet {

enum class Stream : uint8_t { kRequest, kResponse };

inline constexpr uint64_t kRequestPeriod = 23;
inline constexpr uint64_t kResponsePeriod = 29;

// Longest slice one memcpy/memcmp covers.
inline constexpr size_t kPatternBlock = 4096;

inline char RequestByte(uint64_t offset) {
  return static_cast<char>('A' + offset % kRequestPeriod);
}
inline char ResponseByte(uint64_t offset) {
  return static_cast<char>('a' + offset % kResponsePeriod);
}

// Bytes [offset, offset + n) of `stream`.
std::string PatternChunk(Stream stream, uint64_t offset, size_t n);

// True iff `chunk` equals bytes [offset, offset + chunk.size()) of `stream`.
bool VerifyChunk(Stream stream, uint64_t offset, const std::string& chunk);

}  // namespace fleet
}  // namespace spin

#endif  // SRC_FLEET_PATTERN_H_
