#include "src/fleet/pattern.h"

#include <algorithm>
#include <cstring>

namespace spin {
namespace fleet {
namespace {

// bytes[i] is stream byte i for i < period + kPatternBlock, so the slice
// starting at any phase < period holds kPatternBlock valid bytes.
struct PatternTable {
  uint64_t period;
  char bytes[std::max(kRequestPeriod, kResponsePeriod) + kPatternBlock];
};

PatternTable MakeTable(uint64_t period, char (*byte)(uint64_t)) {
  PatternTable table{period, {}};
  for (uint64_t i = 0; i < period + kPatternBlock; ++i) {
    table.bytes[i] = byte(i);
  }
  return table;
}

const PatternTable& TableFor(Stream stream) {
  static const PatternTable request = MakeTable(kRequestPeriod, &RequestByte);
  static const PatternTable response =
      MakeTable(kResponsePeriod, &ResponseByte);
  return stream == Stream::kResponse ? response : request;
}

}  // namespace

std::string PatternChunk(Stream stream, uint64_t offset, size_t n) {
  const PatternTable& table = TableFor(stream);
  std::string chunk;
  chunk.reserve(n);
  uint64_t phase = offset % table.period;
  while (chunk.size() < n) {
    size_t k = std::min(n - chunk.size(), kPatternBlock);
    chunk.append(table.bytes + phase, k);
    phase = (phase + k) % table.period;
  }
  return chunk;
}

bool VerifyChunk(Stream stream, uint64_t offset, const std::string& chunk) {
  const PatternTable& table = TableFor(stream);
  uint64_t phase = offset % table.period;
  for (size_t done = 0; done < chunk.size();) {
    size_t k = std::min(chunk.size() - done, kPatternBlock);
    if (std::memcmp(chunk.data() + done, table.bytes + phase, k) != 0) {
      return false;
    }
    done += k;
    phase = (phase + k) % table.period;
  }
  return true;
}

}  // namespace fleet
}  // namespace spin
