// The fleet's block pattern helpers against the per-byte definition.
#include <string>

#include <gtest/gtest.h>

#include "src/fleet/pattern.h"

namespace spin {
namespace fleet {
namespace {

char ReferenceByte(Stream stream, uint64_t offset) {
  return stream == Stream::kResponse ? ResponseByte(offset)
                                     : RequestByte(offset);
}

std::string ReferenceChunk(Stream stream, uint64_t offset, size_t n) {
  std::string chunk(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    chunk[i] = ReferenceByte(stream, offset + i);
  }
  return chunk;
}

constexpr Stream kStreams[] = {Stream::kRequest, Stream::kResponse};

TEST(FleetPatternTest, GeneratedBytesEqualTheReference) {
  const size_t lengths[] = {0,
                            1,
                            22,
                            23,
                            29,
                            kPatternBlock - 1,
                            kPatternBlock,
                            kPatternBlock + 1,
                            3 * kPatternBlock + 7,
                            11680};
  for (Stream stream : kStreams) {
    for (uint64_t offset = 0; offset < 58; ++offset) {
      for (size_t n : lengths) {
        std::string chunk = PatternChunk(stream, offset, n);
        ASSERT_EQ(chunk, ReferenceChunk(stream, offset, n))
            << "offset " << offset << " length " << n;
        ASSERT_TRUE(VerifyChunk(stream, offset, chunk))
            << "offset " << offset << " length " << n;
      }
    }
  }
}

TEST(FleetPatternTest, VerifyRejectsAFlippedByteAnywhere) {
  const size_t n = 2 * kPatternBlock + 5;
  for (Stream stream : kStreams) {
    const uint64_t offset = 17;
    std::string chunk = PatternChunk(stream, offset, n);
    for (size_t i = 0; i < n; ++i) {
      chunk[i] ^= 1;
      ASSERT_FALSE(VerifyChunk(stream, offset, chunk)) << "byte " << i;
      chunk[i] ^= 1;
    }
    EXPECT_TRUE(VerifyChunk(stream, offset, chunk));
  }
}

TEST(FleetPatternTest, VerifyRejectsAShiftedChunk) {
  const size_t n = 2 * kPatternBlock + 5;
  for (Stream stream : kStreams) {
    EXPECT_FALSE(VerifyChunk(stream, 40, PatternChunk(stream, 41, n)));
    EXPECT_FALSE(VerifyChunk(stream, 41, PatternChunk(stream, 40, n)));
  }
}

TEST(FleetPatternTest, VerifyRejectsTheOtherDirectionsPattern) {
  const size_t n = 2 * kPatternBlock + 5;
  EXPECT_FALSE(VerifyChunk(Stream::kResponse, 0,
                           PatternChunk(Stream::kRequest, 0, n)));
  EXPECT_FALSE(VerifyChunk(Stream::kRequest, 0,
                           PatternChunk(Stream::kResponse, 0, n)));
}

}  // namespace
}  // namespace fleet
}  // namespace spin
