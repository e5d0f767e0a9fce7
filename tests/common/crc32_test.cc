#include "tsss/common/crc32.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace tsss {
namespace {

TEST(Crc32Test, KnownVectors) {
  // Standard CRC-32 (IEEE) test vectors.
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  const std::string hello = "hello world";
  EXPECT_EQ(Crc32(hello.data(), hello.size()), 0x0D4A1185u);
}

TEST(Crc32Test, SensitiveToSingleBitFlips) {
  std::string data(1024, 'a');
  const std::uint32_t base = Crc32(data.data(), data.size());
  data[512] = 'b';
  EXPECT_NE(Crc32(data.data(), data.size()), base);
  data[512] = 'a';
  EXPECT_EQ(Crc32(data.data(), data.size()), base);
}

TEST(Crc32Test, MoreKnownVectors) {
  // RFC 3720-style reference vectors for CRC-32/IEEE.
  const std::string a = "a";
  EXPECT_EQ(Crc32(a.data(), a.size()), 0xE8B7BE43u);
  const std::string abc = "abc";
  EXPECT_EQ(Crc32(abc.data(), abc.size()), 0x352441C2u);
  const std::string alphabet = "abcdefghijklmnopqrstuvwxyz";
  EXPECT_EQ(Crc32(alphabet.data(), alphabet.size()), 0x4C2750BDu);
  const std::string digest = "message digest";
  EXPECT_EQ(Crc32(digest.data(), digest.size()), 0x20159D7Fu);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t one_shot = Crc32(data.data(), data.size());
  std::uint32_t incremental = 0;
  for (std::size_t i = 0; i < data.size(); i += 7) {
    const std::size_t chunk = std::min<std::size_t>(7, data.size() - i);
    incremental = Crc32Continue(incremental, data.data() + i, chunk);
  }
  EXPECT_EQ(incremental, one_shot);
}

TEST(Crc32Test, IncrementalMatchesOneShotAtEverySplitPoint) {
  const std::string data = "page-checksum torture input 0123456789";
  const std::uint32_t one_shot = Crc32(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t crc = Crc32Continue(0, data.data(), split);
    crc = Crc32Continue(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, one_shot) << "split at " << split;
  }
}

TEST(Crc32Test, EmptyChunkIsIdentity) {
  const std::string data = "xyz";
  const std::uint32_t crc = Crc32(data.data(), data.size());
  EXPECT_EQ(Crc32Continue(crc, data.data(), 0), crc);
}

TEST(Crc32Test, PageSizedBufferOfZerosIsStable) {
  // A freshly allocated 4 KiB page is all zeros; its checksum must be
  // deterministic and nonzero (so "forgot to checksum" reads as corruption).
  const std::string zeros(4096, '\0');
  const std::uint32_t crc = Crc32(zeros.data(), zeros.size());
  EXPECT_EQ(crc, Crc32(zeros.data(), zeros.size()));
  EXPECT_NE(crc, 0u);
}

/// Table-free, bit-at-a-time CRC-32 register update (reflected IEEE
/// polynomial): the definition the sliced implementation must agree with.
std::uint32_t BitwiseUpdate(std::uint32_t reg, unsigned char byte) {
  reg ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    reg = (reg & 1u) ? (reg >> 1) ^ 0xEDB88320u : reg >> 1;
  }
  return reg;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..4104 (one page plus a partial 8-byte block) from start
  // offsets 0..7 cover the sliced 8-byte loop, every tail length and every
  // alignment of the input pointer.
  constexpr std::size_t kMaxLen = 4104;
  std::vector<unsigned char> buf(kMaxLen + 8);
  std::uint32_t x = 0x12345678u;
  for (unsigned char& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  const std::string prefix = "abc";
  const std::uint32_t prefix_crc = Crc32(prefix.data(), prefix.size());
  std::uint32_t prefix_reg = ~0u;
  for (char c : prefix) {
    prefix_reg = BitwiseUpdate(prefix_reg, static_cast<unsigned char>(c));
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* data = buf.data() + offset;
    std::uint32_t reg = ~0u;               // running reference, fresh start
    std::uint32_t continued = prefix_reg;  // running reference after "abc"
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      if (len > 0) {
        reg = BitwiseUpdate(reg, data[len - 1]);
        continued = BitwiseUpdate(continued, data[len - 1]);
      }
      ASSERT_EQ(Crc32(data, len), ~reg)
          << "offset " << offset << " length " << len;
      ASSERT_EQ(Crc32Continue(prefix_crc, data, len), ~continued)
          << "offset " << offset << " length " << len;
    }
  }
}

}  // namespace
}  // namespace tsss
