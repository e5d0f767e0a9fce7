#include "tsss/common/crc32.h"

#include <array>

namespace tsss {
namespace {

constexpr std::uint32_t kPolynomial = 0xEDB88320u;

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables for the reflected IEEE polynomial. Table 0 is the
/// classic byte-at-a-time table; table k advances a byte's contribution past
/// k further zero bytes, so eight input bytes fold into the CRC with eight
/// independent lookups instead of a serial chain of eight.
constexpr Tables BuildTables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPolynomial : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = BuildTables();

/// Little-endian 32-bit load, independent of the host byte order (compilers
/// fold it to one load on little-endian targets).
inline std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t Crc32Continue(std::uint32_t crc, const void* data,
                            std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (; size >= 8; size -= 8, bytes += 8) {
    const std::uint32_t lo = crc ^ LoadLe32(bytes);
    const std::uint32_t hi = LoadLe32(bytes + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; --size, ++bytes) {
    crc = kTables[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t Crc32(const void* data, std::size_t size) {
  return Crc32Continue(0, data, size);
}

}  // namespace tsss
