#include "common/checksum.h"

#include <array>
#include <cstddef>

namespace supremm::common {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: kTables[0] is the classic byte table; kTables[k][n]
/// is the CRC register after feeding byte n followed by k zero bytes, so
/// eight table lookups advance the register by eight input bytes at once.
constexpr CrcTables make_crc_tables() noexcept {
  CrcTables t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][n] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t n = 0; n < 256; ++n) {
      const std::uint32_t prev = t[k - 1][n];
      t[k][n] = (prev >> 8) ^ t[0][prev & 0xffu];
    }
  }
  return t;
}

constexpr CrcTables kTables = make_crc_tables();

/// Little-endian 32-bit load from any alignment (one mov on x86).
inline std::uint32_t load_le32(const unsigned char* p) noexcept {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 | std::uint32_t{p[2]} << 16 |
         std::uint32_t{p[3]} << 24;
}

}  // namespace

std::uint32_t crc32(std::string_view data, std::uint32_t seed) noexcept {
  std::uint32_t c = seed ^ 0xffffffffu;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
        kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^ kTables[3][hi & 0xffu] ^
        kTables[2][(hi >> 8) & 0xffu] ^ kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = kTables[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace supremm::common
