// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) for archive block and manifest
// integrity checks and the shard wire frames. Table driven, slicing-by-8:
// eight table lookups consume eight input bytes per step (the tail goes a
// byte at a time), about five times the byte-at-a-time rate on the
// ~0.7 MB frames a federated shard answers with. Self-contained; the value
// is the standard CRC-32 for every input and seed.
#pragma once

#include <cstdint>
#include <string_view>

namespace supremm::common {

/// CRC-32 of `data`, optionally continuing from a previous value (pass the
/// prior return value as `seed` to checksum a stream in pieces).
[[nodiscard]] std::uint32_t crc32(std::string_view data, std::uint32_t seed = 0) noexcept;

}  // namespace supremm::common
