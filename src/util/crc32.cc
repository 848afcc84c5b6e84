#include "util/crc32.hh"

#include <array>

namespace emissary
{

namespace
{

constexpr std::uint32_t kPolynomial = 0xEDB88320u;

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables: tables[0] is the classic bytewise table, and
 * tables[k][b] is the CRC contribution of byte b followed by k zero
 * bytes, so one step folds 8 input bytes with 8 independent lookups
 * instead of a chain of 8 dependent ones.
 */
constexpr Tables
makeTables()
{
    Tables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t value = i;
        for (int bit = 0; bit < 8; ++bit)
            value = (value >> 1) ^ ((value & 1) ? kPolynomial : 0);
        tables[0][i] = value;
    }
    for (std::size_t k = 1; k < tables.size(); ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            tables[k][i] = (tables[k - 1][i] >> 8) ^
                           tables[0][tables[k - 1][i] & 0xff];
    return tables;
}

constexpr Tables kTables = makeTables();

/** Little-endian 32-bit load (one move on little-endian hosts). */
inline std::uint32_t
loadLe32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32(std::uint32_t crc, const void *data, std::size_t size)
{
    const unsigned char *bytes =
        static_cast<const unsigned char *>(data);
    crc = ~crc;
    for (; size >= 8; size -= 8, bytes += 8) {
        const std::uint32_t low = loadLe32(bytes) ^ crc;
        const std::uint32_t high = loadLe32(bytes + 4);
        crc = kTables[7][low & 0xff] ^ kTables[6][(low >> 8) & 0xff] ^
              kTables[5][(low >> 16) & 0xff] ^ kTables[4][low >> 24] ^
              kTables[3][high & 0xff] ^
              kTables[2][(high >> 8) & 0xff] ^
              kTables[1][(high >> 16) & 0xff] ^ kTables[0][high >> 24];
    }
    for (; size > 0; --size, ++bytes)
        crc = (crc >> 8) ^ kTables[0][(crc ^ *bytes) & 0xff];
    return ~crc;
}

} // namespace emissary
