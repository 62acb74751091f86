#include "src/util/crc32c.hh"

#include <cstdlib>
#include <cstring>

#include "src/util/cpu.hh"
#include "src/util/logging.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#define MATCH_CRC32C_X86 1
#endif

namespace match::util
{

namespace
{

// Reflected Castagnoli polynomial (CRC32C processes bits LSB-first).
constexpr std::uint32_t kPoly = 0x82F63B78u;

/** Slice-by-8 tables: table[0] is the classic byte-at-a-time table,
 *  table[k] advances a byte by k more zero bytes, so eight table
 *  lookups retire eight input bytes per iteration. ~8 KiB, built
 *  lazily on first use (thread-safe static). */
struct Crc32cTables
{
    std::uint32_t t[8][256];

    Crc32cTables()
    {
        for (unsigned n = 0; n < 256; ++n) {
            std::uint32_t crc = n;
            for (int bit = 0; bit < 8; ++bit)
                crc = (crc >> 1) ^ (kPoly & (0u - (crc & 1u)));
            t[0][n] = crc;
        }
        for (unsigned n = 0; n < 256; ++n) {
            std::uint32_t crc = t[0][n];
            for (int k = 1; k < 8; ++k) {
                crc = (crc >> 8) ^ t[0][crc & 0xff];
                t[k][n] = crc;
            }
        }
    }
};

const Crc32cTables &
tables()
{
    static const Crc32cTables tables;
    return tables;
}

std::uint32_t
slice8Crc(std::uint32_t crc, const std::uint8_t *p, std::size_t len)
{
    const Crc32cTables &tab = tables();
    while (len >= 8) {
        // Fold the current crc into the first four bytes, then slice
        // all eight through the stride tables.
        std::uint32_t lo, hi;
        std::memcpy(&lo, p, 4);
        std::memcpy(&hi, p + 4, 4);
        lo ^= crc;
        crc = tab.t[7][lo & 0xff] ^ tab.t[6][(lo >> 8) & 0xff] ^
              tab.t[5][(lo >> 16) & 0xff] ^ tab.t[4][lo >> 24] ^
              tab.t[3][hi & 0xff] ^ tab.t[2][(hi >> 8) & 0xff] ^
              tab.t[1][(hi >> 16) & 0xff] ^ tab.t[0][hi >> 24];
        p += 8;
        len -= 8;
    }
    while (len-- > 0)
        crc = (crc >> 8) ^ tab.t[0][(crc ^ *p++) & 0xff];
    return crc;
}

#if defined(MATCH_CRC32C_X86)

/** Block lengths of the 3-way kernel's two passes: long blocks for big
 *  buffers, short ones so a ~18 KB checkpoint image is interleaved too. */
constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;

/**
 * Zero-shift table: the linear map a CRC state undergoes when `len`
 * zero bytes follow, split by state byte (four lookups per shift). The
 * CRC register update is linear over GF(2), so a state s followed by a
 * block B whose own CRC from a zero state is c ends in shift(s) ^ c —
 * which is how the three interleaved streams are joined.
 */
struct ZeroShift
{
    std::uint32_t t[4][256];

    explicit ZeroShift(std::size_t len)
    {
        // Column b: where state bit b lands after `len` zero bytes.
        static const std::uint8_t zeros[kShortBlock] = {};
        std::uint32_t column[32];
        for (int b = 0; b < 32; ++b) {
            std::uint32_t state = 1u << b;
            for (std::size_t left = len; left > 0;) {
                const std::size_t n = left < kShortBlock ? left
                                                         : kShortBlock;
                state = slice8Crc(state, zeros, n);
                left -= n;
            }
            column[b] = state;
        }
        for (int k = 0; k < 4; ++k) {
            for (unsigned n = 0; n < 256; ++n) {
                std::uint32_t v = 0;
                for (int bit = 0; bit < 8; ++bit)
                    if (n & (1u << bit))
                        v ^= column[8 * k + bit];
                t[k][n] = v;
            }
        }
    }

    std::uint32_t
    operator()(std::uint32_t crc) const
    {
        return t[0][crc & 0xff] ^ t[1][(crc >> 8) & 0xff] ^
               t[2][(crc >> 16) & 0xff] ^ t[3][crc >> 24];
    }
};

/**
 * Three crc32q streams over consecutive `block`-byte thirds of each
 * 3 x block chunk, joined by two zero shifts. The instruction has a
 * 3-cycle latency and 1-cycle throughput, so three independent chains
 * retire ~3x the bytes of one.
 */
__attribute__((target("sse4.2"))) std::uint64_t
sse42Crc3Way(std::uint64_t crc0, const std::uint8_t *&p, std::size_t &len,
             std::size_t block, const ZeroShift &shift)
{
    while (len >= 3 * block) {
        std::uint64_t crc1 = 0, crc2 = 0;
        for (const std::uint8_t *end = p + block; p < end; p += 8) {
            std::uint64_t w0, w1, w2;
            std::memcpy(&w0, p, 8);
            std::memcpy(&w1, p + block, 8);
            std::memcpy(&w2, p + 2 * block, 8);
            crc0 = _mm_crc32_u64(crc0, w0);
            crc1 = _mm_crc32_u64(crc1, w1);
            crc2 = _mm_crc32_u64(crc2, w2);
        }
        crc0 = shift(static_cast<std::uint32_t>(crc0)) ^ crc1;
        crc0 = shift(static_cast<std::uint32_t>(crc0)) ^ crc2;
        p += 2 * block;
        len -= 3 * block;
    }
    return crc0;
}

__attribute__((target("sse4.2"))) std::uint32_t
sse42Crc(std::uint32_t crc, const std::uint8_t *p, std::size_t len)
{
    static const ZeroShift long_shift(kLongBlock);
    static const ZeroShift short_shift(kShortBlock);
    // Bytewise up to an 8-byte boundary, so the word loads below are
    // aligned.
    while (len > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7) != 0) {
        crc = _mm_crc32_u8(crc, *p++);
        --len;
    }
    std::uint64_t crc64 = crc;
    crc64 = sse42Crc3Way(crc64, p, len, kLongBlock, long_shift);
    crc64 = sse42Crc3Way(crc64, p, len, kShortBlock, short_shift);
    while (len >= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, 8);
        crc64 = _mm_crc32_u64(crc64, word);
        p += 8;
        len -= 8;
    }
    crc = static_cast<std::uint32_t>(crc64);
    while (len-- > 0)
        crc = _mm_crc32_u8(crc, *p++);
    return crc;
}

#endif // MATCH_CRC32C_X86

using Kernel = std::uint32_t (*)(std::uint32_t, const std::uint8_t *,
                                 std::size_t);

struct Dispatch
{
    Kernel kernel;
    const char *name;
};

/** Resolve once per process: the hardware instruction when the CPU has
 *  it and MATCH_CRC_KERNEL does not force the portable table kernel
 *  (same policy shape as MATCH_GF_KERNEL; a typo warns and means
 *  auto — it must never silently change which kernel verifies SDC). */
Dispatch
resolve()
{
    const char *value = std::getenv("MATCH_CRC_KERNEL");
    bool scalar = false;
    if (value != nullptr && value[0] != '\0' &&
        std::strcmp(value, "auto") != 0) {
        if (std::strcmp(value, "scalar") == 0)
            scalar = true;
        else
            warn("MATCH_CRC_KERNEL=%s not recognized (want "
                 "scalar|auto); using auto",
                 value);
    }
#if defined(MATCH_CRC32C_X86)
    if (!scalar && cpu::features().sse42)
        return {&sse42Crc, "sse4.2"};
#endif
    (void)scalar;
    return {&slice8Crc, "slice8"};
}

const Dispatch &
dispatch()
{
    static const Dispatch d = resolve();
    return d;
}

} // anonymous namespace

std::uint32_t
crc32c(std::uint32_t seed, const void *data, std::size_t len)
{
    return ~dispatch().kernel(
        ~seed, static_cast<const std::uint8_t *>(data), len);
}

const char *
crc32cKernelName()
{
    return dispatch().name;
}

} // namespace match::util
