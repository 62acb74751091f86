/**
 * @file
 * CRC32C (Castagnoli, polynomial 0x1EDC6F41) over byte buffers.
 *
 * The checkpoint data plane checksums every sealed storage::Blob and
 * every checkpoint object's metadata entry with CRC32C; the SDC
 * detection path (Fti::recover / SCR restart) re-computes and compares.
 * Two kernels back the same function:
 *
 *  - a portable slice-by-8 table kernel (eight 256-entry tables,
 *    8 bytes per iteration), the correctness reference;
 *  - the x86 SSE4.2 crc32 instruction kernel, selected at runtime via
 *    cpu::features(): three interleaved _mm_crc32_u64 streams over
 *    3 x 8 KiB and 3 x 256 B chunks, joined with zero-shift tables.
 *
 * Both kernels accept any alignment and length and agree bit-for-bit;
 * MATCH_CRC_KERNEL=scalar forces the table kernel (mirroring the
 * MATCH_GF_KERNEL override) so CI can pin either path.
 */

#ifndef MATCH_UTIL_CRC32C_HH
#define MATCH_UTIL_CRC32C_HH

#include <cstddef>
#include <cstdint>

namespace match::util
{

/** CRC32C of `len` bytes continuing from `seed` (pass the previous
 *  call's return value to checksum a buffer in pieces). */
std::uint32_t crc32c(std::uint32_t seed, const void *data,
                     std::size_t len);

/** CRC32C of a whole buffer (seed 0; crc32c(0, "123456789", 9) is the
 *  check value 0xE3069283). */
inline std::uint32_t
crc32c(const void *data, std::size_t len)
{
    return crc32c(0, data, len);
}

/** Name of the kernel the dispatcher resolved to ("sse4.2" or
 *  "slice8"), for bench row labels and logs. */
const char *crc32cKernelName();

} // namespace match::util

#endif // MATCH_UTIL_CRC32C_HH
