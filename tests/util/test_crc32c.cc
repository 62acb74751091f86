/**
 * @file
 * CRC32C contract tests: the RFC 3720 check value, incremental ==
 * whole-buffer equivalence at every split point, agreement with an
 * independent bitwise reference over random buffers at every alignment,
 * the lengths where the SSE4.2 kernel's 3-way blocking (3 x 256 B and
 * 3 x 8 KiB chunks) starts and ends, and the dispatcher's kernel name.
 * CI runs this file once more with MATCH_CRC_KERNEL=scalar, which pins
 * the slice-by-8 path, so both kernels pass it.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/util/crc32c.hh"
#include "src/util/rng.hh"

using match::util::crc32c;

namespace
{

/** Independent bit-at-a-time reference (reflected 0x1EDC6F41). */
std::uint32_t
referenceCrc32c(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= p[i];
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
    }
    return crc ^ 0xFFFFFFFFu;
}

} // namespace

TEST(Crc32c, Rfc3720CheckValue)
{
    // The standard CRC32C check value: crc("123456789") = 0xE3069283.
    EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
    EXPECT_EQ(referenceCrc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32c, EmptyAndSingleByte)
{
    EXPECT_EQ(crc32c("", 0), 0u);
    const char byte = 'a';
    EXPECT_EQ(crc32c(&byte, 1), referenceCrc32c(&byte, 1));
}

TEST(Crc32c, IncrementalEqualsWholeAtEverySplit)
{
    const std::string text =
        "the quick brown fox jumps over the lazy dog 0123456789";
    const std::uint32_t whole = crc32c(text.data(), text.size());
    for (std::size_t split = 0; split <= text.size(); ++split) {
        const std::uint32_t head = crc32c(0u, text.data(), split);
        const std::uint32_t both =
            crc32c(head, text.data() + split, text.size() - split);
        EXPECT_EQ(both, whole) << "split at " << split;
    }
}

TEST(Crc32c, MatchesBitwiseReferenceAtEveryAlignmentAndLength)
{
    // Random payloads exercised at every start alignment within a
    // 64-bit word and lengths straddling the kernels' 8-byte blocking.
    match::util::Rng rng(20260807);
    std::vector<std::uint8_t> buf(4096 + 16);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.below(256));
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len : {std::size_t{0}, std::size_t{1},
                                std::size_t{7}, std::size_t{8},
                                std::size_t{9}, std::size_t{63},
                                std::size_t{64}, std::size_t{65},
                                std::size_t{1000}, std::size_t{4096}}) {
            EXPECT_EQ(crc32c(buf.data() + offset, len),
                      referenceCrc32c(buf.data() + offset, len))
                << "offset " << offset << " len " << len;
        }
    }
}

namespace
{

/** Lengths at the edges of the 3-way kernel's short (3 x 256 B) and
 *  long (3 x 8 KiB) chunks, and an odd ~100 KiB length that runs both
 *  passes and the tails. */
const std::size_t kBlockingEdges[] = {767,   768,   769,   1535,  1536,
                                      1537,  24575, 24576, 24577, 49152,
                                      102407};

std::vector<std::uint8_t>
randomBytes(std::size_t n, std::uint64_t seed)
{
    match::util::Rng rng(seed);
    std::vector<std::uint8_t> buf(n);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.below(256));
    return buf;
}

} // namespace

TEST(Crc32c, MatchesReferenceAtThreeWayBlockingEdges)
{
    const std::vector<std::uint8_t> buf = randomBytes(102407 + 8, 20261018);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len : kBlockingEdges) {
            EXPECT_EQ(crc32c(buf.data() + offset, len),
                      referenceCrc32c(buf.data() + offset, len))
                << "offset " << offset << " len " << len;
        }
    }
}

TEST(Crc32c, IncrementalEqualsWholeAcrossBlockingEdges)
{
    // Split points on both sides of each chunk boundary, so a piece
    // starts or ends one byte into (or short of) a 3-way chunk.
    const std::vector<std::uint8_t> buf = randomBytes(102407, 7);
    for (std::size_t len : kBlockingEdges) {
        const std::uint32_t whole = crc32c(buf.data(), len);
        for (std::size_t split :
             {std::size_t{1}, std::size_t{7}, std::size_t{767},
              std::size_t{768}, std::size_t{769}, std::size_t{24575},
              std::size_t{24576}, std::size_t{24577}, len / 2, len - 1}) {
            if (split > len)
                continue;
            const std::uint32_t head = crc32c(0u, buf.data(), split);
            EXPECT_EQ(crc32c(head, buf.data() + split, len - split), whole)
                << "len " << len << " split at " << split;
        }
    }
}

TEST(Crc32c, DetectsSingleBitFlips)
{
    std::vector<std::uint8_t> buf(512, 0x5a);
    const std::uint32_t clean = crc32c(buf.data(), buf.size());
    for (std::size_t byte : {std::size_t{0}, buf.size() / 2,
                             buf.size() - 1}) {
        for (int bit = 0; bit < 8; ++bit) {
            buf[byte] ^= static_cast<std::uint8_t>(1u << bit);
            EXPECT_NE(crc32c(buf.data(), buf.size()), clean)
                << "flip at byte " << byte << " bit " << bit;
            buf[byte] ^= static_cast<std::uint8_t>(1u << bit);
        }
    }
    EXPECT_EQ(crc32c(buf.data(), buf.size()), clean);
}

TEST(Crc32c, KernelNameIsResolved)
{
    const std::string name = match::util::crc32cKernelName();
    EXPECT_TRUE(name == "sse4.2" || name == "slice8") << name;
}
