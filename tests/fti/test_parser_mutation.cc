/**
 * @file
 * Seeded mutation suite over the parsers recovery runs on stored bytes
 * before anything can verify them: the compress envelope (MCMP,
 * storage::compressDecode / compressRawBytes), the delta envelope
 * (MDLT, storage::deltaInspect / deltaDecode) and the metadata record
 * (fti::parseMeta, FTI's binary commit record). Each parser gets thousands of byte flips,
 * truncations, extensions and extreme header values of valid inputs,
 * and must reject softly: a null result, or one whose size matches
 * what its header claims — never a crash, an abort or a runaway
 * allocation. Run under the sanitizer build, this doubles as a memory
 * error check of the same parsers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/fti/fti.hh"
#include "src/storage/blob.hh"
#include "src/storage/transform.hh"
#include "src/util/rng.hh"

using namespace match;
using match::storage::Blob;

namespace
{

constexpr int kTrials = 4000;
constexpr std::uint64_t kSeed = 0x6d75746174650000ULL;

std::vector<std::uint8_t>
asBytes(const Blob &blob)
{
    return std::vector<std::uint8_t>(blob.data(),
                                     blob.data() + blob.size());
}

/** A mostly-zero image with a few patterned stretches (RLE-friendly). */
Blob
sparseImage(std::size_t bytes, std::uint8_t salt)
{
    std::vector<std::uint8_t> image(bytes, 0);
    for (std::size_t i = 0; i < bytes; i += 97)
        for (std::size_t j = i; j < std::min(bytes, i + 9); ++j)
            image[j] = static_cast<std::uint8_t>(salt + j);
    return Blob::fromVector(std::move(image));
}

/** Incompressible bytes (the compress stage stores them verbatim). */
Blob
noiseImage(std::size_t bytes, std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<std::uint8_t> image(bytes);
    for (std::uint8_t &b : image)
        b = static_cast<std::uint8_t>(rng.next());
    return Blob::fromVector(std::move(image));
}

/**
 * One seeded mutant of `valid`: 1-3 byte flips (half of them inside
 * the first 32 bytes, where the headers live), a truncation, an
 * extension by random bytes, or an extreme u64 written over a header
 * field.
 */
Blob
mutate(const std::vector<std::uint8_t> &valid, util::Rng &rng)
{
    std::vector<std::uint8_t> out = valid;
    switch (rng.below(4)) {
    case 0: {
        const std::uint64_t flips = 1 + rng.below(3);
        for (std::uint64_t i = 0; i < flips && !out.empty(); ++i) {
            const std::size_t span =
                rng.below(2) != 0 ? std::min<std::size_t>(out.size(), 32)
                                  : out.size();
            out[rng.below(span)] ^=
                static_cast<std::uint8_t>(1 + rng.below(255));
        }
        break;
    }
    case 1:
        out.resize(rng.below(out.size()));
        break;
    case 2: {
        const std::uint64_t extra = 1 + rng.below(64);
        for (std::uint64_t i = 0; i < extra; ++i)
            out.push_back(static_cast<std::uint8_t>(rng.next()));
        break;
    }
    default: {
        if (out.size() < 8)
            break;
        const std::uint64_t extremes[] = {
            0, 1, 0xffffffffULL, 1ULL << 32, 1ULL << 40,
            0x7fffffffffffffffULL, ~0ULL, rng.next()};
        const std::uint64_t value =
            extremes[rng.below(sizeof(extremes) / sizeof(extremes[0]))];
        const std::size_t at =
            rng.below(std::min<std::size_t>(out.size(), 32) - 7);
        std::memcpy(out.data() + at, &value, sizeof(value));
        break;
    }
    }
    return Blob::fromVector(std::move(out));
}

/** A decoded compress envelope is null or exactly its claimed size. */
void
expectSoftCompress(const Blob &envelope, int trial)
{
    const std::uint64_t claimed = storage::compressRawBytes(envelope);
    const Blob raw = storage::compressDecode(envelope);
    if (raw) {
        ASSERT_EQ(raw.size(), claimed) << "trial " << trial;
    }
}

/** A delta envelope decodes only when inspect calls it valid, and
 *  then to exactly the image size it claims. */
void
expectSoftDelta(const Blob &envelope, const Blob &base, int trial)
{
    const storage::DeltaInfo info = storage::deltaInspect(envelope);
    for (const Blob &with : {base, Blob()}) {
        const Blob image = storage::deltaDecode(envelope, with);
        if (!info.valid) {
            ASSERT_FALSE(image) << "trial " << trial;
        } else if (image) {
            ASSERT_EQ(image.size(), info.imageBytes) << "trial " << trial;
        }
    }
}

} // namespace

TEST(ParserMutation, CompressEnvelopeRejectsSoftly)
{
    const Blob empty = Blob::fromVector(std::vector<std::uint8_t>{});
    const Blob inputs[] = {
        storage::compressEncode(sparseImage(4096, 3)), // RLE method
        storage::compressEncode(noiseImage(1024, 5)),  // stored method
        storage::compressEncode(empty),
    };
    for (const Blob &valid : inputs)
        ASSERT_TRUE(storage::compressDecode(valid));
    util::Rng rng(kSeed, 1);
    int rejected = 0;
    for (int t = 0; t < kTrials; ++t) {
        const Blob mutant =
            mutate(asBytes(inputs[t % std::size(inputs)]), rng);
        ASSERT_NO_FATAL_FAILURE(expectSoftCompress(mutant, t));
        if (!storage::compressDecode(mutant))
            ++rejected;
    }
    EXPECT_GT(rejected, kTrials / 4);
}

TEST(ParserMutation, DeltaEnvelopeRejectsSoftly)
{
    const Blob base = sparseImage(2048, 1);
    const Blob image = sparseImage(2048, 2);
    const Blob inputs[] = {
        storage::deltaEncode(image, Blob(), 0, 64), // full form
        storage::deltaEncode(image, base, 4, 64),   // delta form
    };
    ASSERT_TRUE(storage::deltaInspect(inputs[0]).isFull);
    ASSERT_FALSE(storage::deltaInspect(inputs[1]).isFull);
    for (const Blob &valid : inputs)
        ASSERT_EQ(asBytes(storage::deltaDecode(valid, base)),
                  asBytes(image));
    util::Rng rng(kSeed, 2);
    int rejected = 0;
    for (int t = 0; t < kTrials; ++t) {
        const Blob mutant =
            mutate(asBytes(inputs[t % std::size(inputs)]), rng);
        ASSERT_NO_FATAL_FAILURE(expectSoftDelta(mutant, base, t));
        if (!storage::deltaDecode(mutant, base))
            ++rejected;
    }
    EXPECT_GT(rejected, kTrials / 4);
}

TEST(ParserMutation, CompressedDeltaChainRejectsSoftly)
{
    // The stored shape of an L4 object under delta+compress: each
    // stage's output is the next stage's input, so a mutant that
    // survives decompression must still be judged by the delta parser.
    const Blob base = sparseImage(2048, 1);
    const Blob valid = storage::compressEncode(
        storage::deltaEncode(sparseImage(2048, 2), base, 4, 64));
    util::Rng rng(kSeed, 3);
    for (int t = 0; t < kTrials; ++t) {
        const Blob mutant = mutate(asBytes(valid), rng);
        ASSERT_NO_FATAL_FAILURE(expectSoftCompress(mutant, t));
        if (const Blob envelope = storage::compressDecode(mutant)) {
            ASSERT_NO_FATAL_FAILURE(expectSoftDelta(envelope, base, t));
        }
    }
}

TEST(ParserMutation, MetaRecordRejectsSoftly)
{
    // The commit record FTI writes at rank 0 (see fti::MetaInfo): the
    // header, then one {bytes, crc} entry per rank.
    constexpr int kRanks = 12;
    const std::int32_t header[4] = {fti::MetaInfo::kMagic, 7, 4, kRanks};
    std::vector<std::uint8_t> valid(fti::MetaInfo::recordBytes(kRanks));
    std::memcpy(valid.data(), header, sizeof(header));
    for (int r = 0; r < kRanks; ++r) {
        const std::uint64_t entry[2] = {
            18432 + 8 * static_cast<std::uint64_t>(r),
            0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(r + 1)};
        std::memcpy(valid.data() + fti::MetaInfo::kHeaderBytes +
                        fti::MetaInfo::kEntryBytes * r,
                    entry, sizeof(entry));
    }
    const fti::MetaInfo parsed = fti::parseMeta(
        Blob::fromVector(std::vector<std::uint8_t>(valid)));
    ASSERT_TRUE(parsed);
    ASSERT_EQ(parsed.nprocs, kRanks);
    for (int r = 0; r < kRanks; ++r)
        ASSERT_EQ(parsed.crc(r),
                  0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(r + 1));

    util::Rng rng(kSeed, 4);
    for (int t = 0; t < kTrials; ++t) {
        const fti::MetaInfo meta = fti::parseMeta(mutate(valid, rng));
        if (!meta)
            continue;
        ASSERT_EQ(meta.record.size(),
                  fti::MetaInfo::recordBytes(meta.nprocs))
            << "trial " << t;
        ASSERT_GE(meta.level, 1) << "trial " << t;
        ASSERT_LE(meta.level, 4) << "trial " << t;
        // Every entry of a valid view lies inside the record.
        for (int r = 0; r < meta.nprocs; ++r) {
            meta.bytes(r);
            meta.crc(r);
        }
    }
}
