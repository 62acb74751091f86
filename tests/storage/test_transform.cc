/**
 * @file
 * Contract suite over the checkpoint data-reduction transforms: kind
 * names round-trip, compress survives compressible and incompressible
 * inputs (stored fallback), delta encodes full and diff envelopes that
 * decode back byte-identically, corrupt envelopes are rejected softly
 * (a null Blob, never a fatal), and the per-stage counters move. The
 * word-at-a-time RLE encoder is held byte for byte to the original
 * byte-at-a-time loop, kept here as the reference, and a warm encode
 * may allocate no more than the envelope's seal.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "src/storage/blob.hh"
#include "src/storage/transform.hh"
#include "tests/alloc_counter.hh"

using namespace match;
using match::storage::Blob;
using match::storage::DeltaTransform;
using match::storage::TransformKind;
using match::storage::TransformStage;
using match::storage::TransformStats;

namespace
{

Blob
sealBytes(std::vector<std::uint8_t> bytes)
{
    return Blob::fromVector(std::move(bytes));
}

std::vector<std::uint8_t>
asBytes(const Blob &blob)
{
    return std::vector<std::uint8_t>(blob.data(),
                                     blob.data() + blob.size());
}

/** Flip one byte of a sealed envelope (SDC at rest). */
Blob
corrupt(const Blob &envelope, std::size_t at, std::uint8_t mask = 0x5a)
{
    std::vector<std::uint8_t> bytes = asBytes(envelope);
    bytes[at % bytes.size()] ^= mask;
    return sealBytes(std::move(bytes));
}

} // namespace

TEST(TransformKindNames, RoundTripAndAliases)
{
    for (const TransformKind kind :
         {TransformKind::None, TransformKind::Delta,
          TransformKind::Compress, TransformKind::DeltaCompress}) {
        TransformKind parsed = TransformKind::None;
        ASSERT_TRUE(storage::parseTransformKind(
            storage::transformKindName(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
    TransformKind parsed = TransformKind::None;
    EXPECT_TRUE(storage::parseTransformKind("delta-compress", parsed));
    EXPECT_EQ(parsed, TransformKind::DeltaCompress);
    EXPECT_FALSE(storage::parseTransformKind("gzip", parsed));

    EXPECT_TRUE(storage::transformHasDelta(TransformKind::Delta));
    EXPECT_TRUE(storage::transformHasDelta(TransformKind::DeltaCompress));
    EXPECT_FALSE(storage::transformHasDelta(TransformKind::Compress));
    EXPECT_TRUE(storage::transformHasCompress(TransformKind::Compress));
    EXPECT_FALSE(storage::transformHasCompress(TransformKind::Delta));
}

TEST(Compress, RoundTripsCompressibleInputAndShrinksIt)
{
    // Long runs: RLE must beat raw by a wide margin.
    std::vector<std::uint8_t> raw(4096, 0);
    for (std::size_t i = 1024; i < 2048; ++i)
        raw[i] = 0x7f;
    const Blob input = sealBytes(std::vector<std::uint8_t>(raw));
    const Blob envelope = storage::compressEncode(input);
    EXPECT_LT(envelope.size(), input.size());
    EXPECT_EQ(storage::compressRawBytes(envelope), input.size());
    const Blob decoded = storage::compressDecode(envelope);
    EXPECT_EQ(asBytes(decoded), raw);
}

TEST(Compress, StoredFallbackOnIncompressibleInput)
{
    // A byte-incrementing pattern has no runs: the encoder must fall
    // back to the stored form and never grow past header + payload.
    std::vector<std::uint8_t> raw(513);
    for (std::size_t i = 0; i < raw.size(); ++i)
        raw[i] = static_cast<std::uint8_t>(i * 73 + (i >> 3));
    const Blob input = sealBytes(std::vector<std::uint8_t>(raw));
    const Blob envelope = storage::compressEncode(input);
    EXPECT_LE(envelope.size(), input.size() + 16);
    const Blob decoded = storage::compressDecode(envelope);
    EXPECT_EQ(asBytes(decoded), raw);
}

TEST(Compress, EmptyInputRoundTrips)
{
    const Blob envelope =
        storage::compressEncode(sealBytes({}));
    const Blob decoded = storage::compressDecode(envelope);
    EXPECT_TRUE(decoded);
    EXPECT_EQ(decoded.size(), 0u);
}

TEST(Compress, DecodeRejectsCorruptEnvelopesSoftly)
{
    std::vector<std::uint8_t> raw(512, 0xaa);
    const Blob envelope =
        storage::compressEncode(sealBytes(std::move(raw)));
    // Magic, method tag and truncation all fail decode.
    EXPECT_FALSE(storage::compressDecode(corrupt(envelope, 0)));
    EXPECT_FALSE(storage::compressDecode(corrupt(envelope, 4)));
    std::vector<std::uint8_t> truncated = asBytes(envelope);
    truncated.resize(truncated.size() / 2);
    EXPECT_FALSE(storage::compressDecode(sealBytes(std::move(truncated))));
    EXPECT_FALSE(storage::compressDecode(sealBytes({1, 2, 3})));
    // The pristine envelope still decodes.
    EXPECT_TRUE(storage::compressDecode(envelope));
}

TEST(Delta, FirstApplyIsFullAndRoundTrips)
{
    DeltaTransform tx(64);
    std::vector<std::uint8_t> raw(1000);
    for (std::size_t i = 0; i < raw.size(); ++i)
        raw[i] = static_cast<std::uint8_t>(i);
    const Blob image = sealBytes(std::vector<std::uint8_t>(raw));
    ASSERT_FALSE(tx.hasReference());
    const Blob envelope = tx.apply(image);
    const storage::DeltaInfo info = storage::deltaInspect(envelope);
    ASSERT_TRUE(info.valid);
    EXPECT_TRUE(info.isFull);
    EXPECT_EQ(info.imageBytes, raw.size());
    const Blob decoded = storage::deltaDecode(envelope, Blob());
    EXPECT_EQ(asBytes(decoded), raw);
}

TEST(Delta, SparseDirtyBlocksYieldSmallDeltaThatReassembles)
{
    DeltaTransform tx(64);
    std::vector<std::uint8_t> base_raw(4096, 3);
    const Blob base = sealBytes(std::vector<std::uint8_t>(base_raw));
    tx.setReference(base, 7);

    // Dirty two distant regions and two adjacent blocks (which must
    // coalesce into a single record).
    std::vector<std::uint8_t> next_raw = base_raw;
    next_raw[10] = 0xff;
    next_raw[70] = 0xfe; // adjacent to block of byte 10 -> coalesces
    next_raw[4000] = 0xfd;
    const Blob image = sealBytes(std::vector<std::uint8_t>(next_raw));

    const Blob envelope = tx.apply(image);
    const storage::DeltaInfo info = storage::deltaInspect(envelope);
    ASSERT_TRUE(info.valid);
    EXPECT_FALSE(info.isFull);
    EXPECT_EQ(info.baseCkptId, 7);
    EXPECT_EQ(info.imageBytes, next_raw.size());
    EXPECT_LT(envelope.size(), image.size() / 4)
        << "a 3-byte change must not ship the whole image";

    const Blob decoded = storage::deltaDecode(envelope, base);
    EXPECT_EQ(asBytes(decoded), next_raw);
}

TEST(Delta, IdenticalEpochYieldsNearEmptyDelta)
{
    DeltaTransform tx(256);
    std::vector<std::uint8_t> raw(8192, 42);
    const Blob base = sealBytes(std::vector<std::uint8_t>(raw));
    tx.setReference(base, 3);
    const Blob envelope =
        tx.apply(sealBytes(std::vector<std::uint8_t>(raw)));
    ASSERT_TRUE(storage::deltaInspect(envelope).valid);
    EXPECT_LT(envelope.size(), 64u) << "no dirty blocks -> header only";
    EXPECT_EQ(asBytes(storage::deltaDecode(envelope, base)), raw);
}

TEST(Delta, SizeMismatchForcesFullEnvelope)
{
    DeltaTransform tx(64);
    tx.setReference(sealBytes(std::vector<std::uint8_t>(100, 1)), 5);
    const std::vector<std::uint8_t> raw(200, 2);
    const Blob envelope =
        tx.apply(sealBytes(std::vector<std::uint8_t>(raw)));
    const storage::DeltaInfo info = storage::deltaInspect(envelope);
    ASSERT_TRUE(info.valid);
    EXPECT_TRUE(info.isFull)
        << "a delta between different-shape epochs is meaningless";
    EXPECT_EQ(asBytes(storage::deltaDecode(envelope, Blob())), raw);
}

TEST(Delta, DecodeRejectsCorruptionSoftly)
{
    DeltaTransform tx(64);
    std::vector<std::uint8_t> base_raw(1024, 9);
    const Blob base = sealBytes(std::vector<std::uint8_t>(base_raw));
    tx.setReference(base, 2);
    std::vector<std::uint8_t> next = base_raw;
    next[500] = 0;
    const Blob envelope =
        tx.apply(sealBytes(std::move(next)));
    ASSERT_FALSE(storage::deltaInspect(envelope).isFull);

    // Corrupt magic -> structurally invalid.
    EXPECT_FALSE(storage::deltaInspect(corrupt(envelope, 1)).valid);
    EXPECT_FALSE(storage::deltaDecode(corrupt(envelope, 1), base));
    // Corrupt a record offset (first record field lives right after
    // the 24-byte diff header) so it points outside the image.
    EXPECT_FALSE(
        storage::deltaDecode(corrupt(envelope, 30, 0xff), base));
    // A delta decoded against the wrong-size base is rejected.
    EXPECT_FALSE(storage::deltaDecode(
        envelope, sealBytes(std::vector<std::uint8_t>(8, 0))));
    // Truncation is rejected.
    std::vector<std::uint8_t> truncated = asBytes(envelope);
    truncated.resize(20);
    EXPECT_FALSE(
        storage::deltaDecode(sealBytes(std::move(truncated)), base));
    // The pristine envelope still decodes.
    EXPECT_TRUE(storage::deltaDecode(envelope, base));
}

TEST(TransformStats, GlobalCountersMove)
{
    const TransformStats delta_before =
        storage::transformGlobalStats(TransformStage::Delta);
    const TransformStats compress_before =
        storage::transformGlobalStats(TransformStage::Compress);

    const std::vector<std::uint8_t> raw(2048, 5);
    const Blob image = sealBytes(std::vector<std::uint8_t>(raw));
    const Blob denv = DeltaTransform(64).apply(image);
    storage::deltaDecode(denv, Blob());
    const Blob cenv = storage::compressEncode(image);
    storage::compressDecode(cenv);
    EXPECT_LT(cenv.size(), raw.size());

    const TransformStats delta_after =
        storage::transformGlobalStats(TransformStage::Delta);
    const TransformStats compress_after =
        storage::transformGlobalStats(TransformStage::Compress);
    EXPECT_EQ(delta_after.applies - delta_before.applies, 1u);
    EXPECT_EQ(delta_after.reverses - delta_before.reverses, 1u);
    EXPECT_EQ(delta_after.bytesIn - delta_before.bytesIn, raw.size());
    EXPECT_EQ(delta_after.bytesOut - delta_before.bytesOut, denv.size());
    EXPECT_EQ(compress_after.applies - compress_before.applies, 1u);
    EXPECT_EQ(compress_after.reverses - compress_before.reverses, 1u);
    EXPECT_EQ(compress_after.bytesIn - compress_before.bytesIn,
              raw.size());
    EXPECT_EQ(compress_after.bytesOut - compress_before.bytesOut,
              cenv.size());
}

namespace
{

using Bytes = std::vector<std::uint8_t>;

/**
 * The original byte-at-a-time PackBits encoder, verbatim but for
 * returning the whole envelope as a vector: [u32 "MCMP"][u8 method]
 * [3 pad][u64 raw bytes][payload]. compressEncode must reproduce its
 * bytes exactly, including the stored-vs-RLE decision and the rule
 * that encoding stops once the output reaches n bytes.
 */
Bytes
referenceEnvelope(const Bytes &raw)
{
    const std::uint8_t *in = raw.data();
    const std::size_t n = raw.size();
    Bytes rle;
    std::size_t i = 0;
    while (i < n && rle.size() < n) {
        std::size_t run = 1;
        while (i + run < n && run < 128 && in[i + run] == in[i])
            ++run;
        if (run >= 3) {
            rle.push_back(static_cast<std::uint8_t>(257 - run));
            rle.push_back(in[i]);
            i += run;
            continue;
        }
        std::size_t j = i;
        while (j < n && j - i < 128) {
            if (j + 2 < n && in[j] == in[j + 1] && in[j] == in[j + 2])
                break;
            ++j;
        }
        rle.push_back(static_cast<std::uint8_t>(j - i - 1));
        rle.insert(rle.end(), in + i, in + j);
        i = j;
    }
    const bool stored = i < n || rle.size() >= n;
    Bytes env(16, 0);
    const std::uint32_t magic = 0x504d434dU;
    const std::uint64_t n64 = n;
    std::memcpy(env.data(), &magic, sizeof(magic));
    env[4] = stored ? 0 : 1;
    std::memcpy(env.data() + 8, &n64, sizeof(n64));
    const Bytes &payload = stored ? raw : rle;
    env.insert(env.end(), payload.begin(), payload.end());
    return env;
}

/** Encode `raw`, require the reference's exact bytes, and require the
 *  envelope to decode back to `raw`. Returns false on the first
 *  mismatch so a sweep stops after one report. */
bool
matchesReference(const Bytes &raw, const std::string &label)
{
    const Blob envelope = storage::compressEncode(sealBytes(Bytes(raw)));
    const Bytes expected = referenceEnvelope(raw);
    if (asBytes(envelope) != expected) {
        ADD_FAILURE() << label << ": " << raw.size()
                      << "-byte input, envelope of " << envelope.size()
                      << " bytes vs reference " << expected.size();
        return false;
    }
    const Blob decoded = storage::compressDecode(envelope);
    if (!decoded || asBytes(decoded) != raw) {
        ADD_FAILURE() << label << ": " << raw.size()
                      << "-byte input does not round-trip";
        return false;
    }
    return true;
}

enum class Mix
{
    RandomBytes, ///< incompressible: the stored fallback
    TwoSymbols,  ///< frequent short runs and triples
    SparseNonZero,
    PlantedRuns, ///< random bytes with runs of 1..300 planted
};

Bytes
mixInput(Mix mix, std::size_t n, std::mt19937_64 &rng)
{
    Bytes raw(n);
    for (std::size_t k = 0; k < n; ++k) {
        const std::uint64_t r = rng();
        switch (mix) {
          case Mix::RandomBytes:
            raw[k] = static_cast<std::uint8_t>(r);
            break;
          case Mix::TwoSymbols:
            raw[k] = (r & 1) ? 0x5a : 0x00;
            break;
          case Mix::SparseNonZero:
            raw[k] = (r % 10 == 0) ? static_cast<std::uint8_t>(r >> 8) : 0;
            break;
          case Mix::PlantedRuns:
            raw[k] = static_cast<std::uint8_t>(r);
            break;
        }
    }
    if (mix == Mix::PlantedRuns) {
        for (std::size_t planted = 0; n > 0 && planted < n / 64 + 1;
             ++planted) {
            const std::size_t at = rng() % n;
            const std::size_t len = std::min<std::size_t>(
                1 + rng() % 300, n - at);
            std::memset(raw.data() + at, static_cast<int>(rng() & 0xff),
                        len);
        }
    }
    return raw;
}

/** `len` bytes that never repeat a byte twice in a row (no run, no
 *  triple), starting at `first`. */
Bytes
literalBytes(std::size_t len, std::uint8_t first)
{
    Bytes out(len);
    for (std::size_t k = 0; k < len; ++k)
        out[k] = static_cast<std::uint8_t>(first + 2 * k + 1);
    return out;
}

} // namespace

TEST(Compress, EncodeMatchesReferenceBytewise)
{
    // Seeded random inputs of every length 0..3000 in four mixes.
    std::mt19937_64 rng(0x5eedc0deULL);
    for (const Mix mix : {Mix::RandomBytes, Mix::TwoSymbols,
                          Mix::SparseNonZero, Mix::PlantedRuns}) {
        for (std::size_t n = 0; n <= 3000; ++n)
            ASSERT_TRUE(matchesReference(
                mixInput(mix, n, rng),
                "mix " + std::to_string(static_cast<int>(mix))));
    }

    // All-equal inputs split into repeat runs of 128 plus a remainder
    // (runs of 2, 3, 127, 128, 129, 130 bytes all occur); alternating
    // inputs into literal chunks of 128 plus a remainder.
    for (std::size_t n = 0; n <= 300; ++n) {
        ASSERT_TRUE(matchesReference(Bytes(n, 0xc3), "all-equal"));
        Bytes alternating(n);
        for (std::size_t k = 0; k < n; ++k)
            alternating[k] = (k & 1) ? 0xab : 0xcd;
        ASSERT_TRUE(matchesReference(alternating, "alternating"));
    }

    // Slices at offsets 0..7 of one larger buffer: the same bytes meet
    // the 8-byte scan steps at every phase. (A Blob owns a malloc-
    // aligned buffer, and the loads at in+j+1 and in+j+2 are unaligned
    // in every case.)
    for (const Mix mix : {Mix::TwoSymbols, Mix::PlantedRuns,
                          Mix::SparseNonZero}) {
        const Bytes big = mixInput(mix, 4096, rng);
        for (std::size_t offset = 0; offset < 8; ++offset) {
            for (std::size_t n = 0; n <= 600; n += (n < 80 ? 1 : 37))
                ASSERT_TRUE(matchesReference(
                    Bytes(big.begin() + static_cast<long>(offset),
                          big.begin() + static_cast<long>(offset + n)),
                    "offset " + std::to_string(offset)));
        }
    }

    // Around the stored threshold: literal A, a run of r bytes, literal
    // B encodes to (1 + a) + 2 + (1 + b) bytes, i.e. n + 4 - r, so runs
    // of 3, 4 and 5 put the RLE output at n + 1, n and n - 1.
    for (std::size_t a : {0, 1, 2, 7, 8, 9, 126, 127, 128}) {
        for (std::size_t b : {0, 1, 2, 8, 127, 128}) {
            for (std::size_t r : {3, 4, 5}) {
                Bytes raw = literalBytes(a, 0x10);
                raw.insert(raw.end(), r, 0x00);
                const Bytes tail = literalBytes(b, 0x20);
                raw.insert(raw.end(), tail.begin(), tail.end());
                ASSERT_TRUE(matchesReference(
                    raw, "threshold a=" + std::to_string(a) +
                             " b=" + std::to_string(b) +
                             " r=" + std::to_string(r)));
            }
        }
    }
    // The n - 1 / n / n + 1 split really is the method switch.
    Bytes at_threshold = literalBytes(100, 0x10);
    at_threshold.insert(at_threshold.end(), 5, 0x00);
    at_threshold.push_back(0x33);
    EXPECT_EQ(referenceEnvelope(at_threshold)[4], 1); // RLE, n - 1
    at_threshold.erase(at_threshold.begin() + 100);
    EXPECT_EQ(referenceEnvelope(at_threshold)[4], 0); // stored, n

    // Ten literal chunks, then a short run: the output reaches n while
    // input remains, so encoding stops early and the input is stored.
    Bytes early_stop = literalBytes(1280, 0x40);
    early_stop.insert(early_stop.end(), 9, 0x00);
    EXPECT_EQ(referenceEnvelope(early_stop)[4], 0);
    EXPECT_TRUE(matchesReference(early_stop, "early stop"));
}

TEST(Compress, WarmEncodeAllocatesNoMoreThanTheEnvelopeSeal)
{
    // Three checkpoint-sized shapes: incompressible (stored), a sparse
    // image (RLE), and a run-heavy image (RLE).
    std::mt19937_64 rng(42);
    const std::vector<Blob> inputs = {
        sealBytes(mixInput(Mix::RandomBytes, 18432, rng)),
        sealBytes(mixInput(Mix::SparseNonZero, 18432, rng)),
        sealBytes(mixInput(Mix::PlantedRuns, 18432, rng)),
    };
    std::vector<std::size_t> envelope_sizes;
    for (const Blob &input : inputs) // warm the pool and staging buffer
        envelope_sizes.push_back(storage::compressEncode(input).size());
    for (const std::size_t size : envelope_sizes) {
        const Bytes staged(size, 1);
        storage::BlobPool::local().copyOf(staged.data(), size);
    }

    constexpr int kRounds = 64;
    const std::uint64_t before_encode = allocCount();
    for (int round = 0; round < kRounds; ++round)
        for (const Blob &input : inputs)
            EXPECT_TRUE(storage::compressEncode(input));
    const std::uint64_t encode_allocs = allocCount() - before_encode;

    // The yardstick: staging a pooled copy of each envelope's size,
    // whose only allocation is the sealed Blob's control block.
    std::vector<Bytes> staged;
    for (const std::size_t size : envelope_sizes)
        staged.emplace_back(size, 1);
    const std::uint64_t before_copy = allocCount();
    for (int round = 0; round < kRounds; ++round)
        for (const Bytes &bytes : staged)
            EXPECT_TRUE(
                storage::BlobPool::local().copyOf(bytes.data(), bytes.size()));
    const std::uint64_t copy_allocs = allocCount() - before_copy;

    EXPECT_LE(encode_allocs, copy_allocs)
        << "a warm compressEncode allocates beyond its envelope";
}
