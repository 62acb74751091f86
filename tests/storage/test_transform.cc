/**
 * @file
 * Contract suite over the checkpoint data-reduction transforms: kind
 * names round-trip, compress survives compressible and incompressible
 * inputs (stored fallback), delta encodes full and diff envelopes that
 * decode back byte-identically, corrupt envelopes are rejected softly
 * (a null Blob, never a fatal), and the per-instance/per-stage
 * counters move.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/storage/blob.hh"
#include "src/storage/transform.hh"

using namespace match;
using match::storage::Blob;
using match::storage::CompressTransform;
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
    const Blob decoded = tx.reverse(envelope);
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

    const Blob decoded = tx.decode(envelope, base);
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
    EXPECT_EQ(asBytes(tx.decode(envelope, base)), raw);
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
    EXPECT_EQ(asBytes(tx.reverse(envelope)), raw);
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
    EXPECT_FALSE(tx.decode(corrupt(envelope, 1), base));
    // Corrupt a record offset (first record field lives right after
    // the 24-byte diff header) so it points outside the image.
    EXPECT_FALSE(tx.decode(corrupt(envelope, 30, 0xff), base));
    // A delta decoded against the wrong-size base is rejected.
    EXPECT_FALSE(tx.decode(
        envelope, sealBytes(std::vector<std::uint8_t>(8, 0))));
    // Truncation is rejected.
    std::vector<std::uint8_t> truncated = asBytes(envelope);
    truncated.resize(20);
    EXPECT_FALSE(tx.decode(sealBytes(std::move(truncated)), base));
    // The pristine envelope still decodes.
    EXPECT_TRUE(tx.decode(envelope, base));
}

TEST(TransformStats, InstanceAndGlobalCountersMove)
{
    const TransformStats delta_before =
        storage::transformGlobalStats(TransformStage::Delta);
    const TransformStats compress_before =
        storage::transformGlobalStats(TransformStage::Compress);

    DeltaTransform dtx(64);
    CompressTransform ctx;
    const std::vector<std::uint8_t> raw(2048, 5);
    const Blob image = sealBytes(std::vector<std::uint8_t>(raw));
    const Blob denv = dtx.apply(image);
    dtx.reverse(denv);
    const Blob cenv = ctx.apply(image);
    ctx.reverse(cenv);

    EXPECT_EQ(dtx.stats().applies, 1u);
    EXPECT_EQ(dtx.stats().reverses, 1u);
    EXPECT_EQ(dtx.stats().bytesIn, raw.size());
    EXPECT_EQ(dtx.stats().bytesOut, denv.size());
    EXPECT_EQ(ctx.stats().applies, 1u);
    EXPECT_EQ(ctx.stats().bytesIn, raw.size());
    EXPECT_EQ(ctx.stats().bytesOut, cenv.size());
    EXPECT_LT(ctx.stats().bytesOut, ctx.stats().bytesIn);

    const TransformStats delta_after =
        storage::transformGlobalStats(TransformStage::Delta);
    const TransformStats compress_after =
        storage::transformGlobalStats(TransformStage::Compress);
    EXPECT_EQ(delta_after.applies - delta_before.applies, 1u);
    EXPECT_EQ(delta_after.reverses - delta_before.reverses, 1u);
    EXPECT_EQ(delta_after.bytesIn - delta_before.bytesIn, raw.size());
    EXPECT_EQ(compress_after.applies - compress_before.applies, 1u);
    EXPECT_EQ(compress_after.bytesOut - compress_before.bytesOut,
              cenv.size());
}
