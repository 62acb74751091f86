/**
 * @file
 * FTI checkpoint data-reduction transforms end-to-end: delta chains
 * recover byte-identically across process incarnations (including
 * chains several links deep), the rebase cadence retires superseded
 * chains from storage, the meta CRC covers the stored envelope (so a
 * corrupt delta fails SDC verification and recovery falls back), and
 * L4 compression ships fewer PFS bytes while restoring bit-identical
 * application state.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "src/fti/fti.hh"
#include "src/simmpi/runtime.hh"
#include "src/storage/drain.hh"
#include "src/storage/transform.hh"

namespace fs = std::filesystem;
using namespace match;
using namespace match::simmpi;
using match::fti::Fti;
using match::fti::FtiConfig;
using match::storage::TransformKind;

namespace
{

FtiConfig
cfg(const std::string &exec_id, TransformKind transform, int level = 1)
{
    FtiConfig config;
    config.ckptDir =
        (fs::temp_directory_path() / "match-fti-transform").string();
    config.execId = exec_id;
    config.defaultLevel = level;
    config.groupSize = 4;
    config.parityShards = 4;
    config.transform = transform;
    return config;
}

JobOptions
options(int nprocs)
{
    JobOptions opts;
    opts.nprocs = nprocs;
    return opts;
}

void
fillPattern(std::vector<double> &v, int rank, int step)
{
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = rank * 1000.0 + step + 0.001 * static_cast<double>(i);
}

/** Write `epochs` consecutive checkpoints with evolving data. */
void
writeEpochs(const FtiConfig &config, int nprocs, int epochs)
{
    Runtime rt;
    rt.run(options(nprocs), [&](Proc &proc) {
        Fti fti(proc, config);
        std::vector<double> data(128);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        for (int epoch = 1; epoch <= epochs; ++epoch) {
            fillPattern(data, proc.rank(), epoch);
            fti.checkpoint(epoch);
        }
        fti.finalize();
    });
}

/** Fresh-job recovery must restore the last epoch bit-for-bit. */
void
expectRecoversEpoch(const FtiConfig &config, int nprocs, int epoch)
{
    Runtime rt;
    rt.run(options(nprocs), [&](Proc &proc) {
        Fti fti(proc, config);
        std::vector<double> data(128, -1.0);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        ASSERT_EQ(fti.status(), epoch);
        fti.recover();
        std::vector<double> expect(128);
        fillPattern(expect, proc.rank(), epoch);
        EXPECT_EQ(data, expect);
        fti.finalize();
    });
}

} // namespace

TEST(FtiTransform, DeltaChainRecoversAcrossIncarnations)
{
    // Four epochs under one rebase period: full, delta, delta, delta.
    // A fresh incarnation must follow the three-link chain back to the
    // full envelope and reassemble epoch 4 exactly.
    auto config = cfg("delta-chain", TransformKind::Delta);
    config.deltaRebase = 8;
    Fti::purge(config);
    writeEpochs(config, 4, 4);
    expectRecoversEpoch(config, 4, 4);
    Fti::purge(config);
}

TEST(FtiTransform, DeltaMatchesFullRecoveryByteForByte)
{
    // The acceptance-criterion fixture: the same epochs written with
    // and without the delta transform must recover identical bytes
    // (expectRecoversEpoch compares against the analytic pattern, so
    // passing both ways proves delta-recovery == full-recovery).
    for (const TransformKind kind :
         {TransformKind::None, TransformKind::Delta}) {
        auto config = cfg(std::string("delta-vs-full-") +
                              storage::transformKindName(kind),
                          kind);
        Fti::purge(config);
        writeEpochs(config, 4, 3);
        expectRecoversEpoch(config, 4, 3);
        Fti::purge(config);
    }
}

TEST(FtiTransform, RebaseRetiresSupersededChainFromStorage)
{
    // deltaRebase 2: epochs run full, delta, full, delta. The second
    // full supersedes chain {1, 2}; with keepOnlyLatest those two
    // checkpoints' objects and metadata must be gone afterwards, while
    // the live chain {3, 4} recovers normally.
    auto config = cfg("delta-rebase", TransformKind::Delta);
    config.deltaRebase = 2;
    ASSERT_TRUE(config.keepOnlyLatest);
    Fti::purge(config);
    writeEpochs(config, 4, 4);
    for (int rank = 0; rank < 4; ++rank) {
        EXPECT_FALSE(fs::exists(Fti::ckptFile(config, rank, 1)));
        EXPECT_FALSE(fs::exists(Fti::ckptFile(config, rank, 2)));
        EXPECT_TRUE(fs::exists(Fti::ckptFile(config, rank, 3)));
        EXPECT_TRUE(fs::exists(Fti::ckptFile(config, rank, 4)));
    }
    EXPECT_FALSE(fs::exists(Fti::metaFile(config, 1)));
    EXPECT_FALSE(fs::exists(Fti::metaFile(config, 2)));
    expectRecoversEpoch(config, 4, 4);
    Fti::purge(config);
}

TEST(FtiTransform, MetaCrcCoversDeltaEnvelope)
{
    // The commit checksum is taken over the stored (post-transform)
    // bytes, so one flipped byte in a delta envelope must fail SDC
    // verification — recovery then falls back to the older full
    // checkpoint instead of replaying a corrupt chain.
    auto config = cfg("delta-sdc", TransformKind::Delta);
    config.sdcChecks = true;
    config.keepOnlyLatest = false;
    Fti::purge(config);
    writeEpochs(config, 4, 2); // ckpt 1 full, ckpt 2 delta
    Fti::corruptAtRest(config, 2);
    Runtime rt;
    rt.run(options(4), [&](Proc &proc) {
        Fti fti(proc, config);
        std::vector<double> data(128, -1.0);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        fti.recover();
        std::vector<double> expect(128);
        fillPattern(expect, proc.rank(), 1);
        EXPECT_EQ(data, expect) << "must restore epoch 1, not rot";
        fti.finalize();
    });
    Fti::purge(config);
}

TEST(FtiTransform, L4CompressionShipsFewerBytesAndRoundTrips)
{
    // L4 flushes go through the drain with the compress stage: the
    // PFS object is the (much smaller) envelope, and recovery
    // decompresses it back to the exact application state. The
    // pattern data is byte-repetitive enough for RLE to bite.
    auto config = cfg("l4-compress", TransformKind::Compress, 4);
    Fti::purge(config);
    const std::uint64_t shipped0 = storage::drainGlobalShippedBytes();
    Runtime rt;
    rt.run(options(4), [&](Proc &proc) {
        Fti fti(proc, config);
        std::vector<double> data(4096, 0.0); // zero runs: RLE heaven
        int iter = 7;
        fti.protect(0, &iter, sizeof(iter));
        fti.protect(1, data.data(), data.size() * sizeof(double));
        fti.checkpoint(1);
        fti.finalize();
    });
    const std::uint64_t shipped =
        storage::drainGlobalShippedBytes() - shipped0;
    const std::uint64_t raw = 4u * 4096u * sizeof(double);
    EXPECT_GT(shipped, 0u);
    EXPECT_LT(shipped, raw / 2)
        << "compressed flushes must ship fewer PFS bytes than staged";

    Runtime rt2;
    rt2.run(options(4), [&](Proc &proc) {
        Fti fti(proc, config);
        std::vector<double> data(4096, -1.0);
        int iter = 0;
        fti.protect(0, &iter, sizeof(iter));
        fti.protect(1, data.data(), data.size() * sizeof(double));
        ASSERT_EQ(fti.status(), 1);
        fti.recover();
        EXPECT_EQ(iter, 7);
        for (const double v : data)
            ASSERT_EQ(v, 0.0);
        fti.finalize();
    });
    Fti::purge(config);
}

TEST(FtiTransform, L4DeltaCompressChainRecovers)
{
    // Both stages together at L4: delta at serialize, compress in the
    // drain. A fresh incarnation follows the chain through the PFS
    // envelopes and restores the last epoch exactly.
    auto config =
        cfg("l4-delta-compress", TransformKind::DeltaCompress, 4);
    config.deltaRebase = 4;
    Fti::purge(config);
    writeEpochs(config, 4, 3);
    expectRecoversEpoch(config, 4, 3);
    Fti::purge(config);
}

TEST(FtiTransform, PlainDeltaRestoreIsPricedFromStoredBytes)
{
    // The restore read is priced from the bytes the rank reads back —
    // the stored delta envelope, not the decoded image — with and
    // without sdcChecks. One epoch gives a single full envelope, so no
    // chain link adds to the read time.
    auto config = cfg("delta-read-price", TransformKind::Delta);
    Fti::purge(config);
    writeEpochs(config, 4, 1);
    Runtime rt;
    rt.run(options(4), [&](Proc &proc) {
        Fti fti(proc, config);
        std::vector<double> data(128, -1.0);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        fti.recover();
        const std::uintmax_t stored =
            fs::file_size(Fti::ckptFile(config, proc.rank(), 1));
        ASSERT_GT(stored, data.size() * sizeof(double));
        EXPECT_DOUBLE_EQ(fti.readSeconds(),
                         proc.runtime().costModel().checkpointRead(
                             1, static_cast<std::size_t>(stored),
                             proc.size()));
        fti.finalize();
    });
    Fti::purge(config);
}
