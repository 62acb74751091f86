/**
 * @file
 * The binary commit record: a committed record has the documented
 * layout, a rewritten or malformed record makes recovery fall back to
 * the previous one (and a restored record is recovered again), a long
 * delta chain recovers, a 64-rank Reinit recovery restores the right
 * finals — on MemBackend (shared buffers) and DiskBackend (a fresh
 * copy per fetch) alike — and the record round-trips at rank counts
 * and field values at the edges of their range.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/fti/fti.hh"
#include "src/simmpi/runtime.hh"
#include "src/storage/backend.hh"
#include "src/storage/transform.hh"

namespace fs = std::filesystem;
using namespace match;
using namespace match::simmpi;
using match::fti::Fti;
using match::fti::FtiConfig;
using match::fti::MetaInfo;

namespace
{

using Bytes = std::vector<std::uint8_t>;

FtiConfig
cfg(const std::string &exec_id, storage::Kind kind)
{
    FtiConfig config;
    config.ckptDir =
        (fs::temp_directory_path() / "match-fti-meta-record").string();
    config.execId = exec_id + "-" + storage::kindName(kind);
    config.defaultLevel = 1;
    config.backend = storage::makeBackend(kind);
    // Every committed record stays on storage, so the ladder sees all
    // of them.
    config.keepOnlyLatest = false;
    return config;
}

JobOptions
options(int nprocs, ErrorPolicy policy = ErrorPolicy::Fatal)
{
    JobOptions opts;
    opts.nprocs = nprocs;
    opts.policy = policy;
    return opts;
}

void
fillPattern(std::vector<double> &v, int rank, int step)
{
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = rank * 1000.0 + step + 0.001 * static_cast<double>(i);
}

void
writeEpochs(const FtiConfig &config, int nprocs, int epochs)
{
    Runtime rt;
    rt.run(options(nprocs), [&](Proc &proc) {
        Fti fti(proc, config);
        std::vector<double> data(64);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        for (int epoch = 1; epoch <= epochs; ++epoch) {
            fillPattern(data, proc.rank(), epoch);
            fti.checkpoint(epoch);
        }
        fti.finalize();
    });
}

/** A fresh job must report `epoch` and restore it bit-for-bit. */
void
expectRecoversEpoch(const FtiConfig &config, int nprocs, int epoch)
{
    Runtime rt;
    rt.run(options(nprocs), [&](Proc &proc) {
        Fti fti(proc, config);
        std::vector<double> data(64, -1.0);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        ASSERT_EQ(fti.status(), epoch);
        fti.recover();
        std::vector<double> expect(64);
        fillPattern(expect, proc.rank(), epoch);
        EXPECT_EQ(data, expect);
        fti.finalize();
    });
}

Bytes
readMeta(const FtiConfig &config, int ckpt_id)
{
    const storage::Blob blob = storage::resolve(config.backend)
                                   .read(Fti::metaFile(config, ckpt_id));
    return Bytes(blob.data(), blob.data() + blob.size());
}

void
writeMeta(const FtiConfig &config, int ckpt_id, const Bytes &bytes)
{
    storage::resolve(config.backend)
        .writeAtomic(Fti::metaFile(config, ckpt_id),
                     storage::BlobPool::local().copyOf(bytes.data(),
                                                       bytes.size()));
}

MetaInfo
parse(const Bytes &bytes)
{
    return fti::parseMeta(storage::Blob::fromVector(Bytes(bytes)));
}

/** Overwrite the header's int32 field `index` (0 = magic, 1 = ckptId,
 *  2 = level, 3 = nprocs). */
Bytes
withHeaderField(Bytes bytes, int index, std::int32_t value)
{
    std::memcpy(bytes.data() + 4 * index, &value, sizeof(value));
    return bytes;
}

class FtiMetaRecord : public ::testing::TestWithParam<storage::Kind>
{
};

} // namespace

TEST_P(FtiMetaRecord, CommittedRecordHasDocumentedLayout)
{
    const auto config = cfg("layout", GetParam());
    Fti::purge(config);
    writeEpochs(config, 4, 1);
    const Bytes bytes = readMeta(config, 1);
    ASSERT_EQ(bytes.size(), MetaInfo::recordBytes(4));

    const MetaInfo meta = parse(bytes);
    ASSERT_TRUE(meta);
    EXPECT_EQ(meta.ckptId, 1);
    EXPECT_EQ(meta.level, 1);
    EXPECT_EQ(meta.nprocs, 4);
    // Each entry names its rank's stored object exactly.
    for (int r = 0; r < 4; ++r) {
        const storage::Blob object =
            storage::resolve(config.backend)
                .read(Fti::ckptFile(config, r, 1));
        ASSERT_TRUE(object) << "rank " << r;
        EXPECT_EQ(meta.bytes(r), object.size()) << "rank " << r;
        EXPECT_EQ(meta.crc(r), object.crc32c()) << "rank " << r;
    }
    Fti::purge(config);
}

TEST_P(FtiMetaRecord, RewrittenRecordFallsBackAndRestores)
{
    const auto config = cfg("rewrite", GetParam());
    Fti::purge(config);
    writeEpochs(config, 4, 2);
    expectRecoversEpoch(config, 4, 2);

    // Rewrite record 2 as an 8-rank record (it holds only 4 entries,
    // so its size no longer matches): recovery must see the new bytes,
    // reject them and fall back to record 1.
    const Bytes original = readMeta(config, 2);
    writeMeta(config, 2, withHeaderField(original, 3, 8));
    expectRecoversEpoch(config, 4, 1);

    writeMeta(config, 2, original);
    expectRecoversEpoch(config, 4, 2);
    Fti::purge(config);
}

TEST_P(FtiMetaRecord, MalformedRecordFallsBack)
{
    const auto config = cfg("malformed", GetParam());
    Fti::purge(config);
    writeEpochs(config, 4, 2);
    const Bytes original = readMeta(config, 2);
    expectRecoversEpoch(config, 4, 2);

    Bytes bad_magic = original;
    bad_magic[0] ^= 0x5a;
    const Bytes bad_id = withHeaderField(original, 1, 3);
    const Bytes truncated(original.begin(),
                          original.begin() + original.size() / 2);
    Bytes appended = original;
    appended.push_back(0);

    const struct
    {
        const char *name;
        const Bytes &bytes;
    } cases[] = {{"bad magic", bad_magic},
                 {"bad id", bad_id},
                 {"truncated", truncated},
                 {"appended byte", appended}};
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        const MetaInfo meta = parse(c.bytes);
        EXPECT_TRUE(!meta || meta.ckptId != 2);
        writeMeta(config, 2, c.bytes);
        expectRecoversEpoch(config, 4, 1);
    }
    Fti::purge(config);
}

TEST_P(FtiMetaRecord, LongDeltaChainRecovers)
{
    auto config = cfg("chain", GetParam());
    config.transform = storage::TransformKind::Delta;
    config.deltaRebase = 40; // delta chains up to 39 links deep
    Fti::purge(config);
    constexpr int kEpochs = 80;
    writeEpochs(config, 4, kEpochs);
    expectRecoversEpoch(config, 4, kEpochs);
    Fti::purge(config);
}

TEST_P(FtiMetaRecord, ReinitRecoveryRestoresFinals)
{
    const auto config = cfg("reinit", GetParam());
    Fti::purge(config);
    constexpr int kProcs = 64;
    JobOptions opts = options(kProcs, ErrorPolicy::Reinit);
    opts.schedule = std::make_shared<InjectionSchedule>(
        InjectionSchedule{{{7, 5}}});

    std::vector<double> finals(kProcs, 0.0);
    Runtime rt;
    const JobResult result = rt.runReinit(opts, [&](Proc &proc,
                                                    ReinitState) {
        Fti fti(proc, config);
        int iter = 0;
        double acc = 0.0;
        fti.protect(0, &iter, sizeof(iter));
        fti.protect(1, &acc, sizeof(acc));
        for (; iter < 10; ++iter) {
            proc.iterationPoint(iter);
            if (fti.status() != 0)
                fti.recover();
            if (iter > 0 && iter % 2 == 0)
                fti.checkpoint(iter / 2); // records 1-3 before the kill
            acc += proc.allreduce(1.0);
        }
        finals[proc.rank()] = acc;
        fti.finalize();
    });
    EXPECT_EQ(result.recoveries, 1);
    for (double f : finals)
        EXPECT_DOUBLE_EQ(f, 10.0 * kProcs);
    Fti::purge(config);
}

INSTANTIATE_TEST_SUITE_P(Backends, FtiMetaRecord,
                         ::testing::Values(storage::Kind::Mem,
                                           storage::Kind::Disk),
                         [](const auto &info) {
                             return std::string(
                                 storage::kindName(info.param));
                         });

TEST(FtiMetaRecordFormat, RoundTripsAtRankCountEdges)
{
    for (int nprocs : {1, 2, 9, 10, 11, 99, 100, 101, 512}) {
        SCOPED_TRACE(nprocs);
        const std::int32_t header[4] = {MetaInfo::kMagic, 1000 + nprocs,
                                        1 + nprocs % 4, nprocs};
        Bytes bytes(MetaInfo::recordBytes(nprocs));
        std::memcpy(bytes.data(), header, sizeof(header));
        for (int r = 0; r < nprocs; ++r) {
            // Sizes and CRC32C values at the top of their range, plus
            // the widest value each u64 field can hold.
            const std::uint64_t entry[2] = {
                r == 0 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << 40) + 18432 +
                             static_cast<std::uint64_t>(r),
                r == 0 ? ~std::uint64_t{0}
                       : 0xFFFFFFFFull - static_cast<std::uint64_t>(r)};
            std::memcpy(bytes.data() + MetaInfo::kHeaderBytes +
                            MetaInfo::kEntryBytes * r,
                        entry, sizeof(entry));
        }

        const MetaInfo meta = parse(bytes);
        ASSERT_TRUE(meta);
        EXPECT_EQ(meta.ckptId, 1000 + nprocs);
        EXPECT_EQ(meta.level, 1 + nprocs % 4);
        EXPECT_EQ(meta.nprocs, nprocs);
        EXPECT_EQ(meta.record.size(), bytes.size());
        EXPECT_EQ(meta.bytes(0), static_cast<std::size_t>(~std::uint64_t{0}));
        EXPECT_EQ(meta.crc(0), ~std::uint64_t{0});
        for (int r = 1; r < nprocs; ++r) {
            EXPECT_EQ(meta.bytes(r), (std::size_t{1} << 40) + 18432 +
                                         static_cast<std::size_t>(r));
            EXPECT_EQ(meta.crc(r),
                      0xFFFFFFFFull - static_cast<std::uint64_t>(r));
        }

        // The validity rule: a record one entry short or long, or with
        // a level outside [1, 4], is rejected.
        EXPECT_FALSE(parse(withHeaderField(bytes, 3, nprocs + 1)));
        EXPECT_FALSE(parse(withHeaderField(bytes, 3, nprocs - 1)));
        EXPECT_FALSE(parse(withHeaderField(bytes, 2, 0)));
        EXPECT_FALSE(parse(withHeaderField(bytes, 2, 5)));
    }
    EXPECT_FALSE(fti::parseMeta(storage::Blob()));
}
