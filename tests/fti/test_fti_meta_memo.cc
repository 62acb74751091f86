/**
 * @file
 * The per-thread meta memo: a memoized parse equals a fresh one, a
 * rewritten record is never served stale, garbled records are still
 * rejected softly, recovery survives more committed records than the
 * memo holds, and a 64-rank Reinit recovery parses each distinct
 * record once — on MemBackend (shared buffers) and DiskBackend (a
 * fresh copy per fetch) alike.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/fti/fti.hh"
#include "src/simmpi/runtime.hh"
#include "src/storage/backend.hh"
#include "src/storage/transform.hh"
#include "src/util/ini.hh"

namespace fs = std::filesystem;
using namespace match;
using namespace match::simmpi;
using match::fti::Fti;
using match::fti::FtiConfig;
using match::fti::MetaInfo;

namespace
{

FtiConfig
cfg(const std::string &exec_id, storage::Kind kind)
{
    FtiConfig config;
    config.ckptDir =
        (fs::temp_directory_path() / "match-fti-meta-memo").string();
    config.execId = exec_id + "-" + storage::kindName(kind);
    config.defaultLevel = 1;
    config.backend = storage::makeBackend(kind);
    // Every committed record stays on storage, so the ladder and the
    // memo see all of them.
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

storage::Blob
readMeta(const FtiConfig &config, int ckpt_id)
{
    return storage::resolve(config.backend)
        .read(Fti::metaFile(config, ckpt_id));
}

void
writeMeta(const FtiConfig &config, int ckpt_id, const std::string &text)
{
    storage::resolve(config.backend)
        .writeAtomic(Fti::metaFile(config, ckpt_id),
                     storage::BlobPool::local().copyOf(text.data(),
                                                       text.size()));
}

std::string
asString(const storage::Blob &blob)
{
    return std::string(reinterpret_cast<const char *>(blob.data()),
                       blob.size());
}

storage::Blob
asBlob(const std::string &text)
{
    return storage::Blob::fromVector(
        std::vector<std::uint8_t>(text.begin(), text.end()));
}

void
expectSameMeta(const MetaInfo *a, const MetaInfo *b)
{
    ASSERT_EQ(a == nullptr, b == nullptr);
    if (!a)
        return;
    EXPECT_EQ(a->ckptId, b->ckptId);
    EXPECT_EQ(a->level, b->level);
    EXPECT_EQ(a->nprocs, b->nprocs);
    EXPECT_EQ(a->bytesPerRank, b->bytesPerRank);
    EXPECT_EQ(a->checksumPerRank, b->checksumPerRank);
    EXPECT_EQ(a->complete, b->complete);
}

class FtiMetaMemo : public ::testing::TestWithParam<storage::Kind>
{
};

} // namespace

TEST_P(FtiMetaMemo, HitEqualsFreshParse)
{
    const auto config = cfg("hit", GetParam());
    Fti::purge(config);
    writeEpochs(config, 4, 1);
    const storage::Blob text = readMeta(config, 1);
    ASSERT_TRUE(text);

    const auto fresh = fti::parseMeta(text);
    ASSERT_TRUE(fresh);
    EXPECT_TRUE(fresh->complete);
    EXPECT_EQ(fresh->ckptId, 1);
    EXPECT_EQ(fresh->nprocs, 4);
    EXPECT_EQ(fresh->bytesPerRank.size(), 4u);

    fti::parseMetaMemo(text);
    const auto before = fti::metaMemoStats();
    // The same buffer (pointer fast path), then an equal-bytes copy.
    const auto same = fti::parseMetaMemo(text);
    const auto copy = fti::parseMetaMemo(asBlob(asString(text)));
    const auto after = fti::metaMemoStats();
    EXPECT_EQ(after.hits - before.hits, 2u);
    EXPECT_EQ(after.misses, before.misses);
    expectSameMeta(same.get(), fresh.get());
    expectSameMeta(copy.get(), fresh.get());
    Fti::purge(config);
}

TEST_P(FtiMetaMemo, RewrittenRecordIsNeverServedStale)
{
    const auto config = cfg("stale", GetParam());
    Fti::purge(config);
    writeEpochs(config, 4, 2);
    expectRecoversEpoch(config, 4, 2); // record 2 is now memoized

    // Rewrite record 2 as an 8-rank record (it lists only 4 ranks, so
    // it is incomplete): recovery must see the new text, reject it and
    // fall back to record 1.
    const std::string original = asString(readMeta(config, 2));
    util::IniFile ini;
    ASSERT_TRUE(ini.parseString(original));
    ini.setInt("ckpt", "nprocs", 8);
    writeMeta(config, 2, ini.toString());
    expectRecoversEpoch(config, 4, 1);

    writeMeta(config, 2, original);
    expectRecoversEpoch(config, 4, 2);
    Fti::purge(config);
}

TEST_P(FtiMetaMemo, GarbledRecordIsRejectedSoftly)
{
    const auto config = cfg("garbled", GetParam());
    Fti::purge(config);
    writeEpochs(config, 4, 2);
    const std::string original = asString(readMeta(config, 2));
    expectRecoversEpoch(config, 4, 2);

    std::string unbracketed = original; // "[ckpt]" loses its '['
    ASSERT_EQ(unbracketed.front(), '[');
    unbracketed.front() ^= 0x5a;
    std::string bad_id = original; // "id = 2" -> "id = x"
    const std::size_t id_at = bad_id.find("id = 2");
    ASSERT_NE(id_at, std::string::npos);
    bad_id[id_at + 5] = 'x';
    const std::string truncated = original.substr(0, original.size() / 2);

    for (const std::string &garbled : {unbracketed, bad_id, truncated}) {
        SCOPED_TRACE(garbled);
        const auto fresh = fti::parseMeta(asBlob(garbled));
        expectSameMeta(fti::parseMetaMemo(asBlob(garbled)).get(),
                       fresh.get());
        EXPECT_TRUE(!fresh || !fresh->complete || fresh->ckptId != 2);
        writeMeta(config, 2, garbled);
        expectRecoversEpoch(config, 4, 1);
    }
    Fti::purge(config);
}

TEST_P(FtiMetaMemo, ChainLongerThanCapacityRecovers)
{
    auto config = cfg("chain", GetParam());
    config.transform = storage::TransformKind::Delta;
    config.deltaRebase = 40; // delta chains up to 39 links deep
    Fti::purge(config);
    const int epochs = static_cast<int>(fti::kMetaMemoCapacity) + 16;
    writeEpochs(config, 4, epochs);
    const auto before = fti::metaMemoStats();
    expectRecoversEpoch(config, 4, epochs);
    // Scanning more records than the memo holds must have evicted.
    EXPECT_GT(fti::metaMemoStats().evictions, before.evictions);
    Fti::purge(config);
}

TEST_P(FtiMetaMemo, ReinitRecoveryParsesEachRecordOnce)
{
    // A salt region makes this invocation's records unlike any an
    // earlier one (--gtest_repeat) left in the memo.
    static int invocation = 0;
    const int salt = ++invocation;
    const auto config = cfg("reinit", GetParam());
    Fti::purge(config);
    constexpr int kProcs = 64;
    JobOptions opts = options(kProcs, ErrorPolicy::Reinit);
    opts.schedule = std::make_shared<InjectionSchedule>(
        InjectionSchedule{{{7, 5}}});

    const auto before = fti::metaMemoStats();
    std::vector<double> finals(kProcs, 0.0);
    Runtime rt;
    const JobResult result = rt.runReinit(opts, [&](Proc &proc,
                                                    ReinitState) {
        Fti fti(proc, config);
        int iter = 0;
        double acc = 0.0;
        int salted = salt;
        fti.protect(0, &iter, sizeof(iter));
        fti.protect(1, &acc, sizeof(acc));
        fti.protect(2, &salted, sizeof(salted));
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
    const auto after = fti::metaMemoStats();
    EXPECT_EQ(result.recoveries, 1);
    for (double f : finals)
        EXPECT_DOUBLE_EQ(f, 10.0 * kProcs);
    // Every rank reads records 1-3 (status scan, ladder, rung); only
    // the first read of each distinct text parses.
    EXPECT_EQ(after.misses - before.misses, 3u);
    EXPECT_GE(after.hits - before.hits, 3u * (kProcs - 1));
    Fti::purge(config);
}

INSTANTIATE_TEST_SUITE_P(Backends, FtiMetaMemo,
                         ::testing::Values(storage::Kind::Mem,
                                           storage::Kind::Disk),
                         [](const auto &info) {
                             return std::string(
                                 storage::kindName(info.param));
                         });

namespace
{

/** The record text as util::IniFile serializes it (the reference
 *  layout fti::formatMeta writes directly). */
std::string
iniMetaText(const MetaInfo &meta)
{
    util::IniFile ini;
    ini.setInt("ckpt", "id", meta.ckptId);
    ini.setInt("ckpt", "level", meta.level);
    ini.setInt("ckpt", "nprocs", meta.nprocs);
    for (int r = 0; r < meta.nprocs; ++r) {
        ini.setInt("ranks", "bytes" + std::to_string(r),
                   static_cast<long>(meta.bytesPerRank[r]));
        ini.set("ranks", "crc" + std::to_string(r),
                std::to_string(meta.checksumPerRank[r]));
    }
    return ini.toString();
}

} // namespace

TEST(FtiMetaText, DirectWriterMatchesIniFileAndRoundTrips)
{
    // Rank counts on both sides of each extra decimal digit, where the
    // lexicographic key order differs most from the numeric one.
    for (int nprocs : {1, 2, 9, 10, 11, 99, 100, 101, 512}) {
        MetaInfo meta;
        meta.ckptId = 1000 + nprocs;
        meta.level = 1 + nprocs % 4;
        meta.nprocs = nprocs;
        for (int r = 0; r < nprocs; ++r) {
            meta.bytesPerRank.push_back(
                (std::size_t{1} << 40) + 18432 + static_cast<std::size_t>(r));
            // CRC32C values at the top of their range, plus the widest
            // value the uint64 field can hold.
            meta.checksumPerRank.push_back(
                r == 0 ? ~std::uint64_t{0}
                       : 0xFFFFFFFFull - static_cast<std::uint64_t>(r));
        }
        meta.complete = true;
        const std::string text = fti::formatMeta(meta);
        ASSERT_EQ(text, iniMetaText(meta)) << "nprocs " << nprocs;

        const auto parsed = fti::parseMeta(asBlob(text));
        ASSERT_NE(parsed, nullptr);
        expectSameMeta(parsed.get(), &meta);

        // First sight parses; an equal copy in a fresh buffer is a hit
        // and yields the same record.
        const auto first = fti::parseMetaMemo(asBlob(text));
        const auto before = fti::metaMemoStats();
        const auto again = fti::parseMetaMemo(asBlob(text));
        EXPECT_EQ(fti::metaMemoStats().hits, before.hits + 1);
        expectSameMeta(first.get(), &meta);
        expectSameMeta(again.get(), &meta);
    }
}
