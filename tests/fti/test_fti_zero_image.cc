/**
 * @file
 * Zero images (FtiConfig::snapshotRegions off): every stored image has
 * the serialized size and is all zero, every rank and checkpoint of a
 * job stores the same buffer, the commit record carries the CRC32C of
 * that many zero bytes, and recovery walks the ladder, reports the
 * restored id and leaves the protected regions untouched — at L1 and
 * at L3 (RS parity over zero shards).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "src/fti/fti.hh"
#include "src/simmpi/runtime.hh"
#include "src/storage/backend.hh"
#include "src/util/crc32c.hh"

namespace fs = std::filesystem;
using namespace match;
using namespace match::simmpi;
using match::fti::Fti;
using match::fti::FtiConfig;

namespace
{

constexpr int kProcs = 8;
constexpr int kEpochs = 3;
constexpr std::size_t kDoubles = 64;
/** Two regions: [u32 id][u64 bytes] headers, an int and the doubles. */
constexpr std::size_t kImageBytes =
    2 * (sizeof(std::uint32_t) + sizeof(std::uint64_t)) + sizeof(int) +
    kDoubles * sizeof(double);

FtiConfig
zeroConfig(int level)
{
    FtiConfig config;
    config.ckptDir =
        (fs::temp_directory_path() / "match-fti-zero-image").string();
    config.execId = "L" + std::to_string(level);
    config.defaultLevel = level;
    config.backend = storage::makeBackend(storage::Kind::Mem);
    config.keepOnlyLatest = false;
    config.snapshotRegions = false;
    return config;
}

JobOptions
options()
{
    JobOptions opts;
    opts.nprocs = kProcs;
    return opts;
}

/** Protected state with nonzero bytes that a snapshot would copy. */
struct State
{
    int counter = 0;
    std::vector<double> data = std::vector<double>(kDoubles, 0.0);

    void
    fill(double value)
    {
        counter = static_cast<int>(value);
        std::fill(data.begin(), data.end(), value);
    }

    void
    protect(Fti &fti)
    {
        fti.protect(0, &counter, sizeof(counter));
        fti.protect(1, data.data(), data.size() * sizeof(double));
    }
};

void
expectZeroImages(int level)
{
    const FtiConfig config = zeroConfig(level);
    Runtime().run(options(), [&](Proc &proc) {
        Fti fti(proc, config);
        State state;
        state.protect(fti);
        for (int epoch = 1; epoch <= kEpochs; ++epoch) {
            state.fill(100.0 * proc.rank() + epoch);
            fti.checkpoint(epoch);
        }
        fti.finalize();
    });

    storage::Backend &store = storage::resolve(config.backend);
    const std::vector<std::uint8_t> zeros(kImageBytes, 0);
    const std::uint64_t zero_crc = util::crc32c(zeros.data(), zeros.size());
    const std::uint8_t *shared = nullptr;
    for (int epoch = 1; epoch <= kEpochs; ++epoch) {
        const fti::MetaInfo meta =
            fti::parseMeta(store.read(Fti::metaFile(config, epoch)));
        ASSERT_TRUE(meta) << "epoch " << epoch;
        EXPECT_EQ(meta.level, level);
        for (int r = 0; r < kProcs; ++r) {
            const std::string where = "L" + std::to_string(level) +
                                      " epoch " + std::to_string(epoch) +
                                      " rank " + std::to_string(r);
            const storage::Blob image =
                store.read(Fti::ckptFile(config, r, epoch));
            ASSERT_TRUE(image) << where;
            ASSERT_EQ(image.size(), kImageBytes) << where;
            EXPECT_TRUE(std::equal(zeros.begin(), zeros.end(),
                                   image.data()))
                << where;
            if (shared == nullptr)
                shared = image.data();
            EXPECT_EQ(image.data(), shared) << where;
            EXPECT_EQ(meta.bytes(r), kImageBytes) << where;
            EXPECT_EQ(meta.crc(r), zero_crc) << where;
        }
    }

    // A fresh incarnation recovers the newest checkpoint through the
    // full ladder and writes nothing into its regions.
    Runtime().run(options(), [&](Proc &proc) {
        Fti fti(proc, config);
        State state;
        state.fill(-7.0);
        state.protect(fti);
        ASSERT_EQ(fti.status(), kEpochs);
        EXPECT_EQ(fti.recover(), kEpochs);
        EXPECT_EQ(state.counter, -7);
        EXPECT_TRUE(std::all_of(state.data.begin(), state.data.end(),
                                [](double v) { return v == -7.0; }));
        EXPECT_GT(fti.readSeconds(), 0.0);
        fti.finalize();
    });
}

} // namespace

TEST(FtiZeroImage, L1StoresOneSharedZeroImage)
{
    expectZeroImages(1);
}

TEST(FtiZeroImage, L3EncodesAndRecoversZeroImages)
{
    expectZeroImages(3);
}

TEST(FtiZeroImage, L3RebuildsALostZeroImage)
{
    // A lost data shard is rebuilt from the zero shards' parity and
    // still passes the record's size and CRC check.
    const FtiConfig config = zeroConfig(3);
    Runtime().run(options(), [&](Proc &proc) {
        Fti fti(proc, config);
        State state;
        state.protect(fti);
        state.fill(1.0 + proc.rank());
        fti.checkpoint(1);
        fti.finalize();
    });
    storage::resolve(config.backend).remove(Fti::ckptFile(config, 1, 1));
    Runtime().run(options(), [&](Proc &proc) {
        Fti fti(proc, config);
        State state;
        state.fill(-3.0);
        state.protect(fti);
        EXPECT_EQ(fti.recover(), 1);
        EXPECT_EQ(state.counter, -3);
        fti.finalize();
    });
}
