/**
 * @file
 * SDC hardening: with config.sdcChecks, recovery CRC32C-verifies the
 * restored payload and walks down the committed-checkpoint ladder on
 * corruption instead of aborting or silently restoring rot; scrub()
 * converts at-rest corruption into an ordinary lost-object recovery;
 * and the whole path stays off (bit-identical legacy behaviour) by
 * default.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "src/fti/fti.hh"
#include "src/simmpi/runtime.hh"

namespace fs = std::filesystem;
using namespace match;
using namespace match::simmpi;
using match::fti::Fti;
using match::fti::FtiConfig;

namespace
{

FtiConfig
cfg(const std::string &exec_id, int level = 1)
{
    FtiConfig config;
    config.ckptDir =
        (fs::temp_directory_path() / "match-fti-sdc").string();
    config.execId = exec_id;
    config.defaultLevel = level;
    config.groupSize = 4;
    config.parityShards = 4;
    config.sdcChecks = true;
    return config;
}

JobOptions
options(int nprocs)
{
    JobOptions opts;
    opts.nprocs = nprocs;
    return opts;
}

/** Two committed checkpoints: value 1.0 under id 1, 2.0 under id 2. */
void
writeTwoCheckpoints(const FtiConfig &config, int nprocs)
{
    Runtime rt;
    rt.run(options(nprocs), [&](Proc &proc) {
        Fti fti(proc, config);
        std::vector<double> data(64, 1.0);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        fti.checkpoint(1);
        std::fill(data.begin(), data.end(), 2.0);
        fti.checkpoint(2);
        fti.finalize();
    });
}

/** Cut rank 0's whole L4 object of checkpoint 2 (transform none) to
 *  4 bytes: a torn flush that its committed record no longer names. */
void
truncateL4Object(const FtiConfig &config)
{
    const std::string object = Fti::pfsFile(config, 0, 2);
    ASSERT_TRUE(fs::exists(object));
    fs::resize_file(object, 4);
}

/** A fresh 4-rank job that recovers and returns rank 0's restored
 *  value (every element holds it). */
double
recoverAndReadValue(const FtiConfig &config)
{
    double value = 0.0;
    Runtime rt;
    rt.run(options(4), [&](Proc &proc) {
        Fti fti(proc, config);
        std::vector<double> data(64, 0.0);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        fti.recover();
        for (const double v : data)
            EXPECT_EQ(v, data[0]);
        if (proc.globalIndex() == 0)
            value = data[0];
        fti.finalize();
    });
    return value;
}

} // namespace

TEST(FtiSdc, CorruptNewestFallsBackToOlderCheckpoint)
{
    auto config = cfg("fallback-older");
    config.keepOnlyLatest = false;
    Fti::purge(config);
    writeTwoCheckpoints(config, 4);
    // One flipped byte in one rank's newest object: the allreduce-MIN
    // vote must reject checkpoint 2 on EVERY rank and restore 1.
    Fti::corruptAtRest(config, 2);
    Runtime rt;
    rt.run(options(4), [&](Proc &proc) {
        Fti fti(proc, config);
        std::vector<double> data(64, 0.0);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        EXPECT_EQ(fti.status(), 2);
        fti.recover();
        for (const double v : data)
            ASSERT_EQ(v, 1.0);
    });
}

TEST(FtiSdc, AllCheckpointsCorruptRestartsFromInitialState)
{
    const auto config = cfg("fallback-fresh");
    Fti::purge(config);
    {
        Runtime rt;
        rt.run(options(4), [&](Proc &proc) {
            Fti fti(proc, config);
            std::vector<double> data(64, 7.0);
            fti.protect(0, data.data(), data.size() * sizeof(double));
            fti.checkpoint(1);
        });
    }
    Fti::corruptAtRest(config, 1);
    // Never fatal, never silently wrong: the protected buffers keep
    // their initial values and the run re-executes from scratch.
    Runtime rt;
    rt.run(options(4), [&](Proc &proc) {
        Fti fti(proc, config);
        std::vector<double> data(64, -3.0);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        fti.recover();
        for (const double v : data)
            ASSERT_EQ(v, -3.0);
    });
}

TEST(FtiSdc, CorruptL2FallsBackToPartnerCopy)
{
    const auto config = cfg("l2-partner", 2);
    Fti::purge(config);
    {
        Runtime rt;
        rt.run(options(4), [&](Proc &proc) {
            Fti fti(proc, config);
            std::vector<double> data(64, 5.0);
            fti.protect(0, data.data(), data.size() * sizeof(double));
            fti.checkpoint(1);
        });
    }
    // Corrupting one local object leaves the partner's intact copy:
    // verification fails over within the level, no ladder descent.
    Fti::corruptAtRest(config, 3);
    Runtime rt;
    rt.run(options(4), [&](Proc &proc) {
        Fti fti(proc, config);
        std::vector<double> data(64, 0.0);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        fti.recover();
        for (const double v : data)
            ASSERT_EQ(v, 5.0);
    });
}

TEST(FtiSdc, ScrubDropsCorruptLocalObject)
{
    const auto config = cfg("scrub-drop", 2);
    Fti::purge(config);
    {
        Runtime rt;
        rt.run(options(4), [&](Proc &proc) {
            Fti fti(proc, config);
            std::vector<double> data(64, 9.0);
            fti.protect(0, data.data(), data.size() * sizeof(double));
            fti.checkpoint(1);
        });
    }
    Fti::corruptAtRest(config, 0);
    ASSERT_TRUE(fs::exists(Fti::ckptFile(config, 0, 1)));
    Runtime rt;
    rt.run(options(4), [&](Proc &proc) {
        Fti fti(proc, config);
        std::vector<double> data(64, 0.0);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        fti.scrub();
        if (proc.globalIndex() == 0) {
            // The rotten object is gone; intact peers keep theirs.
            EXPECT_FALSE(fs::exists(Fti::ckptFile(config, 0, 1)));
            EXPECT_TRUE(fs::exists(Fti::ckptFile(config, 1, 1)));
        }
        // ...and the next recovery is an ordinary lost-object rebuild.
        fti.recover();
        for (const double v : data)
            ASSERT_EQ(v, 9.0);
    });
}

TEST(FtiSdc, IntactScrubKeepsObjectAndRecoveryRestoresNewest)
{
    const auto config = cfg("scrub-intact");
    Fti::purge(config);
    Runtime rt;
    rt.run(options(4), [&](Proc &proc) {
        Fti fti(proc, config);
        std::vector<double> data(64, 4.0);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        fti.checkpoint(1);
        fti.scrub();
        EXPECT_TRUE(fs::exists(
            Fti::ckptFile(config, proc.globalIndex(), 1)));
        std::fill(data.begin(), data.end(), 0.0);
        fti.recover();
        for (const double v : data)
            ASSERT_EQ(v, 4.0);
    });
}

TEST(FtiSdc, TruncatedL4ObjectFallsBackToOlderCheckpoint)
{
    // A truncated PFS object fails its size check: a soft miss, and
    // the vote then walks every rank down to checkpoint 1.
    auto config = cfg("l4-truncated", 4);
    config.keepOnlyLatest = false;
    Fti::purge(config);
    writeTwoCheckpoints(config, 4);
    truncateL4Object(config);
    EXPECT_EQ(recoverAndReadValue(config), 1.0);
    Fti::purge(config);
}

TEST(FtiSdcDeath, TruncatedL4ObjectIsFatalWithoutSdcChecks)
{
    // Without sdcChecks a lost L4 object is fatal as for every level:
    // a clean exit naming the level, not an assertion abort.
    auto config = cfg("l4-truncated-plain", 4);
    config.keepOnlyLatest = false;
    config.sdcChecks = false;
    Fti::purge(config);
    writeTwoCheckpoints(config, 4);
    truncateL4Object(config);
    EXPECT_EXIT(recoverAndReadValue(config), ::testing::ExitedWithCode(1),
                "L4 recovery failed");
    Fti::purge(config);
}
