/**
 * @file
 * FTI edge cases: misuse detection, loss beyond the per-level
 * guarantee, comm re-binding after ULFM repair, and accounting.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
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
        (fs::temp_directory_path() / "match-fti-edge").string();
    config.execId = exec_id;
    config.defaultLevel = level;
    config.groupSize = 4;
    config.parityShards = 4;
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

} // namespace

TEST(FtiEdgeDeath, RecoverWithoutCheckpointIsFatal)
{
    const auto config = cfg("norecover");
    Fti::purge(config);
    EXPECT_EXIT(
        {
            Runtime rt;
            rt.run(options(2), [&](Proc &proc) {
                Fti fti(proc, config);
                fti.recover();
            });
        },
        ::testing::ExitedWithCode(1), "no committed checkpoint");
}

TEST(FtiEdgeDeath, SizeMismatchOnRestoreIsFatal)
{
    const auto config = cfg("mismatch-size");
    Fti::purge(config);
    {
        Runtime rt;
        rt.run(options(2), [&](Proc &proc) {
            Fti fti(proc, config);
            std::vector<double> data(16, 1.0);
            fti.protect(0, data.data(), data.size() * sizeof(double));
            fti.checkpoint(1);
        });
    }
    EXPECT_EXIT(
        {
            Runtime rt;
            rt.run(options(2), [&](Proc &proc) {
                Fti fti(proc, config);
                std::vector<double> data(8, 0.0); // wrong size
                fti.protect(0, data.data(),
                            data.size() * sizeof(double));
                fti.recover();
            });
        },
        ::testing::ExitedWithCode(1), "size mismatch");
}

TEST(FtiEdgeDeath, L3CannotSurviveMoreThanHalfTheGroup)
{
    const auto config = cfg("l3-overloss", 3);
    Fti::purge(config);
    {
        Runtime rt;
        rt.run(options(4), [&](Proc &proc) {
            Fti fti(proc, config);
            std::vector<double> data(16, 2.0);
            fti.protect(0, data.data(), data.size() * sizeof(double));
            fti.checkpoint(1);
        });
    }
    // Lose 3 of 4 members' local storage: beyond the RS tolerance.
    for (int lost : {0, 1, 2})
        fs::remove_all(Fti::localDir(config, lost));
    EXPECT_EXIT(
        {
            Runtime rt;
            rt.run(options(4), [&](Proc &proc) {
                Fti fti(proc, config);
                std::vector<double> data(16, 0.0);
                fti.protect(0, data.data(),
                            data.size() * sizeof(double));
                fti.recover();
            });
        },
        ::testing::ExitedWithCode(1), "L3 recovery failed");
}

TEST(FtiEdge, CorruptedLocalFileFallsBackToPartner)
{
    const auto config = cfg("l2-corrupt", 2);
    Fti::purge(config);
    {
        Runtime rt;
        rt.run(options(4), [&](Proc &proc) {
            Fti fti(proc, config);
            std::vector<double> data(16, proc.rank() + 1.0);
            fti.protect(0, data.data(), data.size() * sizeof(double));
            fti.checkpoint(1);
        });
    }
    // Corrupt (not delete) rank 1's local file: the checksum must
    // reject it and recovery must use the partner copy.
    {
        std::ofstream out(Fti::ckptFile(config, 1, 1),
                          std::ios::binary | std::ios::in);
        out.seekp(20);
        const char junk = 0x5a;
        out.write(&junk, 1);
    }
    Runtime rt;
    rt.run(options(4), [&](Proc &proc) {
        Fti fti(proc, config);
        std::vector<double> data(16, 0.0);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        fti.recover();
        EXPECT_DOUBLE_EQ(data[0], proc.rank() + 1.0);
    });
    Fti::purge(config);
}

TEST(FtiEdge, WriteSecondsAccumulateAcrossCheckpoints)
{
    const auto config = cfg("accounting");
    Fti::purge(config);
    Runtime rt;
    rt.run(options(2), [&](Proc &proc) {
        Fti fti(proc, config);
        std::vector<double> data(1024, 0.0);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        fti.checkpoint(1);
        const double after_one = fti.writeSeconds();
        fti.checkpoint(2);
        EXPECT_GT(fti.writeSeconds(), after_one * 1.5);
    });
    Fti::purge(config);
}

TEST(FtiEdge, SetCommRebindsAfterUlfmRepair)
{
    // The paper's Figure-3 note: after ULFM repair FTI must use the
    // repaired world communicator. setComm() re-binds an existing
    // instance (the drivers re-construct instead; both must work).
    const auto config = cfg("rebind");
    Fti::purge(config);
    auto opts = options(4, ErrorPolicy::Return);
    opts.schedule = std::make_shared<InjectionSchedule>(
        InjectionSchedule{{{1, 2}}});
    Runtime rt;
    int completions = 0;
    rt.run(opts, [&](Proc &proc) {
        proc.setErrorHandler([&proc](Err) {
            CategoryScope rec(proc, TimeCategory::Recovery);
            proc.revoke();
            proc.repairWorld();
            throw UlfmRestart{};
        });
        // The instance outlives the restart scope (survivors keep it;
        // a respawned rank constructs its own fresh one here).
        fti::Fti instance(proc, config);
        int iter = 0;
        int marker = 0;
        instance.protect(0, &iter, sizeof(iter));
        instance.protect(1, &marker, sizeof(marker));
        for (;;) {
            try {
                // Re-bind to the (possibly repaired) world and restart
                // the loop from scratch: without a pre-failure
                // checkpoint there is nothing to recover, so every
                // incarnation realigns at iteration 0.
                instance.setComm(proc.world());
                for (iter = 0; iter < 4; ++iter) {
                    proc.iterationPoint(iter);
                    proc.allreduce(1.0);
                }
                // A checkpoint written through the re-bound instance on
                // the repaired communicator must commit.
                marker = 42;
                instance.checkpoint(1);
                break;
            } catch (const UlfmRestart &) {
                continue;
            }
        }
        ++completions;
    });
    EXPECT_EQ(completions, 4);

    // A fresh job can recover the post-repair checkpoint.
    Runtime rt2;
    rt2.run(options(4), [&](Proc &proc) {
        Fti fti(proc, config);
        ASSERT_EQ(fti.status(), 1);
        int iter = 0, marker = 0;
        fti.protect(0, &iter, sizeof(iter));
        fti.protect(1, &marker, sizeof(marker));
        fti.recover();
        EXPECT_EQ(marker, 42);
    });
    Fti::purge(config);
}

TEST(FtiEdge, ZeroByteRegionRoundTrips)
{
    const auto config = cfg("zero");
    Fti::purge(config);
    Runtime rt;
    rt.run(options(1), [&](Proc &proc) {
        Fti fti(proc, config);
        int marker = 3;
        fti.protect(0, &marker, sizeof(marker));
        fti.protect(1, &marker, 0); // zero-length registration
        fti.checkpoint(1);
        marker = 0;
        fti.recover();
        EXPECT_EQ(marker, 3);
    });
    Fti::purge(config);
}
