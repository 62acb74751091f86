/**
 * @file
 * FTI library tests: protect/checkpoint/recover round trips on all four
 * levels, survival of storage loss per level's guarantee, restart
 * detection, L4 pruning, and interaction with the
 * simulated runtime's failure designs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "src/fti/fti.hh"
#include "src/simmpi/launcher.hh"
#include "src/simmpi/proc.hh"
#include "src/simmpi/runtime.hh"

namespace fs = std::filesystem;
using namespace match;
using namespace match::simmpi;
using match::fti::Fti;
using match::fti::FtiConfig;

namespace
{

FtiConfig
testConfig(const std::string &exec_id, int level = 1)
{
    FtiConfig cfg;
    cfg.ckptDir = (fs::temp_directory_path() / "match-fti-tests").string();
    cfg.execId = exec_id;
    cfg.defaultLevel = level;
    cfg.groupSize = 4;
    cfg.parityShards = 4;
    return cfg;
}

JobOptions
options(int nprocs, ErrorPolicy policy = ErrorPolicy::Fatal)
{
    JobOptions opts;
    opts.nprocs = nprocs;
    opts.policy = policy;
    return opts;
}

/** Fill a vector with a rank- and step-dependent pattern. */
void
fillPattern(std::vector<double> &v, int rank, int step)
{
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = rank * 1000.0 + step + 0.001 * static_cast<double>(i);
}

/** Every object stored under `dir`, recursively, as full paths. */
std::vector<std::string>
storedObjects(const storage::Backend &store, const std::string &dir)
{
    std::vector<std::string> out;
    for (const std::string &name : store.listDir(dir)) {
        const std::string path = dir + "/" + name;
        std::size_t bytes = 0;
        if (store.size(path, bytes)) // false for a directory on disk
            out.push_back(path);
        else
            for (std::string &below : storedObjects(store, path))
                out.push_back(std::move(below));
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

class FtiLevels : public ::testing::TestWithParam<int>
{
};

TEST_P(FtiLevels, CheckpointRecoverRoundTrip)
{
    const int level = GetParam();
    const auto cfg = testConfig("roundtrip-l" + std::to_string(level),
                                level);
    Fti::purge(cfg);
    const int procs = 8;

    // Phase 1: write a checkpoint with known contents.
    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        fti::Fti fti(proc, cfg);
        std::vector<double> data(100);
        int iter = 7;
        fti.protect(0, &iter, sizeof(iter));
        fti.protect(1, data.data(), data.size() * sizeof(double));
        EXPECT_EQ(fti.status(), 0);
        fillPattern(data, proc.rank(), 42);
        fti.checkpoint(1);
        fti.finalize();
    });

    // Phase 2: a fresh job (the Restart design) finds and restores it.
    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        fti::Fti fti(proc, cfg);
        std::vector<double> data(100, -1.0);
        int iter = 0;
        fti.protect(0, &iter, sizeof(iter));
        fti.protect(1, data.data(), data.size() * sizeof(double));
        EXPECT_EQ(fti.status(), 1);
        fti.recover();
        EXPECT_EQ(iter, 7);
        std::vector<double> expect(100);
        fillPattern(expect, proc.rank(), 42);
        EXPECT_EQ(data, expect);
        EXPECT_EQ(fti.status(), 0) << "recover clears the restart flag";
        fti.finalize();
    });
    Fti::purge(cfg);
}

INSTANTIATE_TEST_SUITE_P(AllLevels, FtiLevels, ::testing::Values(1, 2, 3, 4));

TEST(Fti, LatestCommittedCheckpointWins)
{
    const auto cfg = testConfig("latest");
    Fti::purge(cfg);
    Runtime rt;
    rt.run(options(4), [&](Proc &proc) {
        fti::Fti fti(proc, cfg);
        int value = 0;
        fti.protect(0, &value, sizeof(value));
        for (int id = 1; id <= 3; ++id) {
            value = id * 10;
            fti.checkpoint(id);
        }
    });
    Runtime rt2;
    rt2.run(options(4), [&](Proc &proc) {
        fti::Fti fti(proc, cfg);
        int value = -1;
        fti.protect(0, &value, sizeof(value));
        EXPECT_EQ(fti.status(), 3);
        fti.recover();
        EXPECT_EQ(value, 30);
    });
    Fti::purge(cfg);
}

TEST(Fti, KeepOnlyLatestPrunesOldFiles)
{
    auto cfg = testConfig("prune");
    cfg.keepOnlyLatest = true;
    Fti::purge(cfg);
    Runtime rt;
    rt.run(options(2), [&](Proc &proc) {
        fti::Fti fti(proc, cfg);
        int x = 1;
        fti.protect(0, &x, sizeof(x));
        for (int id = 1; id <= 4; ++id)
            fti.checkpoint(id);
    });
    EXPECT_FALSE(fs::exists(Fti::ckptFile(cfg, 0, 3)));
    EXPECT_TRUE(fs::exists(Fti::ckptFile(cfg, 0, 4)));
    Fti::purge(cfg);
}

class FtiL4Prune : public ::testing::TestWithParam<storage::Kind>
{
};

TEST_P(FtiL4Prune, KeepOnlyLatestLeavesOnePfsObjectPerRank)
{
    // Every L4 flush writes one whole object per rank, and pruning
    // removes it: after many stride-1 checkpoints only the newest
    // remains, whatever the backend.
    auto cfg = testConfig(std::string("l4prune-") +
                              storage::kindName(GetParam()),
                          4);
    cfg.backend = storage::makeBackend(GetParam());
    cfg.keepOnlyLatest = true;
    cfg.transform = storage::TransformKind::None;
    Fti::purge(cfg);
    constexpr int kCkpts = 6;
    Runtime rt;
    rt.run(options(2), [&](Proc &proc) {
        fti::Fti fti(proc, cfg);
        std::vector<double> data(512, 0.0);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        for (int id = 1; id <= kCkpts; ++id) {
            fillPattern(data, proc.rank(), id);
            fti.checkpoint(id);
        }
        fti.finalize();
    });
    const std::vector<std::string> expect = {Fti::pfsFile(cfg, 0, kCkpts),
                                             Fti::pfsFile(cfg, 1, kCkpts)};
    EXPECT_EQ(storedObjects(*cfg.backend, Fti::execDir(cfg) + "/pfs"),
              expect);
    Fti::purge(cfg);
}

INSTANTIATE_TEST_SUITE_P(Backends, FtiL4Prune,
                         ::testing::Values(storage::Kind::Mem,
                                           storage::Kind::Disk),
                         [](const auto &info) {
                             return std::string(
                                 storage::kindName(info.param));
                         });

TEST(Fti, L2SurvivesLossOfOneNodeLocalStorage)
{
    const auto cfg = testConfig("l2loss", 2);
    Fti::purge(cfg);
    const int procs = 6;
    Runtime rt;
    rt.run(options(procs), [&](Proc &proc) {
        fti::Fti fti(proc, cfg);
        std::vector<double> data(64);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        fillPattern(data, proc.rank(), 5);
        fti.checkpoint(1);
    });
    // Simulate losing rank 2's node-local storage: its own file and the
    // partner copy it holds for rank 1.
    fs::remove_all(Fti::localDir(cfg, 2));

    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        fti::Fti fti(proc, cfg);
        std::vector<double> data(64, 0.0);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        fti.recover();
        std::vector<double> expect(64);
        fillPattern(expect, proc.rank(), 5);
        EXPECT_EQ(data, expect) << "rank " << proc.rank();
    });
    Fti::purge(cfg);
}

TEST(FtiDeath, L1CannotSurviveStorageLoss)
{
    const auto cfg = testConfig("l1loss", 1);
    Fti::purge(cfg);
    Runtime rt;
    rt.run(options(2), [&](Proc &proc) {
        fti::Fti fti(proc, cfg);
        int x = 3;
        fti.protect(0, &x, sizeof(x));
        fti.checkpoint(1);
    });
    fs::remove_all(Fti::localDir(cfg, 1));
    EXPECT_EXIT(
        {
            Runtime rt2;
            rt2.run(options(2), [&](Proc &proc) {
                fti::Fti fti(proc, cfg);
                int x = 0;
                fti.protect(0, &x, sizeof(x));
                fti.recover();
            });
        },
        ::testing::ExitedWithCode(1), "L1 recovery failed");
    Fti::purge(cfg);
}

TEST(Fti, L3SurvivesHalfTheGroup)
{
    const auto cfg = testConfig("l3loss", 3);
    Fti::purge(cfg);
    const int procs = 8; // two RS groups of 4
    Runtime rt;
    rt.run(options(procs), [&](Proc &proc) {
        fti::Fti fti(proc, cfg);
        std::vector<double> data(32 + proc.rank()); // uneven sizes
        fti.protect(0, data.data(), data.size() * sizeof(double));
        fillPattern(data, proc.rank(), 9);
        fti.checkpoint(1);
    });
    // Lose half of each group: ranks 1, 2 (group 0) and 5, 7 (group 1).
    for (int lost : {1, 2, 5, 7})
        fs::remove_all(Fti::localDir(cfg, lost));

    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        fti::Fti fti(proc, cfg);
        std::vector<double> data(32 + proc.rank(), 0.0);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        fti.recover();
        std::vector<double> expect(32 + proc.rank());
        fillPattern(expect, proc.rank(), 9);
        EXPECT_EQ(data, expect) << "rank " << proc.rank();
    });
    Fti::purge(cfg);
}

TEST(Fti, StatusZeroWhenProcsMismatch)
{
    const auto cfg = testConfig("mismatch");
    Fti::purge(cfg);
    Runtime rt;
    rt.run(options(4), [&](Proc &proc) {
        fti::Fti fti(proc, cfg);
        int x = 1;
        fti.protect(0, &x, sizeof(x));
        fti.checkpoint(1);
    });
    // A job with a different size must not adopt the checkpoint.
    Runtime rt2;
    rt2.run(options(8), [&](Proc &proc) {
        fti::Fti fti(proc, cfg);
        EXPECT_EQ(fti.status(), 0);
    });
    Fti::purge(cfg);
}

TEST(Fti, CheckpointTimeGoesToWriteCategory)
{
    const auto cfg = testConfig("timing");
    Fti::purge(cfg);
    Runtime rt;
    const JobResult result = rt.run(options(4), [&](Proc &proc) {
        fti::Fti fti(proc, cfg);
        std::vector<double> data(1 << 16);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        fti.checkpoint(1);
        EXPECT_GT(fti.writeSeconds(), 0.0);
    });
    EXPECT_GT(result.breakdown[static_cast<int>(TimeCategory::CkptWrite)],
              0.0);
    EXPECT_DOUBLE_EQ(
        result.breakdown[static_cast<int>(TimeCategory::CkptRead)], 0.0);
    Fti::purge(cfg);
}

TEST(Fti, RecoverTimeIsMilliseconds)
{
    // Paper Sec. V-C: reading checkpoints is in the order of
    // milliseconds (excluded from the figures).
    const auto cfg = testConfig("readtime");
    Fti::purge(cfg);
    Runtime rt;
    rt.run(options(4), [&](Proc &proc) {
        fti::Fti fti(proc, cfg);
        std::vector<double> data(1 << 15); // 256 KiB
        fti.protect(0, data.data(), data.size() * sizeof(double));
        fti.checkpoint(1);
    });
    Runtime rt2;
    const JobResult result = rt2.run(options(4), [&](Proc &proc) {
        fti::Fti fti(proc, cfg);
        std::vector<double> data(1 << 15);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        fti.recover();
        EXPECT_GT(fti.readSeconds(), 0.0);
        EXPECT_LT(fti.readSeconds(), 0.05);
    });
    EXPECT_GT(result.breakdown[static_cast<int>(TimeCategory::CkptRead)],
              0.0);
    Fti::purge(cfg);
}

TEST(Fti, VirtualFactorScalesWriteTime)
{
    auto slow_cfg = testConfig("virt-slow");
    slow_cfg.virtualFactor = 100.0;
    auto fast_cfg = testConfig("virt-fast");
    fast_cfg.virtualFactor = 1.0;
    auto run = [&](const FtiConfig &cfg) {
        Fti::purge(cfg);
        Runtime rt;
        double seconds = 0.0;
        rt.run(options(2), [&](Proc &proc) {
            fti::Fti fti(proc, cfg);
            std::vector<double> data(1 << 16);
            fti.protect(0, data.data(), data.size() * sizeof(double));
            fti.checkpoint(1);
            if (proc.rank() == 0)
                seconds = fti.writeSeconds();
        });
        Fti::purge(cfg);
        return seconds;
    };
    EXPECT_GT(run(slow_cfg), run(fast_cfg));
}

TEST(Fti, ProtectReplaceAndUnprotect)
{
    const auto cfg = testConfig("protect");
    Fti::purge(cfg);
    Runtime rt;
    rt.run(options(1), [&](Proc &proc) {
        fti::Fti fti(proc, cfg);
        int a = 1, b = 2;
        fti.protect(0, &a, sizeof(a));
        fti.protect(1, &b, sizeof(b));
        EXPECT_EQ(fti.protectedBytes(), 2 * sizeof(int));
        fti.unprotect(1);
        EXPECT_EQ(fti.protectedBytes(), sizeof(int));
        double c = 0.5;
        fti.protect(0, &c, sizeof(c)); // replace slot 0
        EXPECT_EQ(fti.protectedBytes(), sizeof(double));
    });
    Fti::purge(cfg);
}

TEST(Fti, WorksUnderReinitDesign)
{
    // End-to-end: Reinit recovery restores MPI state, FTI restores data;
    // the loop completes with the correct final value.
    const auto cfg = testConfig("reinit-e2e");
    Fti::purge(cfg);
    JobOptions opts = options(4, ErrorPolicy::Reinit);
    opts.schedule = std::make_shared<InjectionSchedule>(
        InjectionSchedule{{{7, 2}}});

    std::vector<double> finals(4, 0.0);
    Runtime rt;
    const JobResult result = rt.runReinit(opts, [&](Proc &proc,
                                                    ReinitState) {
        // The paper's Figure 1 loop: recover at the top of the loop,
        // checkpoint every `stride` iterations before the work.
        fti::Fti fti(proc, cfg);
        int iter = 0;
        double acc = 0.0;
        fti.protect(0, &iter, sizeof(iter));
        fti.protect(1, &acc, sizeof(acc));
        for (; iter < 10; ++iter) {
            proc.iterationPoint(iter);
            if (fti.status() != 0)
                fti.recover();
            if (iter > 0 && iter % 5 == 0)
                fti.checkpoint(iter / 5);
            acc += proc.allreduce(1.0); // +4 per iteration
        }
        finals[proc.rank()] = acc;
        fti.finalize();
    });
    EXPECT_EQ(result.recoveries, 1);
    // 10 iterations x 4 ranks; the rollback re-executes iterations 5 and
    // 6 from the checkpoint at iteration 5 — the final value must be as
    // if no failure happened.
    for (double f : finals)
        EXPECT_DOUBLE_EQ(f, 40.0);
    Fti::purge(cfg);
}

TEST(Fti, WorksUnderRestartDesign)
{
    const auto cfg = testConfig("restart-e2e");
    Fti::purge(cfg);
    JobOptions opts = options(4, ErrorPolicy::Fatal);
    opts.schedule = std::make_shared<InjectionSchedule>(
        InjectionSchedule{{{8, 1}}});

    std::vector<double> finals(4, 0.0);
    const LaunchReport report = launchWithRestart(opts, [&](Proc &proc) {
        fti::Fti fti(proc, cfg);
        int iter = 0;
        double acc = 0.0;
        fti.protect(0, &iter, sizeof(iter));
        fti.protect(1, &acc, sizeof(acc));
        for (; iter < 12; ++iter) {
            proc.iterationPoint(iter);
            if (fti.status() != 0)
                fti.recover();
            if (iter > 0 && iter % 5 == 0)
                fti.checkpoint(iter / 5);
            acc += proc.allreduce(1.0);
        }
        finals[proc.rank()] = acc;
        fti.finalize();
    });
    EXPECT_EQ(report.attempts, 2);
    for (double f : finals)
        EXPECT_DOUBLE_EQ(f, 48.0);
    Fti::purge(cfg);
}

TEST(Fti, WorksUnderUlfmDesign)
{
    const auto cfg = testConfig("ulfm-e2e");
    Fti::purge(cfg);
    JobOptions opts = options(4, ErrorPolicy::Return);
    opts.schedule = std::make_shared<InjectionSchedule>(
        InjectionSchedule{{{6, 3}}});

    std::vector<double> finals(4, 0.0);
    Runtime rt;
    const JobResult result = rt.run(opts, [&](Proc &proc) {
        proc.setErrorHandler([&proc](Err) {
            CategoryScope recovery(proc, TimeCategory::Recovery);
            proc.revoke();
            proc.repairWorld();
            throw UlfmRestart{};
        });
        for (;;) {
            try {
                fti::Fti fti(proc, cfg);
                int iter = 0;
                double acc = 0.0;
                fti.protect(0, &iter, sizeof(iter));
                fti.protect(1, &acc, sizeof(acc));
                for (; iter < 10; ++iter) {
                    proc.iterationPoint(iter);
                    if (fti.status() != 0)
                        fti.recover();
                    if (iter > 0 && iter % 5 == 0)
                        fti.checkpoint(iter / 5);
                    acc += proc.allreduce(1.0);
                }
                finals[proc.rank()] = acc;
                fti.finalize();
                return;
            } catch (const UlfmRestart &) {
                continue; // restart scope (paper Fig. 3 longjmp target)
            }
        }
    });
    EXPECT_EQ(result.recoveries, 1);
    for (double f : finals)
        EXPECT_DOUBLE_EQ(f, 40.0);
    Fti::purge(cfg);
}

TEST(Fti, ChecksumFnv1aKnownValues)
{
    // FNV-1a 64 reference values.
    EXPECT_EQ(match::fti::fnv1a("", 0), 0xcbf29ce484222325ULL);
    EXPECT_EQ(match::fti::fnv1a("a", 1), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(match::fti::fnv1a("foobar", 6), 0x85944171f73967e8ULL);
}
