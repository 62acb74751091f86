/**
 * @file
 * CheckpointLoop semantics (the paper's Figure-1 pattern) and a
 * property sweep: the failure-equivalence invariant must hold for EVERY
 * injection site, not just one (parameterized over iterations/ranks).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <tuple>

#include "src/ft/checkpoint_loop.hh"
#include "src/ft/design.hh"
#include "src/fti/fti.hh"

namespace fs = std::filesystem;
using namespace match;
using namespace match::ft;
using match::simmpi::Proc;

namespace
{

/** Runs a protected loop and records the checkpoint/recover pattern. */
struct LoopProbe
{
    int recovers = 0;
    std::vector<int> ckpt_iters;
    double final_acc = 0.0;
};

void
probeApp(Proc &proc, const fti::FtiConfig &fcfg, int total, int stride,
         LoopProbe *probe)
{
    fti::Fti fti(proc, fcfg);
    int iter = 0;
    double acc = 0.0;
    fti.protect(0, &iter, sizeof(iter));
    fti.protect(1, &acc, sizeof(acc));
    const int before = fti.status();
    CheckpointLoop loop(proc, fti, stride);
    int last_ckpt = fti.lastCheckpointId();
    loop.run(&iter, total, [&](int i) {
        if (probe && fti.lastCheckpointId() != last_ckpt) {
            last_ckpt = fti.lastCheckpointId();
            probe->ckpt_iters.push_back(i);
        }
        acc += proc.allreduce(1.0);
    });
    fti.finalize();
    if (probe && proc.rank() == 0) {
        probe->recovers += (before != 0);
        probe->final_acc = acc;
    }
}

DesignRunConfig
config(const std::string &id, Design design)
{
    DesignRunConfig cfg;
    cfg.design = design;
    cfg.nprocs = 4;
    cfg.ftiConfig.ckptDir =
        (fs::temp_directory_path() / "match-loop-tests").string();
    cfg.ftiConfig.execId = id;
    return cfg;
}

} // namespace

TEST(CheckpointLoop, CheckpointsEveryStrideIterations)
{
    LoopProbe probe;
    auto cfg = config("stride", Design::ReinitFti);
    runDesign(cfg, [&](Proc &proc, const fti::FtiConfig &fcfg) {
        probeApp(proc, fcfg, 25, 5, proc.rank() == 0 ? &probe : nullptr);
    });
    // Checkpoints at iterations 5, 10, 15, 20 (not at 0).
    EXPECT_EQ(probe.ckpt_iters, (std::vector<int>{5, 10, 15, 20}));
    EXPECT_EQ(probe.recovers, 0);
}

TEST(CheckpointLoop, NoCheckpointWhenStrideExceedsLoop)
{
    LoopProbe probe;
    auto cfg = config("nostride", Design::ReinitFti);
    runDesign(cfg, [&](Proc &proc, const fti::FtiConfig &fcfg) {
        probeApp(proc, fcfg, 8, 100, proc.rank() == 0 ? &probe : nullptr);
    });
    EXPECT_TRUE(probe.ckpt_iters.empty());
    EXPECT_DOUBLE_EQ(probe.final_acc, 8 * 4.0);
}

namespace
{

/** Rank 0's executed iterations of a 20-iteration, stride-5 loop whose
 *  rank 1 fails at iteration 13. */
std::vector<int>
iterationsAcrossAFailure(const std::string &id, bool snapshot)
{
    std::vector<int> iters;
    auto cfg = config(id, Design::ReinitFti);
    cfg.ftiConfig.snapshotRegions = snapshot;
    cfg.failureEvents = {{13, 1}};
    runDesign(cfg, [&](Proc &proc, const fti::FtiConfig &fcfg) {
        fti::Fti fti(proc, fcfg);
        int iter = 0;
        fti.protect(0, &iter, sizeof(iter));
        CheckpointLoop loop(proc, fti, 5);
        loop.run(&iter, 20, [&](int i) {
            proc.allreduce(1.0);
            if (proc.rank() == 0)
                iters.push_back(i);
        });
        fti.finalize();
    });
    return iters;
}

} // namespace

TEST(CheckpointLoop, ZeroImageRunsResumeAtTheRestoredCheckpoint)
{
    // Without snapshots nothing restores the counter: the loop derives
    // it from the restored id and resumes where a snapshot run does.
    const std::vector<int> zero = iterationsAcrossAFailure("zero", false);
    EXPECT_EQ(zero, iterationsAcrossAFailure("snapshot", true));
    EXPECT_EQ(std::count(zero.begin(), zero.end(), 9), 1);
    EXPECT_EQ(std::count(zero.begin(), zero.end(), 10), 2);
    ASSERT_FALSE(zero.empty());
    EXPECT_EQ(zero.back(), 19);
}

TEST(CheckpointLoopDeathTest, RestoredCounterMustMatchTheCheckpointId)
{
    // The protected int is not the loop counter, so the restore leaves
    // the counter at the re-entered main's 0 instead of checkpoint 2's
    // iteration 10.
    auto cfg = config("decoy", Design::ReinitFti);
    cfg.failureEvents = {{13, 1}};
    EXPECT_DEATH(
        runDesign(cfg,
                  [](Proc &proc, const fti::FtiConfig &fcfg) {
                      fti::Fti fti(proc, fcfg);
                      int iter = 0;
                      int decoy = 0;
                      fti.protect(0, &decoy, sizeof(decoy));
                      CheckpointLoop loop(proc, fti, 5);
                      loop.run(&iter, 20,
                               [&](int) { proc.allreduce(1.0); });
                      fti.finalize();
                  }),
        "restored loop counter 0, expected 10");
}

// Property sweep: failure equivalence for every (site, design) cell.
class InjectionSiteSweep
    : public ::testing::TestWithParam<std::tuple<int, Design>>
{
};

TEST_P(InjectionSiteSweep, AnyInjectionSiteYieldsTheCleanAnswer)
{
    const auto [site, design] = GetParam();
    const int total = 24;

    auto run = [&](bool inject) {
        LoopProbe probe;
        auto cfg = config("sweep-" + std::to_string(site) + "-" +
                              std::to_string(static_cast<int>(design)) +
                              (inject ? "f" : "c"),
                          design);
        if (inject)
            cfg.failureEvents = {{site, site % cfg.nprocs}};
        runDesign(cfg, [&](Proc &proc, const fti::FtiConfig &fcfg) {
            probeApp(proc, fcfg, total, 10, &probe);
        });
        return probe.final_acc;
    };

    EXPECT_DOUBLE_EQ(run(false), run(true))
        << "site=" << site << " design=" << designName(design);
}

INSTANTIATE_TEST_SUITE_P(
    SitesTimesDesigns, InjectionSiteSweep,
    ::testing::Combine(::testing::Values(1, 5, 9, 10, 11, 19, 20, 23),
                       ::testing::Values(Design::RestartFti,
                                         Design::ReinitFti,
                                         Design::UlfmFti)));
