/**
 * @file
 * Fault-tolerance design driver tests on a synthetic BSP workload.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "src/ft/checkpoint_loop.hh"
#include "src/ft/design.hh"
#include "src/fti/fti.hh"

namespace fs = std::filesystem;
using namespace match;
using namespace match::ft;
using match::simmpi::Proc;

namespace
{

/** A small FTI-instrumented BSP app usable under every design. */
void
syntheticApp(Proc &proc, const fti::FtiConfig &fcfg, int iters,
             std::vector<double> *finals)
{
    fti::Fti fti(proc, fcfg);
    int iter = 0;
    double acc = 0.0;
    fti.protect(0, &iter, sizeof(iter));
    fti.protect(1, &acc, sizeof(acc));
    CheckpointLoop loop(proc, fti, 5);
    loop.run(&iter, iters, [&](int i) {
        proc.compute(1e7);
        acc += proc.allreduce(static_cast<double>(i));
    });
    fti.finalize();
    if (finals)
        (*finals)[proc.globalIndex()] = acc;
}

DesignRunConfig
baseConfig(Design design, bool inject)
{
    DesignRunConfig cfg;
    cfg.design = design;
    cfg.nprocs = 8;
    cfg.ftiConfig.ckptDir =
        (fs::temp_directory_path() / "match-ft-tests").string();
    cfg.ftiConfig.execId = std::string("design-") +
                           std::to_string(static_cast<int>(design)) +
                           (inject ? "-f" : "-nf");
    if (inject)
        cfg.failureEvents = {{13, 3}};
    return cfg;
}

} // namespace

TEST(DesignNames, MatchPaperLabels)
{
    EXPECT_STREQ(designName(Design::RestartFti), "RESTART-FTI");
    EXPECT_STREQ(designName(Design::ReinitFti), "REINIT-FTI");
    EXPECT_STREQ(designName(Design::UlfmFti), "ULFM-FTI");
}

class DesignSweep : public ::testing::TestWithParam<Design>
{
};

TEST_P(DesignSweep, FailureFreeRunCompletes)
{
    const auto cfg = baseConfig(GetParam(), false);
    std::vector<double> finals(8, 0.0);
    const Breakdown bd = runDesign(cfg, [&](Proc &proc,
                                            const fti::FtiConfig &f) {
        syntheticApp(proc, f, 20, &finals);
    });
    EXPECT_FALSE(bd.failureFired);
    EXPECT_EQ(bd.recoveries, 0);
    EXPECT_GT(bd.application, 0.0);
    EXPECT_GT(bd.ckptWrite, 0.0);
    EXPECT_DOUBLE_EQ(bd.recovery, 0.0);
    // sum over i in [0,20) of 8*i = 8*190.
    for (double f : finals)
        EXPECT_DOUBLE_EQ(f, 1520.0);
}

TEST_P(DesignSweep, FailureRunMatchesFailureFreeResult)
{
    // The central correctness property of every design: an injected
    // process failure must not change the computed answer.
    const auto cfg = baseConfig(GetParam(), true);
    std::vector<double> finals(8, 0.0);
    const Breakdown bd = runDesign(cfg, [&](Proc &proc,
                                            const fti::FtiConfig &f) {
        syntheticApp(proc, f, 20, &finals);
    });
    EXPECT_TRUE(bd.failureFired);
    EXPECT_GT(bd.recovery, 0.0);
    for (double f : finals)
        EXPECT_DOUBLE_EQ(f, 1520.0);
}

TEST_P(DesignSweep, DeterministicAcrossInvocations)
{
    const auto cfg = baseConfig(GetParam(), true);
    auto once = [&] {
        return runDesign(cfg, [&](Proc &proc, const fti::FtiConfig &f) {
                   syntheticApp(proc, f, 20, nullptr);
               })
            .total();
    };
    EXPECT_DOUBLE_EQ(once(), once());
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, DesignSweep,
                         ::testing::Values(Design::RestartFti,
                                           Design::ReinitFti,
                                           Design::UlfmFti));

TEST(DesignComparison, RecoveryOrderingMatchesPaper)
{
    // Figure 7: Restart recovery > ULFM recovery > Reinit recovery.
    double recovery[3];
    for (Design d : allDesigns) {
        const auto cfg = baseConfig(d, true);
        const Breakdown bd =
            runDesign(cfg, [&](Proc &proc, const fti::FtiConfig &f) {
                syntheticApp(proc, f, 20, nullptr);
            });
        recovery[static_cast<int>(d)] = bd.recovery;
    }
    EXPECT_GT(recovery[static_cast<int>(Design::RestartFti)],
              recovery[static_cast<int>(Design::UlfmFti)]);
    EXPECT_GT(recovery[static_cast<int>(Design::UlfmFti)],
              recovery[static_cast<int>(Design::ReinitFti)]);
}

TEST(DesignComparison, UlfmSlowsDownApplication)
{
    // Figure 5: ULFM-FTI's application time exceeds the others even
    // without failures.
    double app[3];
    for (Design d : allDesigns) {
        const auto cfg = baseConfig(d, false);
        const Breakdown bd =
            runDesign(cfg, [&](Proc &proc, const fti::FtiConfig &f) {
                syntheticApp(proc, f, 20, nullptr);
            });
        app[static_cast<int>(d)] = bd.application;
    }
    EXPECT_GT(app[static_cast<int>(Design::UlfmFti)],
              app[static_cast<int>(Design::RestartFti)] * 1.02);
    EXPECT_NEAR(app[static_cast<int>(Design::ReinitFti)],
                app[static_cast<int>(Design::RestartFti)],
                app[static_cast<int>(Design::RestartFti)] * 0.02);
}

TEST(DesignRestart, MultipleAttemptsAccounted)
{
    const auto cfg = baseConfig(Design::RestartFti, true);
    const Breakdown bd =
        runDesign(cfg, [&](Proc &proc, const fti::FtiConfig &f) {
            syntheticApp(proc, f, 20, nullptr);
        });
    EXPECT_EQ(bd.attempts, 2);
}

TEST(DesignRunConfigDeath, EventRankOutOfRangeIsRejected)
{
    // A rank no process holds would never fire: the run would pass as
    // an injected one while running failure-free.
    for (const int rank : {8, -1}) {
        DesignRunConfig cfg;
        cfg.design = Design::ReinitFti;
        cfg.nprocs = 8;
        cfg.failureEvents = {{3, 0}, {5, rank}};
        EXPECT_DEATH(runDesignRaw(cfg, [](Proc &) {}),
                     "failure rank out of range");
    }
}
