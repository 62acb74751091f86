/**
 * @file
 * Launcher model tests: redeployment accounting, attempt limits, and
 * the single-launch wrappers.
 */

#include <gtest/gtest.h>

#include <memory>

#include "src/simmpi/launcher.hh"
#include "src/simmpi/proc.hh"

using namespace match::simmpi;

namespace
{

std::shared_ptr<InjectionSchedule>
schedule(std::initializer_list<InjectionEvent> events)
{
    auto s = std::make_shared<InjectionSchedule>();
    s->events = events;
    return s;
}

void
loop(Proc &proc, int iters)
{
    for (int i = 0; i < iters; ++i) {
        proc.iterationPoint(i);
        proc.compute(1e7);
        proc.allreduce(1.0);
    }
}

} // namespace

TEST(Launcher, TotalTimeSumsAttemptsAndRedeploy)
{
    JobOptions opts;
    opts.nprocs = 4;
    opts.policy = ErrorPolicy::Fatal;
    opts.schedule = schedule({{3, 2}});
    const LaunchReport report =
        launchWithRestart(opts, [](Proc &proc) { loop(proc, 8); });
    ASSERT_EQ(report.attempts, 2);
    const CostModel model;
    // Total = aborted attempt + redeploy + clean attempt; the aborted
    // attempt's makespan must be a positive remainder.
    EXPECT_GT(report.totalTime, model.restartRecovery(4));
    EXPECT_GT(report.totalTime, report.finalResult.makespan);
    const double aborted_makespan = report.totalTime -
                                    model.restartRecovery(4) -
                                    report.finalResult.makespan;
    // The aborted attempt ran part of the loop plus the detection
    // latency before mpirun tore it down.
    EXPECT_GT(aborted_makespan, model.detectionLatency());
    EXPECT_LT(aborted_makespan,
              report.finalResult.makespan + model.detectionLatency());
}

TEST(Launcher, BreakdownAggregatesAcrossAttempts)
{
    JobOptions opts;
    opts.nprocs = 4;
    opts.policy = ErrorPolicy::Fatal;
    opts.schedule = schedule({{5, 1}});
    const LaunchReport report =
        launchWithRestart(opts, [](Proc &proc) { loop(proc, 10); });
    // Application time contains the lost work of attempt 1 plus the
    // full re-execution, so it exceeds a clean run's application time.
    Runtime rt;
    JobOptions clean = opts;
    clean.schedule = nullptr;
    const JobResult clean_result =
        rt.run(clean, [](Proc &proc) { loop(proc, 10); });
    EXPECT_GT(report.breakdown[static_cast<int>(
                  TimeCategory::Application)],
              clean_result.breakdown[static_cast<int>(
                  TimeCategory::Application)]);
}

TEST(Launcher, LaunchOnceDoesNotRedeploy)
{
    JobOptions opts;
    opts.nprocs = 2;
    const LaunchReport report =
        launchOnce(opts, [](Proc &proc) { loop(proc, 3); });
    EXPECT_EQ(report.attempts, 1);
    EXPECT_TRUE(report.failedRanks.empty());
    EXPECT_DOUBLE_EQ(report.totalTime, report.finalResult.makespan);
}

TEST(Launcher, LaunchReinitReportsRecoveries)
{
    JobOptions opts;
    opts.nprocs = 4;
    opts.policy = ErrorPolicy::Reinit;
    opts.schedule = schedule({{4, 3}});
    const LaunchReport report = launchReinit(
        opts, [](Proc &proc, ReinitState) { loop(proc, 8); });
    EXPECT_EQ(report.attempts, 1); // online recovery, no redeploy
    EXPECT_EQ(report.finalResult.recoveries, 1);
    EXPECT_EQ(report.failedRanks, std::vector<Rank>{3});
}

TEST(LauncherDeath, RestartRequiresFatalPolicy)
{
    JobOptions opts;
    opts.nprocs = 2;
    opts.policy = ErrorPolicy::Return;
    EXPECT_DEATH(launchWithRestart(opts, [](Proc &) {}),
                 "MPI_ERRORS_ARE_FATAL");
}

TEST(Launcher, RestartRecordsEveryFiredFailure)
{
    // Two scheduled crashes → two aborted attempts, and the report
    // must keep BOTH crashed ranks in fire order (a last-one-wins
    // scalar loses the first).
    JobOptions opts;
    opts.nprocs = 4;
    opts.policy = ErrorPolicy::Fatal;
    opts.schedule = schedule({{2, 1}, {5, 3}});
    const LaunchReport report =
        launchWithRestart(opts, [](Proc &proc) { loop(proc, 8); });
    EXPECT_EQ(report.attempts, 3);
    ASSERT_EQ(report.failedRanks.size(), 2u);
    EXPECT_EQ(report.failedRanks[0], 1);
    EXPECT_EQ(report.failedRanks[1], 3);
}

TEST(Launcher, ReinitRecordsEveryFiredFailure)
{
    // Online recovery: one launch, several deaths, all recorded.
    JobOptions opts;
    opts.nprocs = 4;
    opts.policy = ErrorPolicy::Reinit;
    opts.schedule = schedule({{2, 0}, {4, 2}, {6, 2}});
    const LaunchReport report = launchReinit(
        opts, [](Proc &proc, ReinitState) { loop(proc, 8); });
    EXPECT_EQ(report.attempts, 1);
    EXPECT_EQ(report.finalResult.recoveries, 3);
    ASSERT_EQ(report.failedRanks.size(), 3u);
    EXPECT_EQ(report.failedRanks[0], 0);
    EXPECT_EQ(report.failedRanks[1], 2);
    EXPECT_EQ(report.failedRanks[2], 2);
}
