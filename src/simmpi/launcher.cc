#include "src/simmpi/launcher.hh"

#include "src/util/logging.hh"

namespace match::simmpi
{

namespace
{

void
accumulate(LaunchReport &report, const JobResult &result)
{
    ++report.attempts;
    for (int c = 0; c < 4; ++c)
        report.breakdown[c] += result.breakdown[c];
    report.totalTime += result.makespan;
    report.failedRanks.insert(report.failedRanks.end(),
                              result.failedRanks.begin(),
                              result.failedRanks.end());
    report.finalResult = result;
}

} // anonymous namespace

LaunchReport
launchWithRestart(const JobOptions &options, RankMain main, int max_attempts)
{
    MATCH_ASSERT(options.policy == ErrorPolicy::Fatal,
                 "the Restart design runs under MPI_ERRORS_ARE_FATAL");
    LaunchReport report;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
        Runtime runtime;
        const JobResult result = runtime.run(options, main);
        accumulate(report, result);
        if (!result.aborted)
            return report;
        // The job collapsed: mpirun tears it down and redeploys. The
        // redeployment cost is the Restart design's "recovery" time.
        const CostModel model(options.costParams);
        const SimTime redeploy = model.restartRecovery(options.nprocs);
        report.breakdown[static_cast<int>(TimeCategory::Recovery)] +=
            redeploy;
        report.totalTime += redeploy;
    }
    util::fatal("job did not complete within %d restart attempts",
                max_attempts);
}

LaunchReport
launchOnce(const JobOptions &options, RankMain main)
{
    Runtime runtime;
    LaunchReport report;
    accumulate(report, runtime.run(options, main));
    return report;
}

LaunchReport
launchReinit(const JobOptions &options, ReinitMain main)
{
    Runtime runtime;
    LaunchReport report;
    accumulate(report, runtime.runReinit(options, main));
    return report;
}

} // namespace match::simmpi
