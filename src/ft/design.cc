#include "src/ft/design.hh"

#include <algorithm>

#include "src/fti/fti.hh"
#include "src/util/logging.hh"

namespace match::ft
{

using namespace simmpi;

const char *
designName(Design design)
{
    switch (design) {
      case Design::RestartFti: return "RESTART-FTI";
      case Design::ReinitFti: return "REINIT-FTI";
      case Design::UlfmFti: return "ULFM-FTI";
    }
    return "UNKNOWN";
}

namespace
{

Breakdown
toBreakdown(const LaunchReport &report)
{
    Breakdown bd;
    bd.application =
        report.breakdown[static_cast<int>(TimeCategory::Application)];
    bd.ckptWrite =
        report.breakdown[static_cast<int>(TimeCategory::CkptWrite)];
    bd.ckptRead =
        report.breakdown[static_cast<int>(TimeCategory::CkptRead)];
    bd.recovery =
        report.breakdown[static_cast<int>(TimeCategory::Recovery)];
    bd.attempts = report.attempts;
    bd.recoveries = report.finalResult.recoveries;
    bd.failureFired = !report.failedRanks.empty();
    return bd;
}

JobOptions
makeOptions(const DesignRunConfig &config, ErrorPolicy policy)
{
    JobOptions opts;
    opts.nprocs = config.nprocs;
    opts.policy = policy;
    opts.costParams = config.costParams;
    opts.schedule = toInjectionSchedule(config.failureEvents);
    opts.corruptHook = config.corruptHook;
    return opts;
}

/** Crash events in the schedule (bounds the restart attempts). */
int
crashCount(const DesignRunConfig &config)
{
    int crashes = 0;
    for (const FailureEvent &event : config.failureEvents)
        if (event.kind == FailureKind::Crash)
            ++crashes;
    return crashes;
}

} // anonymous namespace

Breakdown
runDesign(const DesignRunConfig &config, const FtAppMain &app)
{
    if (config.purgeCheckpoints)
        fti::Fti::purge(config.ftiConfig);
    const fti::FtiConfig fti_config = config.ftiConfig;
    DesignRunConfig run_config = config;
    if (!run_config.corruptHook) {
        // Default SDC injector: flip a byte of the victim rank's
        // newest at-rest checkpoint object in the FTI sandbox.
        run_config.corruptHook = [fti_config](int rank) {
            fti::Fti::corruptAtRest(fti_config, rank);
        };
    }
    return runDesignRaw(run_config, [&](Proc &proc) {
        app(proc, fti_config);
    });
}

Breakdown
runDesignRaw(const DesignRunConfig &config, const RawAppMain &app)
{
    for (const FailureEvent &event : config.failureEvents) {
        MATCH_ASSERT(event.rank >= 0 && event.rank < config.nprocs,
                     "failure rank out of range");
    }
    switch (config.design) {
      case Design::RestartFti: {
        // MPI_ERRORS_ARE_FATAL: the failure collapses the job; mpirun
        // redeploys it and FTI restores progress from the sandbox.
        // Every scheduled crash collapses the job once, so the attempt
        // bound scales with the schedule.
        const auto opts = makeOptions(config, ErrorPolicy::Fatal);
        const int attempts = std::max(8, crashCount(config) + 2);
        const LaunchReport report = launchWithRestart(
            opts, [&](Proc &proc) { app(proc); }, attempts);
        return toBreakdown(report);
      }
      case Design::ReinitFti: {
        // OMPI_Reinit: the whole application main becomes the resilient
        // main (paper Fig. 2: FTI_Init/FTI_Finalize move inside it).
        const auto opts = makeOptions(config, ErrorPolicy::Reinit);
        const LaunchReport report = launchReinit(
            opts, [&](Proc &proc, ReinitState) { app(proc); });
        return toBreakdown(report);
      }
      case Design::UlfmFti: {
        // Paper Fig. 3: an error handler revokes and repairs the world
        // communicator, then longjmps back to the restart point; the
        // re-entered app binds FTI to the repaired communicator.
        const auto opts = makeOptions(config, ErrorPolicy::Return);
        const LaunchReport report = launchOnce(opts, [&](Proc &proc) {
            proc.setErrorHandler([&proc](Err err) {
                MATCH_ASSERT(err == Err::ProcFailed ||
                                 err == Err::Revoked,
                             "unexpected ULFM error class");
                CategoryScope recovery(proc, TimeCategory::Recovery);
                proc.revoke();
                proc.repairWorld();
                throw UlfmRestart{};
            });
            for (;;) {
                try {
                    app(proc);
                    return;
                } catch (const UlfmRestart &) {
                    continue; // setjmp target
                }
            }
        });
        return toBreakdown(report);
      }
    }
    util::panic("unknown fault tolerance design");
}

} // namespace match::ft
