/**
 * @file
 * Job launcher: models mpirun, including the Restart fault-tolerance
 * design's full job redeployment after a fatal failure.
 */

#ifndef MATCH_SIMMPI_LAUNCHER_HH
#define MATCH_SIMMPI_LAUNCHER_HH

#include <array>
#include <vector>

#include "src/simmpi/runtime.hh"

namespace match::simmpi
{

/** Aggregated outcome of a launch, possibly spanning several attempts. */
struct LaunchReport
{
    /** Number of job executions (1 + number of restarts). */
    int attempts = 0;
    /** Mean per-rank seconds per category, summed over all attempts;
     *  restart redeployment time is charged to Recovery. */
    std::array<double, 4> breakdown{};
    /** End-to-end virtual time including redeployments. */
    SimTime totalTime = 0.0;
    /** Result of the final (successful) attempt. */
    JobResult finalResult;
    /** Every rank that crashed, across all attempts, in fire order
     *  (empty when no crash fired). */
    std::vector<Rank> failedRanks;

    double total() const
    {
        return breakdown[0] + breakdown[1] + breakdown[2] + breakdown[3];
    }
};

/**
 * Launch a job and, when it aborts due to a process failure under
 * MPI_ERRORS_ARE_FATAL, redeploy it from scratch (the RESTART design).
 * Every attempt shares `options.schedule`, whose per-event `fired`
 * flags persist, so each scheduled event strikes only once across the
 * launch. Checkpoint files persist across attempts, which is how FTI
 * restores progress.
 *
 * @param options job options (policy must be Fatal for restart semantics)
 * @param main the per-rank main function
 * @param max_attempts safety bound on redeployments
 */
LaunchReport launchWithRestart(const JobOptions &options, RankMain main,
                               int max_attempts = 8);

/** Launch once under any policy and wrap the result in a LaunchReport. */
LaunchReport launchOnce(const JobOptions &options, RankMain main);

/** Launch once under the Reinit policy. */
LaunchReport launchReinit(const JobOptions &options, ReinitMain main);

} // namespace match::simmpi

#endif // MATCH_SIMMPI_LAUNCHER_HH
