/**
 * @file
 * The three MATCH fault-tolerance designs as reusable drivers.
 *
 * A design combines FTI checkpointing (data recovery) with one MPI-state
 * recovery mechanism:
 *  - RESTART-FTI: MPI_ERRORS_ARE_FATAL; mpirun redeploys the whole job.
 *  - REINIT-FTI:  OMPI_Reinit runtime-level global restart (paper Fig. 2).
 *  - ULFM-FTI:    error handler runs revoke/shrink/spawn/merge/agree and
 *                 longjmps to a restart scope in main (paper Fig. 3).
 *
 * Application code is design-agnostic: it receives a Proc and an
 * FtiConfig and runs the paper's Figure-1 loop. The driver owns the
 * restart scope, the error handler, and the failure schedule.
 */

#ifndef MATCH_FT_DESIGN_HH
#define MATCH_FT_DESIGN_HH

#include <array>
#include <functional>
#include <string>

#include "src/ft/failure_model.hh"
#include "src/fti/config.hh"
#include "src/simmpi/launcher.hh"
#include "src/simmpi/proc.hh"

namespace match::ft
{

/** The fault-tolerance designs evaluated by the paper. */
enum class Design
{
    RestartFti,
    ReinitFti,
    UlfmFti,
};

/** Paper-style label ("RESTART-FTI", ...). */
const char *designName(Design design);

/** All designs, in the order the paper's figures list them. */
inline constexpr std::array<Design, 3> allDesigns{
    Design::RestartFti, Design::ReinitFti, Design::UlfmFti};

/** An FTI-instrumented per-rank application main. */
using FtAppMain =
    std::function<void(simmpi::Proc &, const fti::FtiConfig &)>;

/** A per-rank application main with its own data-recovery mechanism
 *  (e.g. SCR) closed over; the driver only supplies MPI recovery. */
using RawAppMain = std::function<void(simmpi::Proc &)>;

/** One design execution: workload + failure schedule + cost parameters. */
struct DesignRunConfig
{
    Design design = Design::ReinitFti;
    int nprocs = 4;
    simmpi::CostParams costParams{};
    fti::FtiConfig ftiConfig{};
    /** Purge the FTI sandbox before launching (fresh experiment). */
    bool purgeCheckpoints = true;
    /** Failure schedule (crashes and corruptions), fired at the app's
     *  iteration points; empty runs failure-free. The paper's single
     *  SIGTERM (Fig. 4) is one event, e.g. `{{13, 3}}`. Every rank must
     *  lie in [0, nprocs). */
    std::vector<FailureEvent> failureEvents;
    /** Applied when a Corrupt event fires for a rank. Empty selects the
     *  default: fti::Fti::corruptAtRest on ftiConfig (runDesign only —
     *  runDesignRaw apps own their data recovery and must supply one
     *  for corruption events to have an effect). */
    std::function<void(int)> corruptHook;
};

/** Execution-time breakdown of one design run (the stacked bars). */
struct Breakdown
{
    double application = 0.0;
    double ckptWrite = 0.0;
    double ckptRead = 0.0;
    double recovery = 0.0;
    int attempts = 1;
    int recoveries = 0;
    bool failureFired = false;

    double
    total() const
    {
        return application + ckptWrite + ckptRead + recovery;
    }
};

/**
 * Run `app` under the given design and return the time breakdown.
 * Deterministic: the same config yields the same breakdown.
 */
Breakdown runDesign(const DesignRunConfig &config, const FtAppMain &app);

/**
 * As runDesign, but for applications that manage data recovery
 * themselves (SCR or hand-rolled checkpointing): only the MPI-state
 * recovery (Restart/Reinit/ULFM wrapping) is supplied by the driver.
 * `config.ftiConfig` and `purgeCheckpoints` are ignored.
 */
Breakdown runDesignRaw(const DesignRunConfig &config,
                       const RawAppMain &app);

} // namespace match::ft

#endif // MATCH_FT_DESIGN_HH
