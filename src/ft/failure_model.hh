/**
 * @file
 * Failure-scenario engine: deterministic, seed-derived failure
 * schedules generalizing the paper's single-shot injection.
 *
 * The paper's methodology (Section V-B) injects exactly one uniformly
 * random per-rank failure per run. The designs it compares are exactly
 * the ones whose rankings shift under richer failure processes, so this
 * module turns "inject a failure" into "replay a schedule":
 *
 *  - Single: the paper's process, one uniform (iteration, rank) crash.
 *    Reproduces the legacy draw order bit-for-bit.
 *  - IndependentExp: exponential inter-arrival times over the iteration
 *    axis, independent uniform ranks — multi-failure runs.
 *  - Correlated: the same arrival process, but each primary failure
 *    cascades across its node (and, escalating, its rack) using the
 *    rank -> node -> rack topology from CostParams.
 *  - Trace: replay a schedule parsed from a trace file.
 *
 * Every generated schedule is a pure function of (config, seed): the
 * bit-identity contract extends to failure scenarios, so a schedule is
 * identical across --jobs counts, storage backends and kernels. Any schedule serializes to the line-oriented trace format
 * (`iteration rank kind`, see bench/FAILURE_TRACES.md) and replays to
 * identical results.
 */

#ifndef MATCH_FT_FAILURE_MODEL_HH
#define MATCH_FT_FAILURE_MODEL_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/simmpi/runtime.hh"
#include "src/util/rng.hh"

namespace match::ft
{

/** What a scheduled failure event does to its rank. */
enum class FailureKind
{
    Crash,   ///< fail-stop: SIGTERM at the iteration point
    Corrupt, ///< silent data corruption of the rank's checkpoint store
};

/** Trace-format label ("crash", "corrupt"). */
const char *failureKindName(FailureKind kind);

/** One scheduled failure event. */
struct FailureEvent
{
    int iteration = 0; ///< main-loop iteration at which the event fires
    int rank = 0;      ///< world rank the event strikes
    FailureKind kind = FailureKind::Crash;

    bool
    operator==(const FailureEvent &other) const
    {
        return iteration == other.iteration && rank == other.rank &&
               kind == other.kind;
    }
};

/** The failure processes a scenario can draw schedules from. */
enum class FailureModelKind
{
    Single,         ///< paper methodology: one uniform crash per run
    IndependentExp, ///< exponential arrivals, independent uniform ranks
    Correlated,     ///< exponential arrivals + node/rack cascades
    Trace,          ///< replay an explicit event list
};

/** Flag label ("single", "independent", "correlated", "trace"). */
const char *failureModelName(FailureModelKind kind);

/** All models, in flag-listing order (for choice-listing errors). */
inline constexpr std::array<FailureModelKind, 4> allFailureModels{
    FailureModelKind::Single, FailureModelKind::IndependentExp,
    FailureModelKind::Correlated, FailureModelKind::Trace};

/** Parse a --failure-model value; false when `name` is not a model. */
bool parseFailureModel(const std::string &name, FailureModelKind &out);

/** Scenario description a schedule is generated from. */
struct FailureModelConfig
{
    FailureModelKind kind = FailureModelKind::Single;

    /** IndependentExp/Correlated: expected number of primary failures
     *  per run (the exponential arrival rate is meanFailures over the
     *  iteration span). */
    double meanFailures = 1.0;

    /** Correlated: per-peer probability that a primary crash takes a
     *  same-node rank down with it; also the probability the failure
     *  domain escalates from node to rack. */
    double cascadeProb = 0.35;

    /** Fraction of generated events demoted from Crash to Corrupt
     *  (silent data corruption); 0 disables corruption events. */
    double corruptFraction = 0.0;

    /** Rank -> node -> rack topology (copied from CostParams). */
    int ranksPerNode = 4;
    int nodesPerRack = 16;

    /** Trace: the events to replay, verbatim. */
    std::vector<FailureEvent> trace;
};

/**
 * Generate the deterministic schedule for one run. `rng` is consumed;
 * callers hand in a cellSeed-derived generator so the schedule is a
 * pure function of configuration. For FailureModelKind::Single the
 * draws reproduce the legacy injection exactly: iteration =
 * 1 + rng.below(iterations - 1), then rank = rng.below(nprocs).
 * Events are returned in fire order (iteration, then generation
 * order); iterations land in [1, iterations - 1].
 */
std::vector<FailureEvent>
generateSchedule(const FailureModelConfig &config, int nprocs,
                 int iterations, util::Rng &rng);

/** Wrap events in the runtime's shared multi-failure schedule (the
 *  per-event fired flags then persist across launch attempts). */
std::shared_ptr<simmpi::InjectionSchedule>
toInjectionSchedule(const std::vector<FailureEvent> &events);

/// @name Replayable trace format (see bench/FAILURE_TRACES.md).
/// One event per line: `iteration rank kind` with kind in
/// {crash, corrupt}; '#' starts a comment, blank lines are ignored.
/// @{

/** Serialize a schedule to trace text (round-trips via parseTrace). */
std::string serializeTrace(const std::vector<FailureEvent> &events);

/** Parse trace text; util::fatal on any malformed line. */
std::vector<FailureEvent> parseTrace(const std::string &text);

/** Write a schedule to a trace file; util::fatal on I/O error. */
void writeTraceFile(const std::string &path,
                    const std::vector<FailureEvent> &events);

/** Read and parse a trace file; util::fatal on I/O or parse error. */
std::vector<FailureEvent> readTraceFile(const std::string &path);

/// @}

} // namespace match::ft

#endif // MATCH_FT_FAILURE_MODEL_HH
