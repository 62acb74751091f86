/**
 * @file
 * Shared driver for the figure-reproduction benchmarks: option parsing,
 * declarative grid specification, thread-parallel grid execution, and
 * paper-style table rendering.
 *
 * Every bench binary prints, for each proxy application, the same
 * series the corresponding paper figure plots: one row per
 * (configuration, design) with the stacked-bar components. Cells run on
 * a GridRunner worker pool; output is bit-identical for any --jobs
 * value because cells are deterministic and rendered in enumeration
 * order after the parallel phase completes.
 */

#ifndef MATCH_BENCH_COMMON_HH
#define MATCH_BENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/grid.hh"

namespace match::bench
{

/**
 * Command-line options shared by the benches. Every experiment knob
 * parses straight into `spec` (its base ExperimentConfig plus the
 * `apps` and `transforms` axes) and every watchdog/retry/resume flag
 * into `policy`; the fields declared here are the benches' own
 * settings. `bench --help` lists the flags.
 */
struct BenchOptions
{
    /** --quick: 2 runs, endpoints-only scaling sweep (64 and 512). */
    bool quick = false;
    /** --csv DIR: also write one CSV per app into DIR. */
    std::string csvDir;
    /** --jobs N: grid worker threads (default 0 = hardware
     *  concurrency). Results and printed output are byte-identical
     *  for every value of N; only wall time changes. */
    int jobs = 0;
    /** --strict: exit nonzero when any cell was quarantined (default:
     *  finish the healthy cells and report). */
    bool strict = false;
    /** --perf-dir DIR: where the failure ablation writes its
     *  BENCH_ablation_failure_scenarios.json record (default "."). */
    std::string perfDir = ".";

    /** The experiment knobs. After parse(), `apps` names every app
     *  when --apps was not given, the sandbox defaults to
     *  /dev/shm/match-fti-bench and `cacheDir` is
     *  <sandboxDir>/cell-cache. Benches set their axes on a copy, or
     *  slice it into hand-built cells. */
    core::GridSpec spec;
    /** Grid fault-tolerance policy (wall-clock only; bench/RESUME.md). */
    core::GridPolicy policy;

    static BenchOptions parse(int argc, char **argv);

    /** A runner carrying jobs and the grid policy — the one
     *  constructor every GridRunner bench should use, so the
     *  watchdog/retry/resume flags reach every grid uniformly. */
    core::GridRunner makeRunner() const;
};

/**
 * Print the structured quarantined-cell report (nothing on a healthy
 * grid) and return the number of quarantined cells. Benches accumulate
 * the count across their grids and feed it to gridExitCode.
 */
int reportCellFailures(const core::GridTiming &timing);

/**
 * Print `grid digest: <16 hex>`, core::gridDigest over every result
 * field at full precision (the tables round to 0.01 s and omit
 * ckptRead), and return it (the failure ablation records it).
 */
std::uint64_t printGridDigest(
    const std::vector<core::ExperimentResult> &results);

/** Process exit code honoring --strict: nonzero iff any cell was
 *  quarantined and strict mode is on. */
int gridExitCode(const BenchOptions &options, int quarantined);

/** Which axis the figure sweeps. */
enum class Sweep
{
    ScalingSizes, ///< Figures 5-7: P in {64,128,256,512}, small input
    InputSizes,   ///< Figures 8-10: input in {S,M,L}, 64 processes
};

/** What the figure reports. */
enum class Report
{
    Breakdown, ///< stacked application/ckpt-write/recovery components
    Recovery,  ///< recovery time only (Figures 7 and 10)
};

/** Declarative description of one figure bench. */
struct FigureDef
{
    const char *figure; ///< label printed in the header ("Figure 5")
    Sweep sweep;        ///< scaling-size or input-size sweep
    bool inject;        ///< whether a process failure is injected
    Report report;      ///< breakdown or recovery-only rows
};

/**
 * Run one figure's whole grid on a worker pool and print per-app
 * tables (and CSVs when requested). Returns the number of quarantined
 * cells (0 on a healthy grid).
 */
int runFigure(const BenchOptions &options, const FigureDef &def);

/** Parse options and run the figure: the figure benches' whole main. */
int figureMain(const FigureDef &def, int argc, char **argv);

} // namespace match::bench

#endif // MATCH_BENCH_COMMON_HH
