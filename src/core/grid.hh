/**
 * @file
 * Thread-parallel experiment engine.
 *
 * The paper's evaluation is a large grid — apps x inputs x scales x
 * designs, five averaged runs per cell — and every cell is a
 * self-contained single-threaded simulation: the runtime, FTI and SCR
 * keep all mutable state in per-job objects, and each run's checkpoint
 * sandbox is derived from its unique execId. Cells are therefore
 * embarrassingly parallel, and the two pieces here exploit that:
 *
 *  - GridSpec: declarative cell enumeration. A figure or ablation names
 *    its axes (apps, inputs, scales, designs, checkpoint strides and
 *    levels) and gets the full cross product in a deterministic order,
 *    instead of hand-rolling nested loops.
 *  - GridRunner: a bounded worker-thread pool executing cells in
 *    parallel. Results land at the cell's index regardless of which
 *    worker computed them and each cell seeds its RNG from cellSeed(),
 *    so output is bit-identical for any worker count.
 *
 * Thread-safety contract (audited): simmpi::Runtime, Fiber (per-thread
 * current-fiber pointer), Fti, Scr and the cost model hold no mutable
 * process-global state; the log level is atomic; result-cache stores
 * are tmp+rename atomic; and concurrent cells write disjoint sandbox
 * directories keyed by execId.
 */

#ifndef MATCH_CORE_GRID_HH
#define MATCH_CORE_GRID_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/experiment.hh"
#include "src/util/phase.hh"

namespace match::core
{

/**
 * Declarative description of an evaluation grid: a base
 * ExperimentConfig that carries every knob shared by the grid's cells,
 * plus the swept axes below. enumerate() expands the axes into cells
 * ordered app -> scale -> input -> design -> stride -> level ->
 * transform (the order the paper's figures list rows). Each cell is a
 * copy of the base config with the per-cell fields `app`, `input`,
 * `nprocs`, `design`, `ckptStride`, `ckptLevel` and `transform`
 * overwritten from the axes, so setting those inherited fields on a
 * spec has no effect on its cells.
 */
struct GridSpec : ExperimentConfig
{
    /** Apps to sweep; empty means the full six-app registry. */
    std::vector<std::string> apps;

    /** Input problem classes (Table I columns). The qualification is
     *  spelled out because the `apps` member above shadows the
     *  namespace inside this struct's scope. */
    std::vector<match::apps::InputSize> inputs{
        match::apps::InputSize::Small};

    /** Process counts; empty means each app's Table-I scaling sizes.
     *  Explicit counts are used verbatim for every app. */
    std::vector<int> scales;

    /** With per-app scaling sizes: keep only the endpoints (the figure
     *  benches' --quick mode). */
    bool endpointsOnly = false;

    /** Fault-tolerance designs (row order of the paper's figures). */
    std::vector<ft::Design> designs{ft::allDesigns.begin(),
                                    ft::allDesigns.end()};

    /** Checkpoint strides in iterations (paper: 10). More than one
     *  entry turns the spec into a checkpoint-interval ablation. */
    std::vector<int> ckptStrides{10};

    /** FTI checkpoint levels (paper: L1). More than one entry turns
     *  the spec into a level ablation. */
    std::vector<int> ckptLevels{1};

    /** Checkpoint data-reduction chains (paper baseline: none). More
     *  than one entry turns the spec into a transform ablation — the
     *  innermost enumeration axis, so transform rows of one cell sit
     *  adjacently in figure output. */
    std::vector<storage::TransformKind> transforms{
        storage::TransformKind::None};

    /** Expand the axes into concrete cells (deterministic order). */
    std::vector<ExperimentConfig> enumerate() const;
};

/**
 * Fault-tolerance policy of one grid execution. Everything here is
 * wall-clock machinery — watchdog deadlines, retry budgets, journaled
 * resume — and none of it may perturb simulated results: a cell either
 * produces its deterministic result or no result at all (quarantine),
 * and nothing in this struct enters configKey().
 */
struct GridPolicy
{
    /** Wall-clock deadline per cell attempt, seconds; 0 disables the
     *  fixed deadline (autoTimeout may still arm one). When a cell
     *  overruns, the watchdog raises its cooperative cancel token and
     *  the attempt counts as a strike. */
    double cellTimeoutSeconds = 0.0;

    /** Derive the deadline from this grid's own completed cells: once
     *  8 cells finished, an attempt running longer than max(1s, 5 x
     *  p99 of completed-cell wall time) is cancelled. A fixed
     *  cellTimeoutSeconds wins when both are set. */
    bool autoTimeout = false;

    /** Retries after the first attempt before a cell is quarantined
     *  (attempts = cellRetries + 1). Retries are spaced by capped
     *  exponential backoff: 50 ms * 2^strike, at most 2 s. */
    int cellRetries = 2;

    /** Journal per-cell status into <cacheDir>/grid.manifest and
     *  resume a previously killed grid: done cells replay from the
     *  result cache, in-flight/failed cells recompute, quarantined
     *  cells get a fresh retry budget. false discards the journal
     *  history (the --no-resume path) while still journaling this
     *  run. Requires the cells to share a non-empty cacheDir;
     *  otherwise the grid runs unjournaled. */
    bool resume = true;
};

/**
 * Structured record of a cell the grid gave up on: the degraded-grid
 * contract is "finish every healthy cell, report the rest", never
 * "abort the sweep". Lands in GridTiming::failures, which the benches
 * print with bench::reportCellFailures.
 */
struct CellFailure
{
    /** Index into the run() input vector (first occurrence when the
     *  cell was enumerated more than once). */
    std::size_t cell = 0;
    /** The cell's configKey — the manifest/cache key. */
    std::string key;
    /** Human-readable cell label ("HPCCG small p64 REINIT-FTI ..."). */
    std::string summary;
    /** Total attempts, including prior sessions' (from the manifest). */
    int attempts = 0;
    /** True when the final strike was a watchdog timeout. */
    bool timedOut = false;
    std::string lastError;
};

/**
 * Wall-clock record of one grid execution: the benches report its
 * quarantined cells, and perfbench's grid check reads its totals,
 * per-cell seconds and phases.
 */
struct GridTiming
{
    /** Wall seconds for the whole grid (workers included). */
    double totalSeconds = 0.0;
    /** Wall seconds per computed cell (deduplicated cells only), in
     *  unique-cell order. */
    std::vector<double> cellSeconds;
    /** Per-phase wall-clock attribution accumulated across all worker
     *  (and drain) threads while the grid ran: checkpoint serialize,
     *  RS/XOR encode, drain jobs, storage backend I/O. */
    util::PhaseTotals phases;
    /** Cells quarantined this run (empty on a healthy grid). Their
     *  result slots hold default (all-zero) ExperimentResults. */
    std::vector<CellFailure> failures;
    /** Unique cells whose result was computed this run (cache miss). */
    std::size_t cellsComputed = 0;
    /** Unique cells replayed from the result cache (resume hits and
     *  ordinary memoization hits). */
    std::size_t cellsFromCache = 0;
    /** The journal this run appended to; empty when unjournaled. */
    std::string manifestPath;
};

/**
 * Full-precision fingerprint of a grid's results: FNV-1a over the bit
 * pattern of every ft::Breakdown field of each result's mean and
 * perRun, in result order (per result: mean, perRun count, then each
 * run — the field order perfbench digests a cell in). The figure
 * tables round to 0.01 s; equal digests mean bit-identical results.
 */
std::uint64_t gridDigest(const std::vector<ExperimentResult> &results);

/**
 * Executes grid cells on a pool of worker threads. Identical cells are
 * deduplicated (computed once, result shared), concurrency is bounded
 * by the job count, and the result vector is index-aligned with the
 * input cells — so for a fixed cell list the output is bit-identical
 * whether one worker runs or sixteen.
 */
class GridRunner
{
  public:
    /** @param jobs worker threads; <= 0 selects hardwareJobs().
     *  @param policy fault-tolerance policy (wall-clock only). */
    explicit GridRunner(int jobs = 0, GridPolicy policy = GridPolicy{});

    /** Worker threads this runner will use. */
    int jobs() const { return jobs_; }

    /** Fault-tolerance policy. */
    const GridPolicy &policy() const { return policy_; }

    /** std::thread::hardware_concurrency with a floor of 1. */
    static int hardwareJobs();

    /**
     * Run every cell; result i corresponds to cells[i]. When `timing`
     * is non-null it receives the grid's wall-clock record.
     *
     * Fault tolerance (see GridPolicy): a throwing or timed-out cell
     * is retried with capped exponential backoff and quarantined after
     * exhausting its budget — its result slot stays default-initialized
     * and a CellFailure lands in timing->failures; the pool keeps
     * draining every healthy cell either way. When the cells share a
     * cacheDir, per-cell status is journaled to <cacheDir>/grid.manifest
     * so a killed grid resumes: done cells replay from the result cache
     * (bit-identical, zero recomputation), in-flight cells recompute.
     */
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentConfig> &cells,
        GridTiming *timing = nullptr) const;

    /** Enumerate and run a declarative spec. */
    std::vector<ExperimentResult>
    run(const GridSpec &spec, GridTiming *timing = nullptr) const
    {
        return run(spec.enumerate(), timing);
    }

  private:
    int jobs_ = 1;
    GridPolicy policy_{};
};

} // namespace match::core

#endif // MATCH_CORE_GRID_HH
