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
    /** The cell's configKey — its result-cache key. */
    std::string key;
    /** Human-readable cell label ("HPCCG Small p64 REINIT-FTI ..."). */
    std::string summary;
    /** What the cell threw. */
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
     *  threads while the grid ran: checkpoint serialize, RS/XOR
     *  encode, PFS flushes, storage backend I/O. */
    util::PhaseTotals phases;
    /** Cells quarantined this run (empty on a healthy grid). Their
     *  result slots hold default (all-zero) ExperimentResults. */
    std::vector<CellFailure> failures;
    /** Unique cells whose result was computed this run (cache miss). */
    std::size_t cellsComputed = 0;
    /** Unique cells replayed from the result cache: the finished
     *  cells of a resumed grid and ordinary memoization hits alike. */
    std::size_t cellsFromCache = 0;
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
    /** @param jobs worker threads; <= 0 selects hardwareJobs(). */
    explicit GridRunner(int jobs = 0);

    /** Worker threads this runner will use. */
    int jobs() const { return jobs_; }

    /** std::thread::hardware_concurrency with a floor of 1. */
    static int hardwareJobs();

    /**
     * Run every cell; result i corresponds to cells[i]. When `timing`
     * is non-null it receives the grid's wall-clock record.
     *
     * Each unique cell is attempted exactly once: cells are
     * deterministic, so one that throws would throw again. A throwing
     * cell is quarantined — its result slot stays default-initialized
     * and a CellFailure lands in timing->failures — and the pool keeps
     * draining every healthy cell. With a cacheDir the result cache is
     * the resume journal: each finished cell commits its .cell file
     * atomically, so rerunning a killed grid replays every committed
     * cell (bit-identical, zero recomputation) and computes the rest,
     * quarantined cells included.
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
};

} // namespace match::core

#endif // MATCH_CORE_GRID_HH
