/**
 * @file
 * MATCH experiment runner: executes (app, input, scale, design) cells of
 * the paper's evaluation grid with the paper's methodology — five runs
 * per configuration, a uniformly random failure site per run, averaged
 * results (Section V-B).
 */

#ifndef MATCH_CORE_EXPERIMENT_HH
#define MATCH_CORE_EXPERIMENT_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/apps/app.hh"
#include "src/ft/design.hh"
#include "src/storage/backend.hh"
#include "src/storage/drain.hh"
#include "src/storage/faults.hh"
#include "src/storage/transform.hh"
#include "src/util/rng.hh"

namespace match::core
{

/** One cell of the evaluation grid. */
struct ExperimentConfig
{
    std::string app = "HPCCG";
    apps::InputSize input = apps::InputSize::Small;
    int nprocs = 64;
    ft::Design design = ft::Design::ReinitFti;
    bool injectFailure = false;

    /** Failure-scenario engine (src/ft/failure_model.hh). Single (the
     *  default) reproduces the paper's one-uniform-site injection
     *  draw-for-draw; the other models derive a deterministic
     *  multi-event schedule from the same per-(cell, run) RNG. All of
     *  these axes change virtual results, so they are part of
     *  configKey(). Only consulted when injectFailure is set. */
    ft::FailureModelKind failureModel = ft::FailureModelKind::Single;
    /** Mean failures per run (IndependentExp intensity; Correlated
     *  primary count). */
    double meanFailures = 1.0;
    /** Correlated model: probability a primary cascades to its
     *  node/rack peers (and that the blast radius is the whole rack). */
    double cascadeProb = 0.35;
    /** Fraction of events drawn as silent corruption instead of a
     *  crash (IndependentExp/Correlated). */
    double corruptFraction = 0.0;
    /** Trace model: the replayed events (see ft::readTraceFile). */
    std::vector<ft::FailureEvent> traceEvents;

    /** Storage-tier fault engine (src/storage/faults.hh). 0 windows
     *  (the default) leaves the backend undecorated — bit-identical to
     *  a build without the engine. Non-zero draws that many per-run
     *  fault windows from a dedicated RNG stream of cellSeed(), so
     *  schedules are bit-identical across --jobs counts, storage
     *  backends and drain modes. All of these axes change virtual
     *  results and are part of configKey(). */
    int storageFaultWindows = 0;
    /** Probability a drawn window targets the PFS path class. */
    double storageFaultPfsBias = 0.75;
    /** Mean fault-window length in checkpoint epochs. */
    int storageFaultMeanEpochs = 2;
    /** Strikes per drawn window: <= ioRetryLimit is transient (retry
     *  rides it out), larger is a persistent outage (degrade/skip). */
    int storageFaultStrikes = 2;
    /** Non-empty: replay this fault trace verbatim instead of drawing
     *  (storage::readFaultTraceFile); storageFaultWindows must be
     *  non-zero for the engine to engage. */
    std::vector<storage::FaultWindow> storageFaultTrace;
    /** Bounded-retry budget of the checkpoint clients' IoRetryPolicy
     *  (priced via CostParams::ioRetryBackoffBase). */
    int ioRetryLimit = 3;

    /** SDC hardening: CRC32C verification at recovery with fall-back
     *  to older checkpoints (FtiConfig::sdcChecks). */
    bool sdcChecks = false;
    /** Scrub the newest checkpoint every N iterations (requires
     *  sdcChecks; FtiConfig::scrubStride). */
    int scrubStride = 0;
    /** Virtual burst-buffer capacity for staged L4 flushes; 0 is
     *  unbounded (FtiConfig::drainCapacityBytes). Also bounds the wall
     *  worker's staged bytes. */
    std::size_t drainCapacityBytes = 0;

    /** Checkpoint data-reduction chain (FtiConfig::transform): delta
     *  emits differential checkpoints, compress reduces L4 drain
     *  traffic. Changes stored/shipped byte counts and hence virtual
     *  results, so it is part of configKey(); None is bit-identical to
     *  the pre-transform code. */
    storage::TransformKind transform = storage::TransformKind::None;
    /** Full-envelope cadence of the delta chain
     *  (FtiConfig::deltaRebase). */
    int deltaRebase = 8;

    /** Paper methodology: five runs, averaged. */
    int runs = 5;
    std::uint64_t seed = 42;

    /** FTI checkpoint level (paper: L1) and sandbox root. */
    int ckptLevel = 1;
    /** Checkpoint every N main-loop iterations (paper: 10). */
    int ckptStride = 10;
    std::string sandboxDir = "/tmp/match-fti";

    /** Where each run's checkpoint sandbox lives. Mem (the default)
     *  keeps the whole checkpoint/restart cycle in process memory —
     *  the hot path makes zero syscalls; Disk writes real files under
     *  sandboxDir. Results are bit-identical either way (locked in by
     *  tests), so the kind is excluded from configKey(). */
    storage::Kind storage = storage::Kind::Mem;

    /** Wall-clock execution mode of the PFS drain (L4 flushes, SCR
     *  flush-to-prefix). Async (the default) overlaps the flush I/O
     *  with the simulation on a background worker; Sync replays every
     *  flush inline at enqueue. Results are bit-identical either way
     *  and for any queue depth (locked in by tests) — virtual-time
     *  drain accounting is deterministic — so, like the storage kind,
     *  both fields are excluded from configKey(). */
    storage::DrainMode drain = storage::DrainMode::Async;

    /** Drain queue depth: flush jobs admitted but not yet executed
     *  (bounds burst-buffer memory holding staged blobs); 0 means
     *  unbounded. Wall-clock backpressure only. */
    int drainDepth = 4;

    simmpi::CostParams costParams{};

    /** Multiplicative system-noise amplitude applied per run; failure-free
     *  runs are otherwise bit-identical in the simulator. */
    double noiseSigma = 0.01;

    /** When non-empty, memoize results on disk keyed by the full
     *  configuration (figure benches share many grid cells). Results
     *  are deterministic, so cache hits are exact replays; the cache
     *  is also the grid's resume journal (GridRunner::run). */
    std::string cacheDir;
};

/** Averaged outcome of one grid cell. */
struct ExperimentResult
{
    ft::Breakdown mean;
    std::vector<ft::Breakdown> perRun;
};

/** Run one grid cell (deterministic in the config). */
ExperimentResult runExperiment(const ExperimentConfig &config);

/**
 * Process-wide count of cells actually computed (result-cache misses)
 * by runExperiment. Cache hits do not count, which is what lets tests
 * assert a resumed grid recomputes zero finished cells.
 */
std::uint64_t experimentComputeCount();

/** As experimentComputeCount(), but for the calling thread only — the
 *  grid worker uses it to classify one cell as computed vs replayed
 *  without racing against its siblings. */
std::uint64_t experimentComputeCountThisThread();

/**
 * Test-only hook invoked at the top of every runExperiment call with
 * the cell's config (before the cache is consulted). Tests install
 * throwing hooks to model poison cells and count its calls to see how
 * often a cell was attempted. Set before any grid runs — installation
 * is not synchronized with concurrently running workers. Pass nullptr
 * to clear.
 */
void setCellHookForTesting(
    std::function<void(const ExperimentConfig &)> hook);

/**
 * Deterministic per-(cell, run) RNG seed: a hash of every grid axis plus
 * the run index. The grid scheduler reuses it so a cell's randomness is
 * independent of which worker thread executes it.
 */
std::uint64_t cellSeed(const ExperimentConfig &config, int run);

/**
 * Unique execution id for one run of one cell. Includes a hash of the
 * full configuration plus the process id, so the FTI sandbox
 * (`ckptDir/execId`) of two concurrently executing cells can never
 * collide — not even when two bench processes sharing a sandbox root
 * compute the identical cell at the same time.
 */
std::string execId(const ExperimentConfig &config, int run);

/**
 * Version of the simulated semantics behind a cached result, hashed
 * into every configKey(). Bump it in any change that alters the result
 * of an unchanged configuration (cost model, app kernels, recovery
 * paths, the .cell format): every previously cached cell then misses
 * instead of replaying a result the current code would not produce.
 * Such a change also moves the pinned answers it touches: the app
 * finals in tests/apps/test_apps.cc and CI's fig6 grid-digest pin.
 */
inline constexpr std::uint32_t kResultFormatVersion = 2;

/** Exact result-cache key: hashes kResultFormatVersion and every field
 *  that influences the result, and nothing else — the wall-clock-only
 *  fields storage, drain, drainDepth, sandboxDir and cacheDir are
 *  excluded. */
std::string configKey(const ExperimentConfig &config);

/**
 * The storage-fault plan runExperiment installs for (config, run): a
 * pure function of the configuration, drawn on a dedicated RNG stream
 * of cellSeed() so the process-failure schedule and noise draws are
 * undisturbed. Empty when config.storageFaultWindows is 0. Exposed so
 * benches and tests can serialize exactly the windows a run saw and
 * replay them (ExperimentConfig::storageFaultTrace) bit-identically.
 */
storage::StorageFaultPlan storageFaultPlanFor(
    const ExperimentConfig &config, int run);

/**
 * The failure schedule runExperiment fires in one run of `config`: the
 * only place a cell's failure-model fields become a schedule. Draws
 * from `rng`, the run's cellSeed() generator, before the noise draws;
 * with injectFailure off it returns {} and draws nothing. Exposed so
 * benches and tests can serialize exactly the events a run saw and
 * replay them (FailureModelKind::Trace) bit-identically.
 */
std::vector<ft::FailureEvent> failureScheduleFor(
    const ExperimentConfig &config, util::Rng &rng);

/**
 * Can the checkpoint *bytes* of `config` reach a result? Every app
 * prices compute from a per-input constant, runs a fixed iteration
 * count and sends data-independent message sizes, so its numeric
 * kernels reach virtual time only through the bytes it checkpoints.
 * Those matter only under a transform, CRC votes (sdcChecks), storage
 * faults, or injected corrupt events (a corrupt fraction or a trace).
 * False makes runExperiment run the apps price-only
 * (AppParams::kernels). Every input is a configKey() axis.
 */
bool checkpointBytesMatter(const ExperimentConfig &config);

/**
 * Scaling sizes of an app restricted by Table I (LULESH runs on cube
 * process counts only).
 */
std::vector<int> scalingSizesFor(const std::string &app);

/** All three input classes. */
inline constexpr std::array<apps::InputSize, 3> allInputs{
    apps::InputSize::Small, apps::InputSize::Medium,
    apps::InputSize::Large};

} // namespace match::core

#endif // MATCH_CORE_EXPERIMENT_HH
