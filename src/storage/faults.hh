/**
 * @file
 * Deterministic storage-tier fault engine.
 *
 * The checkpoint designs the paper compares assume the storage tiers
 * themselves never fail; real FTI/SCR deployments survive burst-buffer
 * hiccups, PFS outages and full local tiers via retry and tier
 * degradation. This module makes those scenarios first-class,
 * deterministic experiment axes, mirroring the process-failure engine
 * (src/ft/failure_model.{hh,cc}):
 *
 *  - StorageFaultPlan: a set of FaultWindows — per-tier outage
 *    intervals over the checkpoint-epoch axis — generated as a pure
 *    function of (config, seed) by generatePlan(), so a plan is
 *    bit-identical across --jobs counts, storage backends, drain modes
 *    and kernels, and serializable to a replayable trace (see
 *    bench/FAULTS.md).
 *  - FaultInjectingBackend: a decorator over any Backend that turns
 *    the plan's windows into real injected failures: reads/writes
 *    throw StorageError, torn writes persist a prefix of the object
 *    before failing, ENOSPC windows refuse all writes. Latency-spike
 *    windows never fail an operation — clients price them in virtual
 *    time from the plan directly.
 *
 * Determinism contract: the decorator's injection decisions depend
 * only on (plan, the calling actor's checkpoint epoch, path, per-
 * (actor, path) attempt count) — never on wall-clock, thread identity
 * or operation order across paths or actors — so the simulated results
 * of a faulty run are as reproducible as a clean one. The "actor" is
 * the logical agent driving the I/O (a simulated rank, a drain-job
 * flush): keying the strike counters and the effective epoch per actor
 * keeps shared objects (FTI's rank-less meta files) from letting one
 * rank's retries consume another rank's strike budget — every rank
 * exhausts every object identically, so ladder decisions stay
 * rank-uniform without communication. Virtual-time costs (retry
 * backoff, latency spikes) are priced by the clients through CostModel
 * terms; the decorator only fails real I/O.
 *
 * Window/epoch semantics: a window [firstEpoch, lastEpoch] is open
 * while the job's current checkpoint epoch (the id of the checkpoint
 * being written, or the newest committed one during recovery) lies in
 * the inclusive range. `strikes` is how many consecutive attempts per
 * (actor, object path) fail before the tier heals for that path: a
 * value at or
 * below the clients' retry limit models a transient fault the retry
 * loop rides out; a larger value models a persistent outage, which the
 * clients pre-detect (the decision is a pure plan query, identical on
 * every rank) and survive by demoting the checkpoint level, skipping
 * the epoch, or voting the object lost on the recovery ladder.
 */

#ifndef MATCH_STORAGE_FAULTS_HH
#define MATCH_STORAGE_FAULTS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/storage/backend.hh"
#include "src/util/rng.hh"

namespace match::storage
{

/** Storage-tier path classes a fault window targets. */
enum class PathClass
{
    Local, ///< node-local tier: local/, meta/, SCR cache
    Pfs,   ///< parallel file system: paths under a pfs/ segment
};

/** Trace label ("local", "pfs"). */
const char *pathClassName(PathClass cls);

/** Parse a trace label; false when `name` is not a class. */
bool parsePathClass(const std::string &name, PathClass &out);

/** What an open fault window does to matching operations. */
enum class FaultKind
{
    ReadFault,    ///< reads of the class throw StorageError
    WriteFault,   ///< writes of the class throw StorageError
    TornWrite,    ///< writes persist a prefix, then throw
    Enospc,       ///< tier full: writes throw; retry never helps
    LatencySpike, ///< operations succeed; clients price extra seconds
};

/** Trace label ("read", "write", "torn", "enospc", "latency"). */
const char *faultKindName(FaultKind kind);

/** Parse a trace label; false when `name` is not a kind. */
bool parseFaultKind(const std::string &name, FaultKind &out);

/** One storage-tier fault window (see the file comment for the
 *  epoch/strike semantics). */
struct FaultWindow
{
    int firstEpoch = 0; ///< first checkpoint epoch covered (inclusive)
    int lastEpoch = 0;  ///< last checkpoint epoch covered (inclusive)
    PathClass cls = PathClass::Pfs;
    FaultKind kind = FaultKind::WriteFault;
    /** Consecutive failing attempts per (actor, object path) before
     *  the tier heals for that path. Ignored for Enospc (retry never
     *  helps) and LatencySpike (nothing fails). */
    int strikes = 1;

    bool
    operator==(const FaultWindow &other) const
    {
        return firstEpoch == other.firstEpoch &&
               lastEpoch == other.lastEpoch && cls == other.cls &&
               kind == other.kind && strikes == other.strikes;
    }
};

/**
 * The deterministic fault schedule of one run, plus the pure queries
 * the checkpoint clients use to decide — identically on every rank,
 * before any I/O — whether an epoch's write is transient-faulty
 * (retry), persistently faulty (degrade/skip) or spiked (price).
 */
struct StorageFaultPlan
{
    std::vector<FaultWindow> windows;

    bool empty() const { return windows.empty(); }

    bool
    operator==(const StorageFaultPlan &other) const
    {
        return windows == other.windows;
    }

    /**
     * Whether a write to `cls` at `epoch` cannot succeed within
     * `retryLimit` retries: an open Enospc window (retry never helps),
     * or the open write-class windows' summed strikes exceed the
     * limit (overlapping windows compound — each fails its own
     * strikes' worth of consecutive attempts). Clients must not
     * attempt the write at all — they demote the level or skip the
     * epoch instead.
     */
    bool writeExhausted(int epoch, PathClass cls, int retryLimit) const;

    /** Like writeExhausted, for reads. */
    bool readExhausted(int epoch, PathClass cls, int retryLimit) const;

    /**
     * Like writeExhausted, for Backend::copy, which spends one retry
     * budget across BOTH legs — the src read and the dst write — so a
     * copy is exhausted when the summed read strikes on `srcCls` and
     * write strikes on `dstCls` exceed the limit (or an Enospc window
     * covers the destination), even when each side alone is a
     * rideable transient. Clients that copy (SCR partner redundancy,
     * uncompressed flushes) must pre-flight with this, not with the
     * per-side queries.
     */
    bool copyExhausted(int epoch, PathClass srcCls, PathClass dstCls,
                       int retryLimit) const;

    /** Retries a write to `cls` at `epoch` needs before succeeding
     *  (0 when no transient write window is open): the summed strikes
     *  of the open windows — the count the client prices as backoff.
     *  Exhausted epochs return 0 — they are handled by
     *  writeExhausted, not by retrying. */
    int transientWriteStrikes(int epoch, PathClass cls,
                              int retryLimit) const;

    /** Like transientWriteStrikes, for reads. */
    int transientReadStrikes(int epoch, PathClass cls,
                             int retryLimit) const;

    /** Whether a latency-spike window covers (epoch, cls). */
    bool latencySpike(int epoch, PathClass cls) const;
};

/** Knobs the seed-derived plan is generated from (experiment axes;
 *  all hashed into configKey). */
struct StorageFaultConfig
{
    /** Fault windows to draw per run; 0 disables the engine. */
    int windows = 0;

    /** Probability a drawn window targets the PFS class (the rest
     *  strike the local tier). */
    double pfsBias = 0.75;

    /** Mean window length in checkpoint epochs (window lengths are
     *  uniform on [1, 2*meanEpochs - 1]). */
    int meanEpochs = 2;

    /** Strike count of drawn read/write/torn windows: <= the clients'
     *  retry limit models transient faults, larger models persistent
     *  outages. */
    int strikes = 2;

    /** Non-empty: replay these windows verbatim (no RNG draws),
     *  like ft::FailureModelConfig::trace. */
    std::vector<FaultWindow> trace;
};

/**
 * Generate the deterministic plan for one run. `rng` is consumed;
 * callers hand in a generator seeded from cellSeed() on a dedicated
 * stream so the plan is a pure function of configuration and the
 * process-failure schedule draws are undisturbed. `epochs` is the
 * run's checkpoint-epoch horizon (iterations / stride, at least 1);
 * drawn windows land inside [1, epochs]. A non-empty trace is
 * returned verbatim and consumes zero draws.
 */
StorageFaultPlan generatePlan(const StorageFaultConfig &config,
                              int epochs, util::Rng &rng);

/// @name Replayable fault-trace format (see bench/FAULTS.md).
/// One window per line: `firstEpoch lastEpoch class kind strikes`
/// with class in {local, pfs} and kind in {read, write, torn, enospc,
/// latency}; '#' starts a comment, blank lines are ignored.
/// @{

/** Serialize windows to trace text (round-trips via parse). */
std::string serializeFaultTrace(const std::vector<FaultWindow> &windows);

/** Parse trace text; util::fatal on any malformed line. */
std::vector<FaultWindow> parseFaultTrace(const std::string &text);

/** Write a trace file; util::fatal on I/O error. */
void writeFaultTraceFile(const std::string &path,
                         const std::vector<FaultWindow> &windows);

/** Read and parse a trace file; util::fatal on I/O or parse error. */
std::vector<FaultWindow> readFaultTraceFile(const std::string &path);

/// @}

/** Retry budget checkpoint clients fall back to when no fault engine
 *  (and hence no configured limit) is attached: real I/O errors are
 *  still retried a few times before surfacing. */
inline constexpr int kDefaultIoRetryLimit = 3;

/**
 * Structured record of one graceful-degradation decision a checkpoint
 * client took because a tier was write-exhausted: a level demotion
 * (L4 -> L3 when the PFS is out), or a skipped epoch (toLevel 0, when
 * the local tier itself is full). Clients accumulate these so tests
 * and benches can assert the run survived by degrading, not by luck.
 */
struct DegradeEvent
{
    int epoch = 0;     ///< checkpoint id the decision applied to
    int fromLevel = 0; ///< level the client intended to write
    int toLevel = 0;   ///< level actually written (0: epoch skipped)
    PathClass cls = PathClass::Pfs; ///< the exhausted tier class
};

/** Process-global storage-fault counters, for bench records: injected
 *  failures by effect, plus the client-side degradation events. */
struct FaultStats
{
    std::uint64_t injectedReadFaults = 0;
    std::uint64_t injectedWriteFaults = 0;
    std::uint64_t tornWrites = 0;
    std::uint64_t enospcHits = 0;
    std::uint64_t pricedRetries = 0;   ///< retry backoffs priced
    std::uint64_t latencySpikes = 0;   ///< spike penalties priced
    std::uint64_t degradedCkpts = 0;   ///< L4->L3 demotions
    std::uint64_t skippedEpochs = 0;   ///< local-tier epoch skips
    std::uint64_t failedFlushes = 0;   ///< permanently failed flushes
};

/** Snapshot of the process-global counters (benches diff snapshots
 *  around a grid, like drainGlobalShippedBytes). */
FaultStats faultGlobalStats();

/// @name Client-side counter hooks (Fti/Scr call these so the global
/// stats see degradations that happen outside the decorator).
/// @{
void notePricedRetries(std::uint64_t count);
void noteLatencySpike();
void noteDegradedCkpt();
void noteSkippedEpoch();
void noteFailedFlush();
/// @}

/**
 * Decorator injecting the plan's faults into a real Backend.
 *
 * Epoch and actor tracking: checkpoint clients bind the calling
 * actor's (epoch, actor id) around each injected operation with a
 * FaultEpochScope — per-rank state, never shared, so ranks sitting on
 * different recovery rungs cannot flap each other's effective epoch.
 * Drain-thread flush jobs bind the epoch their checkpoint was
 * enqueued at the same way, so an async flush sees the same windows
 * whether it runs immediately (sync drain) or seconds later —
 * injection is drain-mode independent. setEpoch() publishes a
 * fallback epoch for unscoped accesses (tests, the simulation
 * driver's corruption injector).
 *
 * Path classification: paths containing a "/pfs/" segment are Pfs;
 * everything else is Local. addPfsPrefix() registers extra PFS roots
 * (SCR's prefix directory carries no pfs/ segment).
 *
 * Metadata operations (exists/size/listDir/remove/removeTree) always
 * pass through: the engine models data-path
 * faults, and a failing namespace op would add nothing but noise.
 */
class FaultInjectingBackend final : public Backend
{
  public:
    FaultInjectingBackend(std::shared_ptr<Backend> inner,
                          StorageFaultPlan plan, int retryLimit);

    /** The plan the clients run their pure pre-I/O queries against. */
    const StorageFaultPlan &plan() const { return plan_; }

    /** Bounded-retry budget the clients share (IoRetryPolicy). */
    int retryLimit() const { return retryLimit_; }

    /** Publish the fallback checkpoint epoch, used by accesses not
     *  wrapped in a FaultEpochScope (tests, the driver's corruption
     *  injector). Client I/O binds its own epoch per scope instead. */
    void
    setEpoch(int epoch)
    {
        epoch_.store(epoch, std::memory_order_relaxed);
    }

    int
    epoch() const
    {
        return epoch_.load(std::memory_order_relaxed);
    }

    /** Register an extra PFS path root (e.g. SCR's prefix dir). */
    void addPfsPrefix(std::string prefix);

    /** The tier class of `path` under the current classification. */
    PathClass classify(const std::string &path) const;

    // Backend interface -------------------------------------------------
    Kind kind() const override { return inner_->kind(); }
    Blob read(const std::string &path) const override;
    void write(const std::string &path, Blob blob) override;
    void writeAtomic(const std::string &path, Blob blob) override;
    bool exists(const std::string &path) const override;
    bool size(const std::string &path, std::size_t &bytes) const override;
    bool copy(const std::string &src, const std::string &dst) override;
    void remove(const std::string &path) override;
    void removeTree(const std::string &dir) override;
    std::vector<std::string>
    listDir(const std::string &dir) const override;

  private:
    friend class FaultEpochScope;

    /** The effective epoch for the calling thread: a FaultEpochScope
     *  binding when one is active (client I/O, drain jobs), else the
     *  published fallback epoch. */
    int effectiveEpoch() const;

    /** The open window failing this (op, path) attempt, or nullptr.
     *  Increments the per-(window, actor, path) attempt counter as a
     *  side effect, so an actor's consecutive attempts eventually pass
     *  the window's strike budget and succeed — without consuming any
     *  other actor's budget on a shared object. */
    const FaultWindow *failingWindow(const std::string &path,
                                     bool writeOp) const;

    /** Injects the failing write window's effect, if any. `atomicOp`
     *  marks a writeAtomic call: a torn write then persists nothing
     *  (the tear lands in the discarded tmp object), preserving the
     *  "reader never observes a partial write" contract the meta/
     *  marker machinery relies on. */
    void failWrite(const std::string &path, const Blob &blob,
                   bool atomicOp);

    std::shared_ptr<Backend> inner_;
    StorageFaultPlan plan_;
    int retryLimit_ = 3;
    std::atomic<int> epoch_{0};
    std::vector<std::string> pfsPrefixes_;

    /** (window index, actor, path) -> failed attempts so far. Mutable:
     *  reads consult it too. Keyed per actor so shared objects (FTI
     *  meta files) give every simulated rank its own strike budget —
     *  cross-rank consumption would make ranks restore different
     *  checkpoints from identical ladders. */
    mutable std::mutex mu_;
    mutable std::map<std::tuple<std::size_t, int, std::string>, int>
        attempts_;
};

/**
 * Thread-local (epoch, actor) binding for injected I/O. Checkpoint
 * clients install one around each backend operation with the calling
 * rank's own epoch and identity (ckpt::CkptIo::retry does this for
 * FTI and SCR); drain-thread jobs install one for the job's duration with
 * the epoch the flush was enqueued at, so injection decisions are
 * identical whether the job runs inline (sync drain) or later on a
 * worker. `actor` keys the strike counters: pass the simulated
 * global rank (or the flushing rank for drain jobs); -1 leaves the
 * access on the shared unbound bucket (tests, driver-side injection).
 * A null backend makes the scope a no-op (faults off).
 *
 * Simulated ranks are fibers multiplexed on one OS thread, so a
 * binding must never span a fiber yield point (sleepFor): clients
 * scope each backend call, not the retry loop around it.
 */
class FaultEpochScope
{
  public:
    FaultEpochScope(const FaultInjectingBackend *backend, int epoch,
                    int actor = -1);
    ~FaultEpochScope();

    FaultEpochScope(const FaultEpochScope &) = delete;
    FaultEpochScope &operator=(const FaultEpochScope &) = delete;

  private:
    bool active_ = false;
    int prevEpoch_ = -1;
    int prevActor_ = -1;
};

/**
 * IoRetryPolicy: run `op` with up to `retryLimit` retries on
 * StorageError. `onRetry(attempt)` fires before each retry so the
 * caller can price the backoff in virtual time (attempt is 0-based).
 * The last failure rethrows — for transient windows (strikes <=
 * retryLimit) that cannot happen; persistent windows are pre-detected
 * by the plan queries and never reach a retry loop on the write path.
 */
template <typename Op, typename OnRetry>
auto
withIoRetry(int retryLimit, Op &&op, OnRetry &&onRetry)
    -> decltype(op())
{
    for (int attempt = 0;; ++attempt) {
        try {
            return op();
        } catch (const StorageError &) {
            if (attempt >= retryLimit)
                throw;
            onRetry(attempt);
        }
    }
}

} // namespace match::storage

#endif // MATCH_STORAGE_FAULTS_HH
