/**
 * @file
 * Asynchronous PFS drain worker.
 *
 * Multi-level checkpointing libraries stage L4 checkpoints (and SCR
 * flush-to-prefix datasets) into a burst buffer and let a background
 * agent drain them to the parallel file system while the application
 * computes. DrainWorker is that agent for a storage::Backend: clients
 * enqueue flush jobs (closures that perform backend I/O) and the worker
 * executes them FIFO, either inline at enqueue time (DrainMode::Sync —
 * the deterministic replay mode) or on a background thread
 * (DrainMode::Async — overlapping the I/O with the caller's wall-clock
 * work).
 *
 * Determinism contract: the mode and queue depth change *only* where
 * and when the I/O happens in wall-clock time. Jobs run in enqueue
 * order either way, each job sees every earlier job's writes, and a
 * job's return value (used by the simulator's virtual-time drain
 * accounting) is a pure function of the backend state its predecessors
 * left — so simulated results are bit-identical for any drain
 * scheduling. Virtual-time bookkeeping itself lives in the checkpoint
 * client layer (ckpt::CkptIo, shared by FTI and SCR): it records the
 * virtual enqueue instant and lazily prices the drain channel when a
 * quiesce point needs it.
 *
 * Queue depth bounds the jobs admitted but not yet executed — i.e. the
 * burst-buffer memory holding staged blobs. A full queue blocks
 * enqueue() in wall-clock time until the worker frees a slot; it has no
 * virtual-time effect. Capacity-in-bytes backpressure is the same idea
 * with the real buffer footprint as the bound: enqueue(job, bytes)
 * blocks while admitting the job would push the staged bytes of
 * admitted-but-unfinished jobs over the capacity. A job larger than the
 * whole capacity is admitted alone (at zero occupancy) rather than
 * deadlocking. The *virtual-time* counterpart of capacity pressure
 * lives in DrainChannel::reserve().
 *
 * Thread-safety: every method may be called from any thread. enqueue(),
 * wait() and quiesce() may block the calling thread; the background
 * worker makes progress independently, so a simulation fiber blocking
 * its scheduler thread here cannot deadlock.
 */

#ifndef MATCH_STORAGE_DRAIN_HH
#define MATCH_STORAGE_DRAIN_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace match::storage
{

/** Wall-clock execution strategy of the drain (results are identical). */
enum class DrainMode
{
    Sync,  ///< run each job inline at enqueue (deterministic replay)
    Async, ///< run jobs on a background worker thread (overlap)
};

/** Lower-case label ("sync", "async") for logs and perf records. */
const char *drainModeName(DrainMode mode);

/** Process-wide sum of every drain job's return value (bytes shipped),
 *  across all workers and threads. Benches snapshot-and-diff this
 *  around a measured region to prove a transform's byte reduction. */
std::uint64_t drainGlobalShippedBytes();

/** Background flush-job executor attached to one storage backend. */
class DrainWorker
{
  public:
    /** Handle to one enqueued job (0 is never a valid ticket). */
    using Ticket = std::uint64_t;

    /**
     * One flush job: performs its backend I/O and returns a value the
     * client prices in virtual time (e.g. bytes actually shipped). The
     * closure must own everything it touches except the backend, which
     * the enqueuing client guarantees outlives the worker.
     */
    using Job = std::function<std::uint64_t()>;

    /** @param queueDepth max jobs admitted but not yet run; 0 means
     *         unbounded. Only meaningful for DrainMode::Async.
     *  @param capacityBytes max staged bytes of admitted-but-unfinished
     *         jobs; 0 means unbounded. Only meaningful for
     *         DrainMode::Async (a sync worker never accumulates). */
    explicit DrainWorker(DrainMode mode = DrainMode::Sync,
                         std::size_t queueDepth = 0,
                         std::size_t capacityBytes = 0);

    /** Runs every remaining job, then joins the worker thread. */
    ~DrainWorker();

    DrainWorker(const DrainWorker &) = delete;
    DrainWorker &operator=(const DrainWorker &) = delete;

    /**
     * Admit a job. Sync mode runs it inline and returns its completed
     * ticket; Async mode queues it, blocking in wall-clock time while
     * the queue is at its depth bound or while `bytes` (the job's
     * staged burst-buffer footprint) would push the admitted-but-
     * unfinished total over the capacity bound.
     */
    Ticket enqueue(Job job, std::size_t bytes = 0);

    /**
     * Block until the job has run and return its value. A ticket
     * discarded by crash() yields 0 immediately.
     */
    std::uint64_t wait(Ticket ticket);

    /** Block until every admitted job has run (or been discarded). */
    void quiesce();

    /**
     * Simulate a node crash: discard every job that has not *started*
     * (the running job completes — bytes already streaming to the PFS
     * are not unsent). Tests use this to check that a crash loses
     * exactly the undrained objects. The worker stays usable.
     */
    void crash();

    /** Jobs admitted but not yet finished (running job included). */
    std::size_t pendingJobs() const;

    /** Jobs that have finished executing. */
    std::uint64_t completedJobs() const;

    /** Jobs dropped by crash(). */
    std::uint64_t discardedJobs() const;

    /** Staged bytes of admitted-but-unfinished jobs (running job
     *  included) — the burst buffer's current fill. */
    std::size_t stagedBytes() const;

  private:
    struct QueuedJob
    {
        Ticket ticket = 0;
        Job job;
        std::size_t bytes = 0;
    };

    void workerLoop();

    const DrainMode mode_;
    const std::size_t depth_;
    const std::size_t capacity_;

    mutable std::mutex mutex_;
    std::condition_variable workCv_; ///< wakes the worker thread
    std::condition_variable doneCv_; ///< wakes enqueue/wait/quiesce
    std::deque<QueuedJob> queue_;
    std::size_t stagedBytes_ = 0; ///< bytes of admitted, unfinished jobs
    std::map<Ticket, std::uint64_t> results_;
    std::set<Ticket> discardedTickets_;
    Ticket nextTicket_ = 1;
    std::uint64_t completed_ = 0;
    std::uint64_t discarded_ = 0;
    bool running_ = false; ///< a job is executing right now
    bool stopping_ = false;
    bool workerStarted_ = false;
    std::thread worker_;
};

/**
 * Virtual-time accounting for one rank's drain traffic: the jobs
 * admitted but not yet priced, plus the channel's virtual completion
 * time so far. Owned by the checkpoint client layer (ckpt::CkptIo),
 * so the determinism-critical pricing fold exists exactly once.
 *
 * The channel is per-incarnation state: a restarted library instance
 * starts a fresh channel (deterministically), while the wall-clock
 * DrainWorker is shared through the config.
 */
class DrainChannel
{
  public:
    /** One job admitted to the drain but not yet priced. */
    struct Pending
    {
        DrainWorker::Ticket ticket = 0;
        double enqueuedAt = 0.0; ///< virtual time of the enqueue
        int procs = 0;
        double factor = 1.0; ///< client cost multiplier at enqueue
        std::uint64_t bytes = 0; ///< virtual burst-buffer footprint
        std::uint64_t inBytes = 0; ///< virtual bytes entering the stage
    };

    /** Record an admitted job; stamp() prices its enqueue instant once
     *  the client has charged the staging cost. `inBytes` is the
     *  virtual size of the staged object *before* any drain-stage
     *  transform, so the price callback can charge transform CPU on
     *  the input while charging the flush on the (smaller) shipped
     *  output. */
    void
    admit(DrainWorker::Ticket ticket, int procs, double factor = 1.0,
          std::uint64_t bytes = 0, std::uint64_t inBytes = 0)
    {
        pending_.push_back(
            Pending{ticket, 0.0, procs, factor, bytes, inBytes});
    }

    /** Stamp the newest admitted job's virtual enqueue instant. */
    void stamp(double now) { pending_.back().enqueuedAt = now; }

    /**
     * Quiesce point: wall-block on the worker until every admitted job
     * ran, fold the pending jobs into the channel in enqueue order —
     * job j starts at max(enqueue instant, finish of job j-1) and runs
     * for price(shipped, inBytes, procs, factor) — and return the
     * virtual wait the rank still owes (0 when the drain fully
     * overlapped).
     *
     * Every folded quantity is a deterministic function of the client
     * data, never of the worker's wall-clock schedule.
     */
    template <typename PriceFn>
    double
    resolve(DrainWorker &worker, double now, PriceFn &&price)
    {
        priceAll(worker, price);
        // Cover jobs this incarnation did not admit (a restarted rank
        // waiting out its predecessor's flushes, cleanup jobs).
        worker.quiesce();
        return finish_ > now ? finish_ - now : 0.0;
    }

    /**
     * Virtual burst-buffer capacity pressure: the stall (in virtual
     * time, from `now`) the rank must absorb before `bytes` more can
     * be staged without the sum of in-flight occupants exceeding
     * `capacity`. Prices every pending job first (each occupies the
     * buffer from its enqueue until its drain finishes), drops the
     * occupants already drained by `now`, then evicts the oldest
     * remaining occupants — in drain-completion order — until the new
     * job fits; the stall runs to the last eviction's finish instant.
     * A job larger than the whole capacity admits once the buffer is
     * empty rather than deadlocking. capacity == 0 means unbounded
     * (no stall, no pricing). Deterministic for the same reason
     * resolve() is: every input is client data, never the worker's
     * wall-clock schedule.
     */
    template <typename PriceFn>
    double
    reserve(DrainWorker &worker, double now, std::uint64_t bytes,
            std::uint64_t capacity, PriceFn &&price)
    {
        if (capacity == 0)
            return 0.0;
        priceAll(worker, price);
        std::uint64_t used = 0;
        std::size_t firstLive = occupants_.size();
        for (std::size_t i = 0; i < occupants_.size(); ++i) {
            if (occupants_[i].finish > now) {
                firstLive = i;
                break;
            }
        }
        occupants_.erase(occupants_.begin(),
                         occupants_.begin() +
                             static_cast<std::ptrdiff_t>(firstLive));
        for (const Occupant &occupant : occupants_)
            used += occupant.bytes;
        double admitAt = now;
        while (used + bytes > capacity && !occupants_.empty()) {
            admitAt = occupants_.front().finish;
            used -= occupants_.front().bytes;
            occupants_.erase(occupants_.begin());
        }
        return admitAt > now ? admitAt - now : 0.0;
    }

  private:
    /** One priced job still occupying the virtual burst buffer. */
    struct Occupant
    {
        double finish = 0.0; ///< virtual drain-completion instant
        std::uint64_t bytes = 0;
    };

    /** Fold every pending job into the channel in enqueue order (the
     *  determinism-critical fold — exists exactly once; resolve() and
     *  reserve() both route through it). */
    template <typename PriceFn>
    void
    priceAll(DrainWorker &worker, PriceFn &&price)
    {
        for (const Pending &pending : pending_) {
            const std::uint64_t shipped = worker.wait(pending.ticket);
            const double cost = price(shipped, pending.inBytes,
                                      pending.procs, pending.factor);
            finish_ = (finish_ > pending.enqueuedAt
                           ? finish_
                           : pending.enqueuedAt) +
                      cost;
            if (pending.bytes > 0)
                occupants_.push_back(Occupant{finish_, pending.bytes});
        }
        pending_.clear();
    }

    std::vector<Pending> pending_;
    /** Jobs priced but possibly still draining, in finish order
     *  (finish_ is monotone over the fold, so appends stay sorted). */
    std::vector<Occupant> occupants_;
    double finish_ = 0.0; ///< virtual completion of jobs priced so far
};

} // namespace match::storage

#endif // MATCH_STORAGE_DRAIN_HH
