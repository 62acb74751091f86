/**
 * @file
 * The PFS drain: flush jobs and the virtual channel that prices them.
 *
 * Multi-level checkpointing libraries stage L4 checkpoints (and SCR
 * flush-to-prefix datasets) into a burst buffer and let a background
 * agent drain them to the parallel file system while the application
 * computes. Here that overlap lives in virtual time only. A flush job
 * — a closure that performs backend I/O and returns the bytes it
 * shipped — runs inline where the client admits it (runFlush), and a
 * per-rank DrainChannel prices the shipped bytes on a virtual channel
 * that overlaps compute until a quiesce point catches up with it.
 *
 * Inline execution keeps I/O order equal to program order: a flush
 * sees every earlier write, and a later removal or corruption of the
 * flushed object is a plain store call. The pricing bookkeeping lives
 * in the checkpoint client layer (ckpt::CkptIo, shared by FTI and
 * SCR), which records the virtual enqueue instant and lazily folds the
 * channel when a quiesce point needs it.
 */

#ifndef MATCH_STORAGE_DRAIN_HH
#define MATCH_STORAGE_DRAIN_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace match::storage
{

/** One value only: every flush runs inline (runFlush). It survives as
 *  the type of core::ExperimentConfig::drain, which the benchmark
 *  driver still assigns; nothing reads it. */
enum class DrainMode
{
    Sync,
};

/** Process-wide sum of every flush job's return value (bytes shipped),
 *  across all threads. Benches snapshot-and-diff this around a
 *  measured region to prove a transform's byte reduction. */
std::uint64_t drainGlobalShippedBytes();

/** Run one flush job on the calling thread, attributed to
 *  util::Phase::Drain, and add the bytes it returns (shipped to the
 *  PFS) to drainGlobalShippedBytes(). Returns those bytes. */
std::uint64_t runFlush(const std::function<std::uint64_t()> &job);

/**
 * Virtual-time accounting for one rank's drain traffic: the flushes
 * admitted but not yet priced, plus the channel's virtual completion
 * time so far. Owned by the checkpoint client layer (ckpt::CkptIo),
 * so the determinism-critical pricing fold exists exactly once.
 *
 * The channel is per-incarnation state: a restarted library instance
 * starts a fresh channel (deterministically).
 */
class DrainChannel
{
  public:
    /** One flush admitted to the drain but not yet priced. */
    struct Pending
    {
        std::uint64_t shipped = 0; ///< wall bytes the flush shipped
        double enqueuedAt = 0.0; ///< virtual time of the enqueue
        int procs = 0;
        double factor = 1.0; ///< client cost multiplier at enqueue
        std::uint64_t bytes = 0; ///< virtual burst-buffer footprint
        std::uint64_t inBytes = 0; ///< virtual bytes entering the stage
    };

    /** Record a flush that shipped `shipped` bytes; stamp() prices its
     *  enqueue instant once the client has charged the staging cost.
     *  `inBytes` is the virtual size of the staged object *before* any
     *  drain-stage transform, so the price callback can charge
     *  transform CPU on the input while charging the flush on the
     *  (smaller) shipped output. */
    void
    admit(std::uint64_t shipped, int procs, double factor = 1.0,
          std::uint64_t bytes = 0, std::uint64_t inBytes = 0)
    {
        pending_.push_back(
            Pending{shipped, 0.0, procs, factor, bytes, inBytes});
    }

    /** Stamp the newest admitted flush's virtual enqueue instant. */
    void stamp(double now) { pending_.back().enqueuedAt = now; }

    /**
     * Quiesce point: fold the pending flushes into the channel in
     * enqueue order — flush j starts at max(enqueue instant, finish of
     * flush j-1) and runs for price(shipped, inBytes, procs, factor) —
     * and return the virtual wait the rank still owes (0 when the
     * drain fully overlapped).
     */
    template <typename PriceFn>
    double
    resolve(double now, PriceFn &&price)
    {
        priceAll(price);
        return finish_ > now ? finish_ - now : 0.0;
    }

    /**
     * Virtual burst-buffer capacity pressure: the stall (in virtual
     * time, from `now`) the rank must absorb before `bytes` more can
     * be staged without the sum of in-flight occupants exceeding
     * `capacity`. Prices every pending flush first (each occupies the
     * buffer from its enqueue until its drain finishes), drops the
     * occupants already drained by `now`, then evicts the oldest
     * remaining occupants — in drain-completion order — until the new
     * flush fits; the stall runs to the last eviction's finish
     * instant. A flush larger than the whole capacity admits once the
     * buffer is empty rather than deadlocking. capacity == 0 means
     * unbounded (no stall, no pricing).
     */
    template <typename PriceFn>
    double
    reserve(double now, std::uint64_t bytes, std::uint64_t capacity,
            PriceFn &&price)
    {
        if (capacity == 0)
            return 0.0;
        priceAll(price);
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
    /** One priced flush still occupying the virtual burst buffer. */
    struct Occupant
    {
        double finish = 0.0; ///< virtual drain-completion instant
        std::uint64_t bytes = 0;
    };

    /** Fold every pending flush into the channel in enqueue order (the
     *  determinism-critical fold — exists exactly once; resolve() and
     *  reserve() both route through it). */
    template <typename PriceFn>
    void
    priceAll(PriceFn &&price)
    {
        for (const Pending &pending : pending_) {
            const double cost = price(pending.shipped, pending.inBytes,
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
    /** Flushes priced but possibly still draining, in finish order
     *  (finish_ is monotone over the fold, so appends stay sorted). */
    std::vector<Occupant> occupants_;
    double finish_ = 0.0; ///< virtual completion of flushes priced so far
};

} // namespace match::storage

#endif // MATCH_STORAGE_DRAIN_HH
