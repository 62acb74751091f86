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
 * SCR), which prices each flush and folds it into the channel at its
 * virtual enqueue instant, once the client has charged the staging
 * cost.
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
 * Virtual-time accounting for one rank's drain traffic: the channel's
 * virtual completion time and the flushes still occupying the virtual
 * burst buffer. Owned by the checkpoint client layer (ckpt::CkptIo),
 * which prices each flush; the determinism-critical fold exists
 * exactly once, in add().
 *
 * The channel is per-incarnation state: a restarted library instance
 * starts a fresh channel (deterministically).
 */
class DrainChannel
{
  public:
    /**
     * Fold one flush into the channel, in enqueue order: it starts at
     * max(enqueuedAt, finish of the previous flush) and runs for
     * `cost`. With `bytes` > 0 it occupies that many virtual
     * burst-buffer bytes until it finishes.
     */
    void
    add(double enqueuedAt, double cost, std::uint64_t bytes = 0)
    {
        finish_ = (finish_ > enqueuedAt ? finish_ : enqueuedAt) + cost;
        if (bytes > 0)
            occupants_.push_back(Occupant{finish_, bytes});
    }

    /** Quiesce point: the virtual wait the rank still owes at `now`
     *  (0 when the drain fully overlapped). */
    double
    resolve(double now) const
    {
        return finish_ > now ? finish_ - now : 0.0;
    }

    /**
     * Virtual burst-buffer capacity pressure: the stall (in virtual
     * time, from `now`) the rank must absorb before `bytes` more can
     * be staged without the sum of in-flight occupants exceeding
     * `capacity`. Drops the occupants already drained by `now`, then
     * evicts the oldest remaining occupants — in drain-completion
     * order — until the new flush fits; the stall runs to the last
     * eviction's finish instant. A flush larger than the whole
     * capacity admits once the buffer is empty rather than
     * deadlocking. capacity == 0 means unbounded (no stall).
     */
    double
    reserve(double now, std::uint64_t bytes, std::uint64_t capacity)
    {
        if (capacity == 0)
            return 0.0;
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
    /** One flush still occupying the virtual burst buffer. */
    struct Occupant
    {
        double finish = 0.0; ///< virtual drain-completion instant
        std::uint64_t bytes = 0;
    };

    /** In finish order (finish_ is monotone over add(), so appends
     *  stay sorted). */
    std::vector<Occupant> occupants_;
    double finish_ = 0.0; ///< virtual completion of the flushes so far
};

} // namespace match::storage

#endif // MATCH_STORAGE_DRAIN_HH
