/**
 * @file
 * How a checkpoint client talks to storage: the one I/O layer FTI and
 * SCR share.
 *
 * A CkptIo is per-rank client state: the resolved backend, the fault
 * engine behind it (found once), the rank's fault epoch, the priced
 * retry policy, the inline flush path and the rank's virtual drain
 * channel with its one price. What differs by design stays in each
 * library: the storage-fault pre-flight queries, the degrade decisions
 * and the flush bodies.
 *
 * Determinism: the decorator's per-actor strike counters make every
 * attempt count a pure function of the fault plan, so priced retries
 * are independent of --jobs and backend.
 */

#ifndef MATCH_CKPT_IO_HH
#define MATCH_CKPT_IO_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "src/simmpi/proc.hh"
#include "src/storage/backend.hh"
#include "src/storage/drain.hh"
#include "src/storage/faults.hh"
#include "src/storage/transform.hh"

namespace match::ckpt
{

/** One rank's checkpoint-client I/O layer (see the file comment). */
class CkptIo
{
  public:
    /**
     * @param backend the config's backend (null: the shared DiskBackend)
     * @param virtualFactor multiplier from shipped wall bytes to the
     *        virtual bytes the drain channel prices
     * @param transform the config's transform; a compress stage adds
     *        its CPU to each drained flush's price
     */
    CkptIo(simmpi::Proc &proc,
           const std::shared_ptr<storage::Backend> &backend,
           double virtualFactor, storage::TransformKind transform);

    storage::Backend &store() const { return store_; }

    /** The fault engine when the backend is a FaultInjectingBackend,
     *  else null (the fast path: no plan queries, no retry pricing). */
    storage::FaultInjectingBackend *faults() const { return faults_; }

    /** Re-key this rank's fault epoch, and publish it as the engine's
     *  fallback for unscoped accesses. The epoch is per-instance:
     *  ranks on different recovery rungs never flap each other's. */
    void setEpoch(int epoch);

    /** The retry budget (the fault engine's when one is attached). */
    int retryLimit() const;

    /**
     * Run one storage operation with up to retryLimit() retries on
     * StorageError, sleeping each backoff in virtual time on this
     * rank. The last failure rethrows.
     */
    template <typename Op>
    auto
    retry(Op &&op) const -> decltype(op())
    {
        return storage::withIoRetry(
            retryLimit(),
            [&] {
                // Bind this rank's (epoch, actor) around the single
                // backend call, never around the retry loop: backoff
                // sleeps yield the fiber and would let another rank's
                // binding leak in. The actor key gives the rank a
                // private strike budget even on shared objects (meta
                // files, markers), so every rank exhausts every object
                // identically and ladder decisions stay rank-uniform.
                storage::FaultEpochScope scope(faults_, epoch_,
                                               proc_.globalIndex());
                return op();
            },
            [this](int attempt) {
                proc_.sleepFor(
                    proc_.runtime().costModel().ioRetryBackoff(attempt));
                storage::notePricedRetries(1);
            });
    }

    /// @name Soft operations: retry exhaustion reads as "lost".
    /// @{
    /** Backend::read with retries; a null blob when unreadable. */
    storage::Blob readSoft(const std::string &path) const;
    /** Backend::copy with retries; false when unreadable or failed. */
    bool copySoft(const std::string &src, const std::string &dst);
    /** Backend::write with retries; false when it could not land. */
    bool writeSoft(const std::string &path, const storage::Blob &blob);
    /// @}

    /**
     * Run one flush inline and return the bytes it shipped (the caller
     * hands them to drain()). `body(retryLimit)` performs the flush
     * and returns those bytes. The flush binds `epoch` with `actor`
     * and reruns the body up to the retry budget on StorageError —
     * unpriced: the flushing rank prices the plan's transient strikes
     * itself. A permanently failed flush ships nothing.
     */
    template <typename Body>
    std::uint64_t
    flush(int epoch, int actor, Body &&body)
    {
        const int limit = retryLimit();
        return storage::runFlush([&]() -> std::uint64_t {
            storage::FaultEpochScope scope(faults_, epoch, actor);
            for (int attempt = 0;; ++attempt) {
                try {
                    return body(limit);
                } catch (const storage::StorageError &) {
                    if (attempt >= limit) {
                        storage::noteFailedFlush();
                        return 0;
                    }
                }
            }
        });
    }

    /**
     * Enqueue one flush on this rank's virtual drain channel, now —
     * once the client has charged the staging cost. `shipped` is what
     * flush() returned, `inVirtBytes` the virtual size of the staged
     * object before any drain-stage transform, `factor` the client's
     * cost multiplier, and `occupancy` the virtual burst-buffer bytes
     * the flush holds until it finishes (0: none).
     */
    void drain(std::uint64_t shipped, int procs, double factor,
               std::uint64_t inVirtBytes, std::uint64_t occupancy = 0);

    /** Virtual burst-buffer capacity pressure: sleep until `bytes`
     *  more fit under `capacity` (0 = unbounded, no stall). */
    void reserve(std::uint64_t bytes, std::uint64_t capacity);

    /** Quiesce point: sleep until the drain channel's virtual
     *  completion. */
    void barrier();

  private:
    /** Virtual cost of one drained flush: streaming the shipped bytes
     *  plus, with a compress stage, compressing the staged input (both
     *  overlap compute on the drain channel). */
    double price(std::uint64_t shipped, std::uint64_t inVirtBytes,
                 int procs, double factor) const;

    simmpi::Proc &proc_;
    storage::Backend &store_;
    storage::FaultInjectingBackend *faults_ = nullptr;
    double virtualFactor_ = 1.0;
    bool compress_ = false;
    int epoch_ = 0;
    storage::DrainChannel channel_;
};

} // namespace match::ckpt

#endif // MATCH_CKPT_IO_HH
