/**
 * @file
 * Proc: the per-rank handle through which application code talks to the
 * simulated MPI runtime. It plays the role of the MPI API surface; the
 * communicator argument defaults to the current world so typical BSP code
 * reads like plain MPI code.
 */

#ifndef MATCH_SIMMPI_PROC_HH
#define MATCH_SIMMPI_PROC_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "src/simmpi/runtime.hh"
#include "src/simmpi/types.hh"

namespace match::simmpi
{

/** Scoped accounting-category override (e.g. around FTI checkpoints). */
class CategoryScope;

/** Per-rank API object handed to the rank main function. */
class Proc
{
  public:
    Proc(Runtime *runtime, int global_index)
        : runtime_(runtime), g_(global_index)
    {}

    /// @name Identity and time.
    /// @{
    /** Rank within the current world communicator. */
    Rank rank() const { return runtime_->commRank(g_, world()); }
    /** Size of the current world communicator. */
    int size() const { return runtime_->commSize(world()); }
    /** Global slot index (stable across ULFM respawns). */
    int globalIndex() const { return g_; }
    /** This rank's virtual clock. */
    SimTime now() const { return runtime_->clock(g_); }
    /** The current (possibly repaired) world communicator. */
    CommId world() const { return runtime_->worldComm(); }
    /// @}

    /// @name Modelled local work.
    /// @{
    /** Advance virtual time by a compute phase of `flops` operations. */
    void compute(double flops) { runtime_->computeFlops(g_, flops); }
    /** Advance virtual time by a memory-bound phase of `bytes` traffic. */
    void computeBytes(double bytes) { runtime_->computeBytes(g_, bytes); }
    /** Advance virtual time by a raw model cost. */
    void sleepFor(SimTime dt) { runtime_->sleepFor(g_, dt); }
    /// @}

    /// @name Point-to-point (eager buffered sends; blocking receives).
    /// @{
    void
    send(Rank dest, Tag tag, const void *buf, std::size_t bytes,
         CommId comm = commNull)
    {
        runtime_->send(g_, resolve(comm), dest, tag, buf, bytes, bytes);
    }

    /** Send whose modelled size differs from the real payload (used when
     *  a scaled-down array stands in for a paper-scale one). */
    void
    sendScaled(Rank dest, Tag tag, const void *buf, std::size_t bytes,
               std::size_t virtual_bytes, CommId comm = commNull)
    {
        runtime_->send(g_, resolve(comm), dest, tag, buf, bytes,
                       virtual_bytes);
    }

    RecvStatus
    recv(Rank src, Tag tag, void *buf, std::size_t capacity,
         CommId comm = commNull)
    {
        return runtime_->recv(g_, resolve(comm), src, tag, buf, capacity);
    }

    bool
    probe(Rank src, Tag tag, CommId comm = commNull) const
    {
        return runtime_->probe(g_, resolve(comm), src, tag);
    }

    /** Nonblocking send (eager: buffer may be reused immediately). */
    int
    isend(Rank dest, Tag tag, const void *buf, std::size_t bytes,
          CommId comm = commNull)
    {
        return runtime_->isend(g_, resolve(comm), dest, tag, buf, bytes,
                               bytes);
    }

    /** Nonblocking receive; buffer must stay valid until wait(). */
    int
    irecv(Rank src, Tag tag, void *buf, std::size_t capacity,
          CommId comm = commNull)
    {
        return runtime_->irecv(g_, resolve(comm), src, tag, buf,
                               capacity);
    }

    /** Complete a nonblocking request (MPI_Wait). */
    RecvStatus wait(int request) { return runtime_->wait(g_, request); }

    /** Complete a set of requests (MPI_Waitall). */
    void
    waitall(const std::vector<int> &requests)
    {
        waitall(requests.data(), requests.size());
    }

    /** Waitall over a raw range, so hot loops can keep their request
     *  ids in a stack array instead of materializing a vector. */
    void
    waitall(const int *requests, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            runtime_->wait(g_, requests[i]);
    }

    /** True when the request would complete without blocking. */
    bool test(int request) { return runtime_->testRequest(g_, request); }
    /// @}

    /// @name Collectives.
    /// @{
    void barrier(CommId comm = commNull)
    {
        runtime_->barrier(g_, resolve(comm));
    }

    double
    allreduce(double value, ReduceOp op = ReduceOp::Sum,
              CommId comm = commNull)
    {
        double out;
        runtime_->allreduceDouble(g_, resolve(comm), &value, &out, 1, op);
        return out;
    }

    void
    allreduce(const double *in, double *out, std::size_t n,
              ReduceOp op = ReduceOp::Sum, CommId comm = commNull)
    {
        runtime_->allreduceDouble(g_, resolve(comm), in, out, n, op);
    }

    std::int64_t
    allreduceInt(std::int64_t value, ReduceOp op = ReduceOp::Sum,
                 CommId comm = commNull)
    {
        std::int64_t out;
        runtime_->allreduceInt64(g_, resolve(comm), &value, &out, 1, op);
        return out;
    }

    void
    bcast(Rank root, void *buf, std::size_t bytes, CommId comm = commNull)
    {
        runtime_->bcast(g_, resolve(comm), root, buf, bytes, bytes);
    }

    void
    gather(Rank root, const void *in, std::size_t bytes, void *out,
           CommId comm = commNull)
    {
        runtime_->gather(g_, resolve(comm), root, in, bytes, out, bytes);
    }

    void
    allgather(const void *in, std::size_t bytes, void *out,
              CommId comm = commNull)
    {
        runtime_->allgather(g_, resolve(comm), in, bytes, out, bytes);
    }

    /** Allgather priced as `virtual_bytes` per rank that moves no real
     *  bytes (the collective twin of sendScaled, for an exchange whose
     *  result no code reads). */
    void
    allgatherPriced(std::size_t virtual_bytes, CommId comm = commNull)
    {
        runtime_->allgather(g_, resolve(comm), nullptr, 0, nullptr,
                            virtual_bytes);
    }

    /** Exclusive prefix sum over int64 (rank 0 gets 0). */
    std::int64_t
    exscan(std::int64_t value, CommId comm = commNull)
    {
        return runtime_->exscanInt64(g_, resolve(comm), value);
    }
    /// @}

    /// @name Fault tolerance hooks.
    /// @{
    /** Main-loop cancellation point; fires the planned SIGTERM. */
    void iterationPoint(int iteration)
    {
        runtime_->iterationPoint(g_, iteration);
    }

    /** Install the ULFM error handler for this rank. */
    void setErrorHandler(std::function<void(Err)> handler)
    {
        runtime_->setErrorHandler(g_, std::move(handler));
    }

    /** MPIX_Comm_revoke. */
    void revoke(CommId comm = commNull)
    {
        runtime_->ulfmRevoke(g_, resolve(comm));
    }

    /** Non-shrinking world repair (shrink+spawn+merge+agree). */
    CommId repairWorld() { return runtime_->ulfmRepairWorld(g_); }

    /** Shrinking world repair (survivors only). */
    CommId shrinkWorld() { return runtime_->ulfmShrinkWorld(g_); }

    bool isSurvivor() const { return runtime_->isSurvivor(g_); }
    bool isRespawned() const { return runtime_->isRespawned(g_); }
    /// @}

    /// @name Accounting.
    /// @{
    void setCategory(TimeCategory category)
    {
        runtime_->setCategory(g_, category);
    }
    TimeCategory category() const { return runtime_->category(g_); }
    /// @}

    Runtime &runtime() { return *runtime_; }
    const Runtime &runtime() const { return *runtime_; }

  private:
    CommId
    resolve(CommId comm) const
    {
        return comm == commNull ? runtime_->worldComm() : comm;
    }

    Runtime *runtime_;
    int g_;
};

/** RAII helper: set a time category for a scope, restore on exit. */
class CategoryScope
{
  public:
    CategoryScope(Proc &proc, TimeCategory category)
        : proc_(proc), saved_(proc.category())
    {
        proc_.setCategory(category);
    }

    ~CategoryScope() { proc_.setCategory(saved_); }

    CategoryScope(const CategoryScope &) = delete;
    CategoryScope &operator=(const CategoryScope &) = delete;

  private:
    Proc &proc_;
    TimeCategory saved_;
};

} // namespace match::simmpi

#endif // MATCH_SIMMPI_PROC_HH
