/**
 * @file
 * The simulated MPI runtime: ranks, scheduler, messaging, collectives,
 * failure semantics, and the ULFM/Reinit recovery extensions.
 *
 * Model summary
 * -------------
 * A job of P ranks runs inside one OS process. Each rank is a fiber;
 * a single-threaded conservative discrete-event scheduler always resumes
 * the runnable rank with the smallest virtual clock, so event ordering is
 * deterministic. Simulated MPI calls are the only points where virtual
 * time advances and the only cancellation points at which a fiber can be
 * killed (SIGTERM injection), unwound (job abort), rolled back (Reinit)
 * or diverted into its error handler (ULFM).
 *
 * Messages really move bytes between rank heaps, and collectives really
 * combine data, so applications compute correct answers; completion
 * times come from the CostModel.
 */

#ifndef MATCH_SIMMPI_RUNTIME_HH
#define MATCH_SIMMPI_RUNTIME_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/simmpi/cost_model.hh"
#include "src/simmpi/errors.hh"
#include "src/simmpi/fiber.hh"
#include "src/simmpi/types.hh"

namespace match::simmpi
{

class Proc;

/** Reinit start state handed to resilient_main (OMPI_reinit_state_t). */
enum class ReinitState
{
    New,        ///< first execution
    Restarted,  ///< re-entered after a global-restart recovery
};

/** Per-rank entry point for Fatal/Return policies. */
using RankMain = std::function<void(Proc &)>;

/** Per-rank resilient entry point for the Reinit policy. */
using ReinitMain = std::function<void(Proc &, ReinitState)>;

/** One planned event of a multi-failure schedule. */
struct InjectionEvent
{
    int iteration = 0;   ///< main-loop iteration at which to fire
    Rank rank = 0;       ///< world rank the event strikes
    bool corrupt = false; ///< silent data corruption instead of a crash
    bool fired = false;  ///< set once the event has been delivered
};

/**
 * A deterministic failure schedule: any number of crash/corruption
 * events keyed by (iteration, rank) — the only way a failure reaches a
 * rank (the paper's single SIGTERM is a one-event schedule). The
 * schedule is shared with the driver so per-event `fired` flags survive
 * job restarts — each event strikes exactly once across all attempts.
 */
struct InjectionSchedule
{
    std::vector<InjectionEvent> events;
};

/** Options for one simulated job launch. */
struct JobOptions
{
    int nprocs = 4;
    ErrorPolicy policy = ErrorPolicy::Fatal;
    CostParams costParams{};
    /** Failure schedule; null injects nothing. */
    std::shared_ptr<InjectionSchedule> schedule;
    /** Invoked on the firing rank's fiber when a corruption event
     *  strikes: flips bits at rest in that rank's checkpoint store.
     *  Charges no virtual time and raises no failure — detection, if
     *  any, is the checkpoint layer's job at recovery time. */
    std::function<void(Rank)> corruptHook;
    std::uint64_t seed = 0;
};

/** Outcome of one simulated job. */
struct JobResult
{
    /** True when the job died under MPI_ERRORS_ARE_FATAL. */
    bool aborted = false;
    /** Virtual time when the job (or its abort) completed. */
    SimTime makespan = 0.0;
    /** Mean per-rank seconds in each TimeCategory. */
    std::array<double, 4> breakdown{};
    /** Per-rank category times (index = world rank). */
    std::vector<std::array<double, 4>> perRank;
    /** Number of online recoveries performed (ULFM or Reinit). */
    int recoveries = 0;
    /** Virtual time of the most recent crash in this job. */
    SimTime failTime = 0.0;
    /** Every rank that crashed during this job, in fire order (a rank
     *  repeats if it is respawned and crashes again). */
    std::vector<Rank> failedRanks;

    /** Sum of the mean per-rank category times (the stacked-bar total). */
    double total() const
    {
        return breakdown[0] + breakdown[1] + breakdown[2] + breakdown[3];
    }
};

/**
 * The DES ready queue: runnable ranks popped in ascending (clock, rank)
 * order. A sorted FIFO run takes every push whose key exceeds the run's
 * tail; any other push goes to a fallback binary heap. pop() returns the
 * smaller of the run's head and the heap's top. Keys are a strict total
 * order (rank breaks clock ties), so the pop order is exactly that of
 * one binary heap holding every key. A collective's wake burst (members
 * woken in rank order, mostly at equal clocks) becomes ring appends and
 * O(1) pops instead of a push_heap/pop_heap per member.
 *
 * Both containers keep their capacity across clear(), so the steady
 * state never allocates.
 */
class ReadyQueue
{
  public:
    bool empty() const { return runCount_ == 0 && heap_.empty(); }

    void
    push(SimTime clock, int g)
    {
        const Entry key{clock, g};
        if (runCount_ == 0 || runAt(runCount_ - 1) < key) {
            if (runCount_ == run_.size())
                growRun();
            runAt(runCount_) = key;
            ++runCount_;
        } else {
            heap_.push_back(key);
            std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
        }
    }

    /** Remove and return the rank with the smallest key; the queue must
     *  not be empty. */
    int
    pop()
    {
        if (runCount_ != 0 && (heap_.empty() || runAt(0) < heap_.front())) {
            const int g = runAt(0).second;
            runHead_ = (runHead_ + 1) & (run_.size() - 1);
            --runCount_;
            return g;
        }
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        const int g = heap_.back().second;
        heap_.pop_back();
        return g;
    }

    void
    clear()
    {
        runHead_ = 0;
        runCount_ = 0;
        heap_.clear();
    }

  private:
    using Entry = std::pair<SimTime, int>;

    Entry &
    runAt(std::size_t i)
    {
        return run_[(runHead_ + i) & (run_.size() - 1)];
    }

    void growRun();

    std::vector<Entry> run_; ///< power-of-two ring, sorted ascending
    std::size_t runHead_ = 0;
    std::size_t runCount_ = 0;
    std::vector<Entry> heap_; ///< min-heap under std::greater
};

/**
 * The simulated MPI runtime. One Runtime instance simulates one job
 * (possibly with online ULFM/Reinit recoveries inside it); the launcher
 * creates fresh instances for Restart-style re-deployments.
 *
 * Hot-path memory discipline: every per-event structure (message
 * payloads, mailboxes, collective ops, nonblocking requests, the ready
 * queue, fiber stacks) is pooled or capacity-preserving, so the steady
 * state of the event loop performs zero heap allocations per simulated
 * message or collective (asserted by tests/simmpi/test_runtime_alloc.cc
 * and published by bench_micro_runtime). Pooling is a wall-clock
 * optimization only — it never feeds simulated time or event order.
 */
class Runtime
{
  public:
    Runtime();
    ~Runtime();

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    /** Run a job under the Fatal or Return error policy. */
    JobResult run(const JobOptions &options, RankMain main);

    /** Run a job under the Reinit policy with a resilient main. */
    JobResult runReinit(const JobOptions &options, ReinitMain main);

    /// @name Rank-side operations (called through Proc on a rank fiber).
    /// @{
    SimTime clock(int g) const;
    void computeFlops(int g, double flops);
    void computeBytes(int g, double bytes);
    /** Advance the rank clock by a raw model cost (no slowdown factors). */
    void sleepFor(int g, SimTime dt);
    void send(int g, CommId comm, Rank dest, Tag tag, const void *buf,
              std::size_t bytes, std::size_t virtual_bytes);
    RecvStatus recv(int g, CommId comm, Rank src, Tag tag, void *buf,
                    std::size_t capacity);
    /** True when a matching message is already queued (MPI_Iprobe). */
    bool probe(int g, CommId comm, Rank src, Tag tag) const;
    /** Nonblocking receive: returns a request id; complete with wait().
     *  The buffer must stay valid until the wait. */
    int irecv(int g, CommId comm, Rank src, Tag tag, void *buf,
              std::size_t capacity);
    /** Nonblocking send. Sends are eager/buffered, so the payload is
     *  captured immediately; the request completes trivially. */
    int isend(int g, CommId comm, Rank dest, Tag tag, const void *buf,
              std::size_t bytes, std::size_t virtual_bytes);
    /** Complete one request; returns the receive status (empty for
     *  sends). */
    RecvStatus wait(int g, int request);
    /** True when the request would complete without blocking. */
    bool testRequest(int g, int request);
    void barrier(int g, CommId comm);
    void allreduceDouble(int g, CommId comm, const double *in, double *out,
                         std::size_t n, ReduceOp op);
    void allreduceInt64(int g, CommId comm, const std::int64_t *in,
                        std::int64_t *out, std::size_t n, ReduceOp op);
    void bcast(int g, CommId comm, Rank root, void *buf, std::size_t bytes,
               std::size_t virtual_bytes);
    /** Root receives size*P bytes ordered by rank; others pass nullptr. */
    void gather(int g, CommId comm, Rank root, const void *in,
                std::size_t bytes, void *out, std::size_t virtual_bytes);
    void allgather(int g, CommId comm, const void *in, std::size_t bytes,
                   void *out, std::size_t virtual_bytes);
    std::int64_t exscanInt64(int g, CommId comm, std::int64_t value);
    void iterationPoint(int g, int iteration);
    /// @}

    /// @name Communicator queries.
    /// @{
    int commSize(CommId comm) const;
    Rank commRank(int g, CommId comm) const;
    CommId worldComm() const { return currentWorld_; }
    bool commRevoked(CommId comm) const;
    /// @}

    /// @name ULFM extension (valid under ErrorPolicy::Return).
    /// @{
    /** Install the per-rank error handler invoked on op failure. */
    void setErrorHandler(int g, std::function<void(Err)> handler);
    /** MPIX_Comm_revoke: interrupt all pending ops on the communicator. */
    void ulfmRevoke(int g, CommId comm);
    /**
     * Non-shrinking repair, collective over survivors: shrink + spawn +
     * merge + agree. Creates replacement fibers for dead slots and a
     * repaired world communicator; survivors call this from their error
     * handler and get the new world id back. Replacements re-enter the
     * rank main with Proc::isRespawned() == true.
     */
    CommId ulfmRepairWorld(int g);
    /**
     * Shrinking repair, collective over survivors: the new world consists
     * of the survivors only (no spawn/merge). Used by the shrinking-
     * recovery ablation.
     */
    CommId ulfmShrinkWorld(int g);
    /** True when this rank survived the last failure (paper IsSurvivor). */
    bool isSurvivor(int g) const;
    /** True when this rank was created by a ULFM respawn. */
    bool isRespawned(int g) const;
    /// @}

    /** Accounting category control (FTI and recovery paths set these). */
    void setCategory(int g, TimeCategory category);
    TimeCategory category(int g) const;

    const CostModel &costModel() const { return costModel_; }
    ErrorPolicy policy() const { return policy_; }

    /** Number of failures observed so far in this job. */
    int failureCount() const { return failureCount_; }

    /** Times control returned to the scheduler over this Runtime's
     *  life: once per finished fiber, plus any block with no other
     *  rank runnable. Blocking ranks hand off directly, so a steady
     *  event loop adds none. Wall-clock instrumentation only. */
    std::uint64_t schedulerTrips() const { return schedulerTrips_; }

  private:
    struct Message
    {
        Rank srcLocal;
        Tag tag;
        CommId comm;
        std::vector<std::uint8_t> payload;
        SimTime arrival;
    };

    /**
     * Recycles message payload buffers across all ranks of this
     * Runtime. A send acquires a cleared buffer that keeps its old
     * capacity; the matching receive (or a mailbox purge) releases it.
     * After a few events of warmup at each payload size class, sends
     * stop allocating entirely.
     */
    class PayloadPool
    {
      public:
        std::vector<std::uint8_t>
        acquire()
        {
            if (free_.empty())
                return {};
            std::vector<std::uint8_t> buf = std::move(free_.back());
            free_.pop_back();
            buf.clear();
            return buf;
        }

        void
        release(std::vector<std::uint8_t> &&buf)
        {
            free_.push_back(std::move(buf));
        }

      private:
        std::vector<std::vector<std::uint8_t>> free_;
    };

    /**
     * The mailbox: a power-of-two ring over a reusable slot vector,
     * replacing std::deque (which allocates/frees chunk nodes as it
     * grows and shrinks). Supports the mid-queue erase that tag/source
     * matching needs by shifting the shorter side, preserving FIFO
     * order among the remaining messages — required for MPI's
     * non-overtaking matching rule.
     */
    class MessageRing
    {
      public:
        bool empty() const { return count_ == 0; }
        std::size_t size() const { return count_; }

        Message &at(std::size_t i) { return slots_[index(i)]; }
        const Message &at(std::size_t i) const { return slots_[index(i)]; }

        void
        pushBack(Message &&msg)
        {
            if (count_ == slots_.size())
                grow();
            slots_[index(count_)] = std::move(msg);
            ++count_;
        }

        /** Remove and return the message at logical position i (0 =
         *  oldest), preserving the order of the rest. */
        Message popAt(std::size_t i);

        /** Drop all queued messages, recycling payloads into `pool`. */
        void
        clear(PayloadPool &pool)
        {
            for (std::size_t i = 0; i < count_; ++i)
                pool.release(std::move(at(i).payload));
            head_ = 0;
            count_ = 0;
        }

      private:
        std::size_t
        index(std::size_t i) const
        {
            return (head_ + i) & (slots_.size() - 1);
        }

        void grow();

        std::vector<Message> slots_; ///< power-of-two capacity
        std::size_t head_ = 0;
        std::size_t count_ = 0;
    };

    enum class BlockReason
    {
        None,
        Recv,
        Collective,
        Repair,
    };

    /** What a collective op does with the contributed bytes. */
    enum class CollData
    {
        None,
        ReduceDouble,
        ReduceInt64,
        Bcast,
        Gather,
        Allgather,
        ExscanInt64,
    };

    struct RankState
    {
        int globalIndex = 0;
        std::unique_ptr<Fiber> fiber;
        SimTime clock = 0.0;
        bool failed = false;
        /** This incarnation's death was already propagated (reset on
         *  respawn so a later crash of the same slot is handled too). */
        bool deathHandled = false;
        SimTime failTime = 0.0;
        bool respawned = false;
        MessageRing mailbox;
        TimeCategory category = TimeCategory::Application;
        std::array<double, 4> perCategory{};
        BlockReason blockReason = BlockReason::None;
        CommId recvComm = commNull;
        Rank recvSrc = anySource;
        Tag recvTag = anyTag;
        /** Posted-receive landing zone for the rendezvous fast path:
         *  while this rank is parked inside recv(), a matching sender
         *  deposits its payload here directly, bypassing the mailbox
         *  and the pooled staging copy. recvDelivered is re-armed
         *  (cleared) immediately before every block. */
        void *recvBuf = nullptr;
        std::size_t recvCapacity = 0;
        bool recvDelivered = false;
        SimTime recvArrival = 0.0;
        RecvStatus recvStatus;
        bool unwindAbort = false;
        bool unwindReinit = false;
        std::function<void(Err)> errorHandler;
        bool inErrorHandler = false;
        /** Next collective sequence number, indexed by CommId (comm ids
         *  are small and dense — created only at job start and during
         *  ULFM repairs, so the vector resizes off the event path). */
        std::vector<std::uint64_t> collSeq;
        /** Outstanding nonblocking requests: a recycled slot pool
         *  scanned linearly by id (id == 0 marks a free slot; ranks
         *  keep at most a handful of requests in flight, so the scan
         *  beats any map). */
        struct PendingRequest
        {
            int id = 0;
            bool isRecv = false;
            bool done = false;
            CommId comm = commNull;
            Rank peer = anySource;
            Tag tag = anyTag;
            void *buf = nullptr;
            std::size_t capacity = 0;
            RecvStatus status;
        };
        std::vector<PendingRequest> requests;
        std::vector<int> freeRequestSlots;
        int nextRequestId = 1;

        PendingRequest &
        allocRequest()
        {
            if (!freeRequestSlots.empty()) {
                PendingRequest &req = requests[freeRequestSlots.back()];
                freeRequestSlots.pop_back();
                return req;
            }
            requests.emplace_back();
            return requests.back();
        }

        PendingRequest *
        findRequest(int id)
        {
            for (auto &req : requests)
                if (req.id == id)
                    return &req;
            return nullptr;
        }

        void
        releaseRequest(PendingRequest &req)
        {
            req.id = 0;
            freeRequestSlots.push_back(
                static_cast<int>(&req - requests.data()));
        }
    };

    struct Communicator
    {
        CommId id = commNull;
        std::vector<int> members;       ///< global index by local rank
        std::vector<int> globalToLocal; ///< local rank by global index
        bool revoked = false;

        bool
        contains(int g) const
        {
            return g < static_cast<int>(globalToLocal.size()) &&
                   globalToLocal[g] >= 0;
        }
    };

    /** One in-flight collective, living in a recycled slot of
     *  collOps_. Identified by (comm, seq); slots keep their buffer
     *  capacities across reuse so steady-state collectives allocate
     *  nothing. Contributions share one flat buffer in local-rank
     *  order: rank r's bytes sit at [r * stride, (r + 1) * stride)
     *  when given[r]. A broadcast's only contribution, the root's,
     *  goes straight into result. */
    struct CollectiveOp
    {
        bool active = false;
        std::uint64_t seq = 0;
        CollKind kind = CollKind::Barrier;
        CollData data = CollData::None;
        CommId comm = commNull;
        ReduceOp rop = ReduceOp::Sum;
        Rank root = 0;
        std::size_t bytes = 0;
        int expected = 0;
        int arrivedCount = 0;
        int consumedCount = 0;
        std::vector<bool> arrived;
        std::vector<bool> given;
        std::size_t stride = 0; ///< 0 until the first contribution
        std::vector<std::uint8_t> contrib;
        std::vector<std::uint8_t> result;
        SimTime maxArrival = 0.0;
        bool failed = false;
        SimTime failTime = 0.0;
        bool done = false;
        SimTime completion = 0.0;
    };

    /** Rendezvous state for a ULFM world repair (shrinking or not). */
    struct RepairOp
    {
        bool active = false;
        bool shrinking = false;
        CommId oldWorld = commNull;
        int expected = 0;
        int arrivedCount = 0;
        int consumedCount = 0;
        std::vector<bool> arrived; ///< by old-world local rank
        SimTime maxArrival = 0.0;
        bool done = false;
        SimTime completion = 0.0;
        CommId newWorld = commNull;
    };

    // --- scheduler -------------------------------------------------------
    JobResult runImpl(const JobOptions &options,
                      std::function<void(int)> fiberBody);
    void scheduleLoop();
    void buildResult(JobResult &result) const;
    /** Enqueue a runnable fiber with its current clock as priority. */
    void pushReady(int g);
    /** Dequeue the runnable fiber with the smallest (clock, rank), or
     *  -1 when none is runnable. */
    int popReady();
    /** Create a fresh fiber incarnation for rank g (stack recycled). */
    std::unique_ptr<Fiber> spawnFiber(int g);

    // --- blocking helpers (called on a rank fiber) -------------------------
    void block(int g, BlockReason reason);
    void wake(int g);
    /** Raise a pending abort/rollback signal as an exception. The test
     *  is inline — it runs on every simulated event — and the throwing
     *  slow path stays out of line. */
    void
    checkSignals(int g)
    {
        const RankState &rs = ranks_[g];
        if (rs.unwindAbort || rs.unwindReinit)
            raiseSignals(g);
    }
    void raiseSignals(int g);
    [[noreturn]] void deliverError(int g, Err err);

    // --- failure machinery --------------------------------------------------
    /** Deliver the planned SIGTERM to rank g (throws ProcessKilled). */
    [[noreturn]] void killRank(int g, int iteration);
    void onRankDeath(int g);
    void failPendingOpsFor(int deadGlobal);
    void triggerJobAbort(SimTime when);
    void triggerReinitRecovery(SimTime when);

    // --- collectives ----------------------------------------------------------
    /**
     * Join the (comm, next-seq) collective, blocking until every member
     * has arrived. The caller's share of the combined result is copied
     * into out[0..out_bytes) from result offset out_offset — no
     * per-rank result vector is materialized (out may be null when the
     * caller receives nothing, e.g. barrier or non-root gather).
     */
    void joinCollective(int g, CollKind kind, CollData data, CommId comm,
                        ReduceOp rop, Rank root, const void *in,
                        std::size_t in_bytes, std::size_t virtual_bytes,
                        void *out, std::size_t out_offset,
                        std::size_t out_bytes);
    /** Store local rank lr's contribution in op's flat buffer. */
    void contribute(CollectiveOp &op, int lr, const void *in,
                    std::size_t bytes);
    void completeCollective(CollectiveOp &op);
    void reduceBytes(CollectiveOp &op);
    /** Slot of the active (comm, seq) op in collOps_, or -1. */
    int findColl(CommId comm, std::uint64_t seq) const;
    /** Claim a (recycled) slot for a new collective op. */
    int acquireColl(CommId comm, std::uint64_t seq);
    /** Retire a slot, clearing state but keeping buffer capacities. */
    void releaseColl(int slot);
    /** Retire every active collective op (recovery paths). */
    void clearPendingColls();
    CommId repairWorldCommon(int g, bool shrinking);
    /** Finish the pending world repair: price it, respawn/shrink, wake
     *  the arrived members. Runs on the last arriving fiber — or on the
     *  scheduler when a death shrinks `expected` down to the arrivals
     *  already in. */
    void completeRepair();
    /** A rank died before joining the in-flight world repair: stop
     *  waiting for it (a multi-failure schedule can kill a rank that
     *  never observed the first failure; the repair barrier would
     *  otherwise deadlock). */
    void abandonRepairSlot(int g);

    CommId createComm(std::vector<int> members);
    const Communicator &commRef(CommId comm) const;
    Communicator &commMutable(CommId comm);
    int localRank(int g, CommId comm) const;

    // --- data ---------------------------------------------------------------
    CostModel costModel_;
    ErrorPolicy policy_ = ErrorPolicy::Fatal;
    std::shared_ptr<InjectionSchedule> schedule_;
    std::function<void(Rank)> corruptHook_;
    /** Payload pool declared before ranks_/collOps_: members destroy
     *  in reverse order, and mailbox teardown hands payloads back to
     *  the pool. (Fiber stacks recycle through a thread-local pool in
     *  runtime.cc instead, so they survive across Runtime instances:
     *  back-to-back short jobs would otherwise pay an mmap/page-fault/
     *  munmap cycle per 128KB stack per job.) */
    PayloadPool payloadPool_;
    std::vector<RankState> ranks_;
    std::vector<Communicator> comms_;
    CommId currentWorld_ = commWorld;
    /** In-flight collectives: a recycled slot pool scanned linearly by
     *  (comm, seq). At most a few ops are ever active at once (one per
     *  communicator generation), so the scan is cheaper than any
     *  ordered or hashed container — and slots never free their
     *  buffers. */
    std::vector<CollectiveOp> collOps_;
    std::vector<int> freeCollSlots_;
    RepairOp repairOp_;
    std::function<void(int)> fiberBody_;
    /** Runnable ranks keyed by (clock-at-enqueue, rank). A runnable
     *  fiber's clock cannot change before it is resumed, so enqueue-time
     *  priorities are exact; rank index breaks ties. */
    ReadyQueue ready_;
    /** The rank whose fiber runs now, or last ran. Control comes back
     *  to the scheduler from the end of a chain of direct handoffs,
     *  not necessarily from the rank it resumed. */
    int running_ = -1;
    /** Fibers not yet Finished: replaces the O(P) per-event scan the
     *  scheduler used to make to decide whether the job is done. */
    int liveRanks_ = 0;
    std::uint64_t schedulerTrips_ = 0;

    bool jobAborting_ = false;
    SimTime abortTime_ = 0.0;
    SimTime reinitRestartTime_ = 0.0;
    int failureCount_ = 0;
    int recoveries_ = 0;
    SimTime failTime_ = 0.0;
    std::vector<Rank> failedRanks_;
};

} // namespace match::simmpi

#endif // MATCH_SIMMPI_RUNTIME_HH
