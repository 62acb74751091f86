#include "src/simmpi/runtime.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "src/simmpi/proc.hh"
#include "src/util/logging.hh"

namespace match::simmpi
{

Runtime::Runtime() = default;
Runtime::~Runtime() = default;

// ---------------------------------------------------------------------------
// MessageRing
// ---------------------------------------------------------------------------

void
Runtime::MessageRing::grow()
{
    std::vector<Message> bigger(slots_.empty() ? 8 : slots_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i)
        bigger[i] = std::move(slots_[index(i)]);
    slots_ = std::move(bigger);
    head_ = 0;
}

Runtime::Message
Runtime::MessageRing::popAt(std::size_t i)
{
    Message out = std::move(slots_[index(i)]);
    if (i < count_ - 1 - i) {
        // Closer to the head: shift the older messages up one slot.
        for (std::size_t j = i; j > 0; --j)
            slots_[index(j)] = std::move(slots_[index(j - 1)]);
        head_ = index(1);
    } else {
        // Closer to the tail: shift the younger messages down one slot.
        for (std::size_t j = i + 1; j < count_; ++j)
            slots_[index(j - 1)] = std::move(slots_[index(j)]);
    }
    --count_;
    return out;
}

// ---------------------------------------------------------------------------
// ReadyQueue
// ---------------------------------------------------------------------------

void
ReadyQueue::growRun()
{
    std::vector<Entry> bigger(run_.empty() ? 8 : run_.size() * 2);
    for (std::size_t i = 0; i < runCount_; ++i)
        bigger[i] = runAt(i);
    run_ = std::move(bigger);
    runHead_ = 0;
}

// ---------------------------------------------------------------------------
// Job setup and the scheduler
// ---------------------------------------------------------------------------

JobResult
Runtime::run(const JobOptions &options, RankMain main)
{
    MATCH_ASSERT(options.policy != ErrorPolicy::Reinit,
                 "use runReinit() for the Reinit policy");
    auto body = [this, main](int g) {
        Proc proc(this, g);
        main(proc);
    };
    return runImpl(options, body);
}

JobResult
Runtime::runReinit(const JobOptions &options, ReinitMain main)
{
    MATCH_ASSERT(options.policy == ErrorPolicy::Reinit,
                 "runReinit() requires the Reinit policy");
    auto body = [this, main](int g) {
        // OMPI_Reinit(): invoke resilient_main, re-entering it after every
        // runtime-level global-restart recovery.
        Proc proc(this, g);
        ReinitState state = (ranks_[g].respawned || recoveries_ > 0)
                                ? ReinitState::Restarted
                                : ReinitState::New;
        for (;;) {
            try {
                main(proc, state);
                return;
            } catch (const ReinitRollback &) {
                RankState &rs = ranks_[g];
                const SimTime target =
                    std::max(rs.clock, reinitRestartTime_);
                rs.perCategory[static_cast<int>(TimeCategory::Recovery)] +=
                    target - rs.clock;
                rs.clock = target;
                rs.category = TimeCategory::Application;
                state = ReinitState::Restarted;
            }
        }
    };
    return runImpl(options, body);
}

JobResult
Runtime::runImpl(const JobOptions &options, std::function<void(int)> body)
{
    MATCH_ASSERT(options.nprocs >= 1, "job needs at least one process");
    costModel_ = CostModel(options.costParams);
    policy_ = options.policy;
    schedule_ = options.schedule;
    corruptHook_ = options.corruptHook;
    fiberBody_ = std::move(body);

    ranks_.clear();
    ranks_.resize(options.nprocs);
    ready_.clear();
    running_ = -1;
    liveRanks_ = options.nprocs;
    for (int g = 0; g < options.nprocs; ++g) {
        RankState &rs = ranks_[g];
        rs.globalIndex = g;
        rs.fiber = spawnFiber(g);
        pushReady(g);
    }

    comms_.clear();
    std::vector<int> world(options.nprocs);
    for (int g = 0; g < options.nprocs; ++g)
        world[g] = g;
    createComm(std::move(world));
    currentWorld_ = commWorld;
    clearPendingColls();
    repairOp_ = RepairOp{};
    jobAborting_ = false;
    abortTime_ = 0.0;
    reinitRestartTime_ = 0.0;
    failureCount_ = 0;
    recoveries_ = 0;
    failTime_ = 0.0;
    failedRanks_.clear();

    scheduleLoop();

    JobResult result;
    buildResult(result);
    return result;
}

void
Runtime::pushReady(int g)
{
    ready_.push(ranks_[g].clock, g);
}

int
Runtime::popReady()
{
    while (!ready_.empty()) {
        const int g = ready_.pop();
        if (ranks_[g].fiber->state() == Fiber::State::Runnable)
            return g;
        // Stale entry (defensive; should not occur): skip it.
    }
    return -1;
}

namespace
{

/**
 * Thread-local fiber-stack recycler, shared by every Runtime that runs
 * on this thread. Stacks outliving a Runtime is the point: a parameter
 * grid runs thousands of short jobs back to back, and a per-Runtime
 * pool would free (munmap) all stacks at job teardown just to fault
 * them in again for the next job. A Runtime's fibers must be destroyed
 * on the thread that created them (already the case: jobs run
 * synchronously inside one GridRunner worker), so the pool sees no
 * cross-thread traffic.
 */
FiberStackPool &
threadStackPool()
{
    static thread_local FiberStackPool pool;
    return pool;
}

} // anonymous namespace

std::unique_ptr<Fiber>
Runtime::spawnFiber(int g)
{
    return std::make_unique<Fiber>([this, g] { fiberBody_(g); },
                                   Fiber::defaultStackBytes,
                                   &threadStackPool());
}

void
Runtime::scheduleLoop()
{
    while (liveRanks_ > 0) {
        const int next = popReady();
        if (next < 0) {
            for (const auto &rs : ranks_) {
                util::warn("rank %d: state=%d blocked=%d failed=%d t=%.6f",
                           rs.globalIndex,
                           static_cast<int>(rs.fiber->state()),
                           static_cast<int>(rs.blockReason), rs.failed,
                           rs.clock);
            }
            util::panic("simmpi scheduler deadlock: no runnable rank");
        }
        running_ = next;
        ranks_[next].fiber->resume();
        ++schedulerTrips_;
        // Control came back from the fiber that ended the chain of
        // direct handoffs begun at `next`: it finished, or it blocked
        // with no other rank runnable.
        const int g = running_;
        RankState &rs = ranks_[g];
        if (rs.fiber->state() == Fiber::State::Runnable)
            pushReady(g); // defensive: a voluntary yield re-queues
        if (rs.fiber->finished()) {
            // A fiber finishes exactly once per incarnation, and only
            // while being resumed; respawns re-increment the count.
            --liveRanks_;
            if (rs.failed && !rs.deathHandled) {
                // The fiber died from the injected SIGTERM; propagate
                // the failure to the rest of the job exactly once per
                // incarnation (a respawned slot can die again under a
                // multi-failure schedule).
                rs.deathHandled = true;
                onRankDeath(g);
            }
        }
    }
}

void
Runtime::buildResult(JobResult &result) const
{
    result.aborted = jobAborting_;
    result.recoveries = recoveries_;
    result.failTime = failTime_;
    result.failedRanks = failedRanks_;
    result.perRank.resize(ranks_.size());
    SimTime makespan = 0.0;
    std::array<double, 4> sums{};
    for (std::size_t g = 0; g < ranks_.size(); ++g) {
        result.perRank[g] = ranks_[g].perCategory;
        makespan = std::max(makespan, ranks_[g].clock);
        for (int c = 0; c < 4; ++c)
            sums[c] += ranks_[g].perCategory[c];
    }
    for (int c = 0; c < 4; ++c)
        result.breakdown[c] = sums[c] / static_cast<double>(ranks_.size());
    result.makespan = makespan;
}

// ---------------------------------------------------------------------------
// Blocking, signals and error delivery
// ---------------------------------------------------------------------------

void
Runtime::block(int g, BlockReason reason)
{
    RankState &rs = ranks_[g];
    rs.blockReason = reason;
    rs.fiber->setState(Fiber::State::Blocked);
    // Direct handoff: switch straight into the rank the scheduler would
    // resume next, one context switch instead of two. With none
    // runnable, return to the scheduler, which reports the deadlock.
    const int next = popReady();
    if (next >= 0) {
        running_ = next;
        rs.fiber->switchTo(*ranks_[next].fiber);
    } else {
        rs.fiber->yield();
    }
    rs.blockReason = BlockReason::None;
}

void
Runtime::wake(int g)
{
    RankState &rs = ranks_[g];
    if (rs.fiber->state() == Fiber::State::Blocked) {
        rs.fiber->setState(Fiber::State::Runnable);
        pushReady(g);
    }
}

void
Runtime::raiseSignals(int g)
{
    RankState &rs = ranks_[g];
    if (rs.unwindAbort) {
        const SimTime dt = std::max(0.0, abortTime_ - rs.clock);
        rs.clock += dt;
        rs.perCategory[static_cast<int>(TimeCategory::Recovery)] += dt;
        throw JobAborted(Err::ProcFailed);
    }
    if (rs.unwindReinit) {
        rs.unwindReinit = false;
        throw ReinitRollback{};
    }
}

void
Runtime::deliverError(int g, Err err)
{
    RankState &rs = ranks_[g];
    switch (policy_) {
      case ErrorPolicy::Fatal:
        if (!jobAborting_) {
            triggerJobAbort(std::max(
                rs.clock, failTime_ + costModel_.detectionLatency()));
        }
        checkSignals(g); // throws JobAborted
        util::panic("fatal error policy did not abort");
      case ErrorPolicy::Reinit:
        // The runtime normally recovers before ranks observe the error;
        // if one slips through, treat it as the rollback signal.
        throw ReinitRollback{};
      case ErrorPolicy::Return:
        if (!rs.errorHandler) {
            util::panic("rank %d observed %s with no error handler", g,
                        errName(err));
        }
        if (rs.inErrorHandler) {
            util::panic("nested MPI error (%s) inside error handler on "
                        "rank %d", errName(err), g);
        }
        rs.errorHandler(err); // expected to repair and throw UlfmRestart
        util::panic("ULFM error handler on rank %d returned; it must "
                    "unwind via UlfmRestart", g);
    }
    util::panic("unreachable error delivery path");
}

// ---------------------------------------------------------------------------
// Failure machinery
// ---------------------------------------------------------------------------

void
Runtime::iterationPoint(int g, int iteration)
{
    checkSignals(g);
    if (!schedule_)
        return;
    for (InjectionEvent &event : schedule_->events) {
        if (event.fired || event.iteration != iteration ||
            event.rank != g)
            continue;
        event.fired = true;
        if (event.corrupt) {
            // Silent data corruption: bits flip at rest, the rank
            // neither notices nor pays virtual time. Whether anyone
            // ever notices is the checkpoint layer's problem at
            // recovery time.
            MATCH_DEBUG("CORRUPT rank %d at iteration %d (t=%.3f)", g,
                        iteration, ranks_[g].clock);
            if (corruptHook_)
                corruptHook_(g);
            continue;
        }
        killRank(g, iteration);
    }
}

void
Runtime::killRank(int g, int iteration)
{
    // Figure 4 of the paper: raise(SIGTERM) on the selected rank in the
    // selected iteration of the main computation loop.
    RankState &rs = ranks_[g];
    rs.failed = true;
    rs.failTime = rs.clock;
    ++failureCount_;
    failTime_ = rs.clock;
    failedRanks_.push_back(g);
    MATCH_DEBUG("KILL rank %d at iteration %d (t=%.3f)", g, iteration,
                rs.clock);
    throw ProcessKilled{};
}

void
Runtime::onRankDeath(int g)
{
    failPendingOpsFor(g);
    const SimTime detect = failTime_ + costModel_.detectionLatency();
    switch (policy_) {
      case ErrorPolicy::Fatal:
        triggerJobAbort(detect);
        break;
      case ErrorPolicy::Reinit:
        triggerReinitRecovery(detect);
        break;
      case ErrorPolicy::Return:
        // Survivors observe the failure through their next operation on
        // a communicator involving the dead rank. If a world repair is
        // already waiting on this rank, stop waiting (multi-failure
        // schedules can kill a rank that never observed the first
        // failure — the repair barrier would deadlock on it).
        abandonRepairSlot(g);
        break;
    }
}

void
Runtime::failPendingOpsFor(int deadGlobal)
{
    const SimTime detect = failTime_ + costModel_.detectionLatency();
    for (auto &op : collOps_) {
        if (!op.active || op.done || op.failed)
            continue;
        const Communicator &comm = commRef(op.comm);
        if (!comm.contains(deadGlobal))
            continue;
        op.failed = true;
        op.failTime = detect;
        for (std::size_t lr = 0; lr < op.arrived.size(); ++lr) {
            if (op.arrived[lr])
                wake(comm.members[lr]);
        }
    }
    for (auto &rs : ranks_) {
        if (rs.blockReason != BlockReason::Recv)
            continue;
        if (commRef(rs.recvComm).contains(deadGlobal))
            wake(rs.globalIndex);
    }
}

void
Runtime::triggerJobAbort(SimTime when)
{
    if (jobAborting_)
        return;
    jobAborting_ = true;
    abortTime_ = when;
    for (auto &rs : ranks_) {
        if (rs.fiber->finished())
            continue;
        rs.unwindAbort = true;
        wake(rs.globalIndex);
    }
}

void
Runtime::triggerReinitRecovery(SimTime when)
{
    ++recoveries_;
    reinitRestartTime_ =
        when + costModel_.reinitRecovery(static_cast<int>(ranks_.size()));
    // A global restart discards all in-flight communication state, and
    // every rank restarts its collective sequence numbering from zero.
    clearPendingColls();
    for (auto &rs : ranks_) {
        rs.mailbox.clear(payloadPool_);
        std::fill(rs.collSeq.begin(), rs.collSeq.end(), 0);
        if (rs.failed && rs.fiber->finished()) {
            // Respawn the dead slot with a fresh incarnation whose clock
            // starts when recovery completes.
            const int g = rs.globalIndex;
            const SimTime lost = reinitRestartTime_ - rs.failTime;
            rs.perCategory[static_cast<int>(TimeCategory::Recovery)] +=
                std::max(0.0, lost);
            rs.failed = false;
            rs.deathHandled = false;
            rs.respawned = true;
            rs.clock = reinitRestartTime_;
            rs.category = TimeCategory::Application;
            rs.fiber = spawnFiber(g);
            ++liveRanks_;
            pushReady(g);
        } else if (!rs.fiber->finished()) {
            rs.unwindReinit = true;
            wake(rs.globalIndex);
        }
    }
}

// ---------------------------------------------------------------------------
// Time accounting
// ---------------------------------------------------------------------------

SimTime
Runtime::clock(int g) const
{
    return ranks_[g].clock;
}

void
Runtime::sleepFor(int g, SimTime dt)
{
    checkSignals(g);
    MATCH_ASSERT(dt >= 0.0, "time cannot flow backwards");
    RankState &rs = ranks_[g];
    rs.clock += dt;
    rs.perCategory[static_cast<int>(rs.category)] += dt;
}

void
Runtime::computeFlops(int g, double flops)
{
    checkSignals(g);
    double dt = costModel_.compute(flops);
    if (policy_ == ErrorPolicy::Return &&
        ranks_[g].category == TimeCategory::Application)
        dt *= costModel_.ulfmAppFactor(static_cast<int>(ranks_.size()));
    RankState &rs = ranks_[g];
    rs.clock += dt;
    rs.perCategory[static_cast<int>(rs.category)] += dt;
}

void
Runtime::computeBytes(int g, double bytes)
{
    checkSignals(g);
    double dt = costModel_.memory(bytes);
    if (policy_ == ErrorPolicy::Return &&
        ranks_[g].category == TimeCategory::Application)
        dt *= costModel_.ulfmAppFactor(static_cast<int>(ranks_.size()));
    RankState &rs = ranks_[g];
    rs.clock += dt;
    rs.perCategory[static_cast<int>(rs.category)] += dt;
}

void
Runtime::setCategory(int g, TimeCategory category)
{
    ranks_[g].category = category;
}

TimeCategory
Runtime::category(int g) const
{
    return ranks_[g].category;
}

// ---------------------------------------------------------------------------
// Communicators
// ---------------------------------------------------------------------------

CommId
Runtime::createComm(std::vector<int> members)
{
    Communicator comm;
    comm.id = static_cast<CommId>(comms_.size());
    comm.members = std::move(members);
    comm.globalToLocal.assign(ranks_.size(), -1);
    for (std::size_t lr = 0; lr < comm.members.size(); ++lr)
        comm.globalToLocal[comm.members[lr]] = static_cast<int>(lr);
    comms_.push_back(std::move(comm));
    return comms_.back().id;
}

const Runtime::Communicator &
Runtime::commRef(CommId comm) const
{
    MATCH_ASSERT(comm >= 0 && comm < static_cast<CommId>(comms_.size()),
                 "invalid communicator handle");
    return comms_[comm];
}

Runtime::Communicator &
Runtime::commMutable(CommId comm)
{
    MATCH_ASSERT(comm >= 0 && comm < static_cast<CommId>(comms_.size()),
                 "invalid communicator handle");
    return comms_[comm];
}

int
Runtime::commSize(CommId comm) const
{
    return static_cast<int>(commRef(comm).members.size());
}

Rank
Runtime::commRank(int g, CommId comm) const
{
    return localRank(g, comm);
}

bool
Runtime::commRevoked(CommId comm) const
{
    return commRef(comm).revoked;
}

int
Runtime::localRank(int g, CommId comm) const
{
    const Communicator &c = commRef(comm);
    MATCH_ASSERT(c.contains(g), "rank is not a communicator member");
    return c.globalToLocal[g];
}

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

void
Runtime::send(int g, CommId comm, Rank dest, Tag tag, const void *buf,
              std::size_t bytes, std::size_t virtual_bytes)
{
    checkSignals(g);
    const Communicator &c = commRef(comm);
    if (c.revoked)
        deliverError(g, Err::Revoked);
    MATCH_ASSERT(dest >= 0 && dest < static_cast<Rank>(c.members.size()),
                 "send destination out of range");
    const int destGlobal = c.members[dest];
    RankState &rs = ranks_[g];
    if (failureCount_ > 0 && ranks_[destGlobal].failed) {
        const SimTime detect =
            ranks_[destGlobal].failTime + costModel_.detectionLatency();
        sleepFor(g, std::max(0.0, detect - rs.clock));
        deliverError(g, Err::ProcFailed);
    }

    double factor = 1.0;
    if (policy_ == ErrorPolicy::Return &&
        rs.category == TimeCategory::Application)
        factor = costModel_.ulfmAppFactor(static_cast<int>(ranks_.size()));

    const Rank srcLocal = localRank(g, comm);
    const SimTime arrival =
        rs.clock + costModel_.pointToPoint(virtual_bytes) * factor;

    RankState &dr = ranks_[destGlobal];
    if (dr.blockReason == BlockReason::Recv &&
        dr.fiber->state() == Fiber::State::Blocked &&
        dr.recvComm == comm &&
        (dr.recvSrc == anySource || dr.recvSrc == srcLocal) &&
        (dr.recvTag == anyTag || dr.recvTag == tag)) {
        // Rendezvous fast path: the destination is parked inside a
        // matching recv, so the bytes land straight in its posted buffer
        // — no pooled staging copy, no mailbox round trip. The receiver
        // finishes the virtual-time arithmetic when it resumes, with the
        // same formula the mailbox path uses, so results are
        // bit-identical either way. A woken receiver keeps its Recv
        // block reason until it resumes, and it may resume into a
        // Reinit rollback that abandons the posted buffer — so only a
        // still-parked fiber takes the fast path.
        MATCH_ASSERT(bytes <= dr.recvCapacity, "receive buffer too small");
        std::memcpy(dr.recvBuf, buf, bytes);
        dr.recvStatus.source = srcLocal;
        dr.recvStatus.tag = tag;
        dr.recvStatus.bytes = bytes;
        dr.recvArrival = arrival;
        dr.recvDelivered = true;
        // Drop the block reason now so a second matching sender enqueues
        // normally instead of overwriting the posted buffer.
        dr.blockReason = BlockReason::None;
        // Inlined sleepFor(sideOverhead): signals were checked on entry
        // and nothing can raise one mid-call on the scheduler thread.
        const SimTime oh = costModel_.sideOverhead();
        rs.clock += oh;
        rs.perCategory[static_cast<int>(rs.category)] += oh;
        wake(destGlobal);
        return;
    }

    Message msg;
    msg.srcLocal = srcLocal;
    msg.tag = tag;
    msg.comm = comm;
    // Recycled buffer: assign() reuses its capacity, so steady-state
    // sends do not touch the heap.
    msg.payload = payloadPool_.acquire();
    msg.payload.assign(static_cast<const std::uint8_t *>(buf),
                       static_cast<const std::uint8_t *>(buf) + bytes);
    msg.arrival = arrival;
    dr.mailbox.pushBack(std::move(msg));
    const SimTime oh = costModel_.sideOverhead();
    rs.clock += oh;
    rs.perCategory[static_cast<int>(rs.category)] += oh;
}

bool
Runtime::probe(int g, CommId comm, Rank src, Tag tag) const
{
    const MessageRing &mailbox = ranks_[g].mailbox;
    for (std::size_t i = 0; i < mailbox.size(); ++i) {
        const Message &msg = mailbox.at(i);
        if (msg.comm != comm)
            continue;
        if (src != anySource && msg.srcLocal != src)
            continue;
        if (tag != anyTag && msg.tag != tag)
            continue;
        return true;
    }
    return false;
}

RecvStatus
Runtime::recv(int g, CommId comm, Rank src, Tag tag, void *buf,
              std::size_t capacity)
{
    checkSignals(g);
    RankState &rs = ranks_[g];
    for (;;) {
        const Communicator &c = commRef(comm);
        if (c.revoked)
            deliverError(g, Err::Revoked);
        for (std::size_t i = 0; i < rs.mailbox.size(); ++i) {
            const Message &peek = rs.mailbox.at(i);
            if (peek.comm != comm)
                continue;
            if (src != anySource && peek.srcLocal != src)
                continue;
            if (tag != anyTag && peek.tag != tag)
                continue;
            Message msg = rs.mailbox.popAt(i);
            const SimTime completion = std::max(rs.clock, msg.arrival) +
                                       costModel_.sideOverhead();
            const SimTime dt = completion - rs.clock;
            rs.clock = completion;
            rs.perCategory[static_cast<int>(rs.category)] += dt;
            RecvStatus status;
            status.source = msg.srcLocal;
            status.tag = msg.tag;
            status.bytes = msg.payload.size();
            MATCH_ASSERT(msg.payload.size() <= capacity,
                         "receive buffer too small");
            std::memcpy(buf, msg.payload.data(), msg.payload.size());
            payloadPool_.release(std::move(msg.payload));
            return status;
        }
        // No message queued: fail fast when the awaited peer is dead
        // (MPIX_ERR_PROC_FAILED; for ANY_SOURCE any dead member counts).
        if (failureCount_ > 0) {
            bool peerDead = false;
            SimTime peerFailTime = 0.0;
            if (src != anySource) {
                const int srcGlobal = c.members[src];
                if (ranks_[srcGlobal].failed) {
                    peerDead = true;
                    peerFailTime = ranks_[srcGlobal].failTime;
                }
            } else {
                for (int member : c.members) {
                    if (member != g && ranks_[member].failed) {
                        peerDead = true;
                        peerFailTime = ranks_[member].failTime;
                        break;
                    }
                }
            }
            if (peerDead) {
                const SimTime detect =
                    peerFailTime + costModel_.detectionLatency();
                sleepFor(g, std::max(0.0, detect - rs.clock));
                deliverError(g, Err::ProcFailed);
            }
        }
        rs.recvComm = comm;
        rs.recvSrc = src;
        rs.recvTag = tag;
        rs.recvBuf = buf;
        rs.recvCapacity = capacity;
        rs.recvDelivered = false;
        block(g, BlockReason::Recv);
        checkSignals(g);
        if (rs.recvDelivered) {
            // A sender used the rendezvous fast path while we were
            // parked: the payload is already in `buf`. Mirror the
            // mailbox path exactly — revocation check first, then the
            // completion-time arithmetic.
            rs.recvDelivered = false;
            if (commRef(comm).revoked)
                deliverError(g, Err::Revoked);
            const SimTime completion =
                std::max(rs.clock, rs.recvArrival) +
                costModel_.sideOverhead();
            const SimTime dt = completion - rs.clock;
            rs.clock = completion;
            rs.perCategory[static_cast<int>(rs.category)] += dt;
            return rs.recvStatus;
        }
    }
}

// ---------------------------------------------------------------------------
// Nonblocking point-to-point
// ---------------------------------------------------------------------------

int
Runtime::isend(int g, CommId comm, Rank dest, Tag tag, const void *buf,
               std::size_t bytes, std::size_t virtual_bytes)
{
    // Eager/buffered semantics: the payload is captured by the send, so
    // an isend is a send plus a trivially-complete request.
    send(g, comm, dest, tag, buf, bytes, virtual_bytes);
    RankState &rs = ranks_[g];
    const int id = rs.nextRequestId++;
    RankState::PendingRequest &req = rs.allocRequest();
    req.id = id;
    req.isRecv = false;
    req.done = true;
    req.comm = comm;
    req.peer = dest;
    req.tag = tag;
    req.buf = nullptr;
    req.capacity = 0;
    req.status = RecvStatus{};
    return id;
}

int
Runtime::irecv(int g, CommId comm, Rank src, Tag tag, void *buf,
               std::size_t capacity)
{
    checkSignals(g);
    RankState &rs = ranks_[g];
    const int id = rs.nextRequestId++;
    RankState::PendingRequest &req = rs.allocRequest();
    req.id = id;
    req.isRecv = true;
    req.done = false;
    req.comm = comm;
    req.peer = src;
    req.tag = tag;
    req.buf = buf;
    req.capacity = capacity;
    req.status = RecvStatus{};
    return id;
}

RecvStatus
Runtime::wait(int g, int request)
{
    RankState &rs = ranks_[g];
    RankState::PendingRequest *it = rs.findRequest(request);
    MATCH_ASSERT(it != nullptr, "wait on unknown request");
    // Copy out before releasing: the recv below can block, and other
    // fibers may grow the request pool meanwhile.
    RankState::PendingRequest req = *it;
    rs.releaseRequest(*it);
    if (req.done)
        return req.status;
    // A pending nonblocking receive completes exactly like a blocking
    // receive posted now (matching consumed messages in order).
    return recv(g, req.comm, req.peer, req.tag, req.buf, req.capacity);
}

bool
Runtime::testRequest(int g, int request)
{
    RankState &rs = ranks_[g];
    const RankState::PendingRequest *it = rs.findRequest(request);
    MATCH_ASSERT(it != nullptr, "test on unknown request");
    if (it->done)
        return true;
    return probe(g, it->comm, it->peer, it->tag);
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

int
Runtime::findColl(CommId comm, std::uint64_t seq) const
{
    for (std::size_t i = 0; i < collOps_.size(); ++i) {
        const CollectiveOp &op = collOps_[i];
        if (op.active && op.comm == comm && op.seq == seq)
            return static_cast<int>(i);
    }
    return -1;
}

int
Runtime::acquireColl(CommId comm, std::uint64_t seq)
{
    int slot;
    if (!freeCollSlots_.empty()) {
        slot = freeCollSlots_.back();
        freeCollSlots_.pop_back();
    } else {
        slot = static_cast<int>(collOps_.size());
        collOps_.emplace_back();
    }
    CollectiveOp &op = collOps_[slot];
    op.active = true;
    op.comm = comm;
    op.seq = seq;
    return slot;
}

void
Runtime::releaseColl(int slot)
{
    CollectiveOp &op = collOps_[slot];
    MATCH_ASSERT(op.active, "releasing an inactive collective slot");
    op.active = false;
    op.kind = CollKind::Barrier;
    op.data = CollData::None;
    op.comm = commNull;
    op.rop = ReduceOp::Sum;
    op.root = 0;
    op.bytes = 0;
    op.expected = 0;
    op.arrivedCount = 0;
    op.consumedCount = 0;
    // Clear, never shrink: the next op in this slot reuses the flat
    // contribution and result buffers at their old capacity. The stale
    // contribution bytes stay in place (the next op overwrites every
    // slot it reads, as its given flags record).
    op.stride = 0;
    op.result.clear();
    op.maxArrival = 0.0;
    op.failed = false;
    op.failTime = 0.0;
    op.done = false;
    op.completion = 0.0;
    freeCollSlots_.push_back(slot);
}

void
Runtime::clearPendingColls()
{
    for (std::size_t i = 0; i < collOps_.size(); ++i) {
        if (collOps_[i].active)
            releaseColl(static_cast<int>(i));
    }
}

void
Runtime::joinCollective(int g, CollKind kind, CollData data, CommId comm,
                        ReduceOp rop, Rank root, const void *in,
                        std::size_t in_bytes, std::size_t virtual_bytes,
                        void *out, std::size_t out_offset,
                        std::size_t out_bytes)
{
    checkSignals(g);
    const Communicator &c = commRef(comm);
    if (c.revoked)
        deliverError(g, Err::Revoked);
    if (failureCount_ > 0) {
        // A collective over a communicator with a failed member raises
        // MPIX_ERR_PROC_FAILED for every participant.
        for (int member : c.members) {
            if (member != g && ranks_[member].failed) {
                const SimTime detect = ranks_[member].failTime +
                                       costModel_.detectionLatency();
                sleepFor(g, std::max(0.0, detect - ranks_[g].clock));
                deliverError(g, Err::ProcFailed);
            }
        }
    }

    RankState &rs = ranks_[g];
    if (static_cast<std::size_t>(comm) >= rs.collSeq.size())
        rs.collSeq.resize(comm + 1, 0);
    const std::uint64_t seq = rs.collSeq[comm]++;
    int slot = findColl(comm, seq);
    if (slot < 0) {
        slot = acquireColl(comm, seq);
        CollectiveOp &op = collOps_[slot];
        op.kind = kind;
        op.data = data;
        op.rop = rop;
        op.root = root;
        op.bytes = virtual_bytes;
        op.expected = static_cast<int>(c.members.size());
        op.arrived.assign(c.members.size(), false);
        op.given.assign(c.members.size(), false);
    }
    CollectiveOp &op = collOps_[slot];
    MATCH_ASSERT(op.kind == kind && op.data == data,
                 "mismatched collective across ranks");
    const int lr = localRank(g, comm);
    MATCH_ASSERT(!op.arrived[lr], "rank joined the same collective twice");
    op.arrived[lr] = true;
    ++op.arrivedCount;
    if (in && in_bytes)
        contribute(op, lr, in, in_bytes);
    op.maxArrival = std::max(op.maxArrival,
                             rs.clock + costModel_.sideOverhead());

    if (op.arrivedCount == op.expected) {
        completeCollective(op);
        for (std::size_t r = 0; r < op.arrived.size(); ++r) {
            const int member = c.members[r];
            if (member != g)
                wake(member);
        }
    } else {
        block(g, BlockReason::Collective);
        checkSignals(g);
    }

    // Re-look-up: the slot pool may have grown (reallocated) or been
    // recycled while this fiber was blocked.
    const int postSlot = findColl(comm, seq);
    MATCH_ASSERT(postSlot >= 0, "collective op vanished while blocked");
    CollectiveOp &fin = collOps_[postSlot];
    if (fin.failed && !fin.done) {
        sleepFor(g, std::max(0.0, fin.failTime - rs.clock));
        // Leave the op in place for the other victims; recovery clears it.
        deliverError(g, Err::ProcFailed);
    }
    MATCH_ASSERT(fin.done, "woken from a collective that is not done");
    const SimTime dt = std::max(0.0, fin.completion - rs.clock);
    rs.clock += dt;
    rs.perCategory[static_cast<int>(rs.category)] += dt;
    if (out_bytes) {
        // Copy only this rank's share straight out of the shared result
        // (no per-rank result vector is ever materialized).
        MATCH_ASSERT(out_offset + out_bytes <= fin.result.size(),
                     "collective result smaller than requested share");
        std::memcpy(out, fin.result.data() + out_offset, out_bytes);
    }
    if (++fin.consumedCount == fin.expected)
        releaseColl(postSlot);
}

void
Runtime::contribute(CollectiveOp &op, int lr, const void *in,
                    std::size_t bytes)
{
    const auto *p = static_cast<const std::uint8_t *>(in);
    if (op.data == CollData::Bcast) {
        op.result.assign(p, p + bytes);
        return;
    }
    if (op.stride == 0) {
        // The first contribution fixes the stride. The buffer only
        // grows: a warm slot holds the largest op it has served.
        op.stride = bytes;
        const std::size_t need = op.arrived.size() * bytes;
        if (op.contrib.size() < need)
            op.contrib.resize(need);
    }
    MATCH_ASSERT(bytes == op.stride,
                 "collective contributions differ in size");
    std::memcpy(op.contrib.data() + lr * op.stride, p, bytes);
    op.given[lr] = true;
}

void
Runtime::completeCollective(CollectiveOp &op)
{
    const Communicator &c = commRef(op.comm);
    const int procs = static_cast<int>(c.members.size());
    double factor = 1.0;
    if (policy_ == ErrorPolicy::Return) {
        // The op inherits the phase of its participants; FTI checkpoint
        // collectives see a smaller interference factor than app ones.
        const TimeCategory cat = ranks_[c.members[0]].category;
        factor = (cat == TimeCategory::CkptWrite)
                     ? costModel_.ulfmCkptFactor(procs)
                     : costModel_.ulfmAppFactor(procs);
    }
    op.completion = op.maxArrival +
                    costModel_.collective(op.kind, op.bytes, procs) * factor;
    reduceBytes(op);
    op.done = true;
}

namespace
{

/** Fold every given contribution into op.result in local-rank order:
 *  the first one seeds it, the rest combine elementwise. */
template <typename T>
void
reduceInto(std::vector<std::uint8_t> &result,
           const std::vector<std::uint8_t> &contrib,
           const std::vector<bool> &given, std::size_t stride, ReduceOp op)
{
    result.clear();
    for (std::size_t r = 0; r < given.size(); ++r) {
        if (!given[r])
            continue;
        const std::uint8_t *in = contrib.data() + r * stride;
        if (result.empty()) {
            result.assign(in, in + stride);
            continue;
        }
        for (std::size_t off = 0; off + sizeof(T) <= stride;
             off += sizeof(T)) {
            T a, b;
            std::memcpy(&a, result.data() + off, sizeof(T));
            std::memcpy(&b, in + off, sizeof(T));
            switch (op) {
              case ReduceOp::Sum: a = a + b; break;
              case ReduceOp::Min: a = std::min(a, b); break;
              case ReduceOp::Max: a = std::max(a, b); break;
              case ReduceOp::Prod: a = a * b; break;
              case ReduceOp::LogicalAnd: a = static_cast<T>(a && b); break;
            }
            std::memcpy(result.data() + off, &a, sizeof(T));
        }
    }
}

} // anonymous namespace

void
Runtime::reduceBytes(CollectiveOp &op)
{
    // Every branch combines into op.result in place: a recycled slot's
    // result vector keeps its capacity, so steady-state collectives
    // never allocate here.
    switch (op.data) {
      case CollData::None:
        op.result.clear();
        return;
      case CollData::ReduceDouble:
        reduceInto<double>(op.result, op.contrib, op.given, op.stride,
                           op.rop);
        return;
      case CollData::ReduceInt64:
        reduceInto<std::int64_t>(op.result, op.contrib, op.given,
                                 op.stride, op.rop);
        return;
      case CollData::Bcast:
        return; // the root's bytes went straight into op.result
      case CollData::Gather:
      case CollData::Allgather:
        op.result.clear();
        for (std::size_t r = 0; r < op.given.size(); ++r) {
            if (op.given[r]) {
                const std::uint8_t *in = op.contrib.data() + r * op.stride;
                op.result.insert(op.result.end(), in, in + op.stride);
            }
        }
        return;
      case CollData::ExscanInt64: {
        op.result.clear();
        op.result.resize(op.given.size() * sizeof(std::int64_t));
        std::int64_t running = 0;
        for (std::size_t r = 0; r < op.given.size(); ++r) {
            std::memcpy(op.result.data() + r * sizeof(running), &running,
                        sizeof(running));
            if (op.given[r]) {
                std::int64_t v;
                std::memcpy(&v, op.contrib.data() + r * op.stride,
                            sizeof(v));
                running += v;
            }
        }
        return;
      }
    }
}

void
Runtime::barrier(int g, CommId comm)
{
    joinCollective(g, CollKind::Barrier, CollData::None, comm,
                   ReduceOp::Sum, 0, nullptr, 0, 0, nullptr, 0, 0);
}

void
Runtime::allreduceDouble(int g, CommId comm, const double *in, double *out,
                         std::size_t n, ReduceOp op)
{
    joinCollective(g, CollKind::Allreduce, CollData::ReduceDouble, comm,
                   op, 0, in, n * sizeof(double), n * sizeof(double), out,
                   0, n * sizeof(double));
}

void
Runtime::allreduceInt64(int g, CommId comm, const std::int64_t *in,
                        std::int64_t *out, std::size_t n, ReduceOp op)
{
    joinCollective(g, CollKind::Allreduce, CollData::ReduceInt64, comm, op,
                   0, in, n * sizeof(std::int64_t),
                   n * sizeof(std::int64_t), out, 0,
                   n * sizeof(std::int64_t));
}

void
Runtime::bcast(int g, CommId comm, Rank root, void *buf, std::size_t bytes,
               std::size_t virtual_bytes)
{
    // The root contributes its buffer and copies nothing back.
    const bool amRoot = localRank(g, comm) == root;
    joinCollective(g, CollKind::Bcast, CollData::Bcast, comm,
                   ReduceOp::Sum, root, amRoot ? buf : nullptr,
                   amRoot ? bytes : 0, virtual_bytes,
                   amRoot ? nullptr : buf, 0, amRoot ? 0 : bytes);
}

void
Runtime::gather(int g, CommId comm, Rank root, const void *in,
                std::size_t bytes, void *out, std::size_t virtual_bytes)
{
    const bool amRoot = localRank(g, comm) == root;
    const std::size_t outBytes =
        amRoot ? bytes * commRef(comm).members.size() : 0;
    joinCollective(g, CollKind::Gather, CollData::Gather, comm,
                   ReduceOp::Sum, root, in, bytes, virtual_bytes,
                   amRoot ? out : nullptr, 0, outBytes);
}

void
Runtime::allgather(int g, CommId comm, const void *in, std::size_t bytes,
                   void *out, std::size_t virtual_bytes)
{
    joinCollective(g, CollKind::Allgather, CollData::Allgather, comm,
                   ReduceOp::Sum, 0, in, bytes, virtual_bytes, out, 0,
                   bytes * commRef(comm).members.size());
}

std::int64_t
Runtime::exscanInt64(int g, CommId comm, std::int64_t value)
{
    // Only this rank's 8-byte slice of the scan leaves the shared op.
    const int lr = localRank(g, comm);
    std::int64_t out = 0;
    joinCollective(g, CollKind::Scan, CollData::ExscanInt64, comm,
                   ReduceOp::Sum, 0, &value, sizeof(value), sizeof(value),
                   &out, lr * sizeof(std::int64_t), sizeof(out));
    return out;
}

// ---------------------------------------------------------------------------
// ULFM extension
// ---------------------------------------------------------------------------

void
Runtime::setErrorHandler(int g, std::function<void(Err)> handler)
{
    ranks_[g].errorHandler = std::move(handler);
}

void
Runtime::ulfmRevoke(int g, CommId comm)
{
    MATCH_ASSERT(policy_ == ErrorPolicy::Return,
                 "ULFM operations require the Return error policy");
    Communicator &c = commMutable(comm);
    if (c.revoked)
        return;
    c.revoked = true;
    // Interrupt everything pending on the communicator: mark ops failed
    // and wake everyone blocked so they observe the revocation.
    for (auto &op : collOps_) {
        if (op.active && op.comm == comm && !op.done && !op.failed) {
            op.failed = true;
            op.failTime = ranks_[g].clock;
        }
    }
    for (auto &rs : ranks_) {
        if (rs.fiber->finished())
            continue;
        if (rs.blockReason == BlockReason::Recv && rs.recvComm == comm)
            wake(rs.globalIndex);
        if (rs.blockReason == BlockReason::Collective)
            wake(rs.globalIndex);
    }
    sleepFor(g, costModel_.ulfmRevoke(static_cast<int>(c.members.size())));
}

CommId
Runtime::ulfmRepairWorld(int g)
{
    return repairWorldCommon(g, /*shrinking=*/false);
}

CommId
Runtime::ulfmShrinkWorld(int g)
{
    return repairWorldCommon(g, /*shrinking=*/true);
}

CommId
Runtime::repairWorldCommon(int g, bool shrinking)
{
    MATCH_ASSERT(policy_ == ErrorPolicy::Return,
                 "ULFM operations require the Return error policy");
    RankState &rs = ranks_[g];
    rs.inErrorHandler = true;

    const CommId oldWorld = currentWorld_;
    const Communicator &world = commRef(oldWorld);

    if (!repairOp_.active) {
        repairOp_ = RepairOp{};
        repairOp_.active = true;
        repairOp_.shrinking = shrinking;
        repairOp_.oldWorld = oldWorld;
        repairOp_.arrived.assign(world.members.size(), false);
        for (int member : world.members) {
            if (!(ranks_[member].failed && ranks_[member].fiber->finished()))
                ++repairOp_.expected;
        }
    }
    MATCH_ASSERT(repairOp_.oldWorld == oldWorld &&
                     repairOp_.shrinking == shrinking,
                 "inconsistent concurrent world repairs");
    const int lr = localRank(g, oldWorld);
    MATCH_ASSERT(!repairOp_.arrived[lr], "rank repaired the world twice");
    repairOp_.arrived[lr] = true;
    ++repairOp_.arrivedCount;
    repairOp_.maxArrival = std::max(repairOp_.maxArrival, rs.clock);

    if (repairOp_.arrivedCount == repairOp_.expected) {
        completeRepair();
    } else {
        block(g, BlockReason::Repair);
        // No signal check: under the Return policy the repair owns this
        // fiber; aborts/rollbacks do not occur here.
    }

    MATCH_ASSERT(repairOp_.done, "woken from an incomplete world repair");
    const SimTime dt = std::max(0.0, repairOp_.completion - rs.clock);
    rs.clock += dt;
    rs.perCategory[static_cast<int>(rs.category)] += dt;
    const CommId newWorld = repairOp_.newWorld;
    if (++repairOp_.consumedCount == repairOp_.expected)
        repairOp_ = RepairOp{};
    rs.inErrorHandler = false;
    return newWorld;
}

void
Runtime::completeRepair()
{
    const Communicator &world = commRef(repairOp_.oldWorld);
    const int procs = static_cast<int>(world.members.size());
    std::vector<int> deadSlots;
    for (int member : world.members) {
        if (ranks_[member].failed && ranks_[member].fiber->finished())
            deadSlots.push_back(member);
    }
    MATCH_ASSERT(!deadSlots.empty(), "repair with no failed process");
    const int failed = static_cast<int>(deadSlots.size());
    SimTime cost;
    if (repairOp_.shrinking) {
        // Shrinking recovery skips the spawn + merge of replacements.
        cost = costModel_.ulfmShrink(procs) +
               costModel_.ulfmAgree(procs) +
               costModel_.ulfmAppSync(procs);
    } else {
        cost = costModel_.ulfmShrink(procs) +
               costModel_.ulfmSpawn(failed) +
               costModel_.ulfmMerge(procs) +
               costModel_.ulfmAgree(procs) +
               costModel_.ulfmAppSync(procs);
    }
    repairOp_.completion = repairOp_.maxArrival + cost;
    repairOp_.done = true;
    ++recoveries_;
    // Any stale collectives from before the failure are dead now.
    clearPendingColls();
    std::vector<int> newMembers;
    if (repairOp_.shrinking) {
        for (int member : world.members) {
            if (!(ranks_[member].failed &&
                  ranks_[member].fiber->finished()))
                newMembers.push_back(member);
        }
    } else {
        newMembers = world.members;
        // MPI_Comm_spawn: replacement processes re-execute the rank
        // main; MPI_Intercomm_merge slots them into the old ranks.
        for (int slot : deadSlots) {
            RankState &dead = ranks_[slot];
            const SimTime lost = repairOp_.completion - dead.failTime;
            dead.perCategory[static_cast<int>(
                TimeCategory::Recovery)] += std::max(0.0, lost);
            dead.failed = false;
            dead.deathHandled = false;
            dead.respawned = true;
            dead.clock = repairOp_.completion;
            dead.category = TimeCategory::Application;
            dead.mailbox.clear(payloadPool_);
            dead.fiber = spawnFiber(slot);
            ++liveRanks_;
            pushReady(slot);
        }
    }
    // Survivors restart their collective numbering alongside the
    // fresh communicator (worldc[++worldi] in the paper's Figure 3).
    for (auto &rank : ranks_)
        std::fill(rank.collSeq.begin(), rank.collSeq.end(), 0);
    repairOp_.newWorld = createComm(std::move(newMembers));
    currentWorld_ = repairOp_.newWorld;
    // Wake every arrived member (the wake is a no-op on the running
    // fiber when the last arrival completes the repair inline).
    const Communicator &old = commRef(repairOp_.oldWorld);
    for (std::size_t r = 0; r < repairOp_.arrived.size(); ++r) {
        if (repairOp_.arrived[r])
            wake(old.members[r]);
    }
}

void
Runtime::abandonRepairSlot(int g)
{
    if (!repairOp_.active || repairOp_.done)
        return;
    const Communicator &old = commRef(repairOp_.oldWorld);
    if (!old.contains(g))
        return;
    const int lr = localRank(g, repairOp_.oldWorld);
    if (repairOp_.arrived[lr])
        return; // arrived ranks block in Repair and cannot be killed
    --repairOp_.expected;
    if (repairOp_.expected == 0) {
        // Every counted survivor died before arriving; nobody is left
        // to finish (or consume) the repair.
        repairOp_ = RepairOp{};
        return;
    }
    if (repairOp_.arrivedCount == repairOp_.expected)
        completeRepair();
}

bool
Runtime::isSurvivor(int g) const
{
    return !ranks_[g].respawned;
}

bool
Runtime::isRespawned(int g) const
{
    return ranks_[g].respawned;
}

} // namespace match::simmpi
