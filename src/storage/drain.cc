#include "src/storage/drain.hh"

#include <atomic>
#include <utility>

#include "src/util/logging.hh"
#include "src/util/phase.hh"

namespace match::storage
{

namespace
{
std::atomic<std::uint64_t> g_shippedBytes{0};
}

const char *
drainModeName(DrainMode mode)
{
    switch (mode) {
      case DrainMode::Sync: return "sync";
      case DrainMode::Async: return "async";
    }
    return "unknown";
}

std::uint64_t
drainGlobalShippedBytes()
{
    return g_shippedBytes.load(std::memory_order_relaxed);
}

DrainWorker::DrainWorker(DrainMode mode, std::size_t queueDepth,
                         std::size_t capacityBytes)
    : mode_(mode), depth_(queueDepth), capacity_(capacityBytes)
{}

DrainWorker::~DrainWorker()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
        workCv_.notify_all();
    }
    if (worker_.joinable())
        worker_.join();
}

DrainWorker::Ticket
DrainWorker::enqueue(Job job, std::size_t bytes)
{
    MATCH_ASSERT(job != nullptr, "drain job must be callable");
    if (mode_ == DrainMode::Sync) {
        // Deterministic replay: the job runs right here, on the
        // enqueuing thread, before control returns to the caller.
        std::uint64_t value;
        {
            util::PhaseScope phase(util::Phase::Drain);
            value = job();
        }
        g_shippedBytes.fetch_add(value, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mutex_);
        const Ticket ticket = nextTicket_++;
        results_.emplace(ticket, value);
        ++completed_;
        return ticket;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    if (depth_ > 0) {
        // Burst-buffer backpressure: wall-clock only, never virtual.
        doneCv_.wait(lock, [this] {
            return queue_.size() + (running_ ? 1u : 0u) < depth_;
        });
    }
    if (capacity_ > 0) {
        // Capacity-in-bytes backpressure: admit once the staged bytes
        // fit, or unconditionally at zero occupancy so a job larger
        // than the whole buffer streams through instead of deadlocking.
        doneCv_.wait(lock, [this, bytes] {
            return stagedBytes_ == 0 || stagedBytes_ + bytes <= capacity_;
        });
    }
    const Ticket ticket = nextTicket_++;
    queue_.push_back(QueuedJob{ticket, std::move(job), bytes});
    stagedBytes_ += bytes;
    if (!workerStarted_) {
        // Lazy spawn: runs with no flush traffic never pay a thread.
        workerStarted_ = true;
        worker_ = std::thread([this] { workerLoop(); });
    }
    workCv_.notify_one();
    return ticket;
}

std::uint64_t
DrainWorker::wait(Ticket ticket)
{
    std::unique_lock<std::mutex> lock(mutex_);
    doneCv_.wait(lock, [this, ticket] {
        return results_.count(ticket) != 0 ||
               discardedTickets_.count(ticket) != 0;
    });
    const auto it = results_.find(ticket);
    return it == results_.end() ? 0 : it->second;
}

void
DrainWorker::quiesce()
{
    std::unique_lock<std::mutex> lock(mutex_);
    doneCv_.wait(lock, [this] { return queue_.empty() && !running_; });
}

void
DrainWorker::crash()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const QueuedJob &queued : queue_) {
        discardedTickets_.insert(queued.ticket);
        stagedBytes_ -= queued.bytes;
    }
    discarded_ += queue_.size();
    queue_.clear();
    doneCv_.notify_all();
}

std::size_t
DrainWorker::pendingJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size() + (running_ ? 1u : 0u);
}

std::uint64_t
DrainWorker::completedJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return completed_;
}

std::uint64_t
DrainWorker::discardedJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return discarded_;
}

std::size_t
DrainWorker::stagedBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stagedBytes_;
}

void
DrainWorker::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        workCv_.wait(lock, [this] {
            return stopping_ || !queue_.empty();
        });
        if (queue_.empty()) {
            if (stopping_)
                return;
            continue;
        }
        QueuedJob queued = std::move(queue_.front());
        queue_.pop_front();
        running_ = true;
        lock.unlock();
        std::uint64_t value;
        {
            // Attributed on the worker thread: phase counters are
            // process-global, so async drain time shows up alongside
            // (and overlapping) the scheduler thread's phases.
            util::PhaseScope phase(util::Phase::Drain);
            value = queued.job();
        }
        g_shippedBytes.fetch_add(value, std::memory_order_relaxed);
        lock.lock();
        running_ = false;
        stagedBytes_ -= queued.bytes;
        results_.emplace(queued.ticket, value);
        ++completed_;
        doneCv_.notify_all();
    }
}

} // namespace match::storage
