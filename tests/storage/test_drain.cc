/**
 * @file
 * Drain-worker contract tests, over both storage backend kinds and both
 * execution modes: FIFO ordering and enqueue/quiesce visibility,
 * restart-while-draining, queue-depth backpressure, and the crash
 * guarantee — a simulated node crash loses exactly the objects whose
 * flush jobs had not been drained. A concurrency stress test hammers
 * one shared backend with drain + checkpoint traffic; the CI TSAN lane
 * runs it under -fsanitize=thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/storage/backend.hh"
#include "src/storage/drain.hh"

namespace fs = std::filesystem;
using namespace match;
using match::storage::Backend;
using match::storage::DrainMode;
using match::storage::DrainWorker;
using match::storage::Kind;

namespace
{

/** Manual gate a drain job can park on, to control the worker's
 *  progress from the test body. */
class Gate
{
  public:
    void
    open()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        open_ = true;
        cv_.notify_all();
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return open_; });
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool open_ = false;
};

storage::Blob
blobOf(const std::string &payload)
{
    return storage::BlobPool::local().copyOf(payload.data(),
                                             payload.size());
}

std::string
text(Backend &backend, const std::string &path)
{
    const storage::Blob blob = backend.read(path);
    if (!blob)
        return "<missing>";
    return {reinterpret_cast<const char *>(blob.data()), blob.size()};
}

} // namespace

class DrainContract
    : public ::testing::TestWithParam<std::tuple<Kind, DrainMode>>
{
  protected:
    void
    SetUp() override
    {
        backend_ = storage::makeBackend(std::get<0>(GetParam()));
        root_ = (fs::temp_directory_path() / "match-drain-tests" /
                 storage::kindName(std::get<0>(GetParam())))
                    .string();
        backend_->removeTree(root_);
    }

    void
    TearDown() override
    {
        backend_->removeTree(root_);
    }

    DrainMode
    mode() const
    {
        return std::get<1>(GetParam());
    }

    /** A flush job writing `payload` at `path`, returning its size. */
    DrainWorker::Job
    flushJob(const std::string &path, const std::string &payload)
    {
        Backend *backend = backend_.get();
        return [backend, path, payload]() -> std::uint64_t {
            backend->write(path, blobOf(payload));
            return payload.size();
        };
    }

    std::shared_ptr<Backend> backend_;
    std::string root_;
};

TEST_P(DrainContract, QuiesceMakesEveryEnqueuedObjectVisible)
{
    DrainWorker worker(mode(), 0);
    constexpr int kJobs = 16;
    for (int i = 0; i < kJobs; ++i) {
        const std::string path =
            root_ + "/pfs/ckpt" + std::to_string(i);
        worker.enqueue(flushJob(path, "object-" + std::to_string(i)));
    }
    worker.quiesce();
    EXPECT_EQ(worker.completedJobs(), static_cast<std::uint64_t>(kJobs));
    EXPECT_EQ(worker.pendingJobs(), 0u);
    for (int i = 0; i < kJobs; ++i) {
        EXPECT_EQ(text(*backend_, root_ + "/pfs/ckpt" +
                                      std::to_string(i)),
                  "object-" + std::to_string(i));
    }
}

TEST_P(DrainContract, JobsRunInEnqueueOrderAndSeePriorWrites)
{
    // FIFO is the determinism backbone: a flush must see the base image
    // its predecessor wrote, and a queued removal must land after the
    // write it deletes. Jobs append to a shared log and overwrite one
    // object; after quiesce the log is the enqueue order and the object
    // holds the last value.
    DrainWorker worker(mode(), 0);
    std::mutex log_mutex;
    std::vector<int> log;
    constexpr int kJobs = 12;
    for (int i = 0; i < kJobs; ++i) {
        const std::string expect_prev =
            i == 0 ? "<missing>" : "v" + std::to_string(i - 1);
        Backend *backend = backend_.get();
        const std::string path = root_ + "/pfs/latest";
        worker.enqueue([backend, path, i, expect_prev, &log_mutex,
                        &log]() -> std::uint64_t {
            EXPECT_EQ(text(*backend, path), expect_prev);
            const std::string payload = "v" + std::to_string(i);
            backend->write(path, blobOf(payload));
            std::lock_guard<std::mutex> lock(log_mutex);
            log.push_back(i);
            return payload.size();
        });
    }
    worker.quiesce();
    ASSERT_EQ(log.size(), static_cast<std::size_t>(kJobs));
    for (int i = 0; i < kJobs; ++i)
        EXPECT_EQ(log[i], i);
    EXPECT_EQ(text(*backend_, root_ + "/pfs/latest"),
              "v" + std::to_string(kJobs - 1));
}

TEST_P(DrainContract, WaitReturnsTheJobsValue)
{
    DrainWorker worker(mode(), 0);
    const auto a = worker.enqueue(flushJob(root_ + "/a", "four"));
    const auto b = worker.enqueue(flushJob(root_ + "/b", "sixbyte"));
    EXPECT_EQ(worker.wait(a), 4u);
    EXPECT_EQ(worker.wait(b), 7u);
    EXPECT_EQ(worker.wait(a), 4u) << "wait is idempotent";
}

TEST_P(DrainContract, RestartWhileDrainingSeesAllObjects)
{
    // A restart must quiesce before reading: objects admitted before
    // the restart are all visible afterwards, even when the worker was
    // mid-queue when the restart began.
    auto gate = std::make_shared<Gate>();
    // The gate opener runs on the side: in async mode the gated job
    // parks the queue until mid-quiesce; in sync mode the gated job
    // runs inline at enqueue, so the opener must already be running.
    std::thread opener([gate] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        gate->open();
    });
    DrainWorker worker(mode(), 0);
    Backend *backend = backend_.get();
    const std::string first = root_ + "/pfs/ckpt0";
    worker.enqueue([backend, first, gate]() -> std::uint64_t {
        gate->wait();
        backend->write(first, blobOf("g"));
        return 1;
    });
    constexpr int kJobs = 8;
    for (int i = 1; i < kJobs; ++i) {
        worker.enqueue(flushJob(root_ + "/pfs/ckpt" + std::to_string(i),
                                "restartable"));
    }
    // The "restart": quiesce, then read everything admitted before it.
    worker.quiesce();
    opener.join();
    for (int i = 1; i < kJobs; ++i) {
        EXPECT_EQ(text(*backend_,
                       root_ + "/pfs/ckpt" + std::to_string(i)),
                  "restartable");
    }
}

TEST_P(DrainContract, CrashLosesExactlyTheUndrainedObjects)
{
    if (mode() == DrainMode::Sync) {
        // Sync drains at enqueue: there is never anything to lose.
        DrainWorker worker(mode(), 0);
        worker.enqueue(flushJob(root_ + "/pfs/ckpt0", "durable"));
        worker.crash();
        EXPECT_EQ(worker.discardedJobs(), 0u);
        EXPECT_EQ(text(*backend_, root_ + "/pfs/ckpt0"), "durable");
        return;
    }
    auto gate = std::make_shared<Gate>();
    auto started = std::make_shared<Gate>();
    DrainWorker worker(mode(), 0);
    Backend *backend = backend_.get();
    const std::string first = root_ + "/pfs/ckpt0";
    worker.enqueue([backend, first, gate, started]() -> std::uint64_t {
        started->open(); // the worker is now mid-job
        gate->wait();
        backend->write(first, blobOf("streamed"));
        return 8;
    });
    constexpr int kJobs = 6;
    for (int i = 1; i < kJobs; ++i) {
        worker.enqueue(flushJob(root_ + "/pfs/ckpt" + std::to_string(i),
                                "lost"));
    }
    started->wait(); // jobs 1.. are definitely still queued
    worker.crash();  // node dies: undrained flushes are gone
    gate->open();    // the in-flight stream still completes
    worker.quiesce();

    EXPECT_EQ(text(*backend_, first), "streamed")
        << "the job that had started keeps its bytes";
    for (int i = 1; i < kJobs; ++i) {
        EXPECT_FALSE(
            backend_->exists(root_ + "/pfs/ckpt" + std::to_string(i)))
            << "undrained object ckpt" << i << " must be lost";
    }
    EXPECT_EQ(worker.discardedJobs(),
              static_cast<std::uint64_t>(kJobs - 1));
    EXPECT_EQ(worker.completedJobs(), 1u);

    // The restarted job keeps using the same drain.
    worker.enqueue(flushJob(root_ + "/pfs/ckpt-after", "recovered"));
    worker.quiesce();
    EXPECT_EQ(text(*backend_, root_ + "/pfs/ckpt-after"), "recovered");
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndModes, DrainContract,
    ::testing::Combine(::testing::Values(Kind::Mem, Kind::Disk),
                       ::testing::Values(DrainMode::Sync,
                                         DrainMode::Async)),
    [](const auto &info) {
        return std::string(storage::kindName(std::get<0>(info.param))) +
               "_" + storage::drainModeName(std::get<1>(info.param));
    });

TEST(DrainWorker, QueueDepthBlocksEnqueueUntilASlotFrees)
{
    // Depth 1: with one admitted-but-parked job, a second enqueue must
    // block for as long as the first has not drained — regardless of
    // how much wall time passes.
    auto gate = std::make_shared<Gate>();
    DrainWorker worker(DrainMode::Async, 1);
    worker.enqueue([gate]() -> std::uint64_t {
        gate->wait();
        return 1;
    });
    std::atomic<bool> second_admitted{false};
    std::thread enqueuer([&] {
        worker.enqueue([]() -> std::uint64_t { return 2; });
        second_admitted = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(second_admitted)
        << "enqueue must backpressure while the queue is full";
    gate->open();
    enqueuer.join();
    EXPECT_TRUE(second_admitted);
    worker.quiesce();
    EXPECT_EQ(worker.completedJobs(), 2u);
}

TEST(DrainWorker, CapacityBytesBlocksEnqueueUntilStagedBytesDrain)
{
    // Capacity 100: with 80 staged bytes parked behind a gate, a
    // 50-byte enqueue must block until the parked job finishes and
    // releases its footprint.
    auto gate = std::make_shared<Gate>();
    auto started = std::make_shared<Gate>();
    DrainWorker worker(DrainMode::Async, 0, 100);
    worker.enqueue(
        [gate, started]() -> std::uint64_t {
            started->open();
            gate->wait();
            return 80;
        },
        80);
    started->wait();
    EXPECT_EQ(worker.stagedBytes(), 80u);
    std::atomic<bool> second_admitted{false};
    std::thread enqueuer([&] {
        worker.enqueue([]() -> std::uint64_t { return 50; }, 50);
        second_admitted = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(second_admitted)
        << "80 + 50 staged bytes must not fit a 100-byte buffer";
    gate->open();
    enqueuer.join();
    EXPECT_TRUE(second_admitted);
    worker.quiesce();
    EXPECT_EQ(worker.stagedBytes(), 0u);
    EXPECT_EQ(worker.completedJobs(), 2u);
}

TEST(DrainWorker, CapacityAdmitsOversizedJobAtZeroOccupancy)
{
    // A job larger than the whole buffer must stream through alone
    // instead of deadlocking, and a small follow-up must block behind
    // its footprint only while it is unfinished.
    DrainWorker worker(DrainMode::Async, 0, 10);
    const auto big =
        worker.enqueue([]() -> std::uint64_t { return 1000; }, 1000);
    EXPECT_EQ(worker.wait(big), 1000u);
    worker.quiesce();
    const auto small =
        worker.enqueue([]() -> std::uint64_t { return 5; }, 5);
    EXPECT_EQ(worker.wait(small), 5u);
}

TEST(DrainWorker, CrashUnblocksCapacityBlockedEnqueue)
{
    // The crash/backpressure race: a rank blocked in enqueue on the
    // capacity bound while the node crashes. crash() discards the
    // queued footprint, so the blocked enqueue must re-evaluate and
    // admit — not deadlock on bytes that no longer exist.
    auto gate = std::make_shared<Gate>();
    auto started = std::make_shared<Gate>();
    DrainWorker worker(DrainMode::Async, 0, 100);
    // Job A runs (gated), occupying 10 staged bytes off-queue.
    worker.enqueue(
        [gate, started]() -> std::uint64_t {
            started->open();
            gate->wait();
            return 10;
        },
        10);
    started->wait();
    // Job B is queued, pushing staged bytes to 95.
    const auto doomed =
        worker.enqueue([]() -> std::uint64_t { return 85; }, 85);
    EXPECT_EQ(worker.stagedBytes(), 95u);
    // Job C (60 bytes) blocks: 95 + 60 > 100.
    std::atomic<bool> admitted{false};
    std::thread enqueuer([&] {
        worker.enqueue([]() -> std::uint64_t { return 60; }, 60);
        admitted = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(admitted);
    // The crash discards B (85 queued bytes): staged drops to 10 and C
    // (10 + 60 <= 100) must be admitted while A is still running.
    worker.crash();
    for (int i = 0; i < 200 && !admitted; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(admitted)
        << "crash must wake a capacity-blocked enqueue";
    gate->open();
    enqueuer.join();
    worker.quiesce();
    EXPECT_EQ(worker.wait(doomed), 0u);
    EXPECT_EQ(worker.stagedBytes(), 0u);
    EXPECT_EQ(worker.discardedJobs(), 1u);
    EXPECT_EQ(worker.completedJobs(), 2u);
}

TEST(DrainChannel, ReservePricesCapacityEvictionDeterministically)
{
    // Virtual-side capacity pressure: three 40-byte flushes priced at
    // 10 virtual seconds each (finishing at t=10, 20, 30) against a
    // 100-byte buffer. A fourth 40-byte reservation at t=0 must evict
    // the two oldest occupants (120 staged + 40 > 100 until only one
    // remains), so the stall runs to the second occupant's finish.
    DrainWorker worker(DrainMode::Sync, 0);
    storage::DrainChannel channel;
    const auto price = [](std::uint64_t, std::uint64_t, int, double) {
        return 10.0;
    };
    for (int i = 0; i < 3; ++i) {
        const auto ticket =
            worker.enqueue([]() -> std::uint64_t { return 40; });
        channel.admit(ticket, 8, 1.0, 40);
        channel.stamp(static_cast<double>(i) * 10.0);
    }
    EXPECT_DOUBLE_EQ(channel.reserve(worker, 0.0, 40, 100, price),
                     20.0);
    // The evicted occupant is gone and a later reservation at t=25 sees
    // only the t=30 occupant: 40 + 40 fits, no stall.
    EXPECT_DOUBLE_EQ(channel.reserve(worker, 25.0, 40, 100, price),
                     0.0);
    // Unbounded capacity never stalls.
    EXPECT_DOUBLE_EQ(channel.reserve(worker, 0.0, 1 << 20, 0, price),
                     0.0);
}

TEST(DrainWorker, WaitOnCrashedTicketReturnsZero)
{
    auto gate = std::make_shared<Gate>();
    auto started = std::make_shared<Gate>();
    DrainWorker worker(DrainMode::Async, 0);
    worker.enqueue([gate, started]() -> std::uint64_t {
        started->open();
        gate->wait();
        return 9;
    });
    const auto doomed =
        worker.enqueue([]() -> std::uint64_t { return 7; });
    started->wait();
    worker.crash();
    EXPECT_EQ(worker.wait(doomed), 0u)
        << "a discarded ticket resolves (to zero) instead of hanging";
    gate->open();
    worker.quiesce();
}

TEST(DrainStress, ConcurrentDrainAndCheckpointTrafficStaysConsistent)
{
    // The TSAN-lane centerpiece, modeled on the MemBackend hammer test:
    // several "ranks" pound one shared backend with checkpoint writes,
    // reads and prefix scans while one shared async drain streams their
    // flush jobs and they interleave waits, quiesces and prunes. Every
    // invariant is checked under load; TSAN checks the locking.
    const auto backend = storage::makeBackend(Kind::Mem);
    DrainWorker drain(DrainMode::Async, 4);
    constexpr int kThreads = 6, kCkpts = 24;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const std::string cache =
                "/hammer/job" + std::to_string(t) + "/cache";
            const std::string pfs =
                "/hammer/job" + std::to_string(t) + "/pfs";
            DrainWorker::Ticket last = 0;
            for (int i = 0; i < kCkpts; ++i) {
                const std::string name = "/ckpt" + std::to_string(i);
                const std::string payload =
                    "job" + std::to_string(t) + "#" + std::to_string(i);
                // "L1": the rank writes its cache copy itself.
                backend->writeAtomic(cache + name, blobOf(payload));
                // "L4": the drain streams it to the PFS tree, then a
                // queued prune drops the previous PFS object (FIFO
                // keeps the write-then-remove order).
                Backend *raw = backend.get();
                last = drain.enqueue(
                    [raw, cache, pfs, name, payload]() -> std::uint64_t {
                        const storage::Blob blob = raw->read(cache + name);
                        EXPECT_TRUE(blob);
                        raw->write(pfs + name, blob);
                        return blob.size();
                    });
                if (i > 0) {
                    const std::string prev =
                        "/ckpt" + std::to_string(i - 1);
                    drain.enqueue([raw, pfs, prev]() -> std::uint64_t {
                        raw->remove(pfs + prev);
                        return 0;
                    });
                }
                if (i % 5 == 0) {
                    EXPECT_GT(drain.wait(last), 0u);
                }
                if (i % 7 == 0)
                    drain.quiesce();
                // Concurrent prefix traffic against everyone's trees.
                for (const auto &n : backend->listDir(cache))
                    ASSERT_TRUE(backend->read(cache + "/" + n));
            }
            drain.wait(last);
            // Restart read: only the newest PFS object survives.
            EXPECT_EQ(text(*backend,
                           pfs + "/ckpt" + std::to_string(kCkpts - 1)),
                      "job" + std::to_string(t) + "#" +
                          std::to_string(kCkpts - 1));
        });
    }
    for (auto &thread : threads)
        thread.join();
    drain.quiesce();
    for (int t = 0; t < kThreads; ++t) {
        const std::string pfs = "/hammer/job" + std::to_string(t) +
                                "/pfs";
        EXPECT_EQ(backend->listDir(pfs).size(), 1u)
            << "queued prunes must have dropped all but the newest";
    }
}
