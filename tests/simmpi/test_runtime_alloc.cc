/**
 * @file
 * Allocation discipline of the simulated MPI runtime's hot path.
 *
 * The event loop, point-to-point messaging and collectives are required
 * to run without touching the heap once warm: fiber stacks come from a
 * thread-local pool, payloads from the runtime's payload pool, mailbox
 * slots from per-rank message rings, and the ready queue reuses its
 * backing store. This binary overrides the global allocation functions
 * with counting versions and asserts a zero delta over a steady-state
 * window; a regression that sneaks a per-message allocation back in
 * fails here before it shows up as a bench_micro_runtime slowdown.
 *
 * The multi-threaded test doubles as the TSAN lane's coverage of the
 * thread-local stack pool and pooled payload recycling under
 * concurrent Runtime instances (one per thread, as GridRunner runs
 * them).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "src/simmpi/launcher.hh"
#include "src/simmpi/proc.hh"
#include "src/simmpi/runtime.hh"
#include "tests/alloc_counter.hh"

using namespace match::simmpi;

namespace
{

JobOptions
options(int nprocs)
{
    JobOptions opts;
    opts.nprocs = nprocs;
    opts.policy = ErrorPolicy::Fatal;
    return opts;
}

} // namespace

TEST(SimMpiRuntimeAlloc, SteadyStatePingPongIsAllocationFree)
{
    Runtime rt;
    // Written only by rank 0 inside the cooperative scheduler; read
    // after run() returns.
    std::uint64_t delta = ~0ull;
    rt.run(options(2), [&](Proc &proc) {
        std::uint64_t payload[128] = {};
        auto pingpong = [&](int iters) {
            for (int i = 0; i < iters; ++i) {
                if (proc.rank() == 0) {
                    proc.send(1, 0, payload, sizeof(payload));
                    proc.recv(1, 1, payload, sizeof(payload));
                } else {
                    proc.recv(0, 0, payload, sizeof(payload));
                    proc.send(0, 1, payload, sizeof(payload));
                }
            }
        };
        // Warm the pools: fiber stacks, payload pool, message rings,
        // and the ready queue all reach steady size here.
        pingpong(64);
        const std::uint64_t before = allocCount();
        pingpong(256);
        if (proc.rank() == 0)
            delta = allocCount() - before;
    });
    EXPECT_EQ(delta, 0u) << "per-message heap traffic crept back into "
                            "the send/recv hot path";
}

TEST(SimMpiRuntimeAlloc, SteadyStateCollectivesAreAllocationFree)
{
    // Every collective kind shares the slots' flat contribution and
    // result buffers; once each has run, none may touch the heap.
    constexpr int kProcs = 8;
    Runtime rt;
    std::uint64_t delta = ~0ull;
    double sum = 0.0;
    bool results_ok = true;
    rt.run(options(kProcs), [&](Proc &proc) {
        const int me = proc.rank();
        std::int64_t row[4] = {};
        std::int64_t all_rows[4 * kProcs] = {};
        std::int64_t gathered[2 * kProcs] = {};
        auto round = [&](int iters) {
            double acc = 0.0;
            for (int i = 0; i < iters; ++i) {
                acc = proc.allreduce(static_cast<double>(me));
                proc.barrier();
                for (int k = 0; k < 4; ++k)
                    row[k] = me * 4 + k + i;
                proc.allgather(row, sizeof(row), all_rows);
                proc.gather(kProcs - 1, row, 2 * sizeof(std::int64_t),
                            gathered);
                std::int64_t token = me == 3 ? 1000 + i : -1;
                proc.bcast(3, &token, sizeof(token));
                const std::int64_t prefix = proc.exscan(me + 1);
                bool ok = token == 1000 + i && prefix == me * (me + 1) / 2;
                for (int r = 0; r < kProcs; ++r) {
                    for (int k = 0; k < 4; ++k)
                        ok = ok && all_rows[4 * r + k] == r * 4 + k + i;
                    if (me == kProcs - 1)
                        ok = ok && gathered[2 * r] == r * 4 + i &&
                             gathered[2 * r + 1] == r * 4 + 1 + i;
                }
                results_ok = results_ok && ok;
            }
            return acc;
        };
        round(16); // warm-up
        const std::uint64_t before = allocCount();
        const double acc = round(64);
        if (me == 0) {
            delta = allocCount() - before;
            sum = acc;
        }
    });
    EXPECT_EQ(delta, 0u) << "per-collective heap traffic crept back in";
    EXPECT_DOUBLE_EQ(sum, 0.0 + 1 + 2 + 3 + 4 + 5 + 6 + 7);
    EXPECT_TRUE(results_ok);
}

TEST(SimMpiRuntimeAlloc, ConcurrentRuntimesRecyclePooledState)
{
    // GridRunner's shape: several worker threads, each running a
    // sequence of single-threaded Runtime jobs. The thread-local fiber
    // stack pool and the per-runtime payload pools must neither race
    // (TSAN lane) nor corrupt results when recycled across jobs.
    constexpr int kThreads = 4;
    constexpr int kJobsPerThread = 4;
    constexpr int kProcs = 8;
    std::vector<std::int64_t> totals(kThreads, -1);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &totals] {
            std::int64_t acc = 0;
            for (int job = 0; job < kJobsPerThread; ++job) {
                Runtime rt;
                rt.run(options(kProcs), [&](Proc &proc) {
                    int token = proc.rank();
                    const int right = (proc.rank() + 1) % kProcs;
                    const int left =
                        (proc.rank() + kProcs - 1) % kProcs;
                    for (int i = 0; i < 32; ++i) {
                        proc.send(right, 0, &token, sizeof(token));
                        proc.recv(left, 0, &token, sizeof(token));
                    }
                    // After kProcs full rotations the token returns to
                    // its origin rank (32 = 4 * 8 hops).
                    const std::int64_t check = proc.allreduceInt(token);
                    if (proc.rank() == 0)
                        acc += check;
                });
            }
            totals[t] = acc;
        });
    }
    for (auto &thread : threads)
        thread.join();
    const std::int64_t expected =
        kJobsPerThread * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7);
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(totals[t], expected) << "thread " << t;
}
