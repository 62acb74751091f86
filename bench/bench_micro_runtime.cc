/**
 * @file
 * Micro-benchmarks of the simulator substrate itself (wall-clock cost,
 * not virtual time): fiber switches, point-to-point messaging,
 * collectives across rank counts. These bound how fast the figure
 * benches can run.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/simmpi/fiber.hh"
#include "src/simmpi/proc.hh"
#include "src/simmpi/runtime.hh"

using namespace match::simmpi;

namespace
{
/** Heap allocations observed process-wide; the messaging and collective
 *  rows report an allocsPerEvent counter over their steady-state window
 *  (see SteadyTotals). */
std::atomic<std::uint64_t> g_allocs{0};

std::uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}
} // namespace

// GCC's -Wmismatched-new-delete flags the free() inside the replaced
// operator delete; malloc/free is the standard implementation for
// replacement allocation functions, so the warning is a false
// positive here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    if (posix_memalign(&p, static_cast<std::size_t>(align),
                       size ? size : 1) == 0)
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop

namespace
{

void
BM_FiberSwitch(benchmark::State &state)
{
    bool stop = false;
    Fiber fiber([&stop] {
        while (!stop)
            Fiber::current()->yield();
    });
    for (auto _ : state) {
        fiber.setState(Fiber::State::Runnable);
        fiber.resume();
    }
    stop = true;
    fiber.setState(Fiber::State::Runnable);
    fiber.resume(); // run to completion so the fiber unwinds cleanly
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FiberSwitch);

/**
 * One job's steady-state window: opened by the first rank to finish
 * warming up, closed by the first rank to leave its loop. A finishing
 * fiber returns to the scheduler by design, so the window must end
 * before any fiber does; warm-up fills the pools (fiber stacks,
 * payloads, message rings, the ready queue).
 */
class SteadyWindow
{
  public:
    explicit SteadyWindow(const Runtime &runtime) : runtime_(runtime) {}

    void
    open()
    {
        if (opened_)
            return;
        opened_ = true;
        allocs_ = allocCount();
        trips_ = runtime_.schedulerTrips();
    }

    void
    close()
    {
        if (closed_)
            return;
        closed_ = true;
        allocs_ = allocCount() - allocs_;
        trips_ = runtime_.schedulerTrips() - trips_;
    }

    std::uint64_t allocs() const { return allocs_; }
    std::uint64_t trips() const { return trips_; }

  private:
    const Runtime &runtime_;
    bool opened_ = false;
    bool closed_ = false;
    std::uint64_t allocs_ = 0;
    std::uint64_t trips_ = 0;
};

/** Steady-state counters summed over a row's jobs. allocsPerEvent and
 *  schedulerTripsPerEvent are expected to be 0 (heap allocations;
 *  returns to the scheduler, which direct handoff avoids) — the perf
 *  guard fails the build otherwise. */
struct SteadyTotals
{
    std::uint64_t allocs = 0;
    std::uint64_t trips = 0;
    std::uint64_t events = 0;

    void
    add(const SteadyWindow &window, std::uint64_t window_events)
    {
        allocs += window.allocs();
        trips += window.trips();
        events += window_events;
    }

    void
    report(benchmark::State &state) const
    {
        const double n = events ? static_cast<double>(events) : 1.0;
        state.counters["allocsPerEvent"] =
            benchmark::Counter(static_cast<double>(allocs) / n);
        state.counters["schedulerTripsPerEvent"] =
            benchmark::Counter(static_cast<double>(trips) / n);
    }
};

void
BM_PingPong(benchmark::State &state)
{
    const std::size_t bytes = static_cast<std::size_t>(state.range(0));
    constexpr int kIters = 100, kWarmup = 10;
    SteadyTotals totals;
    for (auto _ : state) {
        Runtime runtime;
        SteadyWindow window(runtime);
        JobOptions opts;
        opts.nprocs = 2;
        runtime.run(opts, [&](Proc &proc) {
            std::vector<std::uint8_t> buf(bytes, 1);
            for (int i = 0; i < kIters; ++i) {
                if (i == kWarmup)
                    window.open();
                if (proc.rank() == 0) {
                    proc.send(1, 0, buf.data(), buf.size());
                    proc.recv(1, 1, buf.data(), buf.size());
                } else {
                    proc.recv(0, 0, buf.data(), buf.size());
                    proc.send(0, 1, buf.data(), buf.size());
                }
            }
            // Rank 1 leaves first, after its last send: both ranks
            // have moved every steady-state message by then.
            window.close();
        });
        totals.add(window, 2 * (kIters - kWarmup));
    }
    state.SetItemsProcessed(state.iterations() * 2 * kIters);
    totals.report(state);
}
BENCHMARK(BM_PingPong)->Arg(8)->Arg(1 << 10)->Arg(64 << 10);

/** Allreduce loop over state.range(0) ranks. Skewed ranks sleep a
 *  rank- and iteration-dependent time before each allreduce, so they
 *  arrive (and are woken) out of rank order: the ready queue's heap
 *  side instead of its sorted run. */
void
allreduceLoop(benchmark::State &state, bool skewed)
{
    const int procs = static_cast<int>(state.range(0));
    constexpr int kIters = 20, kWarmup = 4;
    SteadyTotals totals;
    for (auto _ : state) {
        Runtime runtime;
        SteadyWindow window(runtime);
        JobOptions opts;
        opts.nprocs = procs;
        runtime.run(opts, [&](Proc &proc) {
            double acc = proc.rank();
            for (int i = 0; i < kIters; ++i) {
                if (i == kWarmup)
                    window.open();
                if (skewed)
                    proc.sleepFor(1e-6 * ((proc.rank() * 7 + i) % 13));
                acc = proc.allreduce(acc) / procs;
            }
            benchmark::DoNotOptimize(acc);
            // The first rank out left the last allreduce: every rank
            // has joined every steady-state collective.
            window.close();
        });
        totals.add(window, kIters - kWarmup);
    }
    state.SetItemsProcessed(state.iterations() * kIters * procs);
    totals.report(state);
}

void
BM_Allreduce(benchmark::State &state)
{
    allreduceLoop(state, false);
}
BENCHMARK(BM_Allreduce)->Arg(8)->Arg(64)->Arg(512);

void
BM_AllreduceSkewed(benchmark::State &state)
{
    allreduceLoop(state, true);
}
BENCHMARK(BM_AllreduceSkewed)->Arg(512);

void
BM_JobSpinUp(benchmark::State &state)
{
    const int procs = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Runtime runtime;
        JobOptions opts;
        opts.nprocs = procs;
        runtime.run(opts, [&](Proc &proc) { proc.barrier(); });
    }
    state.SetItemsProcessed(state.iterations() * procs);
}
BENCHMARK(BM_JobSpinUp)->Arg(64)->Arg(512);

} // namespace

BENCHMARK_MAIN();
