/**
 * @file
 * SCR under storage-tier faults: a persistent PFS outage skips the
 * prefix flush (no flushed markers, restart falls back to the cache),
 * transient PFS faults ride out on the flush job's retry loop, and an
 * exhausted cache tier abandons the dataset through SCR's own validity
 * vote instead of dying.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include "src/ft/design.hh"
#include "src/scr/scr.hh"
#include "src/simmpi/runtime.hh"
#include "src/storage/drain.hh"
#include "src/storage/faults.hh"
#include "tests/core/identical.hh"

namespace fs = std::filesystem;
using namespace match;
using namespace match::scr;
using match::simmpi::JobOptions;
using match::simmpi::Proc;
using match::simmpi::Runtime;
using match::storage::FaultKind;
using match::storage::FaultWindow;
using match::storage::PathClass;

namespace
{

std::shared_ptr<storage::FaultInjectingBackend>
faultyBackend(std::vector<FaultWindow> windows, int retry_limit = 3)
{
    storage::StorageFaultPlan plan;
    plan.windows = std::move(windows);
    return std::make_shared<storage::FaultInjectingBackend>(
        storage::makeBackend(storage::Kind::Disk), std::move(plan),
        retry_limit);
}

ScrConfig
faultConfig(const std::string &job,
            std::shared_ptr<storage::Backend> backend)
{
    ScrConfig cfg;
    cfg.cacheDir =
        (fs::temp_directory_path() / "match-scr-fault-tests/cache")
            .string();
    cfg.prefixDir =
        (fs::temp_directory_path() / "match-scr-fault-tests/prefix")
            .string();
    cfg.jobId = job;
    cfg.scheme = Redundancy::Single;
    cfg.flushEvery = 1;
    cfg.backend = std::move(backend);
    return cfg;
}

JobOptions
options(int nprocs)
{
    JobOptions opts;
    opts.nprocs = nprocs;
    return opts;
}

/** The application's own checkpoint write: through the backend, which
 *  creates the routed dataset directory on first write. */
void
writeState(const std::string &path, const std::vector<double> &state)
{
    storage::sharedDiskBackend().write(
        path, storage::BlobPool::local().copyOf(
                  state.data(), state.size() * sizeof(double)));
}

} // namespace

TEST(ScrFaults, PersistentPfsOutageSkipsFlushAndRestartUsesCache)
{
    auto backend = faultyBackend(
        {{1, 1000, PathClass::Pfs, FaultKind::WriteFault, 999}});
    auto config = faultConfig("pfs-outage", backend);
    Scr::purge(config);
    const int procs = 4;

    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, config);
        std::vector<double> state(32, proc.rank() + 1.5);
        scr.startCheckpoint();
        writeState(scr.routeFile("state.bin"), state);
        scr.completeCheckpoint(true);
        // The flush was skipped with a structured degrade record, not
        // attempted and died.
        ASSERT_EQ(scr.degradeEvents().size(), 1u);
        EXPECT_EQ(scr.degradeEvents()[0].fromLevel, 4);
        EXPECT_EQ(scr.degradeEvents()[0].cls, PathClass::Pfs);
        scr.finalize();
    });

    // No flushed markers: the dataset never poses as fetchable from
    // the prefix.
    for (int r = 0; r < procs; ++r)
        EXPECT_FALSE(backend->exists(
            Scr::flushedMarkerFile(config, 1, r)));

    // The cache copy is intact, so restart succeeds from it.
    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, config);
        ASSERT_TRUE(scr.haveRestart());
        scr.startRestart();
        std::vector<double> state(32, 0.0);
        std::ifstream in(scr.routeRestartFile("state.bin"),
                         std::ios::binary);
        ASSERT_TRUE(static_cast<bool>(in));
        in.read(reinterpret_cast<char *>(state.data()),
                static_cast<std::streamsize>(state.size() *
                                             sizeof(double)));
        ASSERT_TRUE(static_cast<bool>(in));
        EXPECT_DOUBLE_EQ(state[0], proc.rank() + 1.5);
        scr.completeRestart(true);
    });
    Scr::purge(config);
}

TEST(ScrFaults, TransientPfsFaultFlushStillLands)
{
    // Two strikes per path against a retry budget of three: the flush
    // job's bounded retry loop rides the window out and every flushed
    // marker lands.
    auto backend = faultyBackend(
        {{1, 1000, PathClass::Pfs, FaultKind::WriteFault, 2}}, 3);
    auto config = faultConfig("pfs-transient", backend);
    Scr::purge(config);
    const int procs = 4;

    const storage::FaultStats before = storage::faultGlobalStats();
    Runtime rt;
    rt.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, config);
        std::vector<double> state(32, proc.rank() * 2.0);
        scr.startCheckpoint();
        writeState(scr.routeFile("state.bin"), state);
        scr.completeCheckpoint(true);
        EXPECT_TRUE(scr.degradeEvents().empty());
        scr.finalize();
    });
    const storage::FaultStats after = storage::faultGlobalStats();

    EXPECT_EQ(after.failedFlushes, before.failedFlushes);
    EXPECT_GT(after.injectedWriteFaults, before.injectedWriteFaults);
    for (int r = 0; r < procs; ++r)
        EXPECT_TRUE(backend->exists(
            Scr::flushedMarkerFile(config, 1, r)));
    Scr::purge(config);
}

TEST(ScrFaults, OverlappingCopyWindowsAbandonDatasetNotFatal)
{
    // Partner redundancy copies cache -> cache, and Backend::copy
    // spends ONE retry budget across its read and write legs. A local
    // read window and a local write window that are each individually
    // rideable (2 <= 3) compound to 4 consecutive copy failures: the
    // pre-flight must see the combined budget as exhausted and abandon
    // the dataset through the validity vote — the old per-side checks
    // let the copy proceed and fatal on a file that provably existed.
    auto backend = faultyBackend(
        {{1, 1, PathClass::Local, FaultKind::ReadFault, 2},
         {1, 1, PathClass::Local, FaultKind::WriteFault, 2}},
        3);
    auto config = faultConfig("copy-overlap", backend);
    config.scheme = Redundancy::Partner;
    config.flushEvery = 0;
    Scr::purge(config);
    const int procs = 4;

    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, config);
        std::vector<double> state(16, 3.0);
        scr.startCheckpoint();
        writeState(scr.routeFile("state.bin"), state);
        scr.completeCheckpoint(true);
        ASSERT_EQ(scr.degradeEvents().size(), 1u);
        EXPECT_EQ(scr.degradeEvents()[0].toLevel, 0);
        EXPECT_EQ(scr.degradeEvents()[0].cls, PathClass::Local);
        scr.finalize();
    });

    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, config);
        EXPECT_FALSE(scr.haveRestart());
    });
    Scr::purge(config);
}

TEST(ScrFaults, ExhaustedCacheTierAbandonsDataset)
{
    auto backend = faultyBackend(
        {{1, 1, PathClass::Local, FaultKind::Enospc, 1}});
    auto config = faultConfig("cache-enospc", backend);
    config.flushEvery = 0;
    Scr::purge(config);
    const int procs = 4;

    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, config);
        std::vector<double> state(16, 1.0);
        scr.startCheckpoint();
        writeState(scr.routeFile("state.bin"), state);
        scr.completeCheckpoint(true);
        // Cache tier out past the retry budget: the dataset was
        // abandoned via the validity vote (toLevel 0), no commit.
        ASSERT_EQ(scr.degradeEvents().size(), 1u);
        EXPECT_EQ(scr.degradeEvents()[0].toLevel, 0);
        EXPECT_EQ(scr.degradeEvents()[0].cls, PathClass::Local);
        scr.finalize();
    });

    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, config);
        EXPECT_FALSE(scr.haveRestart());
    });
    Scr::purge(config);
}

namespace
{

/** The per-run observables the virtual-time pin compares. */
struct PinnedRun
{
    ft::Breakdown breakdown;
    std::uint64_t shippedBytes = 0; ///< drainGlobalShippedBytes() diff
    std::size_t degradeEvents = 0;  ///< summed over ranks, incarnations
};

/**
 * One SCR job under REINIT with one injected failure, against a
 * fault-injecting MemBackend: a transient local read window (priced
 * sim-thread retries on XOR parity reads, partner copies, sidecar and
 * restart verification reads), a transient PFS write window on the
 * second dataset's flush (priced re-staging, wall-clock drain retries)
 * and a persistent PFS write window on the fourth (skipped flush,
 * degrade events). Compressed flushes and SDC sidecars are on, and
 * finalize() prices the drain channel.
 */
PinnedRun
runPinnedScrJob(Redundancy scheme, const std::string &job)
{
    storage::StorageFaultPlan plan;
    plan.windows = {
        {1, 5, PathClass::Local, FaultKind::ReadFault, 2},
        {2, 2, PathClass::Pfs, FaultKind::WriteFault, 2},
        {4, 4, PathClass::Pfs, FaultKind::WriteFault, 99},
    };
    // The application's own file I/O bypasses the decorator: the pin
    // covers SCR's traffic, not a test app without a retry policy.
    const std::shared_ptr<storage::Backend> mem =
        storage::makeBackend(storage::Kind::Mem);
    auto config = faultConfig(
        job, std::make_shared<storage::FaultInjectingBackend>(
                 mem, std::move(plan), 3));
    config.scheme = scheme;
    config.groupSize = 4;
    config.checkpointInterval = 3;
    config.flushEvery = 2;
    config.transform = storage::TransformKind::Compress;
    config.sdcChecks = true;

    ft::DesignRunConfig drc;
    drc.design = ft::Design::ReinitFti;
    drc.nprocs = 8;
    drc.failureEvents = {{13, 5}};

    PinnedRun out;
    const std::uint64_t shipped_before = storage::drainGlobalShippedBytes();
    out.breakdown = ft::runDesignRaw(drc, [&](Proc &proc) {
        Scr scr(proc, config);
        std::vector<double> state(2048, 0.0);
        int iter = 0;
        if (scr.haveRestart()) {
            scr.startRestart();
            const storage::Blob file =
                mem->read(scr.routeRestartFile("state.bin"));
            ASSERT_TRUE(file);
            ASSERT_GE(file.size(), state.size() * sizeof(double));
            std::memcpy(state.data(), file.data(),
                        state.size() * sizeof(double));
            scr.completeRestart(true);
            iter = static_cast<int>(state[0]);
        }
        for (; iter < 20; ++iter) {
            proc.iterationPoint(iter);
            if (scr.needCheckpoint(iter)) {
                scr.startCheckpoint();
                // Mostly-repeating content, so the compress stage
                // ships fewer bytes than it stages.
                state[0] = iter;
                for (std::size_t i = 1; i < state.size(); ++i)
                    state[i] = static_cast<double>(
                        (proc.rank() + 1) * (i % 64 == 0 ? iter : 1));
                mem->write(scr.routeFile("state.bin"),
                           storage::BlobPool::local().copyOf(
                               state.data(),
                               state.size() * sizeof(double)));
                const std::size_t degrades = scr.degradeEvents().size();
                scr.completeCheckpoint(true);
                // Counted here: the failed incarnation never finalizes.
                out.degradeEvents += scr.degradeEvents().size() - degrades;
            }
            proc.compute(1e6);
            proc.allreduce(1.0);
        }
        scr.finalize();
    });
    out.shippedBytes = storage::drainGlobalShippedBytes() - shipped_before;
    return out;
}

} // namespace

TEST(ScrFaults, VirtualTimesArePinned)
{
    // Bit-exact fixture: no grid digest or perfbench cell runs SCR, so
    // this row is what notices a change in SCR's priced I/O (retry
    // backoff, transient-strike and latency pricing, drain channel,
    // restart reads). Any drift here is a simulation-visible change.
    struct Golden
    {
        Redundancy scheme;
        double app, ckptW, ckptR, rec;
        std::uint64_t shipped;
        std::size_t degrades;
    };
    const Golden fixtures[] = {
        {Redundancy::Partner, 0.0058238879000001246, 1.3405040936000001,
         0.0010109226666666666, 0.46181481369999994, 160343, 8},
        {Redundancy::Xor, 0.0058238879000021646, 1.9406321880000017,
         0.061035498666666681, 0.46181481369999994, 160343, 8},
    };
    for (const Golden &g : fixtures) {
        SCOPED_TRACE(redundancyName(g.scheme));
        const PinnedRun run = runPinnedScrJob(
            g.scheme, std::string("pin-") + redundancyName(g.scheme));
        const ft::Breakdown &b = run.breakdown;
        EXPECT_EQ(core::bitsOf(b.application), core::bitsOf(g.app));
        EXPECT_EQ(core::bitsOf(b.ckptWrite), core::bitsOf(g.ckptW));
        EXPECT_EQ(core::bitsOf(b.ckptRead), core::bitsOf(g.ckptR));
        EXPECT_EQ(core::bitsOf(b.recovery), core::bitsOf(g.rec));
        EXPECT_EQ(b.recoveries, 1);
        EXPECT_TRUE(b.failureFired);
        EXPECT_EQ(run.shippedBytes, g.shipped);
        EXPECT_EQ(run.degradeEvents, g.degrades);
    }
}
