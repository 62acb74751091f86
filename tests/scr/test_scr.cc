/**
 * @file
 * SCR library tests: the route-file programming model, redundancy
 * schemes (SINGLE/PARTNER/XOR) and their loss guarantees, flush-to-
 * prefix, interval policy, and the end-to-end SCR + Reinit design.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "src/ft/design.hh"
#include "src/scr/scr.hh"
#include "src/simmpi/runtime.hh"

namespace fs = std::filesystem;
using namespace match;
using namespace match::scr;
using match::simmpi::JobOptions;
using match::simmpi::Proc;
using match::simmpi::Runtime;

namespace
{

ScrConfig
testConfig(const std::string &job, Redundancy scheme)
{
    ScrConfig cfg;
    cfg.cacheDir =
        (fs::temp_directory_path() / "match-scr-tests/cache").string();
    cfg.prefixDir =
        (fs::temp_directory_path() / "match-scr-tests/prefix").string();
    cfg.jobId = job;
    cfg.scheme = scheme;
    cfg.groupSize = 4;
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

bool
readState(const std::string &path, std::vector<double> &state)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    in.read(reinterpret_cast<char *>(state.data()),
            static_cast<std::streamsize>(state.size() * sizeof(double)));
    return static_cast<bool>(in);
}

} // namespace

class ScrSchemes : public ::testing::TestWithParam<Redundancy>
{
};

TEST_P(ScrSchemes, CheckpointRestartRoundTrip)
{
    const auto cfg = testConfig(
        "rt-" + std::string(redundancyName(GetParam())), GetParam());
    Scr::purge(cfg);
    const int procs = 8;

    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        EXPECT_FALSE(scr.haveRestart());
        std::vector<double> state(64, proc.rank() + 0.5);
        scr.startCheckpoint();
        writeState(scr.routeFile("state.bin"), state);
        scr.completeCheckpoint(true);
        scr.finalize();
    });

    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        ASSERT_TRUE(scr.haveRestart());
        scr.startRestart();
        std::vector<double> state(64, 0.0);
        ASSERT_TRUE(
            readState(scr.routeRestartFile("state.bin"), state));
        scr.completeRestart(true);
        for (double v : state)
            EXPECT_DOUBLE_EQ(v, proc.rank() + 0.5);
    });
    Scr::purge(cfg);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ScrSchemes,
                         ::testing::Values(Redundancy::Single,
                                           Redundancy::Partner,
                                           Redundancy::Xor));

TEST(Scr, PartnerSurvivesOneNodeLoss)
{
    const auto cfg = testConfig("partner-loss", Redundancy::Partner);
    Scr::purge(cfg);
    const int procs = 6;
    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(32, proc.rank() * 3.0);
        scr.startCheckpoint();
        writeState(scr.routeFile("s.bin"), state);
        scr.completeCheckpoint(true);
    });
    // Lose rank 2's cache copy.
    fs::remove_all(Scr::datasetDir(cfg, 1, 2));

    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        ASSERT_TRUE(scr.haveRestart());
        scr.startRestart();
        std::vector<double> state(32, 0.0);
        ASSERT_TRUE(readState(scr.routeRestartFile("s.bin"), state));
        EXPECT_DOUBLE_EQ(state[0], proc.rank() * 3.0);
        scr.completeRestart(true);
    });
    Scr::purge(cfg);
}

TEST(Scr, XorSurvivesOneLossPerGroup)
{
    const auto cfg = testConfig("xor-loss", Redundancy::Xor);
    Scr::purge(cfg);
    const int procs = 8; // two XOR groups of 4
    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(48, proc.rank() + 1.25);
        scr.startCheckpoint();
        writeState(scr.routeFile("s.bin"), state);
        scr.completeCheckpoint(true);
    });
    // Lose one member per group: ranks 1 and 6.
    fs::remove_all(Scr::datasetDir(cfg, 1, 1));
    fs::remove_all(Scr::datasetDir(cfg, 1, 6));

    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        ASSERT_TRUE(scr.haveRestart());
        scr.startRestart();
        std::vector<double> state(48, 0.0);
        ASSERT_TRUE(readState(scr.routeRestartFile("s.bin"), state));
        for (double v : state)
            EXPECT_DOUBLE_EQ(v, proc.rank() + 1.25);
        scr.completeRestart(true);
    });
    Scr::purge(cfg);
}

TEST(ScrDeath, LostFileWithNoTierLeftIsFatalPerScheme)
{
    // Without sdcChecks, a restart file no tier can produce is fatal,
    // with one message per redundancy scheme. Each row deletes rank 0's
    // cache copy plus whatever that scheme would rebuild it from; no
    // dataset was flushed, so the prefix fetch fails too.
    struct Row
    {
        Redundancy scheme;
        std::vector<std::string> lost; ///< dirs under dataset 1
        const char *message;
    };
    const Row rows[] = {
        {Redundancy::Single, {"rank0"}, "SCR SINGLE cannot rebuild"},
        {Redundancy::Partner, {"rank0", "rank1-partner0"},
         "SCR PARTNER rebuild failed for rank 0: partner copy lost too"},
        {Redundancy::Xor, {"rank0", "rank1"},
         "SCR XOR rebuild failed: two losses"},
    };
    for (const Row &row : rows) {
        const std::string scheme = redundancyName(row.scheme);
        const auto cfg = testConfig("loss-" + scheme, row.scheme);
        Scr::purge(cfg);
        {
            Runtime rt;
            rt.run(options(2), [&](Proc &proc) {
                Scr scr(proc, cfg);
                std::vector<double> state(8, 1.0);
                scr.startCheckpoint();
                writeState(scr.routeFile("s.bin"), state);
                scr.completeCheckpoint(true);
            });
        }
        const fs::path dataset =
            fs::path(Scr::datasetDir(cfg, 1, 0)).parent_path();
        for (const std::string &dir : row.lost)
            ASSERT_TRUE(fs::remove_all(dataset / dir) > 0) << dir;
        EXPECT_EXIT(
            {
                Runtime rt;
                rt.run(options(2), [&](Proc &proc) {
                    Scr scr(proc, cfg);
                    scr.startRestart();
                    scr.routeRestartFile("s.bin");
                });
            },
            ::testing::ExitedWithCode(1), row.message)
            << scheme;
        Scr::purge(cfg);
    }
}

TEST(Scr, NeedCheckpointFollowsInterval)
{
    auto cfg = testConfig("interval", Redundancy::Single);
    cfg.checkpointInterval = 7;
    Scr::purge(cfg);
    Runtime rt;
    rt.run(options(1), [&](Proc &proc) {
        Scr scr(proc, cfg);
        EXPECT_FALSE(scr.needCheckpoint(0));
        EXPECT_FALSE(scr.needCheckpoint(6));
        EXPECT_TRUE(scr.needCheckpoint(7));
        EXPECT_FALSE(scr.needCheckpoint(8));
        EXPECT_TRUE(scr.needCheckpoint(14));
    });
    Scr::purge(cfg);
}

TEST(Scr, InvalidCheckpointIsNotCommitted)
{
    const auto cfg = testConfig("invalid", Redundancy::Single);
    Scr::purge(cfg);
    Runtime rt;
    rt.run(options(2), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(8, 2.0);
        scr.startCheckpoint();
        writeState(scr.routeFile("s.bin"), state);
        // Rank 1 reports failure: nobody commits.
        scr.completeCheckpoint(proc.rank() != 1);
    });
    Runtime rt2;
    rt2.run(options(2), [&](Proc &proc) {
        Scr scr(proc, cfg);
        EXPECT_FALSE(scr.haveRestart());
    });
    Scr::purge(cfg);
}

TEST(Scr, FlushCopiesDatasetToPrefix)
{
    auto cfg = testConfig("flush", Redundancy::Single);
    cfg.flushEvery = 1;
    Scr::purge(cfg);
    Runtime rt;
    rt.run(options(2), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(8, 4.0);
        scr.startCheckpoint();
        writeState(scr.routeFile("s.bin"), state);
        scr.completeCheckpoint(true);
    });
    EXPECT_TRUE(fs::exists(cfg.prefixDir + "/" + cfg.jobId +
                           "/dataset1/rank0/s.bin"));
    Scr::purge(cfg);
}

TEST(Scr, FlushRestartFetchesFromPrefixAfterCacheLoss)
{
    // The flushEvery path must make the dataset restartable from the
    // PFS alone: lose the whole node-local cache (every rank, markers
    // included) and the restart falls back to the flushed prefix copy.
    auto cfg = testConfig("flush-fetch", Redundancy::Single);
    cfg.flushEvery = 1;
    Scr::purge(cfg);
    const int procs = 2;
    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(16, proc.rank() + 0.25);
        scr.startCheckpoint();
        writeState(scr.routeFile("s.bin"), state);
        scr.completeCheckpoint(true);
        scr.finalize(); // drains the flush
    });
    fs::remove_all(cfg.cacheDir + "/" + cfg.jobId); // node cache dies

    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        ASSERT_TRUE(scr.haveRestart())
            << "flushed dataset must be discoverable from the prefix";
        scr.startRestart();
        std::vector<double> state(16, 0.0);
        ASSERT_TRUE(readState(scr.routeRestartFile("s.bin"), state));
        for (double v : state)
            EXPECT_DOUBLE_EQ(v, proc.rank() + 0.25);
        scr.completeRestart(true);
    });
    Scr::purge(cfg);
}

TEST(Scr, RestartWithPendingDrainFallsBackToLastDrainedDataset)
{
    // Cache loss while dataset 2's flush is still queued: the pending
    // flush fails softly (its source is gone), so no flushed marker
    // appears and the restart — which first quiesces the drain — falls
    // back to dataset 1, the newest fully drained copy. Exactly the
    // undrained dataset is lost.
    auto cfg = testConfig("flush-pending", Redundancy::Single);
    cfg.flushEvery = 1;
    cfg.drain =
        std::make_shared<storage::DrainWorker>(storage::DrainMode::Async);
    Scr::purge(cfg);

    // Park the drain behind a gate so dataset 2's flush stays queued.
    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    bool gate_open = false;
    auto openGate = [&] {
        std::lock_guard<std::mutex> lock(gate_mutex);
        gate_open = true;
        gate_cv.notify_all();
    };

    Runtime rt1;
    rt1.run(options(1), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(16, 1.0);
        scr.startCheckpoint();
        writeState(scr.routeFile("s.bin"), state);
        scr.completeCheckpoint(true);
        // Dataset 1 is flushed and drained; now gate the worker.
        cfg.drain->quiesce();
        cfg.drain->enqueue([&]() -> std::uint64_t {
            std::unique_lock<std::mutex> lock(gate_mutex);
            gate_cv.wait(lock, [&] { return gate_open; });
            return 0;
        });
        state.assign(16, 2.0);
        scr.startCheckpoint();
        writeState(scr.routeFile("s.bin"), state);
        scr.completeCheckpoint(true); // flush of dataset 2: queued
        // No finalize: the incarnation dies with the drain pending.
    });
    fs::remove_all(cfg.cacheDir + "/" + cfg.jobId); // node cache dies

    // The restart quiesces the drain before scanning; open the gate
    // from the side so the queued flush runs (and fails softly).
    std::thread opener([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        openGate();
    });
    Runtime rt2;
    rt2.run(options(1), [&](Proc &proc) {
        Scr scr(proc, cfg);
        ASSERT_TRUE(scr.haveRestart());
        scr.startRestart();
        std::vector<double> state(16, 0.0);
        ASSERT_TRUE(readState(scr.routeRestartFile("s.bin"), state));
        EXPECT_DOUBLE_EQ(state[0], 1.0)
            << "restart must fall back to drained dataset 1";
        scr.completeRestart(true);
    });
    opener.join();
    Scr::purge(cfg);
}

TEST(Scr, CrashedDrainLosesExactlyTheUndrainedFlush)
{
    // As above, but the node crash discards the queued flush outright
    // (DrainWorker::crash) instead of letting it fail on a lost source.
    auto cfg = testConfig("flush-crash", Redundancy::Single);
    cfg.flushEvery = 1;
    cfg.drain =
        std::make_shared<storage::DrainWorker>(storage::DrainMode::Async);
    Scr::purge(cfg);

    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    bool gate_open = false;

    Runtime rt1;
    rt1.run(options(1), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(8, 1.0);
        scr.startCheckpoint();
        writeState(scr.routeFile("s.bin"), state);
        scr.completeCheckpoint(true);
        cfg.drain->quiesce(); // dataset 1 fully drained
        cfg.drain->enqueue([&]() -> std::uint64_t {
            std::unique_lock<std::mutex> lock(gate_mutex);
            gate_cv.wait(lock, [&] { return gate_open; });
            return 0;
        });
        state.assign(8, 2.0);
        scr.startCheckpoint();
        writeState(scr.routeFile("s.bin"), state);
        scr.completeCheckpoint(true); // flush of dataset 2: queued
    });
    cfg.drain->crash(); // node dies before the queued flush drains
    EXPECT_GE(cfg.drain->discardedJobs(), 1u);
    {
        // Unpark the gate job (it may have started; crash never
        // discards a started job) so the drain can quiesce.
        std::lock_guard<std::mutex> lock(gate_mutex);
        gate_open = true;
        gate_cv.notify_all();
    }
    fs::remove_all(cfg.cacheDir + "/" + cfg.jobId);

    Runtime rt2;
    rt2.run(options(1), [&](Proc &proc) {
        Scr scr(proc, cfg);
        ASSERT_TRUE(scr.haveRestart());
        scr.startRestart();
        std::vector<double> state(8, 0.0);
        ASSERT_TRUE(readState(scr.routeRestartFile("s.bin"), state));
        EXPECT_DOUBLE_EQ(state[0], 1.0)
            << "the crashed flush must lose only dataset 2";
        scr.completeRestart(true);
    });
    Scr::purge(cfg);
}

TEST(Scr, OldDatasetsArePruned)
{
    const auto cfg = testConfig("prune", Redundancy::Single);
    Scr::purge(cfg);
    Runtime rt;
    rt.run(options(2), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(8, 0.0);
        for (int d = 1; d <= 3; ++d) {
            state.assign(8, static_cast<double>(d));
            scr.startCheckpoint();
            writeState(scr.routeFile("s.bin"), state);
            scr.completeCheckpoint(true);
        }
    });
    EXPECT_FALSE(fs::exists(Scr::datasetDir(cfg, 2, 0)));
    EXPECT_TRUE(fs::exists(Scr::datasetDir(cfg, 3, 0)));
    Scr::purge(cfg);
}

TEST(Scr, EndToEndUnderReinitDesign)
{
    // The paper's Section V-E extension: replace FTI with SCR under the
    // same MPI recovery; a failure must not change the computed answer.
    const auto cfg = testConfig("reinit-e2e", Redundancy::Xor);
    auto run = [&](bool inject) {
        Scr::purge(cfg);
        ft::DesignRunConfig drc;
        drc.design = ft::Design::ReinitFti;
        drc.nprocs = 8;
        if (inject)
            drc.failureEvents = {{13, 5}};
        std::vector<double> finals(8, 0.0);
        ft::runDesignRaw(drc, [&](Proc &proc) {
            Scr scr(proc, cfg);
            int iter = 0;
            double acc = 0.0;
            if (scr.haveRestart()) {
                scr.startRestart();
                std::vector<double> state(2);
                readState(scr.routeRestartFile("state.bin"), state);
                scr.completeRestart(true);
                iter = static_cast<int>(state[0]);
                acc = state[1];
            }
            for (; iter < 20; ++iter) {
                proc.iterationPoint(iter);
                if (scr.needCheckpoint(iter)) {
                    scr.startCheckpoint();
                    std::vector<double> state{
                        static_cast<double>(iter), acc};
                    writeState(scr.routeFile("state.bin"), state);
                    scr.completeCheckpoint(true);
                }
                acc += proc.allreduce(1.0);
            }
            scr.finalize();
            finals[proc.globalIndex()] = acc;
        });
        return finals;
    };
    const auto clean = run(false);
    const auto failed = run(true);
    for (int r = 0; r < 8; ++r) {
        EXPECT_DOUBLE_EQ(clean[r], 20 * 8.0);
        EXPECT_DOUBLE_EQ(clean[r], failed[r]) << r;
    }
    Scr::purge(cfg);
}

namespace
{

/** Flip one payload byte in every non-sidecar, non-marker file under
 *  `dir` (the datasets live in the shared DiskBackend, so the driver
 *  can rot them directly on disk). */
void
corruptDatasetTree(const fs::path &dir)
{
    for (const auto &entry : fs::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        if (name == "committed")
            continue;
        const std::string sidecar = ".crc32c";
        if (name.size() >= sidecar.size() &&
            name.compare(name.size() - sidecar.size(), sidecar.size(),
                         sidecar) == 0) {
            continue;
        }
        std::vector<char> bytes(fs::file_size(entry.path()));
        {
            std::ifstream in(entry.path(), std::ios::binary);
            in.read(bytes.data(),
                    static_cast<std::streamsize>(bytes.size()));
            ASSERT_TRUE(in) << entry.path();
        }
        bytes[bytes.size() / 2] ^= 0x5a;
        std::ofstream out(entry.path(),
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
}

} // namespace

TEST(ScrSdc, CorruptCacheCopyRebuiltFromPartner)
{
    auto cfg = testConfig("sdc-partner", Redundancy::Partner);
    cfg.sdcChecks = true;
    Scr::purge(cfg);
    const int procs = 8;
    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(64, proc.rank() + 0.25);
        scr.startCheckpoint();
        writeState(scr.routeFile("state.bin"), state);
        scr.completeCheckpoint(true);
        scr.finalize();
    });
    // Rot rank 3's cache copy only: the sidecar mismatch must be
    // detected and the intact partner copy restored instead.
    {
        const fs::path path =
            fs::path(Scr::datasetDir(cfg, 1, 3)) / "state.bin";
        std::vector<char> bytes(fs::file_size(path));
        std::ifstream in(path, std::ios::binary);
        in.read(bytes.data(),
                static_cast<std::streamsize>(bytes.size()));
        ASSERT_TRUE(in);
        in.close();
        bytes[8] ^= 0x5a;
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        ASSERT_TRUE(scr.haveRestart());
        scr.startRestart();
        std::vector<double> state(64, 0.0);
        ASSERT_TRUE(
            readState(scr.routeRestartFile("state.bin"), state));
        scr.completeRestart(true);
        for (const double v : state)
            ASSERT_EQ(v, proc.rank() + 0.25);
    });
    Scr::purge(cfg);
}

TEST(ScrSdc, CorruptNewestDatasetFallsBackToOlder)
{
    auto cfg = testConfig("sdc-fallback", Redundancy::Partner);
    cfg.sdcChecks = true;
    Scr::purge(cfg);
    const int procs = 8;
    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(64, proc.rank() + 1.5);
        scr.startCheckpoint();
        writeState(scr.routeFile("state.bin"), state);
        scr.completeCheckpoint(true);
        scr.finalize();
    });
    // Manufacture a newer committed dataset whose every copy — cache
    // AND partner — is rot (SCR prunes older datasets on commit, so
    // the driver clones dataset 1 instead of committing twice).
    const fs::path job = fs::path(cfg.cacheDir) / cfg.jobId;
    fs::copy(job / "dataset1", job / "dataset2",
             fs::copy_options::recursive);
    corruptDatasetTree(job / "dataset2");
    // Every rank's restart must reject dataset 2 at every tier and
    // restore dataset 1 — never rot, never fatal.
    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        ASSERT_TRUE(scr.haveRestart());
        scr.startRestart();
        std::vector<double> state(64, 0.0);
        ASSERT_TRUE(
            readState(scr.routeRestartFile("state.bin"), state));
        scr.completeRestart(true);
        for (const double v : state)
            ASSERT_EQ(v, proc.rank() + 1.5);
    });
    Scr::purge(cfg);
}

TEST(ScrSdcDeath, NoVerifiableDatasetIsFatalNotSilent)
{
    auto cfg = testConfig("sdc-exhausted", Redundancy::Single);
    cfg.sdcChecks = true;
    Scr::purge(cfg);
    const int procs = 4;
    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(16, 1.0);
        scr.startCheckpoint();
        writeState(scr.routeFile("state.bin"), state);
        scr.completeCheckpoint(true);
        scr.finalize();
    });
    corruptDatasetTree(fs::path(cfg.cacheDir) / cfg.jobId / "dataset1");
    // SINGLE has no redundancy tier, there is no flushed prefix copy
    // and no older dataset: the only correct outcome is an abort.
    EXPECT_EXIT(
        {
            Runtime rt2;
            rt2.run(options(procs), [&](Proc &proc) {
                Scr scr(proc, cfg);
                scr.startRestart();
                scr.routeRestartFile("state.bin");
            });
        },
        ::testing::ExitedWithCode(1),
        "no dataset passes SDC verification");
    Scr::purge(cfg);
}
