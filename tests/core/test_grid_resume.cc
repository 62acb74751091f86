/**
 * @file
 * Crash-safe grid execution tests: the journaled manifest, corrupt
 * result-cache recovery, poison-cell quarantine, the per-cell
 * watchdog, and — the load-bearing property — a grid killed mid-flight
 * resumes byte-identical with zero recomputation of `done` cells.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/grid.hh"
#include "src/core/manifest.hh"

namespace fs = std::filesystem;
using namespace match;
using namespace match::core;
using match::ft::Design;

namespace
{

/** Fast four-cell grid with a result cache, rooted in a fresh temp
 *  directory per tag (wiped at construction so ctest re-runs never see
 *  a previous run's cache or journal). */
GridSpec
resumeSpec(const std::string &tag)
{
    GridSpec spec;
    spec.apps = {"miniVite"}; // shortest loop => fastest cells
    spec.scales = {4, 8};
    spec.designs = {Design::ReinitFti, Design::UlfmFti};
    spec.injectFailure = true;
    spec.runs = 2;
    spec.sandboxDir =
        (fs::temp_directory_path() / ("match-resume-" + tag)).string();
    spec.cacheDir = spec.sandboxDir + "/cell-cache";
    fs::remove_all(spec.sandboxDir);
    return spec;
}

void
expectIdentical(const ft::Breakdown &a, const ft::Breakdown &b)
{
    // Bit-identical, not approximately equal: resume and retry must
    // not perturb results at all.
    EXPECT_EQ(a.application, b.application);
    EXPECT_EQ(a.ckptWrite, b.ckptWrite);
    EXPECT_EQ(a.ckptRead, b.ckptRead);
    EXPECT_EQ(a.recovery, b.recovery);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.recoveries, b.recoveries);
    EXPECT_EQ(a.failureFired, b.failureFired);
}

void
expectIdentical(const ExperimentResult &a, const ExperimentResult &b)
{
    expectIdentical(a.mean, b.mean);
    ASSERT_EQ(a.perRun.size(), b.perRun.size());
    for (std::size_t r = 0; r < a.perRun.size(); ++r)
        expectIdentical(a.perRun[r], b.perRun[r]);
}

/** Clears the test cell hook even when an ASSERT bails out early. */
struct HookGuard
{
    explicit HookGuard(std::function<void(const ExperimentConfig &)> hook)
    {
        setCellHookForTesting(std::move(hook));
    }
    ~HookGuard() { setCellHookForTesting(nullptr); }
};

/** Quarantine-friendly policy: one retry. */
GridPolicy
fastRetryPolicy(int retries = 1)
{
    GridPolicy policy;
    policy.cellRetries = retries;
    return policy;
}

} // namespace

TEST(GridManifest, RoundTripsAndLastRecordWins)
{
    const GridSpec spec = resumeSpec("manifest-roundtrip");
    const std::string path = spec.cacheDir + "/grid.manifest";
    {
        GridManifest manifest(path);
        ASSERT_TRUE(manifest.valid());
        manifest.record("cell-a", CellStatus::Running, 1);
        manifest.record("cell-a", CellStatus::Done, 1);
        manifest.record("cell-b", CellStatus::Failed, 2,
                        "simulated\nmultiline error");
    }
    GridManifest reopened(path);
    ASSERT_TRUE(reopened.valid());
    EXPECT_EQ(reopened.size(), 2u);
    const ManifestEntry a = reopened.lookup("cell-a");
    EXPECT_EQ(a.status, CellStatus::Done);
    EXPECT_EQ(a.attempts, 1);
    const ManifestEntry b = reopened.lookup("cell-b");
    EXPECT_EQ(b.status, CellStatus::Failed);
    EXPECT_EQ(b.attempts, 2);
    // Newlines were flattened so the journal stays line-oriented.
    EXPECT_EQ(b.error, "simulated multiline error");
    EXPECT_EQ(reopened.countWithStatus(CellStatus::Done), 1u);
    EXPECT_EQ(reopened.countWithStatus(CellStatus::Failed), 1u);
    fs::remove_all(spec.sandboxDir);
}

TEST(GridManifest, UnknownKeyIsPending)
{
    const GridSpec spec = resumeSpec("manifest-pending");
    GridManifest manifest(spec.cacheDir + "/grid.manifest");
    EXPECT_EQ(manifest.lookup("never-seen").status, CellStatus::Pending);
    EXPECT_EQ(manifest.lookup("never-seen").attempts, 0);
    fs::remove_all(spec.sandboxDir);
}

TEST(GridManifest, TornTrailingLineIsDroppedNotMisread)
{
    const GridSpec spec = resumeSpec("manifest-torn");
    const std::string path = spec.cacheDir + "/grid.manifest";
    {
        GridManifest manifest(path);
        manifest.record("cell-a", CellStatus::Done, 1);
    }
    // Model a crash mid-append: a record missing its attempts field and
    // trailing newline. It must be dropped (recompute), never parsed
    // into a bogus status for cell-b.
    {
        std::ofstream out(path, std::ios::app);
        out << "done cell-b";
    }
    GridManifest reopened(path);
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.lookup("cell-a").status, CellStatus::Done);
    EXPECT_EQ(reopened.lookup("cell-b").status, CellStatus::Pending);
    // Compaction committed a well-formed journal: reopening again still
    // sees exactly the surviving record.
    GridManifest again(path);
    EXPECT_EQ(again.size(), 1u);
    fs::remove_all(spec.sandboxDir);
}

TEST(GridManifest, FreshOpenDiscardsHistory)
{
    const GridSpec spec = resumeSpec("manifest-fresh");
    const std::string path = spec.cacheDir + "/grid.manifest";
    {
        GridManifest manifest(path);
        manifest.record("cell-a", CellStatus::Quarantined, 3, "poison");
    }
    GridManifest fresh(path, /*fresh=*/true);
    EXPECT_EQ(fresh.size(), 0u);
    EXPECT_EQ(fresh.lookup("cell-a").status, CellStatus::Pending);
    fs::remove_all(spec.sandboxDir);
}

TEST(ResultCache, TruncatedCellFileIsDeletedAndRecomputed)
{
    GridSpec spec = resumeSpec("cache-truncated");
    const ExperimentConfig cell = spec.enumerate().front();
    const std::string path =
        spec.cacheDir + "/" + configKey(cell) + ".cell";

    const std::uint64_t c0 = experimentComputeCount();
    const ExperimentResult first = runExperiment(cell); // computes
    EXPECT_EQ(experimentComputeCount(), c0 + 1);
    runExperiment(cell); // replays
    EXPECT_EQ(experimentComputeCount(), c0 + 1);

    // Truncate mid-file: the torn record must read as a miss even
    // where the cut lands inside a number (the sentinel catches the
    // "shorter but still parseable" case).
    ASSERT_TRUE(fs::exists(path));
    const auto full_size = fs::file_size(path);
    fs::resize_file(path, full_size / 2);

    const ExperimentResult recomputed = runExperiment(cell);
    EXPECT_EQ(experimentComputeCount(), c0 + 2);
    expectIdentical(first, recomputed);
    // The corrupt file was replaced by a fresh commit: hit again.
    EXPECT_EQ(fs::file_size(path), full_size);
    runExperiment(cell);
    EXPECT_EQ(experimentComputeCount(), c0 + 2);
    fs::remove_all(spec.sandboxDir);
}

TEST(ResultCache, GarbageCellFileIsDeletedAndRecomputed)
{
    GridSpec spec = resumeSpec("cache-garbage");
    const ExperimentConfig cell = spec.enumerate().front();
    const std::string path =
        spec.cacheDir + "/" + configKey(cell) + ".cell";

    const ExperimentResult first = runExperiment(cell);
    {
        std::ofstream out(path, std::ios::trunc);
        out << "not a cell record at all\n";
    }
    const std::uint64_t c0 = experimentComputeCount();
    const ExperimentResult recomputed = runExperiment(cell);
    EXPECT_EQ(experimentComputeCount(), c0 + 1);
    expectIdentical(first, recomputed);
    fs::remove_all(spec.sandboxDir);
}

TEST(GridRunner, ThrowingCellIsQuarantinedOthersComplete)
{
    GridSpec spec = resumeSpec("quarantine");
    const auto cells = spec.enumerate();
    ASSERT_EQ(cells.size(), 4u);
    const ExperimentConfig poison = cells[1];
    const std::string poison_key = configKey(poison);

    GridTiming timing;
    std::vector<ExperimentResult> results;
    {
        HookGuard guard([&](const ExperimentConfig &config) {
            if (configKey(config) == poison_key)
                throw std::runtime_error("poison cell");
        });
        results = GridRunner(4, fastRetryPolicy())
                      .run(cells, &timing);
    }

    // The pool drained every healthy cell despite the poison one.
    ASSERT_EQ(results.size(), cells.size());
    ASSERT_EQ(timing.failures.size(), 1u);
    const CellFailure &failure = timing.failures.front();
    EXPECT_EQ(failure.key, poison_key);
    EXPECT_EQ(failure.cell, 1u);
    EXPECT_EQ(failure.attempts, 2); // first try + one retry
    EXPECT_FALSE(failure.timedOut);
    EXPECT_EQ(failure.lastError, "poison cell");
    // The quarantined slot keeps its default (all-zero) result.
    EXPECT_EQ(results[1].mean.total(), 0.0);
    EXPECT_TRUE(results[1].perRun.empty());

    // The journal agrees, so a later resume re-attempts only this cell.
    GridManifest manifest(timing.manifestPath);
    EXPECT_EQ(manifest.lookup(poison_key).status,
              CellStatus::Quarantined);
    EXPECT_EQ(manifest.countWithStatus(CellStatus::Done), 3u);

    // Healthy cells match a clean reference run bit for bit.
    const auto reference =
        GridRunner(1).run(std::vector<ExperimentConfig>(
            {cells[0], cells[2], cells[3]}));
    expectIdentical(results[0], reference[0]);
    expectIdentical(results[2], reference[1]);
    expectIdentical(results[3], reference[2]);
    fs::remove_all(spec.sandboxDir);
}

TEST(GridRunner, TransientFailureRetriesThenSucceeds)
{
    GridSpec spec = resumeSpec("transient");
    const auto cells = spec.enumerate();
    const std::string flaky_key = configKey(cells[2]);

    std::atomic<bool> thrown{false};
    GridTiming timing;
    std::vector<ExperimentResult> results;
    {
        HookGuard guard([&](const ExperimentConfig &config) {
            if (configKey(config) == flaky_key &&
                !thrown.exchange(true)) {
                throw std::runtime_error("transient fault");
            }
        });
        results = GridRunner(2, fastRetryPolicy(2))
                      .run(cells, &timing);
    }

    EXPECT_TRUE(timing.failures.empty());
    GridManifest manifest(timing.manifestPath);
    EXPECT_EQ(manifest.lookup(flaky_key).status, CellStatus::Done);
    EXPECT_EQ(manifest.lookup(flaky_key).attempts, 2);

    // The retried cell's result is the deterministic one.
    GridSpec ref = spec;
    ref.cacheDir.clear();
    const auto reference = GridRunner(1).run(ref.enumerate());
    for (std::size_t i = 0; i < cells.size(); ++i)
        expectIdentical(results[i], reference[i]);
    fs::remove_all(spec.sandboxDir);
}

TEST(GridRunner, WatchdogCancelsHungCellAndQuarantinesIt)
{
    GridSpec spec = resumeSpec("watchdog");
    const auto cells = spec.enumerate();
    const std::string hung_key = configKey(cells[0]);

    GridPolicy policy = fastRetryPolicy();
    policy.cellTimeoutSeconds = 0.2;

    GridTiming timing;
    std::vector<ExperimentResult> results;
    {
        // The hung cell spins until the watchdog raises its cancel
        // token — runExperiment's own poll then throws CellCancelled.
        HookGuard guard([&](const ExperimentConfig &config) {
            if (configKey(config) != hung_key)
                return;
            while (!(config.cancel &&
                     config.cancel->load(std::memory_order_relaxed))) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            }
        });
        results = GridRunner(2, policy)
                      .run(cells, &timing);
    }

    ASSERT_EQ(timing.failures.size(), 1u);
    const CellFailure &failure = timing.failures.front();
    EXPECT_EQ(failure.key, hung_key);
    EXPECT_TRUE(failure.timedOut);
    EXPECT_EQ(failure.attempts, 2);
    EXPECT_NE(failure.lastError.find("watchdog timeout"),
              std::string::npos);
    EXPECT_EQ(results[0].mean.total(), 0.0);

    GridManifest manifest(timing.manifestPath);
    EXPECT_EQ(manifest.lookup(hung_key).status, CellStatus::Quarantined);
    EXPECT_EQ(manifest.countWithStatus(CellStatus::Done), 3u);
    fs::remove_all(spec.sandboxDir);
}

TEST(GridRunner, TimingClassifiesComputedVersusReplayedCells)
{
    GridSpec spec = resumeSpec("timing-classes");
    const auto cells = spec.enumerate();

    GridTiming first_timing;
    GridRunner(2).run(cells, &first_timing);
    EXPECT_EQ(first_timing.cellsComputed, cells.size());
    EXPECT_EQ(first_timing.cellsFromCache, 0u);
    EXPECT_EQ(first_timing.manifestPath,
              spec.cacheDir + "/grid.manifest");

    GridTiming second_timing;
    GridRunner(2).run(cells, &second_timing);
    EXPECT_EQ(second_timing.cellsComputed, 0u);
    EXPECT_EQ(second_timing.cellsFromCache, cells.size());
    fs::remove_all(spec.sandboxDir);
}

TEST(GridRunner, CrashedGridResumesByteIdenticalWithZeroRecompute)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    GridSpec spec = resumeSpec("crash");
    const auto cells = spec.enumerate();
    ASSERT_EQ(cells.size(), 4u);

    // Child process: the harness hook _exits(42) right after the third
    // cell's `done` record reaches the kernel — a mid-grid kill.
    ::setenv("MATCH_GRID_CRASH_AFTER", "3", 1);
    EXPECT_EXIT(
        { GridRunner(4).run(cells); },
        testing::ExitedWithCode(42), "");
    ::unsetenv("MATCH_GRID_CRASH_AFTER");

    // The journal survived the kill with at least the three flushed
    // completions (workers racing the _exit may have landed more).
    std::size_t done = 0;
    {
        GridManifest manifest(spec.cacheDir + "/grid.manifest");
        done = manifest.countWithStatus(CellStatus::Done);
    }
    ASSERT_GE(done, 3u);
    ASSERT_LE(done, cells.size());

    // Resume: done cells replay from the cache — zero recomputation —
    // and only the in-flight remainder is computed.
    const std::uint64_t before = experimentComputeCount();
    GridTiming timing;
    const auto resumed = GridRunner(4).run(cells, &timing);
    EXPECT_EQ(experimentComputeCount() - before, cells.size() - done);
    EXPECT_EQ(timing.cellsFromCache, done);
    EXPECT_EQ(timing.cellsComputed, cells.size() - done);
    EXPECT_TRUE(timing.failures.empty());

    // And the resumed grid is byte-identical to an uninterrupted one.
    GridSpec ref = spec;
    ref.cacheDir.clear();
    ref.sandboxDir += "-ref";
    const auto reference = GridRunner(1).run(ref.enumerate());
    ASSERT_EQ(resumed.size(), reference.size());
    for (std::size_t i = 0; i < resumed.size(); ++i)
        expectIdentical(resumed[i], reference[i]);
    fs::remove_all(spec.sandboxDir);
    fs::remove_all(ref.sandboxDir);
}

TEST(GridRunner, NoResumePolicyDiscardsJournalButKeepsCache)
{
    GridSpec spec = resumeSpec("no-resume");
    const auto cells = spec.enumerate();
    GridRunner(2).run(cells);

    // --no-resume: history is discarded, so nothing replays via the
    // manifest fast path — but the .cell files still satisfy the
    // ordinary cache probe, so nothing recomputes either.
    GridPolicy policy;
    policy.resume = false;
    const std::uint64_t before = experimentComputeCount();
    GridTiming timing;
    GridRunner(2, policy).run(cells, &timing);
    EXPECT_EQ(experimentComputeCount(), before);
    EXPECT_EQ(timing.cellsFromCache, cells.size());
    fs::remove_all(spec.sandboxDir);
}

TEST(ConfigKey, CancelTokenIsWallClockOnly)
{
    // The watchdog's cancel token must never perturb the cache key:
    // a cancelled-and-retried cell replays/recomputes the exact cell.
    ExperimentConfig plain;
    ExperimentConfig cancellable = plain;
    std::atomic<bool> token{false};
    cancellable.cancel = &token;
    EXPECT_EQ(configKey(plain), configKey(cancellable));
    token.store(true);
    EXPECT_EQ(configKey(plain), configKey(cancellable));
}
