/**
 * @file
 * Crash-safe grid execution tests: the result cache as the resume
 * journal (corrupt, rotten and missing .cell files), poison-cell
 * quarantine after exactly one attempt, and — the load-bearing
 * property — a grid killed mid-flight resumes byte-identical with zero
 * recomputation of finished cells.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/grid.hh"
#include "src/util/rng.hh"

namespace fs = std::filesystem;
using namespace match;
using namespace match::core;
using match::ft::Design;

namespace
{

/** Fast four-cell grid with a result cache, rooted in a fresh temp
 *  directory per tag (wiped at construction so ctest re-runs never see
 *  a previous run's cache). */
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
    // Bit-identical, not approximately equal: resume must not perturb
    // results at all.
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

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** Committed results in a cache directory (tmp files excluded). */
std::size_t
countCellFiles(const std::string &dir)
{
    std::size_t count = 0;
    for (const auto &entry : fs::directory_iterator(dir))
        count += entry.path().extension() == ".cell" ? 1 : 0;
    return count;
}

} // namespace

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

TEST(ResultCache, SentinelWithoutChecksumIsAMiss)
{
    // A .cell file from before the checksummed sentinel reads as a
    // miss and recomputes: the safe direction for a format change.
    GridSpec spec = resumeSpec("cache-legacy");
    const ExperimentConfig cell = spec.enumerate().front();
    const std::string path =
        spec.cacheDir + "/" + configKey(cell) + ".cell";
    const ExperimentResult first = runExperiment(cell);
    const std::string stored = readFile(path);
    const std::size_t end = stored.rfind("end ");
    ASSERT_NE(end, std::string::npos);
    writeFile(path, stored.substr(0, end) + "end\n");

    const std::uint64_t c0 = experimentComputeCount();
    expectIdentical(first, runExperiment(cell));
    EXPECT_EQ(experimentComputeCount(), c0 + 1);
    EXPECT_EQ(readFile(path), stored);
    fs::remove_all(spec.sandboxDir);
}

TEST(ResultCache, MutatedCellFileMissesOrReplaysExactly)
{
    // Seeded mutation suite over a stored .cell file: digit swaps (the
    // rot a bare parse replays as a different valid number), byte
    // flips, truncations and extensions. Every mutant must either miss
    // — recompute bit-identically and recommit the original bytes — or
    // replay exactly the stored result; never a different result.
    GridSpec spec = resumeSpec("cache-mutation");
    spec.injectFailure = false; // cheap recomputes
    const ExperimentConfig cell = spec.enumerate().front();
    const std::string path =
        spec.cacheDir + "/" + configKey(cell) + ".cell";
    const ExperimentResult first = runExperiment(cell);
    const std::string stored = readFile(path);
    ASSERT_FALSE(stored.empty());

    util::Rng rng(0x63656c6c00000000ULL);
    int misses = 0;
    for (int trial = 0; trial < 200; ++trial) {
        std::string mutant = stored;
        switch (rng.below(4)) {
        case 0: { // a digit becomes a different digit
            std::size_t at = rng.below(mutant.size());
            while (mutant[at] < '0' || mutant[at] > '9')
                at = (at + 1) % mutant.size();
            mutant[at] = static_cast<char>(
                '0' + (mutant[at] - '0' + 1 + rng.below(9)) % 10);
            break;
        }
        case 1:
            mutant[rng.below(mutant.size())] ^=
                static_cast<char>(1 + rng.below(255));
            break;
        case 2:
            mutant.resize(rng.below(mutant.size()));
            break;
        default:
            for (std::uint64_t n = 1 + rng.below(16); n > 0; --n)
                mutant.push_back(static_cast<char>(rng.next()));
            break;
        }
        writeFile(path, mutant);

        const std::uint64_t c0 = experimentComputeCount();
        const ExperimentResult loaded = runExperiment(cell);
        expectIdentical(first, loaded);
        if (experimentComputeCount() != c0) {
            ++misses;
            EXPECT_EQ(readFile(path), stored) << "trial " << trial;
        }
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "trial " << trial << " mutant:\n" << mutant;
            break;
        }
    }
    EXPECT_GT(misses, 0);
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
    std::atomic<int> poison_calls{0};
    {
        HookGuard guard([&](const ExperimentConfig &config) {
            if (configKey(config) == poison_key) {
                ++poison_calls;
                throw std::runtime_error("poison cell");
            }
        });
        results = GridRunner(4).run(cells, &timing);
    }

    // The pool drained every healthy cell despite the poison one, and
    // attempted the deterministic poison cell exactly once.
    ASSERT_EQ(results.size(), cells.size());
    EXPECT_EQ(poison_calls.load(), 1);
    ASSERT_EQ(timing.failures.size(), 1u);
    const CellFailure &failure = timing.failures.front();
    EXPECT_EQ(failure.key, poison_key);
    EXPECT_EQ(failure.cell, 1u);
    EXPECT_EQ(failure.summary, "miniVite Small p4 ULFM-FTI stride10 L1");
    EXPECT_EQ(failure.lastError, "poison cell");
    EXPECT_EQ(timing.cellsComputed, cells.size() - 1);
    // The quarantined slot keeps its default (all-zero) result.
    EXPECT_EQ(results[1].mean.total(), 0.0);
    EXPECT_TRUE(results[1].perRun.empty());

    // A rerun replays the three committed cells and recomputes exactly
    // the quarantined one, which no longer throws.
    const std::uint64_t before = experimentComputeCount();
    GridTiming rerun;
    GridRunner(4).run(cells, &rerun);
    EXPECT_EQ(experimentComputeCount() - before, 1u);
    EXPECT_EQ(rerun.cellsComputed, 1u);
    EXPECT_EQ(rerun.cellsFromCache, 3u);
    EXPECT_TRUE(rerun.failures.empty());

    // Healthy cells match a clean reference run bit for bit.
    const auto reference =
        GridRunner(1).run(std::vector<ExperimentConfig>(
            {cells[0], cells[2], cells[3]}));
    expectIdentical(results[0], reference[0]);
    expectIdentical(results[2], reference[1]);
    expectIdentical(results[3], reference[2]);
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
    // cell's .cell file is committed — a mid-grid kill.
    ::setenv("MATCH_GRID_CRASH_AFTER", "3", 1);
    EXPECT_EXIT(
        { GridRunner(4).run(cells); },
        testing::ExitedWithCode(42), "");
    ::unsetenv("MATCH_GRID_CRASH_AFTER");

    // The cache survived the kill with at least the three committed
    // cells (workers racing the _exit may have landed more).
    const std::size_t done = countCellFiles(spec.cacheDir);
    ASSERT_GE(done, 3u);
    ASSERT_LE(done, cells.size());

    // Resume: committed cells replay from the cache — zero
    // recomputation — and only the in-flight remainder is computed.
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

TEST(GridRunner, MissingCellFileWithThrowingRecomputeIsQuarantined)
{
    // A finished cell whose .cell file vanished before the rerun
    // recomputes: a throwing recompute is quarantined after one
    // attempt like any poison cell and never escapes run() (with
    // --jobs > 1 it would terminate the process).
    GridSpec spec = resumeSpec("missing-cell-file");
    const auto cells = spec.enumerate();
    GridRunner(1).run(cells);
    const std::string lost_key = configKey(cells[1]);
    ASSERT_TRUE(fs::remove(spec.cacheDir + "/" + lost_key + ".cell"));

    GridTiming timing;
    int lost_calls = 0;
    {
        HookGuard guard([&](const ExperimentConfig &config) {
            if (configKey(config) == lost_key) {
                ++lost_calls;
                throw std::runtime_error("poison recompute");
            }
        });
        EXPECT_NO_THROW(GridRunner(1).run(cells, &timing));
    }
    EXPECT_EQ(lost_calls, 1);
    ASSERT_EQ(timing.failures.size(), 1u);
    EXPECT_EQ(timing.failures.front().key, lost_key);
    EXPECT_EQ(timing.failures.front().lastError, "poison recompute");
    EXPECT_EQ(timing.cellsFromCache, cells.size() - 1);
    fs::remove_all(spec.sandboxDir);
}
