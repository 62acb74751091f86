/**
 * @file
 * Grid-engine tests: declarative enumeration, and — the load-bearing
 * property — bit-identical results whether cells run on one worker
 * thread or several.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "src/core/grid.hh"

namespace fs = std::filesystem;
using namespace match;
using namespace match::core;
using match::apps::InputSize;
using match::ft::Design;

namespace
{

GridSpec
smallSpec(const std::string &tag)
{
    GridSpec spec;
    spec.apps = {"miniVite"}; // shortest loop => fastest cells
    spec.scales = {4, 8};
    spec.designs = {Design::ReinitFti, Design::UlfmFti};
    spec.injectFailure = true;
    spec.runs = 2;
    spec.sandboxDir =
        (fs::temp_directory_path() / ("match-grid-" + tag)).string();
    return spec;
}

void
expectIdentical(const ft::Breakdown &a, const ft::Breakdown &b)
{
    // Bit-identical, not approximately equal: parallelism must not
    // perturb results at all.
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

} // namespace

TEST(GridSpec, EnumeratesCrossProductInRowOrder)
{
    const GridSpec spec = smallSpec("enum");
    const auto cells = spec.enumerate();
    // 1 app x 2 scales x 1 input x 2 designs x 1 stride x 1 level.
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].nprocs, 4);
    EXPECT_EQ(cells[0].design, Design::ReinitFti);
    EXPECT_EQ(cells[1].nprocs, 4);
    EXPECT_EQ(cells[1].design, Design::UlfmFti);
    EXPECT_EQ(cells[2].nprocs, 8);
    EXPECT_EQ(cells[3].nprocs, 8);
    for (const auto &cell : cells) {
        EXPECT_EQ(cell.app, "miniVite");
        EXPECT_EQ(cell.input, InputSize::Small);
        EXPECT_TRUE(cell.injectFailure);
        EXPECT_EQ(cell.runs, 2);
    }
}

TEST(GridSpec, EmptyAppsMeansFullRegistry)
{
    GridSpec spec;
    spec.scales = {8};
    const auto cells = spec.enumerate();
    EXPECT_EQ(cells.size(), apps::registry().size() * 3u);
}

TEST(GridSpec, EndpointsOnlyKeepsFirstAndLastScalingSize)
{
    GridSpec spec;
    spec.apps = {"HPCCG"};
    spec.endpointsOnly = true;
    spec.designs = {Design::ReinitFti};
    const auto cells = spec.enumerate();
    const auto &sizes = apps::findApp("HPCCG").scalingSizes;
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].nprocs, sizes.front());
    EXPECT_EQ(cells[1].nprocs, sizes.back());
}

TEST(GridSpec, StrideAndLevelAxesExpand)
{
    GridSpec spec = smallSpec("axes");
    spec.scales = {4};
    spec.designs = {Design::ReinitFti};
    spec.ckptStrides = {5, 10};
    spec.ckptLevels = {1, 2};
    const auto cells = spec.enumerate();
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].ckptStride, 5);
    EXPECT_EQ(cells[0].ckptLevel, 1);
    EXPECT_EQ(cells[1].ckptLevel, 2);
    EXPECT_EQ(cells[2].ckptStride, 10);
}

TEST(GridSpec, TransformAxisExpandsInnermost)
{
    GridSpec spec = smallSpec("transform-axis");
    spec.scales = {4};
    spec.designs = {Design::ReinitFti};
    spec.transforms = {storage::TransformKind::None,
                       storage::TransformKind::Delta};
    spec.deltaRebase = 3;
    const auto cells = spec.enumerate();
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].transform, storage::TransformKind::None);
    EXPECT_EQ(cells[1].transform, storage::TransformKind::Delta);
    for (const auto &cell : cells)
        EXPECT_EQ(cell.deltaRebase, 3);
    EXPECT_NE(configKey(cells[0]), configKey(cells[1]));
}

TEST(GridRunner, ParallelRunIsBitIdenticalToSerial)
{
    const GridSpec spec = smallSpec("determinism");
    const auto cells = spec.enumerate();

    const auto serial = GridRunner(1).run(cells);
    const auto parallel = GridRunner(4).run(cells);

    ASSERT_EQ(serial.size(), cells.size());
    ASSERT_EQ(parallel.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        expectIdentical(serial[i], parallel[i]);
    EXPECT_EQ(gridDigest(serial), gridDigest(parallel));
    fs::remove_all(spec.sandboxDir);
}

TEST(GridRunner, AsyncDrainStaysBitIdenticalForAnyWorkerCount)
{
    // Drained L4 cells add a second layer of concurrency — grid worker
    // threads *and* one drain worker per run — and the determinism
    // contract must hold across both: any --jobs count, either drain
    // mode, byte-identical results.
    GridSpec spec = smallSpec("drain");
    spec.ckptLevels = {4};
    spec.drain = storage::DrainMode::Sync;
    const auto cells_sync = spec.enumerate();
    const auto sync = GridRunner(1).run(cells_sync);
    spec.drain = storage::DrainMode::Async;
    spec.drainDepth = 1; // maximum backpressure
    const auto async_serial = GridRunner(1).run(spec.enumerate());
    const auto async_parallel = GridRunner(4).run(spec.enumerate());
    ASSERT_EQ(sync.size(), async_serial.size());
    for (std::size_t i = 0; i < sync.size(); ++i) {
        expectIdentical(sync[i], async_serial[i]);
        expectIdentical(sync[i], async_parallel[i]);
    }
}

TEST(GridRunner, DuplicateCellsShareOneComputation)
{
    const GridSpec spec = smallSpec("dedupe");
    auto cells = spec.enumerate();
    cells.push_back(cells.front()); // exact duplicate of cell 0

    const auto results = GridRunner(4).run(cells);
    ASSERT_EQ(results.size(), cells.size());
    expectIdentical(results.front(), results.back());
    fs::remove_all(spec.sandboxDir);
}

TEST(GridRunner, DiskCacheReplaysExactly)
{
    GridSpec spec = smallSpec("cache");
    spec.cacheDir = spec.sandboxDir + "/cell-cache";
    const auto cells = spec.enumerate();

    const auto first = GridRunner(4).run(cells);  // computes + stores
    const auto second = GridRunner(1).run(cells); // replays from disk
    for (std::size_t i = 0; i < cells.size(); ++i)
        expectIdentical(first[i], second[i]);
    fs::remove_all(spec.sandboxDir);
}

TEST(GridRunner, ConcurrentCellsUseDisjointSandboxes)
{
    // Two cells differing only in design must write to different
    // execution directories, whatever sandbox root they share.
    const GridSpec spec = smallSpec("sandbox");
    const auto cells = spec.enumerate();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        for (std::size_t j = i + 1; j < cells.size(); ++j) {
            for (int run = 0; run < cells[i].runs; ++run) {
                EXPECT_NE(execId(cells[i], run), execId(cells[j], run));
            }
        }
    }
    // Different seeds diverge too: two bench processes sharing one
    // sandbox root can never clobber each other.
    ExperimentConfig reseeded = cells[0];
    reseeded.seed = 7;
    EXPECT_NE(execId(cells[0], 0), execId(reseeded, 0));
}

TEST(GridRunner, JobCountDefaultsToHardware)
{
    EXPECT_GE(GridRunner().jobs(), 1);
    EXPECT_EQ(GridRunner(3).jobs(), 3);
    EXPECT_EQ(GridRunner(0).jobs(), GridRunner::hardwareJobs());
}

TEST(GridDigest, SeesOneUlpInAnyResultField)
{
    ExperimentResult r;
    r.mean = {1.5, 0.25, 0.125, 0.75, 2, 1, true};
    r.perRun = {r.mean, r.mean};
    const std::vector<ExperimentResult> grid{r, r};
    const std::uint64_t base = gridDigest(grid);
    EXPECT_EQ(gridDigest(grid), base);
    EXPECT_NE(gridDigest({}), base);

    // One ulp of ckptRead in one run — invisible in the 2-decimal
    // figure tables, which also have no ckptRead column.
    std::vector<ExperimentResult> moved = grid;
    double &read = moved[1].perRun[0].ckptRead;
    read = std::nextafter(read, 1.0);
    EXPECT_NE(gridDigest(moved), base);

    // The same values in another cell order are a different grid.
    std::vector<ExperimentResult> swapped = moved;
    std::swap(swapped[0], swapped[1]);
    EXPECT_NE(gridDigest(swapped), gridDigest(moved));
}
