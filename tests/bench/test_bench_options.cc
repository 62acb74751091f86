/**
 * @file
 * BenchOptions::parse: every flag lands in the intended GridSpec or
 * bench field, and malformed, non-finite or out-of-range
 * values are rejected with a diagnostic instead of running a
 * different, valid-looking configuration.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "src/apps/app.hh"
#include "src/ft/failure_model.hh"
#include "src/storage/faults.hh"

using namespace match;
using bench::BenchOptions;

namespace fs = std::filesystem;

namespace
{

BenchOptions
parseArgs(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return BenchOptions::parse(static_cast<int>(argv.size()),
                               argv.data());
}

} // anonymous namespace

TEST(BenchOptions, DefaultsMatchTheExperimentDefaults)
{
    const BenchOptions options = parseArgs({});
    const core::ExperimentConfig defaults;
    const core::GridSpec &spec = options.spec;
    EXPECT_EQ(spec.runs, defaults.runs);
    EXPECT_EQ(spec.seed, defaults.seed);
    EXPECT_EQ(spec.meanFailures, defaults.meanFailures);
    EXPECT_EQ(spec.storageFaultWindows, 0);
    EXPECT_EQ(spec.sandboxDir, "/dev/shm/match-fti-bench");
    EXPECT_EQ(spec.cacheDir, "/dev/shm/match-fti-bench/cell-cache");
    std::vector<std::string> all;
    for (const auto &app : apps::registry())
        all.push_back(app.name);
    EXPECT_EQ(spec.apps, all);
    EXPECT_FALSE(options.quick);
    EXPECT_EQ(options.jobs, 0);
    EXPECT_EQ(options.perfDir, ".");
}

TEST(BenchOptions, FlagsLandInSpecAndBenchFields)
{
    const BenchOptions options = parseArgs(
        {"--runs", "3", "--seed", "7", "--apps", "HPCCG,miniVite",
         "--sandbox", "/tmp/sbx", "--jobs", "2", "--storage", "disk",
         "--drain-capacity", "1024", "--strict",
         "--failure-model", "correlated", "--mean-failures", "2",
         "--cascade-prob", "0.5", "--corrupt-fraction", "0.25",
         "--sdc-checks", "--scrub-stride", "5", "--transform", "delta",
         "--storage-fault-windows", "2", "--storage-fault-pfs-bias",
         "0.5", "--storage-fault-mean-epochs", "3",
         "--storage-fault-strikes", "4", "--io-retry-limit", "6",
         "--perf-dir", "/tmp/perf", "--csv", "/tmp/csv"});
    const core::GridSpec &spec = options.spec;
    EXPECT_EQ(spec.runs, 3);
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_EQ(spec.apps, (std::vector<std::string>{"HPCCG", "miniVite"}));
    EXPECT_EQ(spec.sandboxDir, "/tmp/sbx");
    EXPECT_EQ(spec.cacheDir, "/tmp/sbx/cell-cache");
    EXPECT_EQ(spec.storage, storage::Kind::Disk);
    EXPECT_EQ(spec.drainCapacityBytes, 1024u);
    EXPECT_EQ(spec.failureModel, ft::FailureModelKind::Correlated);
    EXPECT_EQ(spec.meanFailures, 2.0);
    EXPECT_EQ(spec.cascadeProb, 0.5);
    EXPECT_EQ(spec.corruptFraction, 0.25);
    EXPECT_TRUE(spec.sdcChecks);
    EXPECT_EQ(spec.scrubStride, 5);
    EXPECT_EQ(spec.transform, storage::TransformKind::Delta);
    EXPECT_EQ(spec.transforms,
              std::vector<storage::TransformKind>{
                  storage::TransformKind::Delta});
    EXPECT_EQ(spec.storageFaultWindows, 2);
    EXPECT_EQ(spec.storageFaultPfsBias, 0.5);
    EXPECT_EQ(spec.storageFaultMeanEpochs, 3);
    EXPECT_EQ(spec.storageFaultStrikes, 4);
    EXPECT_EQ(spec.ioRetryLimit, 6);
    EXPECT_TRUE(options.strict);
    EXPECT_EQ(options.jobs, 2);
    EXPECT_EQ(options.perfDir, "/tmp/perf");
    EXPECT_EQ(options.csvDir, "/tmp/csv");

    // The knobs reach every enumerated cell.
    for (const core::ExperimentConfig &cell : spec.enumerate()) {
        EXPECT_EQ(cell.runs, 3);
        EXPECT_EQ(cell.meanFailures, 2.0);
        EXPECT_EQ(cell.transform, storage::TransformKind::Delta);
        EXPECT_EQ(cell.storageFaultStrikes, 4);
        EXPECT_EQ(cell.cacheDir, "/tmp/sbx/cell-cache");
    }
}

TEST(BenchOptions, Quick)
{
    const BenchOptions options = parseArgs({"--quick"});
    EXPECT_TRUE(options.quick);
    EXPECT_EQ(options.spec.runs, 2);
}

TEST(BenchOptions, TracesSelectTheirEngines)
{
    const fs::path dir =
        fs::temp_directory_path() / "match-bench-options-tests";
    fs::create_directories(dir);
    const std::string failure_trace = (dir / "failures.trace").string();
    ft::writeTraceFile(failure_trace, {{3, 1, ft::FailureKind::Crash}});
    const std::string fault_trace = (dir / "faults.trace").string();
    const std::vector<storage::FaultWindow> windows = {
        {1, 2, storage::PathClass::Pfs, storage::FaultKind::WriteFault,
         2}};
    storage::writeFaultTraceFile(fault_trace, windows);

    // An explicit zero window count before or after the trace still
    // leaves the replayed trace engaged.
    for (const auto &args : std::vector<std::vector<std::string>>{
             {"--storage-fault-trace", fault_trace,
              "--storage-fault-windows", "0"},
             {"--storage-fault-windows", "0", "--storage-fault-trace",
              fault_trace}}) {
        const BenchOptions options = parseArgs(args);
        EXPECT_EQ(options.spec.storageFaultTrace, windows);
        EXPECT_EQ(options.spec.storageFaultWindows, 1);
    }
    const BenchOptions counted = parseArgs(
        {"--storage-fault-trace", fault_trace, "--storage-fault-windows",
         "3"});
    EXPECT_EQ(counted.spec.storageFaultWindows, 3);

    const BenchOptions replay =
        parseArgs({"--failure-trace", failure_trace});
    EXPECT_EQ(replay.spec.failureModel, ft::FailureModelKind::Trace);
    ASSERT_EQ(replay.spec.traceEvents.size(), 1u);
    EXPECT_EQ(replay.spec.traceEvents[0].rank, 1);
    fs::remove_all(dir);
}

TEST(BenchOptionsDeathTest, RejectsBadValues)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--mean-failures", "nan"},
        {"--mean-failures", "-1"},
        {"--cascade-prob", "inf"},
        {"--cascade-prob", "1.5"},
        {"--corrupt-fraction", "7"},
        {"--storage-fault-pfs-bias", "2"},
        {"--storage-fault-pfs-bias", "-0.1"},
        {"--jobs", "abc"},
        {"--jobs", "99999999999"},
        {"--runs", "0"},
        {"--runs", "2x"},
        {"--seed", "-1"},
        {"--drain-capacity", "lots"},
        {"--storage-fault-strikes", "0"},
        {"--storage", "tape"},
        {"--failure-model", "weibull"},
        {"--transform", "gzip"},
        {"--apps", "NoSuchApp"},
        {"--runs"},
        {"--no-such-flag"},
    };
    for (const auto &args : bad) {
        EXPECT_EXIT(parseArgs(args), ::testing::ExitedWithCode(1),
                    "fatal: ")
            << args.front();
    }
}

TEST(BenchOptionsDeathTest, RemovedFlagsAreUnknown)
{
    // Removed flags are unknown options like any other: --pin (worker
    // placement, no measured gain), --perf (the figure benches' own
    // timing sweep; perfbench times the grids instead),
    // --resume/--no-resume (the result cache is the resume journal),
    // --cell-timeout/--cell-retries (a cell runs once: a deterministic
    // cell that throws throws again) and --drain/--drain-depth (every
    // flush runs inline; there is no drain thread to configure).
    for (const char *name : {"pin", "perf", "resume", "no-resume",
                             "cell-timeout", "cell-retries", "drain",
                             "drain-depth"}) {
        const std::string flag = std::string("--") + name;
        EXPECT_EXIT(parseArgs({flag}), ::testing::ExitedWithCode(1),
                    "fatal: unknown option: " + flag + " \\(see --help\\)")
            << flag;
    }
}
