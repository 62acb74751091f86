/**
 * @file
 * Storage-fault engine, end to end through the experiment runner: plan
 * purity, --jobs/backend/drain-mode independence of faulty results,
 * trace replay bit-identity, graceful degradation under a persistent
 * PFS outage, the retry policy riding out a storage fault that lands
 * in the same epoch as an injected process failure, and the exact
 * fault counters of the failure ablation's storage-fault sweep.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <iterator>

#include "src/core/experiment.hh"
#include "src/storage/faults.hh"
#include "tests/core/identical.hh"

namespace fs = std::filesystem;
using namespace match;
using namespace match::core;
using match::apps::InputSize;
using match::ft::Design;
using match::storage::FaultKind;
using match::storage::FaultWindow;
using match::storage::PathClass;

namespace
{

ExperimentConfig
faultyConfig(Design design, int windows)
{
    ExperimentConfig config;
    config.app = "miniVite"; // shortest loop => fastest cell
    config.input = InputSize::Small;
    config.nprocs = 8;
    config.design = design;
    config.runs = 2;
    config.ckptStride = 5; // a few checkpoint epochs for windows to hit
    config.noiseSigma = 0.0; // identity checks must not be smeared
    config.storageFaultWindows = windows;
    config.sandboxDir =
        (fs::temp_directory_path() / "match-fault-tests").string();
    return config;
}

} // namespace

TEST(ExperimentFaults, PlanIsAPureFunctionOfConfigAndRun)
{
    const auto config = faultyConfig(Design::ReinitFti, 3);
    EXPECT_EQ(storageFaultPlanFor(config, 0),
              storageFaultPlanFor(config, 0));
    EXPECT_FALSE(storageFaultPlanFor(config, 0) ==
                 storageFaultPlanFor(config, 1));
    auto reseeded = config;
    reseeded.seed = 7;
    EXPECT_FALSE(storageFaultPlanFor(config, 0) ==
                 storageFaultPlanFor(reseeded, 0));
    // Faults off: empty plan, no decorator installed.
    auto off = config;
    off.storageFaultWindows = 0;
    EXPECT_TRUE(storageFaultPlanFor(off, 0).empty());
}

TEST(ExperimentFaults, FaultsChangeResultsDeterministically)
{
    const auto off = runExperiment(faultyConfig(Design::ReinitFti, 0));
    auto config = faultyConfig(Design::ReinitFti, 3);
    // Bias the drawn windows to the local class: this L1 cell has no
    // PFS traffic, so only local-class windows can move its results.
    config.storageFaultPfsBias = 0.0;
    const auto a = runExperiment(config);
    const auto b = runExperiment(config);
    expectIdenticalResults(a, b);
    // Priced retries/spikes/degradations make faulty runs slower.
    EXPECT_NE(a.mean.total(), off.mean.total());
}

TEST(ExperimentFaults, ResultsIdenticalAcrossBackendsAndDrainModes)
{
    auto config = faultyConfig(Design::RestartFti, 3);
    config.ckptLevel = 4; // exercise the drain path under faults
    config.injectFailure = true;
    const auto baseline = runExperiment(config);

    auto disk = config;
    disk.storage = storage::Kind::Disk;
    expectIdenticalResults(baseline, runExperiment(disk));

    auto sync_drain = config;
    sync_drain.drain = storage::DrainMode::Sync;
    expectIdenticalResults(baseline, runExperiment(sync_drain));

    auto shallow = config;
    shallow.drainDepth = 1;
    expectIdenticalResults(baseline, runExperiment(shallow));
}

TEST(ExperimentFaults, TraceReplayReproducesDrawnPlanBitForBit)
{
    auto generated = faultyConfig(Design::ReinitFti, 3);
    generated.runs = 1; // the trace pins one run's plan
    generated.injectFailure = true;
    const storage::StorageFaultPlan plan =
        storageFaultPlanFor(generated, 0);
    ASSERT_FALSE(plan.empty());

    const std::string path =
        (fs::temp_directory_path() / "match-fault-tests-replay.trace")
            .string();
    storage::writeFaultTraceFile(path, plan.windows);

    auto replay = generated;
    replay.storageFaultTrace = storage::readFaultTraceFile(path);
    ASSERT_EQ(replay.storageFaultTrace, plan.windows);
    expectIdenticalResults(runExperiment(generated),
                           runExperiment(replay));
}

TEST(ExperimentFaults, PersistentPfsOutageCompletesViaDegradation)
{
    // The PFS refuses every write of every epoch, far past the retry
    // budget; the run must complete by demoting L4 checkpoints to L3
    // (never a fatal error while the local tiers stay healthy), and
    // recovery must still succeed from the demoted checkpoints.
    auto config = faultyConfig(Design::RestartFti, 1);
    config.ckptLevel = 4;
    config.injectFailure = true;
    config.storageFaultTrace = {
        {1, 1 << 20, PathClass::Pfs, FaultKind::WriteFault, 1000}};

    const storage::FaultStats before = storage::faultGlobalStats();
    const auto result = runExperiment(config);
    const storage::FaultStats after = storage::faultGlobalStats();

    EXPECT_TRUE(result.mean.failureFired);
    EXPECT_GT(result.mean.recovery, 0.0);
    EXPECT_GT(after.degradedCkpts, before.degradedCkpts);
    // Pre-detected outage: the decorator never saw a doomed write.
    EXPECT_EQ(after.injectedWriteFaults, before.injectedWriteFaults);

    // The demoted run still prices more checkpoint time than a clean
    // one (the demotion penalty), and completes every run.
    EXPECT_EQ(result.perRun.size(), 2u);
}

TEST(ExperimentFaults, LocalEnospcSkipsEpochsAndCompletes)
{
    auto config = faultyConfig(Design::ReinitFti, 1);
    config.storageFaultTrace = {
        {2, 2, PathClass::Local, FaultKind::Enospc, 1}};
    const storage::FaultStats before = storage::faultGlobalStats();
    const auto off = runExperiment(faultyConfig(Design::ReinitFti, 0));
    const auto result = runExperiment(config);
    const storage::FaultStats after = storage::faultGlobalStats();
    EXPECT_GT(after.skippedEpochs, before.skippedEpochs);
    // The skipped epoch trades its write cost for one retry round's
    // backoff — strictly cheaper, but never silently identical.
    EXPECT_LT(result.mean.ckptWrite, off.mean.ckptWrite);
    EXPECT_GT(result.mean.ckptWrite, 0.0);
}

TEST(ExperimentFaults, StorageFaultAndProcessFailureInSameEpoch)
{
    // A transient local write fault opens exactly around the epoch a
    // process crash fires in: the retry policy must ride out the
    // storage fault, the recovery ladder must absorb the crash, and
    // the combination must stay deterministic.
    auto config = faultyConfig(Design::ReinitFti, 1);
    config.injectFailure = true;
    config.failureModel = ft::FailureModelKind::Trace;
    config.traceEvents = {{11, 3, ft::FailureKind::Crash}};
    // Iteration 11 at stride 5 sits in epoch 2; cover epochs 1-3 so
    // the checkpoint written before the crash and the recovery reads
    // after it both run inside the window.
    config.storageFaultTrace = {
        {1, 3, PathClass::Local, FaultKind::WriteFault, 2}};

    const storage::FaultStats before = storage::faultGlobalStats();
    const auto a = runExperiment(config);
    const auto b = runExperiment(config);
    const storage::FaultStats after = storage::faultGlobalStats();

    expectIdenticalResults(a, b);
    EXPECT_TRUE(a.mean.failureFired);
    EXPECT_GT(a.mean.recovery, 0.0);
    EXPECT_GT(after.pricedRetries, before.pricedRetries);
    EXPECT_GT(after.injectedWriteFaults, before.injectedWriteFaults);
}

TEST(ExperimentFaults, AblationStorageFaultCountersArePinned)
{
    // Exact storage::FaultStats diffs of the failure ablation's
    // storage-fault sweep (its cell settings: HPCCG small p64, L4,
    // stride 5, one injected failure, noise off, no cache, --quick's 2
    // runs), one cell at a time. Every counter is a pure function of
    // the configuration, so a retry, demotion or flush-path change
    // that moves one by a single count fails here; a deliberate change
    // re-records the table.
    struct Scenario
    {
        const char *name;
        int windows;
        double pfsBias;
        int strikes;
    };
    const Scenario scenarios[] = {{"faults-off", 0, 0.75, 2},
                                  {"transient", 2, 0.75, 2},
                                  {"pfs-outage", 3, 1.0, 99}};
    // Per scenario, per design in ft::allDesigns order: read, write,
    // torn, enospc, priced retries, latency spikes, degraded
    // checkpoints, skipped epochs, failed flushes.
    using Counters = std::array<std::uint64_t, 9>;
    const Counters pins[3][3] = {
        {Counters{}, Counters{}, Counters{}},
        {{0, 0, 0, 0, 896, 0, 256, 128, 0},
         {0, 512, 0, 0, 896, 0, 128, 0, 0},
         {0, 0, 384, 0, 384, 128, 0, 0, 0}},
        {{0, 0, 0, 0, 1536, 192, 512, 0, 0},
         {0, 0, 0, 0, 1152, 192, 384, 0, 0},
         {0, 0, 0, 0, 960, 192, 320, 0, 0}},
    };
    const auto counters = [](const storage::FaultStats &s) {
        return Counters{s.injectedReadFaults, s.injectedWriteFaults,
                        s.tornWrites,         s.enospcHits,
                        s.pricedRetries,      s.latencySpikes,
                        s.degradedCkpts,      s.skippedEpochs,
                        s.failedFlushes};
    };
    for (std::size_t s = 0; s < std::size(scenarios); ++s) {
        for (std::size_t d = 0; d < ft::allDesigns.size(); ++d) {
            ExperimentConfig config;
            config.app = "HPCCG";
            config.nprocs = 64;
            config.design = ft::allDesigns[d];
            config.injectFailure = true;
            config.runs = 2;
            config.noiseSigma = 0.0;
            config.ckptLevel = 4;
            config.ckptStride = 5;
            config.storageFaultWindows = scenarios[s].windows;
            config.storageFaultPfsBias = scenarios[s].pfsBias;
            config.storageFaultStrikes = scenarios[s].strikes;
            config.sandboxDir =
                (fs::temp_directory_path() / "match-fault-tests").string();

            const Counters before = counters(storage::faultGlobalStats());
            runExperiment(config);
            const Counters after = counters(storage::faultGlobalStats());
            Counters diff{};
            for (std::size_t k = 0; k < diff.size(); ++k)
                diff[k] = after[k] - before[k];
            EXPECT_EQ(diff, pins[s][d])
                << scenarios[s].name << ' '
                << ft::designName(config.design);
        }
    }
}
