/**
 * @file
 * Experiment-runner tests: determinism, the five-run methodology, and
 * the injected-failure grid behavior.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "src/core/experiment.hh"
#include "src/storage/drain.hh"
#include "src/storage/transform.hh"
#include "tests/core/identical.hh"

namespace fs = std::filesystem;
using namespace match;
using namespace match::core;
using match::apps::InputSize;
using match::ft::Design;

namespace
{

ExperimentConfig
smallConfig(Design design, bool inject)
{
    ExperimentConfig config;
    config.app = "miniVite"; // shortest loop => fastest cell
    config.input = InputSize::Small;
    config.nprocs = 8;
    config.design = design;
    config.injectFailure = inject;
    config.runs = 3;
    config.sandboxDir =
        (fs::temp_directory_path() / "match-core-tests").string();
    return config;
}

} // namespace

TEST(Experiment, DeterministicForSameConfig)
{
    const auto config = smallConfig(Design::ReinitFti, true);
    const auto a = runExperiment(config);
    const auto b = runExperiment(config);
    EXPECT_DOUBLE_EQ(a.mean.total(), b.mean.total());
    ASSERT_EQ(a.perRun.size(), b.perRun.size());
    for (std::size_t i = 0; i < a.perRun.size(); ++i)
        EXPECT_DOUBLE_EQ(a.perRun[i].total(), b.perRun[i].total());
}

TEST(Experiment, SeedChangesInjectionSites)
{
    auto config = smallConfig(Design::ReinitFti, true);
    const auto a = runExperiment(config);
    config.seed = 12345;
    const auto b = runExperiment(config);
    // Different injection iterations change the rework after recovery.
    EXPECT_NE(a.mean.total(), b.mean.total());
}

TEST(Experiment, RunsAreAveraged)
{
    const auto config = smallConfig(Design::ReinitFti, false);
    const auto result = runExperiment(config);
    ASSERT_EQ(result.perRun.size(), 3u);
    double sum = 0.0;
    for (const auto &run : result.perRun)
        sum += run.application;
    EXPECT_NEAR(result.mean.application, sum / 3.0, 1e-9);
}

TEST(Experiment, NoiseMakesRunsDifferButStayClose)
{
    const auto config = smallConfig(Design::ReinitFti, false);
    const auto result = runExperiment(config);
    EXPECT_NE(result.perRun[0].application, result.perRun[1].application);
    const double rel = std::abs(result.perRun[0].application -
                                result.perRun[1].application) /
                       result.mean.application;
    EXPECT_LT(rel, 0.10); // ~1% noise model
}

TEST(Experiment, ZeroNoiseGivesIdenticalFailureFreeRuns)
{
    auto config = smallConfig(Design::ReinitFti, false);
    config.noiseSigma = 0.0;
    const auto result = runExperiment(config);
    EXPECT_DOUBLE_EQ(result.perRun[0].total(), result.perRun[1].total());
}

TEST(Experiment, InjectionProducesRecoveryTime)
{
    const auto result = runExperiment(smallConfig(Design::ReinitFti, true));
    EXPECT_TRUE(result.mean.failureFired);
    EXPECT_GT(result.mean.recovery, 0.0);
    const auto clean =
        runExperiment(smallConfig(Design::ReinitFti, false));
    EXPECT_DOUBLE_EQ(clean.mean.recovery, 0.0);
}

TEST(Experiment, AllDesignsCompleteOnInjectedFailure)
{
    for (Design design : ft::allDesigns) {
        const auto result = runExperiment(smallConfig(design, true));
        EXPECT_TRUE(result.mean.failureFired) << ft::designName(design);
        EXPECT_GT(result.mean.total(), 0.0);
    }
}

TEST(Experiment, CkptStrideControlsCheckpointShare)
{
    auto dense = smallConfig(Design::RestartFti, false);
    dense.ckptStride = 2;
    auto sparse = smallConfig(Design::RestartFti, false);
    sparse.ckptStride = 8;
    EXPECT_GT(runExperiment(dense).mean.ckptWrite,
              runExperiment(sparse).mean.ckptWrite);
}

TEST(Experiment, ScalingSizesMatchTableI)
{
    EXPECT_EQ(scalingSizesFor("LULESH"), (std::vector<int>{64, 512}));
    EXPECT_EQ(scalingSizesFor("CoMD"),
              (std::vector<int>{64, 128, 256, 512}));
}

TEST(Experiment, CacheReplaysExactly)
{
    auto config = smallConfig(Design::ReinitFti, true);
    config.cacheDir =
        (fs::temp_directory_path() / "match-core-tests/cache").string();
    fs::remove_all(config.cacheDir);
    const auto first = runExperiment(config);  // simulates + stores
    const auto second = runExperiment(config); // cache hit
    EXPECT_DOUBLE_EQ(first.mean.total(), second.mean.total());
    ASSERT_EQ(first.perRun.size(), second.perRun.size());
    for (std::size_t i = 0; i < first.perRun.size(); ++i) {
        EXPECT_DOUBLE_EQ(first.perRun[i].application,
                         second.perRun[i].application);
        EXPECT_DOUBLE_EQ(first.perRun[i].recovery,
                         second.perRun[i].recovery);
    }
    EXPECT_EQ(first.mean.failureFired, second.mean.failureFired);
    fs::remove_all(config.cacheDir);
}

TEST(Experiment, StorageBackendsProduceIdenticalResults)
{
    // The storage backend is a wall-clock optimization: the same grid
    // cell must produce bit-identical results whether its checkpoint
    // sandbox lives in memory or on disk. Injected failures exercise
    // the full checkpoint + recovery read-back path on both.
    for (const bool inject : {false, true}) {
        auto config = smallConfig(Design::ReinitFti, inject);
        config.storage = match::storage::Kind::Mem;
        const auto mem = runExperiment(config);
        config.storage = match::storage::Kind::Disk;
        const auto disk = runExperiment(config);
        expectIdenticalResults(mem, disk);
    }
}

TEST(Experiment, L3CellsAgreeAcrossBackends)
{
    // L3 exercises the RS encoder's zero-copy view path (MemBackend)
    // against the read-into-scratch path (DiskBackend).
    auto config = smallConfig(Design::RestartFti, true);
    config.ckptLevel = 3;
    config.storage = match::storage::Kind::Mem;
    const auto mem = runExperiment(config);
    config.storage = match::storage::Kind::Disk;
    const auto disk = runExperiment(config);
    expectIdenticalResults(mem, disk);
}

TEST(Experiment, TransformedSdcCellsAgreeAcrossBackends)
{
    // Delta-chain and compress-envelope decoding, the CRC vote and the
    // at-rest corruption injector all read through the backend: with
    // silent corruptions among the drawn failures, the storage kind
    // must stay invisible in the results, at L1 and at L4.
    for (const int level : {1, 4}) {
        auto config = smallConfig(Design::ReinitFti, true);
        config.ckptLevel = level;
        config.transform = match::storage::TransformKind::DeltaCompress;
        config.sdcChecks = true;
        config.failureModel = ft::FailureModelKind::IndependentExp;
        config.meanFailures = 2.0;
        config.corruptFraction = 0.5;
        config.storage = match::storage::Kind::Mem;
        const auto mem = runExperiment(config);
        config.storage = match::storage::Kind::Disk;
        expectIdenticalResults(mem, runExperiment(config));
        // The draw must include corruptions, or this proves nothing:
        // the same schedule with crashes only gives other results.
        config.corruptFraction = 0.0;
        EXPECT_NE(bitsOf(mem.mean.total()),
                  bitsOf(runExperiment(config).mean.total()))
            << "level " << level;
    }
}

TEST(Experiment, DrainedL4CellsAgreeAcrossBackends)
{
    // L4 flushes and their recovery reads go through the backend; the
    // storage kind must still be invisible in the results.
    auto config = smallConfig(Design::RestartFti, true);
    config.ckptLevel = 4;
    config.storage = match::storage::Kind::Mem;
    const auto mem = runExperiment(config);
    config.storage = match::storage::Kind::Disk;
    const auto disk = runExperiment(config);
    expectIdenticalResults(mem, disk);
}

TEST(Experiment, AsyncDrainOverlapsFlushTimeInVirtualTime)
{
    // The drained L4 model: the rank pays staging + consistency, and
    // the PFS streaming overlaps compute on the drain channel. A
    // regression back to the fully serializing model would push L4
    // write time above L3 (the PFS aggregate stream is the most
    // expensive data path); drained, L4 must undercut L3 — staging
    // runs at ramfs speed and the residual surfaces only when compute
    // cannot hide the stream.
    auto config = smallConfig(Design::ReinitFti, false);
    config.noiseSigma = 0.0;
    config.runs = 1;
    config.ckptLevel = 1;
    const auto l1 = runExperiment(config);
    config.ckptLevel = 3;
    const auto l3 = runExperiment(config);
    config.ckptLevel = 4;
    const auto l4 = runExperiment(config);
    EXPECT_GT(l4.mean.ckptWrite, 0.0);
    EXPECT_LT(l4.mean.ckptWrite, l3.mean.ckptWrite)
        << "the drained flush must not serialize the rank";
    // Application time is identical: the overlap is accounted against
    // the drain channel, never by inflating compute.
    EXPECT_DOUBLE_EQ(l1.mean.application, l4.mean.application);
    EXPECT_DOUBLE_EQ(l3.mean.application, l4.mean.application);
}

TEST(Experiment, GoldenResultsPinnedAcrossOptimizations)
{
    // Bit-exact fixture recorded before the runtime hot-path rework
    // (pooled fiber stacks, rendezvous delivery, inlined cost model).
    // Those optimizations are wall-clock-only: any drift in these
    // doubles means a simulation-visible behavior change leaked in.
    // The tuples cover all three designs, an RS-encoded L3 cell, a
    // drained L4 cell, and both the injected and failure-free paths.
    // The last three rows were recorded before the plain and sdcChecks
    // recovery ladders merged into one walk, and pin both modes of it.
    struct Golden
    {
        Design design;
        int level;
        bool inject;
        double app, ckptW, ckptR, rec;
        int recoveries;
        bool fired;
        // Knobs of the SDC-ladder and legacy-diff rows; the defaults
        // keep the cell as smallConfig builds it.
        int stride = 0; // 0: the config's default stride
        bool sdc = false;
        double corrupt = 0.0;
        storage::TransformKind transform = storage::TransformKind::None;
        double meanFailures = 0.0; // > 0: independent failures
    };
    const Golden fixtures[] = {
        {Design::ReinitFti, 1, true, 0.39149574690426153,
         0.059902122842276792, 0.0, 0.45224575317725502, 2, true},
        {Design::RestartFti, 3, true, 0.34879690836232757,
         0.062866002222378481, 0.0, 5.6703495531794914, 0, true},
        {Design::UlfmFti, 1, true, 0.4726929586106825,
         0.093742412271171749, 0.00028475000000000001,
         0.6974270126201727, 2, true},
        {Design::ReinitFti, 4, false, 0.26857265373982575,
         0.060751006691229847, 0.0, 0.0, 0, false},
        // The SDC ladder: CRC votes over an L4 delta+compress chain with
        // corrupt events among the failures, and over an L3 group.
        {Design::ReinitFti, 4, true, 0.27732673184454343,
         0.51280579785929958, 0.0019322964666666359,
         0.23148310859719673, 1, true, 2, true, 0.5,
         storage::TransformKind::DeltaCompress, 3.0},
        {Design::ReinitFti, 3, true, 0.29685643658495298,
         0.55974931053346588, 0.0034863429333332717,
         0.45224575317725513, 2, true, 2, true},
        // The plain ladder restoring a whole-object L4 checkpoint,
        // transform none.
        {Design::ReinitFti, 4, true, 0.29685643658495298,
         0.53911910558049159, 0.00091120000000000003,
         0.45224575317725507, 2, true, 2},
    };
    for (const Golden &g : fixtures) {
        auto config = smallConfig(g.design, g.inject);
        config.runs = 2; // the fixture was recorded with two runs
        config.ckptLevel = g.level;
        if (g.stride > 0)
            config.ckptStride = g.stride;
        config.sdcChecks = g.sdc;
        config.corruptFraction = g.corrupt;
        config.transform = g.transform;
        if (g.meanFailures > 0.0) {
            config.failureModel = ft::FailureModelKind::IndependentExp;
            config.meanFailures = g.meanFailures;
        }
        const auto r = runExperiment(config);
        const std::string label =
            std::string(ft::designName(g.design)) + " L" +
            std::to_string(g.level) + (g.sdc ? " sdc " : " ") +
            storage::transformKindName(g.transform);
        EXPECT_DOUBLE_EQ(r.mean.application, g.app) << label;
        EXPECT_DOUBLE_EQ(r.mean.ckptWrite, g.ckptW) << label;
        EXPECT_DOUBLE_EQ(r.mean.ckptRead, g.ckptR) << label;
        EXPECT_DOUBLE_EQ(r.mean.recovery, g.rec) << label;
        EXPECT_EQ(r.mean.recoveries, g.recoveries) << label;
        EXPECT_EQ(r.mean.failureFired, g.fired) << label;
    }
}

TEST(Experiment, L4TransformByteCountersArePinned)
{
    // Exact PFS and encoder byte counts of a failure-free L4 cell per
    // app under each transform kind. Both are pure functions of the
    // checkpoint bytes, so an encoder or flush-path change that ships
    // a single byte more or less fails here; a deliberate change
    // re-records the table. shipped is the drain jobs' PFS traffic;
    // the stage columns are transformGlobalStats bytesIn/bytesOut.
    using storage::TransformKind;
    struct Pinned
    {
        const char *app;
        TransformKind kind;
        std::uint64_t shipped, deltaIn, deltaOut, compressIn,
            compressOut;
    };
    const Pinned pins[] = {
        {"AMG", TransformKind::None, 3713024, 0, 0, 0, 0},
        {"AMG", TransformKind::Delta, 3745792, 3713024, 3745792, 0, 0},
        {"AMG", TransformKind::Compress, 3727360, 0, 0, 3713024, 3727360},
        {"AMG", TransformKind::DeltaCompress, 3760128, 3713024, 3745792,
         3745792, 3760128},
        {"CoMD", TransformKind::None, 9972480, 0, 0, 0, 0},
        {"CoMD", TransformKind::Delta, 10087168, 9972480, 10087168, 0, 0},
        {"CoMD", TransformKind::Compress, 9994076, 0, 0, 9972480,
         9994076},
        {"CoMD", TransformKind::DeltaCompress, 10063068, 9972480,
         10087168, 10087168, 10063068},
        {"HPCCG", TransformKind::None, 68236288, 0, 0, 0, 0},
        {"HPCCG", TransformKind::Delta, 54448256, 68236288, 54448256, 0,
         0},
        {"HPCCG", TransformKind::Compress, 63855801, 0, 0, 68236288,
         63855801},
        {"HPCCG", TransformKind::DeltaCompress, 52657229, 68236288,
         54448256, 54448256, 52657229},
        {"LULESH", TransformKind::None, 26492416, 0, 0, 0, 0},
        {"LULESH", TransformKind::Delta, 6697008, 26492416, 6697008, 0,
         0},
        {"LULESH", TransformKind::Compress, 2302397, 0, 0, 26492416,
         2302397},
        {"LULESH", TransformKind::DeltaCompress, 2023441, 26492416,
         6697008, 6697008, 2023441},
        {"miniFE", TransformKind::None, 39384576, 0, 0, 0, 0},
        {"miniFE", TransformKind::Delta, 30866944, 39384576, 30866944, 0,
         0},
        {"miniFE", TransformKind::Compress, 35073201, 0, 0, 39384576,
         35073201},
        {"miniFE", TransformKind::DeltaCompress, 29734938, 39384576,
         30866944, 30866944, 29734938},
        {"miniVite", TransformKind::None, 548864, 0, 0, 0, 0},
        {"miniVite", TransformKind::Delta, 392464, 548864, 392464, 0, 0},
        {"miniVite", TransformKind::Compress, 465788, 0, 0, 548864,
         465788},
        {"miniVite", TransformKind::DeltaCompress, 319634, 548864,
         392464, 392464, 319634},
    };
    ASSERT_EQ(std::size(pins), 4 * apps::registry().size());
    for (const Pinned &pin : pins) {
        ExperimentConfig config;
        config.app = pin.app;
        config.input = InputSize::Small;
        config.nprocs = 64;
        config.design = Design::ReinitFti;
        config.runs = 2;
        config.ckptLevel = 4;
        config.ckptStride = 2;
        config.storage = storage::Kind::Mem;
        config.transform = pin.kind;
        config.sandboxDir =
            (fs::temp_directory_path() / "match-core-tests").string();
        const std::uint64_t shipped0 = storage::drainGlobalShippedBytes();
        const storage::TransformStats delta0 =
            storage::transformGlobalStats(storage::TransformStage::Delta);
        const storage::TransformStats compress0 =
            storage::transformGlobalStats(storage::TransformStage::Compress);
        runExperiment(config);
        const storage::TransformStats delta1 =
            storage::transformGlobalStats(storage::TransformStage::Delta);
        const storage::TransformStats compress1 =
            storage::transformGlobalStats(storage::TransformStage::Compress);
        const std::string label = std::string(pin.app) + " " +
                                  storage::transformKindName(pin.kind);
        EXPECT_EQ(storage::drainGlobalShippedBytes() - shipped0,
                  pin.shipped)
            << label;
        EXPECT_EQ(delta1.bytesIn - delta0.bytesIn, pin.deltaIn) << label;
        EXPECT_EQ(delta1.bytesOut - delta0.bytesOut, pin.deltaOut)
            << label;
        EXPECT_EQ(compress1.bytesIn - compress0.bytesIn, pin.compressIn)
            << label;
        EXPECT_EQ(compress1.bytesOut - compress0.bytesOut,
                  pin.compressOut)
            << label;
    }
}

TEST(Experiment, CacheKeyDistinguishesConfigs)
{
    auto a = smallConfig(Design::ReinitFti, true);
    a.cacheDir =
        (fs::temp_directory_path() / "match-core-tests/cache2").string();
    fs::remove_all(a.cacheDir);
    const auto ra = runExperiment(a);
    auto b = a;
    b.design = Design::UlfmFti; // different design, same cache dir
    const auto rb = runExperiment(b);
    EXPECT_NE(ra.mean.recovery, rb.mean.recovery);
    fs::remove_all(a.cacheDir);
}

TEST(Experiment, MultiFailureModelsAreDeterministicAndDistinct)
{
    auto config = smallConfig(Design::ReinitFti, true);
    config.runs = 2;
    const auto single = runExperiment(config);
    for (const ft::FailureModelKind kind :
         {ft::FailureModelKind::IndependentExp,
          ft::FailureModelKind::Correlated}) {
        auto multi = config;
        multi.failureModel = kind;
        multi.meanFailures = 3.0;
        multi.cascadeProb = 0.5;
        const auto a = runExperiment(multi);
        const auto b = runExperiment(multi);
        ASSERT_EQ(a.perRun.size(), b.perRun.size());
        for (std::size_t i = 0; i < a.perRun.size(); ++i) {
            EXPECT_DOUBLE_EQ(a.perRun[i].total(), b.perRun[i].total())
                << ft::failureModelName(kind);
            EXPECT_EQ(a.perRun[i].recoveries, b.perRun[i].recoveries);
        }
        // A multi-failure process changes the recovery story.
        EXPECT_NE(a.mean.total(), single.mean.total())
            << ft::failureModelName(kind);
    }
}

struct ReplayCase
{
    const char *name;
    ft::FailureModelKind model;
    double meanFailures;
    double corruptFraction;
};

class TraceReplay : public ::testing::TestWithParam<ReplayCase>
{
};

TEST_P(TraceReplay, ReproducesGeneratedRunBitForBit)
{
    // Draw the schedule runExperiment fires in run 0, round-trip it
    // through the trace format, and replay: every breakdown category
    // must match to the last bit.
    auto generated = smallConfig(Design::ReinitFti, true);
    generated.runs = 1;
    generated.noiseSigma = 0.0; // trace consumes no RNG draws
    generated.sdcChecks = true;
    generated.failureModel = GetParam().model;
    generated.meanFailures = GetParam().meanFailures;
    generated.cascadeProb = 0.5;
    generated.corruptFraction = GetParam().corruptFraction;

    util::Rng rng(cellSeed(generated, 0));
    const auto schedule = failureScheduleFor(generated, rng);
    ASSERT_FALSE(schedule.empty());
    if (GetParam().corruptFraction > 0.0) {
        EXPECT_TRUE(std::any_of(schedule.begin(), schedule.end(),
                                [](const ft::FailureEvent &event) {
                                    return event.kind ==
                                           ft::FailureKind::Corrupt;
                                }))
            << "the case must replay a corrupt event: "
            << ft::serializeTrace(schedule);
    }

    auto replay = generated;
    replay.failureModel = ft::FailureModelKind::Trace;
    replay.traceEvents = ft::parseTrace(ft::serializeTrace(schedule));
    ASSERT_EQ(replay.traceEvents, schedule);
    util::Rng replay_rng(cellSeed(replay, 0));
    ASSERT_EQ(failureScheduleFor(replay, replay_rng), schedule);

    const auto gen = runExperiment(generated).mean;
    const auto rep = runExperiment(replay).mean;
    EXPECT_TRUE(gen.failureFired);
    EXPECT_EQ(gen.application, rep.application);
    EXPECT_EQ(gen.ckptWrite, rep.ckptWrite);
    EXPECT_EQ(gen.ckptRead, rep.ckptRead);
    EXPECT_EQ(gen.recovery, rep.recovery);
    EXPECT_EQ(gen.recoveries, rep.recoveries);
}

INSTANTIATE_TEST_SUITE_P(
    Models, TraceReplay,
    ::testing::Values(
        ReplayCase{"Single", ft::FailureModelKind::Single, 1.0, 0.0},
        ReplayCase{"IndependentCorrupt",
                   ft::FailureModelKind::IndependentExp, 6.0, 0.5},
        ReplayCase{"Correlated", ft::FailureModelKind::Correlated, 2.0,
                   0.0}),
    [](const ::testing::TestParamInfo<ReplayCase> &info) {
        return std::string(info.param.name);
    });

TEST(Experiment, FailureScheduleDrawsNothingWithoutInjection)
{
    auto config = smallConfig(Design::ReinitFti, false);
    util::Rng rng(cellSeed(config, 0));
    util::Rng untouched(cellSeed(config, 0));
    EXPECT_TRUE(failureScheduleFor(config, rng).empty());
    EXPECT_EQ(rng.next(), untouched.next());
}

namespace
{

/** One ExperimentConfig field and a change to it. */
struct Field
{
    const char *name;
    void (*mutate)(ExperimentConfig &config);
};

/** One row per result field of ExperimentConfig (the static_assert
 *  next to configKey() fails the build when a field is added without a
 *  decision here). Element-level rows (two traces differing in one
 *  member) check that list contents are hashed, not just sizes. */
const std::vector<Field> &
keyedFields()
{
    static const std::vector<Field> keyed = {
        {"app", [](ExperimentConfig &c) { c.app = "HPCCG"; }},
        {"input", [](ExperimentConfig &c) { c.input = InputSize::Medium; }},
        {"nprocs", [](ExperimentConfig &c) { c.nprocs = 16; }},
        {"design", [](ExperimentConfig &c) { c.design = Design::UlfmFti; }},
        {"injectFailure",
         [](ExperimentConfig &c) { c.injectFailure = false; }},
        {"failureModel",
         [](ExperimentConfig &c) {
             c.failureModel = ft::FailureModelKind::IndependentExp;
         }},
        {"meanFailures", [](ExperimentConfig &c) { c.meanFailures = 2.5; }},
        {"cascadeProb", [](ExperimentConfig &c) { c.cascadeProb = 0.7; }},
        {"corruptFraction",
         [](ExperimentConfig &c) { c.corruptFraction = 0.25; }},
        {"traceEvents",
         [](ExperimentConfig &c) {
             c.traceEvents = {{3, 1, ft::FailureKind::Crash}};
         }},
        {"traceEvents[0].rank",
         [](ExperimentConfig &c) {
             c.traceEvents = {{3, 2, ft::FailureKind::Crash}};
         }},
        {"storageFaultWindows",
         [](ExperimentConfig &c) { c.storageFaultWindows = 2; }},
        {"storageFaultPfsBias",
         [](ExperimentConfig &c) { c.storageFaultPfsBias = 0.5; }},
        {"storageFaultMeanEpochs",
         [](ExperimentConfig &c) { c.storageFaultMeanEpochs = 4; }},
        {"storageFaultStrikes",
         [](ExperimentConfig &c) { c.storageFaultStrikes = 9; }},
        {"storageFaultTrace",
         [](ExperimentConfig &c) {
             c.storageFaultTrace = {{1, 2, storage::PathClass::Pfs,
                                     storage::FaultKind::WriteFault, 2}};
         }},
        {"storageFaultTrace[0].strikes",
         [](ExperimentConfig &c) {
             c.storageFaultTrace = {{1, 2, storage::PathClass::Pfs,
                                     storage::FaultKind::WriteFault, 3}};
         }},
        {"ioRetryLimit", [](ExperimentConfig &c) { c.ioRetryLimit = 5; }},
        {"sdcChecks", [](ExperimentConfig &c) { c.sdcChecks = true; }},
        {"scrubStride", [](ExperimentConfig &c) { c.scrubStride = 5; }},
        {"drainCapacityBytes",
         [](ExperimentConfig &c) {
             c.drainCapacityBytes = std::size_t{1} << 20;
         }},
        {"transform",
         [](ExperimentConfig &c) {
             c.transform = storage::TransformKind::Delta;
         }},
        {"deltaRebase", [](ExperimentConfig &c) { c.deltaRebase = 3; }},
        {"runs", [](ExperimentConfig &c) { c.runs = 4; }},
        {"seed", [](ExperimentConfig &c) { c.seed = 43; }},
        {"ckptLevel", [](ExperimentConfig &c) { c.ckptLevel = 3; }},
        {"ckptStride", [](ExperimentConfig &c) { c.ckptStride = 5; }},
        {"costParams",
         [](ExperimentConfig &c) { c.costParams.computeFlops *= 2.0; }},
        {"noiseSigma", [](ExperimentConfig &c) { c.noiseSigma = 0.02; }},
    };
    return keyed;
}

} // namespace

TEST(Experiment, ConfigKeyCoversEveryResultFieldAndNoWallClockField)
{
    const Field wall_clock[] = {
        {"storage",
         [](ExperimentConfig &c) { c.storage = storage::Kind::Disk; }},
        {"drain",
         [](ExperimentConfig &c) { c.drain = storage::DrainMode::Sync; }},
        {"drainDepth", [](ExperimentConfig &c) { c.drainDepth = 0; }},
        {"sandboxDir",
         [](ExperimentConfig &c) { c.sandboxDir = "/elsewhere"; }},
        {"cacheDir", [](ExperimentConfig &c) { c.cacheDir = "/cache"; }},
    };

    const ExperimentConfig base = smallConfig(Design::ReinitFti, true);
    std::set<std::string> keys{configKey(base)};
    for (const Field &field : keyedFields()) {
        ExperimentConfig changed = base;
        field.mutate(changed);
        EXPECT_TRUE(keys.insert(configKey(changed)).second)
            << field.name << " does not move the key";
    }
    for (const Field &field : wall_clock) {
        ExperimentConfig changed = base;
        field.mutate(changed);
        EXPECT_EQ(configKey(changed), configKey(base))
            << field.name << " is wall-clock only but moves the key";
    }
}

TEST(Experiment, CheckpointBytesMatterOnlyOnBytesReachingAxes)
{
    // The ff-scaling shape (L1, no transform, no checks, no faults)
    // prices checkpoints by their size alone: its apps run price-only.
    ExperimentConfig base;
    base.injectFailure = false;
    EXPECT_FALSE(checkpointBytesMatter(base));
    // Injected crashes with neither corrupt events nor a trace only
    // restore state: still price-only.
    ExperimentConfig crash = base;
    crash.injectFailure = true;
    crash.failureModel = ft::FailureModelKind::IndependentExp;
    EXPECT_FALSE(checkpointBytesMatter(crash));
    // Corrupt events need injection to fire.
    ExperimentConfig idle_corrupt = base;
    idle_corrupt.corruptFraction = 0.5;
    EXPECT_FALSE(checkpointBytesMatter(idle_corrupt));

    // Each axis on its own turns the kernels back on, and each is a
    // configKey() field of the coverage test above.
    const Field reaching[] = {
        {"transform",
         [](ExperimentConfig &c) {
             c.transform = storage::TransformKind::Delta;
         }},
        {"transform",
         [](ExperimentConfig &c) {
             c.transform = storage::TransformKind::Compress;
         }},
        {"transform",
         [](ExperimentConfig &c) {
             c.transform = storage::TransformKind::DeltaCompress;
         }},
        {"sdcChecks", [](ExperimentConfig &c) { c.sdcChecks = true; }},
        {"storageFaultWindows",
         [](ExperimentConfig &c) { c.storageFaultWindows = 2; }},
        {"corruptFraction",
         [](ExperimentConfig &c) {
             c.injectFailure = true;
             c.failureModel = ft::FailureModelKind::IndependentExp;
             c.corruptFraction = 0.25;
         }},
        {"failureModel",
         [](ExperimentConfig &c) {
             c.injectFailure = true;
             c.failureModel = ft::FailureModelKind::Trace;
             c.traceEvents = {{3, 1, ft::FailureKind::Crash}};
         }},
    };
    for (const Field &axis : reaching) {
        ExperimentConfig changed = base;
        axis.mutate(changed);
        EXPECT_TRUE(checkpointBytesMatter(changed)) << axis.name;
        EXPECT_NE(configKey(changed), configKey(base)) << axis.name;
        EXPECT_TRUE(std::any_of(keyedFields().begin(), keyedFields().end(),
                                [&](const Field &f) {
                                    return std::string(f.name) == axis.name;
                                }))
            << axis.name << " is not a configKey() coverage row";
    }
}

TEST(Experiment, MiniViteCheckpointedRunsAreRepeatable)
{
    // miniVite once swapped its FTI-protected community buffer for a
    // temporary every pass, leaving the protected region on freed
    // memory: delta+compress checkpoints then encoded whatever the
    // heap held and identical cells returned different results.
    ExperimentConfig config;
    config.app = "miniVite";
    config.nprocs = 64;
    config.design = Design::ReinitFti;
    config.ckptLevel = 3;
    config.ckptStride = 1;
    config.transform = storage::TransformKind::DeltaCompress;
    config.runs = 1;
    config.sandboxDir =
        (fs::temp_directory_path() / "match-core-tests").string();
    const ExperimentResult first = runExperiment(config);
    for (int repeat = 0; repeat < 3; ++repeat) {
        const ExperimentResult again = runExperiment(config);
        ASSERT_EQ(again.perRun.size(), first.perRun.size());
        const ft::Breakdown &a = first.mean;
        const ft::Breakdown &b = again.mean;
        EXPECT_EQ(a.application, b.application) << "repeat " << repeat;
        EXPECT_EQ(a.ckptWrite, b.ckptWrite) << "repeat " << repeat;
        EXPECT_EQ(a.ckptRead, b.ckptRead) << "repeat " << repeat;
        EXPECT_EQ(a.recovery, b.recovery) << "repeat " << repeat;
        EXPECT_EQ(a.attempts, b.attempts) << "repeat " << repeat;
        EXPECT_EQ(a.recoveries, b.recoveries) << "repeat " << repeat;
        EXPECT_EQ(a.failureFired, b.failureFired) << "repeat " << repeat;
    }
}

TEST(Experiment, SdcChecksPriceVerificationWithoutChangingOutcome)
{
    auto plain = smallConfig(Design::ReinitFti, true);
    plain.runs = 2;
    auto checked = plain;
    checked.sdcChecks = true;
    checked.scrubStride = 5;
    const auto a = runExperiment(plain);
    const auto b = runExperiment(checked);
    // Nothing is corrupted: same recovery story, but the CRC verify
    // and scrub passes are priced, so checked time strictly grows.
    EXPECT_EQ(a.mean.recoveries, b.mean.recoveries);
    EXPECT_GT(b.mean.total(), a.mean.total());
}

TEST(Experiment, UnpressuredDrainCapacityIsFree)
{
    // A capacity the staged bytes never reach prices zero stall: the
    // result must be bit-identical to the unbounded default.
    auto unbounded = smallConfig(Design::RestartFti, false);
    unbounded.runs = 2;
    unbounded.ckptLevel = 4;
    unbounded.ckptStride = 2;
    auto roomy = unbounded;
    roomy.drainCapacityBytes = std::size_t{1} << 40;
    const auto a = runExperiment(unbounded);
    const auto b = runExperiment(roomy);
    for (std::size_t i = 0; i < a.perRun.size(); ++i)
        EXPECT_DOUBLE_EQ(a.perRun[i].total(), b.perRun[i].total());
}

TEST(Experiment, TightDrainCapacityStallsCheckpoints)
{
    auto unbounded = smallConfig(Design::RestartFti, false);
    unbounded.runs = 1;
    unbounded.noiseSigma = 0.0;
    unbounded.ckptLevel = 4;
    unbounded.ckptStride = 2;
    // Throttle the PFS pipe so flushes outlive the checkpoint interval
    // and staged bytes accumulate against the cap.
    unbounded.costParams.ckptL4AggregateBw /= 100.0;
    auto tight = unbounded;
    tight.drainCapacityBytes = std::size_t{1} << 18;
    const auto a = runExperiment(unbounded);
    const auto b = runExperiment(tight);
    EXPECT_GT(b.mean.ckptWrite, a.mean.ckptWrite);
    EXPECT_GT(b.mean.total(), a.mean.total());
}
