/**
 * @file
 * Failure-scenario engine contract tests: schedules are deterministic
 * pure functions of (config, seed), the Single model reproduces the
 * legacy draw order bit-for-bit, correlated cascades respect the
 * rank -> node -> rack topology, and the trace format round-trips
 * exactly (including through a file) with fatal diagnostics for every
 * malformed-line shape.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "src/ft/failure_model.hh"
#include "src/util/rng.hh"

using namespace match;
using namespace match::ft;

namespace fs = std::filesystem;

namespace
{

std::vector<FailureEvent>
generate(const FailureModelConfig &config, int nprocs, int iterations,
         std::uint64_t seed)
{
    util::Rng rng(seed);
    return generateSchedule(config, nprocs, iterations, rng);
}

} // namespace

TEST(FailureModel, ScheduleIsDeterministicPerSeed)
{
    for (const FailureModelKind kind :
         {FailureModelKind::Single, FailureModelKind::IndependentExp,
          FailureModelKind::Correlated}) {
        FailureModelConfig config;
        config.kind = kind;
        config.meanFailures = 3.0;
        config.cascadeProb = 0.5;
        const auto a = generate(config, 64, 100, 0xBEEF);
        const auto b = generate(config, 64, 100, 0xBEEF);
        const auto c = generate(config, 64, 100, 0xBEF0);
        EXPECT_EQ(a, b) << failureModelName(kind);
        // A different seed must perturb the schedule (Single always
        // redraws both fields; multi-failure models redraw arrivals).
        EXPECT_NE(a, c) << failureModelName(kind);
    }
}

TEST(FailureModel, SingleReproducesLegacyDrawOrder)
{
    // The paper's injection drew iteration first, then rank, from the
    // cell RNG. The golden result fixtures depend on this sequence.
    const int nprocs = 48;
    const int iterations = 500;
    FailureModelConfig config;
    config.kind = FailureModelKind::Single;
    for (const std::uint64_t seed : {1ull, 77ull, 20260807ull}) {
        util::Rng legacy(seed);
        const int iteration = 1 + static_cast<int>(legacy.below(
                                      static_cast<std::uint64_t>(
                                          iterations - 1)));
        const int rank = static_cast<int>(
            legacy.below(static_cast<std::uint64_t>(nprocs)));
        const auto events = generate(config, nprocs, iterations, seed);
        ASSERT_EQ(events.size(), 1u);
        EXPECT_EQ(events[0].iteration, iteration);
        EXPECT_EQ(events[0].rank, rank);
        EXPECT_EQ(events[0].kind, FailureKind::Crash);
    }
}

TEST(FailureModel, EventsSortedAndInRange)
{
    FailureModelConfig config;
    config.kind = FailureModelKind::IndependentExp;
    config.meanFailures = 8.0;
    const int nprocs = 32;
    const int iterations = 64;
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        const auto events = generate(config, nprocs, iterations, seed);
        for (std::size_t i = 0; i < events.size(); ++i) {
            EXPECT_GE(events[i].iteration, 1);
            EXPECT_LE(events[i].iteration, iterations - 1);
            EXPECT_GE(events[i].rank, 0);
            EXPECT_LT(events[i].rank, nprocs);
            if (i > 0) {
                EXPECT_LE(events[i - 1].iteration,
                          events[i].iteration);
            }
        }
    }
}

TEST(FailureModel, IndependentMeanFailuresSetsExpectedCount)
{
    FailureModelConfig config;
    config.kind = FailureModelKind::IndependentExp;
    config.meanFailures = 4.0;
    double total = 0.0;
    const int trials = 400;
    for (int seed = 0; seed < trials; ++seed)
        total += static_cast<double>(
            generate(config, 16, 1000, 7000 + seed).size());
    const double mean = total / trials;
    // Poisson(4) sample mean over 400 trials: sigma ~ 0.1, so a +/-0.5
    // band is a ~5-sigma acceptance window.
    EXPECT_NEAR(mean, 4.0, 0.5);
}

TEST(FailureModel, CorruptFractionDemotesEvents)
{
    FailureModelConfig config;
    config.kind = FailureModelKind::IndependentExp;
    config.meanFailures = 6.0;
    config.corruptFraction = 1.0;
    const auto corrupt = generate(config, 16, 200, 99);
    ASSERT_FALSE(corrupt.empty());
    for (const FailureEvent &event : corrupt)
        EXPECT_EQ(event.kind, FailureKind::Corrupt);

    config.corruptFraction = 0.0;
    const auto crash = generate(config, 16, 200, 99);
    ASSERT_FALSE(crash.empty());
    for (const FailureEvent &event : crash)
        EXPECT_EQ(event.kind, FailureKind::Crash);
    // The kind draw is always taken, so toggling the fraction changes
    // only kinds, never the arrival/rank sequence.
    ASSERT_EQ(corrupt.size(), crash.size());
    for (std::size_t i = 0; i < corrupt.size(); ++i) {
        EXPECT_EQ(corrupt[i].iteration, crash[i].iteration);
        EXPECT_EQ(corrupt[i].rank, crash[i].rank);
    }
}

TEST(FailureModel, CorrelatedCascadesStayInsideTheRackDomain)
{
    // With cascadeProb = 1.0 every failure domain escalates to the
    // full rack and every peer in it crashes, so each iteration's
    // event group must cover whole racks: any rack that appears at an
    // iteration appears completely.
    FailureModelConfig config;
    config.kind = FailureModelKind::Correlated;
    config.meanFailures = 3.0;
    config.cascadeProb = 1.0;
    config.ranksPerNode = 4;
    config.nodesPerRack = 2; // rack = 8 ranks
    const int per_rack = config.ranksPerNode * config.nodesPerRack;
    const int nprocs = 32;
    const auto events = generate(config, nprocs, 100, 0xACE);
    ASSERT_FALSE(events.empty());
    // Cascades make groups strictly larger than the primary count.
    std::set<int> iterations;
    for (const FailureEvent &event : events)
        iterations.insert(event.iteration);
    EXPECT_GT(events.size(), iterations.size());
    for (const int iteration : iterations) {
        std::set<int> racks;
        std::set<int> ranks;
        for (const FailureEvent &event : events) {
            if (event.iteration != iteration)
                continue;
            racks.insert(event.rank / per_rack);
            ranks.insert(event.rank);
        }
        for (const int rack : racks) {
            for (int r = rack * per_rack; r < (rack + 1) * per_rack;
                 ++r) {
                EXPECT_TRUE(ranks.count(r))
                    << "iteration " << iteration << " rack " << rack
                    << " missing rank " << r;
            }
        }
    }
}

TEST(FailureModel, CorrelatedZeroCascadeMatchesIndependentArrivals)
{
    // cascadeProb = 0 degenerates Correlated to IndependentExp plus
    // one extra uniform draw (the escalation roll) after each kind
    // draw — the primaries themselves must match draw-for-draw until
    // the first post-primary divergence, so just check the first one.
    FailureModelConfig correlated;
    correlated.kind = FailureModelKind::Correlated;
    correlated.meanFailures = 2.0;
    correlated.cascadeProb = 0.0;
    FailureModelConfig independent = correlated;
    independent.kind = FailureModelKind::IndependentExp;
    const auto a = generate(correlated, 64, 300, 5);
    const auto b = generate(independent, 64, 300, 5);
    ASSERT_FALSE(a.empty());
    ASSERT_FALSE(b.empty());
    EXPECT_EQ(a[0], b[0]);
}

TEST(FailureModel, TraceTextRoundTripsExactly)
{
    FailureModelConfig config;
    config.kind = FailureModelKind::Correlated;
    config.meanFailures = 4.0;
    config.cascadeProb = 0.6;
    config.corruptFraction = 0.25;
    const auto events = generate(config, 128, 400, 0xF00D);
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(parseTrace(serializeTrace(events)), events);
}

TEST(FailureModel, TraceFileRoundTripsExactly)
{
    const fs::path path =
        fs::temp_directory_path() / "match-failure-model.trace";
    FailureModelConfig config;
    config.kind = FailureModelKind::IndependentExp;
    config.meanFailures = 5.0;
    config.corruptFraction = 0.5;
    const auto events = generate(config, 64, 250, 0xCAFE);
    ASSERT_FALSE(events.empty());
    writeTraceFile(path.string(), events);
    EXPECT_EQ(readTraceFile(path.string()), events);
    fs::remove(path);
}

TEST(FailureModel, TraceParserSkipsCommentsAndBlankLines)
{
    const auto events = parseTrace("# header comment\n"
                                   "\n"
                                   "3 1 crash\n"
                                   "   \n"
                                   "5 0 corrupt # inline comment\n"
                                   "# trailing comment\n");
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0], (FailureEvent{3, 1, FailureKind::Crash}));
    EXPECT_EQ(events[1], (FailureEvent{5, 0, FailureKind::Corrupt}));
}

TEST(FailureModelDeath, TraceParserRejectsMalformedLines)
{
    EXPECT_EXIT(parseTrace("3 1\n"), ::testing::ExitedWithCode(1),
                "want 'iteration rank kind'");
    EXPECT_EXIT(parseTrace("3 1 melt\n"), ::testing::ExitedWithCode(1),
                "unknown kind 'melt'");
    EXPECT_EXIT(parseTrace("3 1 crash extra\n"),
                ::testing::ExitedWithCode(1), "trailing 'extra'");
    EXPECT_EXIT(parseTrace("3 -1 crash\n"),
                ::testing::ExitedWithCode(1), "negative");
}

TEST(FailureModelDeath, TraceParserRejectsLinesThatAreNotEvents)
{
    // A line with any token left after the '#' strip is an event or a
    // fatal error, never a silently skipped blank line.
    for (const char *garbage : {"crash 3 5", "99999999999 1 crash", "x",
                                "-- 2 crash", "3 99999999999 crash"}) {
        EXPECT_EXIT(parseTrace(std::string("3 1 crash\n") + garbage +
                               "  # comment\n"),
                    ::testing::ExitedWithCode(1),
                    "failure trace line 2: want 'iteration rank kind'")
            << garbage;
    }
}

TEST(FailureModelDeath, TraceRankOutOfRangeIsFatalAtGeneration)
{
    FailureModelConfig config;
    config.kind = FailureModelKind::Trace;
    config.trace = {FailureEvent{2, 8, FailureKind::Crash}};
    util::Rng rng(1);
    EXPECT_EXIT(generateSchedule(config, 8, 10, rng),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(FailureModel, TraceModelConsumesNoRandomDraws)
{
    FailureModelConfig config;
    config.kind = FailureModelKind::Trace;
    config.trace = {FailureEvent{4, 2, FailureKind::Crash},
                    FailureEvent{2, 0, FailureKind::Corrupt}};
    util::Rng rng(9);
    const std::uint64_t probe = util::Rng(9).below(1u << 30);
    const auto events = generateSchedule(config, 8, 10, rng);
    // Replay sorts by iteration but must not touch the generator.
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].iteration, 2);
    EXPECT_EQ(events[1].iteration, 4);
    EXPECT_EQ(rng.below(1u << 30), probe);
}

TEST(FailureModel, InjectionScheduleMirrorsEvents)
{
    EXPECT_EQ(toInjectionSchedule({}), nullptr);
    const std::vector<FailureEvent> events = {
        {3, 1, FailureKind::Crash}, {7, 4, FailureKind::Corrupt}};
    const auto schedule = toInjectionSchedule(events);
    ASSERT_NE(schedule, nullptr);
    ASSERT_EQ(schedule->events.size(), 2u);
    EXPECT_EQ(schedule->events[0].iteration, 3);
    EXPECT_EQ(schedule->events[0].rank, 1);
    EXPECT_FALSE(schedule->events[0].corrupt);
    EXPECT_FALSE(schedule->events[0].fired);
    EXPECT_TRUE(schedule->events[1].corrupt);
}

TEST(FailureModel, NamesAndParsingAgree)
{
    for (const FailureModelKind kind : allFailureModels) {
        FailureModelKind parsed;
        ASSERT_TRUE(parseFailureModel(failureModelName(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
    FailureModelKind parsed;
    EXPECT_FALSE(parseFailureModel("weibull", parsed));
    EXPECT_STREQ(failureKindName(FailureKind::Crash), "crash");
    EXPECT_STREQ(failureKindName(FailureKind::Corrupt), "corrupt");
}
