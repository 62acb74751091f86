/**
 * @file
 * Proxy-application tests: Table-I argument parsing, numerical sanity of
 * the real kernels, and the end-to-end failure-equivalence property
 * (a failure + recovery must not change the computed answer) for every
 * app under every fault-tolerance design.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <utility>

#include "src/apps/amg.hh"
#include "src/apps/app.hh"
#include "src/apps/comd.hh"
#include "src/apps/hpccg.hh"
#include "src/apps/lulesh.hh"
#include "src/apps/minife.hh"
#include "src/apps/minivite.hh"
#include "src/ft/design.hh"
#include "src/ft/failure_model.hh"
#include "src/fti/fti.hh"
#include "src/storage/backend.hh"
#include "src/storage/blob.hh"
#include "src/storage/drain.hh"
#include "src/util/rng.hh"

namespace fs = std::filesystem;
using namespace match;
using namespace match::apps;
using match::ft::Design;

namespace
{

ft::DesignRunConfig
appRunConfig(const std::string &app, Design design, bool inject,
             int fail_iter, int procs = 8)
{
    ft::DesignRunConfig cfg;
    cfg.design = design;
    cfg.nprocs = procs;
    cfg.ftiConfig.ckptDir =
        (fs::temp_directory_path() / "match-app-tests").string();
    cfg.ftiConfig.execId = app + "-" + ft::designName(design) +
                           (inject ? "-f" : "-nf") +
                           std::to_string(procs);
    if (inject)
        cfg.failureEvents = {{fail_iter, procs / 2}};
    return cfg;
}

std::vector<double>
runApp(const std::string &app, Design design, bool inject, int procs = 8,
       bool kernels = true)
{
    const AppSpec &spec = findApp(app);
    AppParams params;
    params.input = InputSize::Small;
    params.nprocs = procs;
    params.kernels = kernels;
    std::vector<double> finals(procs, 0.0);
    params.finals = &finals;
    // Fail roughly mid-loop (after at least one checkpoint at stride 10).
    const int fail_iter =
        std::max(2, spec.loopIterations(params) * 3 / 5);
    const auto cfg = appRunConfig(app, design, inject, fail_iter, procs);
    ft::runDesign(cfg, [&](simmpi::Proc &proc,
                           const fti::FtiConfig &fcfg) {
        spec.main(proc, fcfg, params);
    });
    return finals;
}

/** 64-bit FNV-1a over the finals, one 64-bit word (a double's bits)
 *  per step in rank order. */
std::uint64_t
finalsHash(const std::vector<double> &finals)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (double v : finals) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        h = (h ^ bits) * 1099511628211ULL;
    }
    return h;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

} // namespace

// ---------------------------------------------------------------------------
// Table-I argument parsing
// ---------------------------------------------------------------------------

TEST(AppArgs, HpccgParsesTableI)
{
    const auto cfg = HpccgConfig::fromArgs(splitArgs("128 128 128"));
    EXPECT_EQ(cfg.nx, 128);
    EXPECT_EQ(cfg.ny, 128);
    EXPECT_EQ(cfg.nz, 128);
}

TEST(AppArgs, MinifeParsesTableI)
{
    const auto cfg =
        MinifeConfig::fromArgs(splitArgs("-nx 40 -ny 41 -nz 42"));
    EXPECT_EQ(cfg.nx, 40);
    EXPECT_EQ(cfg.ny, 41);
    EXPECT_EQ(cfg.nz, 42);
}

TEST(AppArgs, AmgParsesTableI)
{
    const auto cfg =
        AmgConfig::fromArgs(splitArgs("-problem 2 -n 60 60 60"));
    EXPECT_EQ(cfg.problem, 2);
    EXPECT_EQ(cfg.nx, 60);
    EXPECT_EQ(cfg.ny, 60);
    EXPECT_EQ(cfg.nz, 60);
}

TEST(AppArgs, ComdParsesTableI)
{
    const auto cfg =
        ComdConfig::fromArgs(splitArgs("-nx 256 -ny 256 -nz 256"));
    EXPECT_EQ(cfg.nx, 256);
    EXPECT_DOUBLE_EQ(cfg.globalAtoms(), 4.0 * 256 * 256 * 256);
}

TEST(AppArgs, LuleshParsesTableI)
{
    const auto cfg = LuleshConfig::fromArgs(splitArgs("-s 40 -p"));
    EXPECT_EQ(cfg.s, 40);
    EXPECT_TRUE(cfg.progress);
    EXPECT_EQ(cfg.physicalIterations(), 932 * 40 / 30);
}

TEST(AppArgs, MiniviteParsesTableI)
{
    const auto cfg =
        MiniviteConfig::fromArgs(splitArgs("-p 3 -l -n 256000"));
    EXPECT_EQ(cfg.vertices, 256000);
    EXPECT_EQ(cfg.degreeKnob, 3);
    EXPECT_TRUE(cfg.synthetic);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(AppRegistry, HasTheSixPaperApps)
{
    const auto &apps = registry();
    ASSERT_EQ(apps.size(), 6u);
    for (const char *name :
         {"AMG", "CoMD", "HPCCG", "LULESH", "miniFE", "miniVite"})
        EXPECT_NO_FATAL_FAILURE(findApp(name));
}

TEST(AppRegistry, LuleshRunsOnCubeCountsOnly)
{
    EXPECT_EQ(findApp("LULESH").scalingSizes, (std::vector<int>{64, 512}));
    EXPECT_EQ(findApp("AMG").scalingSizes,
              (std::vector<int>{64, 128, 256, 512}));
}

TEST(AppRegistry, TableIArgsMatchPaper)
{
    EXPECT_EQ(findApp("AMG").args(InputSize::Small),
              "-problem 2 -n 20 20 20");
    EXPECT_EQ(findApp("CoMD").args(InputSize::Large),
              "-nx 512 -ny 512 -nz 512");
    EXPECT_EQ(findApp("HPCCG").args(InputSize::Medium), "128 128 128");
    EXPECT_EQ(findApp("LULESH").args(InputSize::Small), "-s 30 -p");
    EXPECT_EQ(findApp("miniFE").args(InputSize::Large),
              "-nx 60 -ny 60 -nz 60");
    EXPECT_EQ(findApp("miniVite").args(InputSize::Small),
              "-p 3 -l -n 128000");
}

// ---------------------------------------------------------------------------
// Numerical sanity of the real kernels
// ---------------------------------------------------------------------------

TEST(AppNumerics, HpccgResidualDecreases)
{
    // The CG solve must make progress: the final residual norm is far
    // below the initial one (||b|| of the all-ones RHS).
    const auto finals = runApp("HPCCG", Design::ReinitFti, false);
    for (double r : finals) {
        EXPECT_GT(r, 0.0);
        EXPECT_LT(r, 1.0); // initial norm is sqrt(rows*P) >> 1
        EXPECT_FALSE(std::isnan(r));
    }
}

TEST(AppNumerics, MinifeResidualDecreases)
{
    const auto finals = runApp("miniFE", Design::ReinitFti, false);
    for (double r : finals) {
        EXPECT_LT(r, 1.0);
        EXPECT_FALSE(std::isnan(r));
    }
}

TEST(AppNumerics, AmgResidualIsFiniteAndSmall)
{
    const auto finals = runApp("AMG", Design::ReinitFti, false);
    for (double r : finals) {
        EXPECT_GE(r, 0.0);
        EXPECT_LT(r, 10.0); // 30 V-cycles on a smooth problem
        EXPECT_FALSE(std::isnan(r));
    }
}

TEST(AppNumerics, ComdEnergyIsFinite)
{
    const auto finals = runApp("CoMD", Design::ReinitFti, false);
    for (double e : finals) {
        EXPECT_FALSE(std::isnan(e));
        EXPECT_NE(e, 0.0);
    }
}

TEST(AppNumerics, LuleshEnergyConservedOnNonOriginRanks)
{
    const auto finals = runApp("LULESH", Design::ReinitFti, false);
    for (double e : finals) {
        EXPECT_GE(e, 0.0);
        EXPECT_FALSE(std::isnan(e));
    }
    // The Sedov energy deposit starts on rank 0.
    EXPECT_GT(finals[0], 0.0);
}

TEST(AppNumerics, MiniviteModularityImproves)
{
    // Louvain on a planted-block graph must find substantial community
    // structure: most edges end up intra-community.
    const auto finals = runApp("miniVite", Design::ReinitFti, false);
    for (double m : finals) {
        EXPECT_GT(m, 0.5);
        EXPECT_LE(m, 1.0);
    }
}

namespace
{

/** The kernels are rewritten for speed only under one rule: every
 *  floating-point operation runs in the same order, so each app's
 *  answer at p8 is pinned to the bit. A change here is a result
 *  change: it needs a kResultFormatVersion bump and new pins. */
void
expectFinalsPinned(bool kernels)
{
    const std::pair<const char *, std::uint64_t> pins[] = {
        {"AMG", 0x833bb15b785ef483ULL},
        {"CoMD", 0x4dad21999ed483c3ULL},
        {"HPCCG", 0xa0594445a1d9fd83ULL},
        {"LULESH", 0x6062e91f8704ab74ULL},
        {"miniFE", 0x4e7fd32e80d77763ULL},
        {"miniVite", 0x421d6cedca21875bULL},
    };
    for (const auto &[app, pin] : pins)
        for (Design design :
             {Design::RestartFti, Design::ReinitFti, Design::UlfmFti})
            EXPECT_EQ(finalsHash(runApp(app, design, false, 8, kernels)),
                      pin)
                << app << " under " << ft::designName(design);
}

} // namespace

TEST(AppNumerics, FinalsPinnedBitForBit)
{
    expectFinalsPinned(true);
}

TEST(AppNumerics, FinalsPinnedBitForBitWhenPriceOnlyIsRequested)
{
    // A finals sink always runs the real kernels: an answer is never
    // read from a price-only run.
    expectFinalsPinned(false);
}

// ---------------------------------------------------------------------------
// CoMD's neighbour list is bit-identical to the all-pairs loop
// ---------------------------------------------------------------------------

namespace
{

struct Atoms
{
    std::vector<double> x, y, z;
};

struct Forces
{
    std::vector<double> fx, fy, fz;
    double pot = 0.0;
};

/** The all-pairs Lennard-Jones loop the neighbour list replaces. */
Forces
allPairsForces(const Atoms &a)
{
    const int n = static_cast<int>(a.x.size());
    Forces f{std::vector<double>(n, 0.0), std::vector<double>(n, 0.0),
             std::vector<double>(n, 0.0), 0.0};
    const double rc2 = detail::ljCutoff * detail::ljCutoff;
    for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
            const double dx = a.x[i] - a.x[j];
            const double dy = a.y[i] - a.y[j];
            const double dz = a.z[i] - a.z[j];
            const double r2 = dx * dx + dy * dy + dz * dz;
            if (r2 > rc2 || r2 < 1e-12)
                continue;
            const double inv2 = 1.0 / r2;
            const double inv6 = inv2 * inv2 * inv2;
            const double force = 24.0 * inv2 * inv6 * (2.0 * inv6 - 1.0);
            f.fx[i] += force * dx;
            f.fy[i] += force * dy;
            f.fz[i] += force * dz;
            f.fx[j] -= force * dx;
            f.fy[j] -= force * dy;
            f.fz[j] -= force * dz;
            f.pot += 4.0 * inv6 * (inv6 - 1.0);
        }
    }
    return f;
}

Forces
listForces(detail::LjNeighbourList &list, const Atoms &a)
{
    const int n = static_cast<int>(a.x.size());
    Forces f{std::vector<double>(n), std::vector<double>(n),
             std::vector<double>(n), 0.0};
    f.pot = list.forces(a.x.data(), a.y.data(), a.z.data(), f.fx.data(),
                        f.fy.data(), f.fz.data(), n);
    return f;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void
expectListMatchesAllPairs(detail::LjNeighbourList &list, const Atoms &a)
{
    const Forces got = listForces(list, a);
    const Forces want = allPairsForces(a);
    EXPECT_TRUE(sameBits(got.fx, want.fx));
    EXPECT_TRUE(sameBits(got.fy, want.fy));
    EXPECT_TRUE(sameBits(got.fz, want.fz));
    EXPECT_TRUE(sameBits(got.pot, want.pot))
        << got.pot << " vs " << want.pot;
}

/** 64 atoms uniformly at random in a box of edge 6 (CoMD's real set
 *  has 64 atoms in a box of edge 8; denser puts more pairs near the
 *  cutoff). */
Atoms
randomAtoms(std::uint64_t seed)
{
    util::Rng rng(seed);
    Atoms a;
    for (int i = 0; i < 64; ++i) {
        a.x.push_back(rng.uniform(0.0, 6.0));
        a.y.push_back(rng.uniform(0.0, 6.0));
        a.z.push_back(rng.uniform(0.0, 6.0));
    }
    return a;
}

/** Largest per-atom displacement that keeps the list. */
constexpr double kKeepRadius =
    0.5 * detail::rebuildFraction * detail::verletSkin;

/** Move atom i by `length` towards atom j. */
void
moveTowards(Atoms &a, int i, int j, double length)
{
    const double dx = a.x[j] - a.x[i];
    const double dy = a.y[j] - a.y[i];
    const double dz = a.z[j] - a.z[i];
    const double d = std::sqrt(dx * dx + dy * dy + dz * dz);
    a.x[i] += length * dx / d;
    a.y[i] += length * dy / d;
    a.z[i] += length * dz / d;
}

/** For each atom, the nearest atom outside the list radius: the pair
 *  a too-small skin would first miss. */
std::vector<int>
nearestUnlisted(const Atoms &a)
{
    const double rl = detail::ljCutoff + detail::verletSkin;
    const int n = static_cast<int>(a.x.size());
    std::vector<int> partner(n, -1);
    for (int i = 0; i < n; ++i) {
        double best = 0.0;
        for (int j = 0; j < n; ++j) {
            const double dx = a.x[i] - a.x[j];
            const double dy = a.y[i] - a.y[j];
            const double dz = a.z[i] - a.z[j];
            const double r2 = dx * dx + dy * dy + dz * dz;
            if (r2 > rl * rl && (partner[i] < 0 || r2 < best)) {
                partner[i] = j;
                best = r2;
            }
        }
    }
    return partner;
}

} // namespace

TEST(ComdNeighbourList, MatchesAllPairsOnRandomConfigurations)
{
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        detail::LjNeighbourList list;
        expectListMatchesAllPairs(list, randomAtoms(seed));
        EXPECT_EQ(list.builds(), 1);
    }
}

TEST(ComdNeighbourList, MovesJustUnderTheThresholdKeepTheListExact)
{
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        Atoms a = randomAtoms(seed);
        detail::LjNeighbourList list;
        expectListMatchesAllPairs(list, a);
        // Every atom closes on its nearest unlisted atom by just under
        // the keep radius: mutual partners close the gap by twice that.
        const std::vector<int> partner = nearestUnlisted(a);
        for (int i = 0; i < 64; ++i)
            if (partner[i] >= 0)
                moveTowards(a, i, partner[i], 0.999 * kKeepRadius);
        expectListMatchesAllPairs(list, a);
        EXPECT_EQ(list.builds(), 1) << "seed " << seed;
    }
}

TEST(ComdNeighbourList, AMoveJustOverTheThresholdRebuilds)
{
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        Atoms a = randomAtoms(seed);
        detail::LjNeighbourList list;
        expectListMatchesAllPairs(list, a);
        const int i = static_cast<int>(seed % 64);
        const int j = nearestUnlisted(a)[i];
        ASSERT_GE(j, 0);
        moveTowards(a, i, j, 1.001 * kKeepRadius);
        expectListMatchesAllPairs(list, a);
        EXPECT_EQ(list.builds(), 2) << "seed " << seed;
    }
}

TEST(ComdNeighbourList, RestoringOlderPositionsInPlaceStaysExact)
{
    // FTI restores the protected positions in place: the list sees the
    // same arrays jump back to an older configuration.
    Atoms a = randomAtoms(7);
    const Atoms checkpoint = a;
    detail::LjNeighbourList list;
    expectListMatchesAllPairs(list, a);
    util::Rng rng(99);
    for (int step = 0; step < 40; ++step) {
        for (int i = 0; i < 64; ++i) {
            a.x[i] += rng.uniform(-0.02, 0.02);
            a.y[i] += rng.uniform(-0.02, 0.02);
            a.z[i] += rng.uniform(-0.02, 0.02);
        }
        expectListMatchesAllPairs(list, a);
    }
    const int builds = list.builds();
    EXPECT_GT(builds, 1);
    a = checkpoint;
    expectListMatchesAllPairs(list, a);
    EXPECT_EQ(list.builds(), builds + 1);
}

TEST(ComdNeighbourList, NonFinitePositionsMatchTheAllPairsLoop)
{
    // A silently corrupted restore can leave NaN or infinite positions.
    // The all-pairs loop lets a NaN distance through its cutoff test,
    // so the list must keep such pairs rather than drop them.
    Atoms a = randomAtoms(3);
    detail::LjNeighbourList list;
    expectListMatchesAllPairs(list, a);
    a.x[5] = std::nan("");
    expectListMatchesAllPairs(list, a);
    a.y[9] = std::numeric_limits<double>::infinity();
    expectListMatchesAllPairs(list, a);
    EXPECT_EQ(list.builds(), 3);
}

// ---------------------------------------------------------------------------
// Failure equivalence: every app under every design
// ---------------------------------------------------------------------------

class AppDesignMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, Design>>
{
};

TEST_P(AppDesignMatrix, FailureDoesNotChangeTheAnswer)
{
    const auto [app, design] = GetParam();
    // Requesting a price-only run with a finals sink still runs the
    // kernels, so its checkpoints must snapshot and restore real state.
    for (const bool kernels : {true, false}) {
        const auto clean = runApp(app, design, false, 8, kernels);
        const auto failed = runApp(app, design, true, 8, kernels);
        ASSERT_EQ(clean.size(), failed.size());
        for (std::size_t r = 0; r < clean.size(); ++r)
            EXPECT_TRUE(sameBits(clean[r], failed[r]))
                << clean[r] << " vs " << failed[r] << ": " << app
                << " under " << ft::designName(design) << " rank " << r
                << (kernels ? "" : ", kernels = false requested");
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllAppsAllDesigns, AppDesignMatrix,
    ::testing::Combine(::testing::Values("AMG", "CoMD", "HPCCG", "LULESH",
                                         "miniFE", "miniVite"),
                       ::testing::Values(Design::RestartFti,
                                         Design::ReinitFti,
                                         Design::UlfmFti)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
               std::string(ft::designName(std::get<1>(info.param)))
                   .substr(0, std::string(ft::designName(
                                              std::get<1>(info.param)))
                                  .find('-'));
    });

// ---------------------------------------------------------------------------
// Price-only runs: without the kernels, only checkpoint bytes change
// ---------------------------------------------------------------------------

namespace
{

/** What a run leaves outside its checkpoint contents: the breakdown,
 *  the bytes it stored (data objects and commit records alike) and
 *  shipped, and (on disk) the size of every file it left behind. */
struct PricedRun
{
    ft::Breakdown breakdown;
    std::uint64_t bytesStored = 0;
    std::uint64_t shippedBytes = 0;
    std::vector<std::pair<std::string, std::uintmax_t>> files;
};

/** The sandbox's files and their sizes, by path under the sandbox. */
std::vector<std::pair<std::string, std::uintmax_t>>
sandboxFiles(const fti::FtiConfig &config)
{
    std::vector<std::pair<std::string, std::uintmax_t>> files;
    const fs::path root = fti::Fti::execDir(config);
    for (const auto &entry : fs::recursive_directory_iterator(root))
        if (entry.is_regular_file())
            files.emplace_back(
                fs::relative(entry.path(), root).string(),
                entry.file_size());
    std::sort(files.begin(), files.end());
    return files;
}

/** One run at `level` on a fresh backend of `kind`. MemBackend counts
 *  every local write and every L2/L3 redundancy object; the drain
 *  counts the L4 flushes on either backend. */
PricedRun
runPriced(const std::string &app, Design design,
          const std::vector<ft::FailureEvent> &events, bool kernels,
          int procs, int level, storage::Kind kind)
{
    const AppSpec &spec = findApp(app);
    AppParams params;
    params.input = InputSize::Small;
    params.nprocs = procs;
    params.kernels = kernels;
    ft::DesignRunConfig cfg = appRunConfig(app, design, false, 0, procs);
    cfg.failureEvents = events;
    cfg.ftiConfig.defaultLevel = level;
    cfg.ftiConfig.backend = storage::makeBackend(kind);
    const std::uint64_t stored0 =
        storage::BlobPool::globalStats().bytesStored;
    const std::uint64_t shipped0 = storage::drainGlobalShippedBytes();
    PricedRun run;
    run.breakdown = ft::runDesign(cfg, [&](simmpi::Proc &proc,
                                           const fti::FtiConfig &fcfg) {
        spec.main(proc, fcfg, params);
    });
    run.bytesStored = storage::BlobPool::globalStats().bytesStored - stored0;
    run.shippedBytes = storage::drainGlobalShippedBytes() - shipped0;
    if (kind == storage::Kind::Disk) {
        run.files = sandboxFiles(cfg.ftiConfig);
        fti::Fti::purge(cfg.ftiConfig);
    }
    return run;
}

/** The three failure scenarios of the matrix: none, the paper's one
 *  crash mid-loop, and an `independent` schedule of mean 2. */
std::vector<std::pair<const char *, std::vector<ft::FailureEvent>>>
priceScenarios(const std::string &app, int procs)
{
    AppParams params;
    params.nprocs = procs;
    const int iters = findApp(app).loopIterations(params);
    ft::FailureModelConfig fm;
    fm.kind = ft::FailureModelKind::IndependentExp;
    fm.meanFailures = 2.0;
    util::Rng rng(2027);
    std::vector<ft::FailureEvent> independent =
        ft::generateSchedule(fm, procs, iters, rng);
    EXPECT_FALSE(independent.empty());
    return {{"failure-free", {}},
            {"one crash", {{std::max(2, iters * 3 / 5), procs / 2}}},
            {"independent", std::move(independent)}};
}

/** Both ways at every level, under all three failure scenarios.
 *  Price-only runs store zero images, so at L2 and L3 the partner
 *  copies, RS parity and any rebuild run over zero shards. */
void
expectPriceOnlyMatchesKernels(const std::string &app, Design design,
                              int procs,
                              storage::Kind kind = storage::Kind::Mem)
{
    for (int level = 1; level <= 4; ++level) {
        for (const auto &[scenario, events] :
             priceScenarios(app, procs)) {
            const PricedRun full =
                runPriced(app, design, events, true, procs, level, kind);
            const PricedRun priced =
                runPriced(app, design, events, false, procs, level, kind);
            const ft::Breakdown &a = full.breakdown;
            const ft::Breakdown &b = priced.breakdown;
            const std::string where =
                app + " under " + ft::designName(design) + ", L" +
                std::to_string(level) + ", " + scenario + ", p" +
                std::to_string(procs) + " on " + storage::kindName(kind);
            EXPECT_TRUE(sameBits(a.application, b.application)) << where;
            EXPECT_TRUE(sameBits(a.ckptWrite, b.ckptWrite)) << where;
            EXPECT_TRUE(sameBits(a.ckptRead, b.ckptRead)) << where;
            EXPECT_TRUE(sameBits(a.recovery, b.recovery)) << where;
            EXPECT_EQ(a.attempts, b.attempts) << where;
            EXPECT_EQ(a.recoveries, b.recoveries) << where;
            EXPECT_EQ(a.failureFired, b.failureFired) << where;
            EXPECT_EQ(full.bytesStored, priced.bytesStored) << where;
            EXPECT_EQ(full.shippedBytes, priced.shippedBytes) << where;
            EXPECT_EQ(full.files, priced.files) << where;
            if (kind == storage::Kind::Mem)
                EXPECT_GT(full.bytesStored, 0u) << where;
            else
                EXPECT_FALSE(full.files.empty()) << where;
            EXPECT_EQ(full.shippedBytes > 0, level == 4) << where;
            EXPECT_EQ(a.failureFired, !events.empty()) << where;
        }
    }
}

} // namespace

class PriceOnlyMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, Design>>
{
};

TEST_P(PriceOnlyMatrix, SkippingKernelsLeavesTheBreakdownBitIdentical)
{
    const auto [app, design] = GetParam();
    expectPriceOnlyMatchesKernels(app, design, 8);
}

INSTANTIATE_TEST_SUITE_P(
    AllAppsAllDesigns, PriceOnlyMatrix,
    ::testing::Combine(::testing::Values("AMG", "CoMD", "HPCCG", "LULESH",
                                         "miniFE", "miniVite"),
                       ::testing::Values(Design::RestartFti,
                                         Design::ReinitFti,
                                         Design::UlfmFti)),
    [](const auto &info) {
        const std::string design = ft::designName(std::get<1>(info.param));
        return std::get<0>(info.param) + "_" +
               design.substr(0, design.find('-'));
    });

TEST(PriceOnly, P64HpccgMatchesKernels)
{
    expectPriceOnlyMatchesKernels("HPCCG", Design::ReinitFti, 64);
}

TEST(PriceOnly, DiskBackendMatchesKernels)
{
    // DiskBackend writes the zero images as real files and reads them
    // back through the same size and CRC check.
    expectPriceOnlyMatchesKernels("HPCCG", Design::RestartFti, 8,
                                  storage::Kind::Disk);
}
