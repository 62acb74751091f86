#include "src/core/experiment.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "src/fti/fti.hh"
#include "src/util/logging.hh"
#include "src/util/rng.hh"

namespace match::core
{

std::uint64_t
cellSeed(const ExperimentConfig &config, int run)
{
    std::uint64_t state = config.seed;
    for (char c : config.app)
        util::splitmix64(state += static_cast<unsigned char>(c));
    state ^= static_cast<std::uint64_t>(config.input) * 0x9e37ULL;
    state ^= static_cast<std::uint64_t>(config.nprocs) << 16;
    state ^= static_cast<std::uint64_t>(config.design) << 40;
    state ^= static_cast<std::uint64_t>(run) << 52;
    return util::splitmix64(state);
}

std::string
execId(const ExperimentConfig &config, int run)
{
    // The config-key component separates different cells; the pid
    // separates identical cells computed by two concurrent processes
    // (two figure benches share grid cells by default), so one
    // process's end-of-run purge can never hit the other's sandbox.
    std::ostringstream id;
    id << config.app << "-" << apps::inputSizeName(config.input) << "-p"
       << config.nprocs << "-" << ft::designName(config.design) << "-r"
       << run << "-k" << configKey(config) << "-" << ::getpid();
    return id.str();
}

namespace
{

/** Triangular-ish noise in [1-2s, 1+2s] (sum of two uniforms). */
double
noiseFactor(util::Rng &rng, double sigma)
{
    return 1.0 + sigma * (rng.uniform(-1.0, 1.0) + rng.uniform(-1.0, 1.0));
}

/** Dedicated RNG stream for the storage-fault plan: the per-run default
 *  stream keeps feeding the process-failure schedule and noise model
 *  draw-for-draw, so turning storage faults on or off never perturbs
 *  them. */
constexpr std::uint64_t kStorageFaultStream = 0x5fa17ULL;

} // anonymous namespace

// Tripwire: a new ExperimentConfig field changes the struct's size and
// fails this assert until it is hashed below (or listed as wall-clock
// only in configKey's documentation), added to the key-coverage test
// in tests/core/test_experiment.cc, and the size here updated. The
// size is pinned for the LP64 libstdc++ ABI the CI builds with.
#if defined(__GLIBCXX__) && defined(__LP64__)
static_assert(sizeof(ExperimentConfig) == 584,
              "ExperimentConfig changed: decide whether the new field "
              "enters configKey()");
#endif

std::string
configKey(const ExperimentConfig &config)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const void *data, std::size_t bytes) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < bytes; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    };
    mix(&kResultFormatVersion, sizeof(kResultFormatVersion));
    mix(config.app.data(), config.app.size());
    const int scalars[] = {static_cast<int>(config.input), config.nprocs,
                           static_cast<int>(config.design),
                           config.injectFailure ? 1 : 0, config.runs,
                           config.ckptLevel, config.ckptStride,
                           static_cast<int>(config.failureModel),
                           config.sdcChecks ? 1 : 0, config.scrubStride,
                           static_cast<int>(config.transform),
                           config.deltaRebase,
                           config.storageFaultWindows,
                           config.storageFaultMeanEpochs,
                           config.storageFaultStrikes,
                           config.ioRetryLimit};
    mix(scalars, sizeof(scalars));
    mix(&config.seed, sizeof(config.seed));
    mix(&config.noiseSigma, sizeof(config.noiseSigma));
    const double model_doubles[] = {config.meanFailures,
                                    config.cascadeProb,
                                    config.corruptFraction,
                                    config.storageFaultPfsBias};
    mix(model_doubles, sizeof(model_doubles));
    const auto capacity =
        static_cast<std::uint64_t>(config.drainCapacityBytes);
    mix(&capacity, sizeof(capacity));
    for (const ft::FailureEvent &event : config.traceEvents) {
        const int fields[] = {event.iteration, event.rank,
                              static_cast<int>(event.kind)};
        mix(fields, sizeof(fields));
    }
    for (const storage::FaultWindow &window : config.storageFaultTrace) {
        const int fields[] = {window.firstEpoch, window.lastEpoch,
                              static_cast<int>(window.cls),
                              static_cast<int>(window.kind),
                              window.strikes};
        mix(fields, sizeof(fields));
    }
    // CostParams is all doubles (no padding): hash it raw.
    static_assert(sizeof(simmpi::CostParams) % sizeof(double) == 0);
    mix(&config.costParams, sizeof(config.costParams));
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

namespace
{

std::atomic<std::uint64_t> g_computed{0};
thread_local std::uint64_t t_computed = 0;

std::function<void(const ExperimentConfig &)> g_cellHook;

/** The closing line of a .cell file: `end` plus an FNV-1a of every
 *  byte before it. */
std::string
cacheSentinel(const std::string &body)
{
    char line[22];
    std::snprintf(line, sizeof(line), "end %016llx\n",
                  static_cast<unsigned long long>(
                      fti::fnv1a(body.data(), body.size())));
    return line;
}

/**
 * Load a cached cell, treating anything short of a fully valid file as
 * a miss. The checksummed sentinel storeCached closes the file with
 * rejects what a bare parse would replay as a wrong result: a file cut
 * mid-number, a flipped digit that still parses, appended bytes, and
 * files from before the checksum. A file that opened but failed
 * validation is rotten (torn by the filesystem or a foreign writer —
 * the tmp+rename commit never produces one) and is deleted so the
 * recompute below can commit a clean replacement.
 */
bool
loadCached(const std::string &path, ExperimentResult &out)
{
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            return false; // plain miss: nothing to repair
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    const std::size_t end = bytes.rfind("end ");
    bool valid = end != std::string::npos &&
                 bytes.compare(end, std::string::npos,
                               cacheSentinel(bytes.substr(0, end))) == 0;
    if (valid) {
        std::istringstream in(bytes.substr(0, end));
        std::size_t runs = 0;
        ExperimentResult result;
        auto readBd = [&in](ft::Breakdown &bd) {
            return static_cast<bool>(
                in >> bd.application >> bd.ckptWrite >> bd.ckptRead >>
                bd.recovery >> bd.attempts >> bd.recoveries >>
                bd.failureFired);
        };
        valid = (in >> runs) && runs > 0 && runs <= 1000 &&
                readBd(result.mean);
        if (valid) {
            result.perRun.resize(runs);
            for (auto &bd : result.perRun)
                valid = valid && readBd(bd);
        }
        if (valid)
            out = std::move(result);
    }
    if (!valid) {
        MATCH_WARN("cell cache: dropping corrupt %s (recomputing)",
                   path.c_str());
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }
    return valid;
}

/** Atomic store (tmp + rename): concurrent grid workers and bench
 *  processes share the cache directory, and a reader must never see a
 *  half-written cell file. */
void
storeCached(const std::string &path, const ExperimentResult &result)
{
    std::ostringstream body;
    body.precision(17);
    body << result.perRun.size() << '\n';
    auto writeBd = [&body](const ft::Breakdown &bd) {
        body << bd.application << ' ' << bd.ckptWrite << ' '
             << bd.ckptRead << ' ' << bd.recovery << ' ' << bd.attempts
             << ' ' << bd.recoveries << ' ' << bd.failureFired << '\n';
    };
    writeBd(result.mean);
    for (const auto &bd : result.perRun)
        writeBd(bd);
    const std::string text = body.str();

    // Pid + thread id: unique across the worker threads of every
    // process sharing the cache directory.
    std::ostringstream suffix;
    suffix << ".tmp." << ::getpid() << "." << std::this_thread::get_id();
    const std::string tmp = path + suffix.str();
    bool complete = false;
    {
        std::ofstream out(tmp, std::ios::binary);
        if (!out)
            return;
        out << text << cacheSentinel(text);
        out.flush(); // surface close-time write errors before judging
        complete = static_cast<bool>(out);
    }
    std::error_code ec;
    if (complete)
        std::filesystem::rename(tmp, path, ec);
    if (!complete || ec)
        std::filesystem::remove(tmp, ec);
}

/** The app parameters every run of `config` executes with. */
apps::AppParams
appParamsFor(const ExperimentConfig &config)
{
    apps::AppParams params;
    params.input = config.input;
    params.nprocs = config.nprocs;
    params.ckptStride = config.ckptStride;
    params.kernels = checkpointBytesMatter(config);
    return params;
}

} // anonymous namespace

storage::StorageFaultPlan
storageFaultPlanFor(const ExperimentConfig &config, int run)
{
    storage::StorageFaultConfig fc;
    fc.windows = config.storageFaultWindows;
    fc.pfsBias = config.storageFaultPfsBias;
    fc.meanEpochs = config.storageFaultMeanEpochs;
    fc.strikes = config.storageFaultStrikes;
    fc.trace = config.storageFaultTrace;
    const int epochs = std::max(
        1, apps::findApp(config.app).loopIterations(appParamsFor(config)) /
               std::max(1, config.ckptStride));
    util::Rng rng(cellSeed(config, run), kStorageFaultStream);
    return storage::generatePlan(fc, epochs, rng);
}

std::vector<ft::FailureEvent>
failureScheduleFor(const ExperimentConfig &config, util::Rng &rng)
{
    if (!config.injectFailure)
        return {};
    const int iters =
        apps::findApp(config.app).loopIterations(appParamsFor(config));
    MATCH_ASSERT(iters >= 2, "cannot inject into a 1-iteration loop");
    ft::FailureModelConfig fm;
    fm.kind = config.failureModel;
    fm.meanFailures = config.meanFailures;
    fm.cascadeProb = config.cascadeProb;
    fm.corruptFraction = config.corruptFraction;
    fm.ranksPerNode = static_cast<int>(config.costParams.ranksPerNode);
    fm.nodesPerRack = static_cast<int>(config.costParams.nodesPerRack);
    fm.trace = config.traceEvents;
    std::vector<ft::FailureEvent> events =
        ft::generateSchedule(fm, config.nprocs, iters, rng);
    // A model that draws no events still crashes rank 0 at iteration
    // 0: the pinned results carry this phantom crash (ROADMAP item 1).
    if (events.empty())
        events.push_back({0, 0, ft::FailureKind::Crash});
    return events;
}

bool
checkpointBytesMatter(const ExperimentConfig &config)
{
    return config.transform != storage::TransformKind::None ||
           config.sdcChecks || config.storageFaultWindows != 0 ||
           (config.injectFailure &&
            (config.corruptFraction > 0.0 ||
             config.failureModel == ft::FailureModelKind::Trace));
}

std::uint64_t
experimentComputeCount()
{
    return g_computed.load(std::memory_order_relaxed);
}

std::uint64_t
experimentComputeCountThisThread()
{
    return t_computed;
}

void
setCellHookForTesting(std::function<void(const ExperimentConfig &)> hook)
{
    g_cellHook = std::move(hook);
}

std::vector<int>
scalingSizesFor(const std::string &app)
{
    return apps::findApp(app).scalingSizes;
}

ExperimentResult
runExperiment(const ExperimentConfig &config)
{
    if (g_cellHook)
        g_cellHook(config);

    const apps::AppSpec &spec = apps::findApp(config.app);

    std::string cache_path;
    if (!config.cacheDir.empty()) {
        std::filesystem::create_directories(config.cacheDir);
        cache_path = config.cacheDir + "/" + configKey(config) + ".cell";
        ExperimentResult cached;
        if (loadCached(cache_path, cached))
            return cached;
    }

    g_computed.fetch_add(1, std::memory_order_relaxed);
    ++t_computed;

    ExperimentResult result;
    ft::Breakdown base; // reused for failure-free runs (deterministic)
    bool have_base = false;

    // Storage-fault plans are drawn per run (like failure schedules),
    // so the failure-free base-run shortcut below is only sound when
    // the fault engine is off.
    const bool storage_faults = config.storageFaultWindows != 0;

    for (int run = 0; run < config.runs; ++run) {
        util::Rng rng(cellSeed(config, run));

        ft::Breakdown bd;
        if (!config.injectFailure && !storage_faults && have_base) {
            bd = base; // identical without noise; skip the re-simulation
        } else {
            const apps::AppParams params = appParamsFor(config);
            ft::DesignRunConfig drc;
            drc.design = config.design;
            drc.nprocs = config.nprocs;
            drc.costParams = config.costParams;
            drc.ftiConfig.ckptDir = config.sandboxDir;
            drc.ftiConfig.execId = execId(config, run);
            drc.ftiConfig.defaultLevel = config.ckptLevel;
            // A fresh backend per run: restarts within the run share
            // it (recovery must see the checkpoints), runs never share
            // state, and a MemBackend dies with this scope instead of
            // leaving sandbox files behind.
            drc.ftiConfig.backend = storage::makeBackend(config.storage);
            if (storage_faults) {
                // The plan is a pure function of (cell, run) on its own
                // RNG stream — bit-identical across --jobs counts and
                // storage backends. Faults off installs no decorator
                // at all: the hot path stays untouched.
                drc.ftiConfig.backend =
                    std::make_shared<storage::FaultInjectingBackend>(
                        drc.ftiConfig.backend,
                        storageFaultPlanFor(config, run),
                        config.ioRetryLimit);
            }
            drc.ftiConfig.sdcChecks = config.sdcChecks;
            drc.ftiConfig.scrubStride = config.scrubStride;
            drc.ftiConfig.drainCapacityBytes = config.drainCapacityBytes;
            drc.ftiConfig.transform = config.transform;
            drc.ftiConfig.deltaRebase = config.deltaRebase;
            drc.purgeCheckpoints = true;
            drc.failureEvents = failureScheduleFor(config, rng);

            bd = ft::runDesign(drc, [&](simmpi::Proc &proc,
                                        const fti::FtiConfig &fcfg) {
                spec.main(proc, fcfg, params);
            });
            // Drop the sandbox: hundreds of grid cells would otherwise
            // accumulate checkpoint files.
            fti::Fti::purge(drc.ftiConfig);
            if (!config.injectFailure) {
                base = bd;
                have_base = true;
            }
        }

        // The paper averages five runs "to minimize system noise"; the
        // simulator is noise-free, so a small multiplicative model
        // stands in for the cluster's run-to-run variation.
        const double f = noiseFactor(rng, config.noiseSigma);
        bd.application *= f;
        bd.ckptWrite *= noiseFactor(rng, config.noiseSigma);
        bd.recovery *= noiseFactor(rng, config.noiseSigma);
        result.perRun.push_back(bd);
    }

    ft::Breakdown &mean = result.mean;
    for (const ft::Breakdown &bd : result.perRun) {
        mean.application += bd.application;
        mean.ckptWrite += bd.ckptWrite;
        mean.ckptRead += bd.ckptRead;
        mean.recovery += bd.recovery;
        mean.recoveries += bd.recoveries;
        mean.failureFired = mean.failureFired || bd.failureFired;
    }
    const double n = static_cast<double>(config.runs);
    mean.application /= n;
    mean.ckptWrite /= n;
    mean.ckptRead /= n;
    mean.recovery /= n;
    if (!cache_path.empty())
        storeCached(cache_path, result);
    return result;
}

} // namespace match::core
