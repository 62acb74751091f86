#include "bench/common.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <sstream>

#include "src/ft/failure_model.hh"
#include "src/util/logging.hh"
#include "src/util/table.hh"

namespace match::bench
{

using apps::InputSize;
using core::ExperimentConfig;
using core::GridRunner;
using core::GridSpec;
using ft::Design;

namespace
{

/**
 * One command-line flag. parse() dispatches on these rows and --help
 * prints them, so each flag is named exactly once.
 */
struct Flag
{
    const char *name;
    /** Value placeholder; nullptr marks a switch. A '|'-separated
     *  hint lists the accepted choices. */
    const char *hint;
    const char *help;
    /** Apply the flag; `value` is nullptr for a switch. */
    void (*apply)(BenchOptions &options, const Flag &flag,
                  const char *value);
};

/** Reject a value with the menu of choices the flag's hint lists —
 *  "unknown X" without the menu makes the user go read the source. */
[[noreturn]] void
badChoice(const Flag &flag, const char *value)
{
    std::string menu = flag.hint;
    for (std::size_t at = menu.find('|'); at != std::string::npos;
         at = menu.find('|', at))
        menu.replace(at, 1, ", ");
    util::fatal("%s: unknown value '%s' (valid choices: %s)", flag.name,
                value, menu.c_str());
}

/** An enum flag matched against its values' labels (kindName & co.). */
template <typename T>
T
choiceFlag(const Flag &flag, const char *value,
           std::initializer_list<T> choices, const char *(*label)(T))
{
    for (const T choice : choices) {
        if (std::strcmp(value, label(choice)) == 0)
            return choice;
    }
    badChoice(flag, value);
}

/*
 * Strict numeric flag parsing. The silent-atoi alternative turns
 * `--jobs abc` into `--jobs 0` — a different, valid-looking
 * configuration — so every numeric flag rejects non-numeric,
 * trailing-garbage, non-finite and out-of-range values with a
 * diagnostic that echoes the offending text.
 */

int
intFlag(const Flag &flag, const char *value, int min)
{
    char *end = nullptr;
    errno = 0;
    const long parsed = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || errno == ERANGE || parsed < min ||
        parsed > std::numeric_limits<int>::max())
        util::fatal("%s: invalid value '%s' (expected an integer in "
                    "[%d, %d])",
                    flag.name, value, min,
                    std::numeric_limits<int>::max());
    return static_cast<int>(parsed);
}

std::uint64_t
u64Flag(const Flag &flag, const char *value)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(value, &end, 10);
    if (value[0] == '-' || end == value || *end != '\0' ||
        errno == ERANGE)
        util::fatal("%s: invalid value '%s' (expected a non-negative "
                    "integer)",
                    flag.name, value);
    return parsed;
}

double
numberFlag(const Flag &flag, const char *value, double min,
           double max = std::numeric_limits<double>::infinity())
{
    char *end = nullptr;
    const double parsed = std::strtod(value, &end);
    if (end == value || *end != '\0' || !std::isfinite(parsed) ||
        parsed < min || parsed > max)
        util::fatal("%s: invalid value '%s' (expected a finite number "
                    "in [%g, %g])",
                    flag.name, value, min, max);
    return parsed;
}

void printHelp();

using Opt = BenchOptions;

const Flag kFlags[] = {
    {"--quick", nullptr,
     "2 runs, endpoints-only scaling sweep (64 and 512 processes)",
     [](Opt &o, const Flag &, const char *) {
         o.quick = true;
         o.spec.runs = 2;
     }},
    {"--runs", "N", "runs averaged per configuration (default 5)",
     [](Opt &o, const Flag &f, const char *v) {
         o.spec.runs = intFlag(f, v, 1);
     }},
    {"--seed", "S", "base RNG seed for failure sites and noise "
                    "(default 42)",
     [](Opt &o, const Flag &f, const char *v) {
         o.spec.seed = u64Flag(f, v);
     }},
    {"--csv", "DIR", "also write one CSV table per app into DIR",
     [](Opt &o, const Flag &, const char *v) { o.csvDir = v; }},
    {"--apps", "A,B", "restrict the grid to these apps (see the list "
                      "below)",
     [](Opt &o, const Flag &, const char *v) {
         std::istringstream list(v);
         std::string name;
         while (std::getline(list, name, ','))
             o.spec.apps.push_back(name);
     }},
    {"--sandbox", "DIR", "checkpoint sandbox root, result cache in "
                         "DIR/cell-cache (default "
                         "/dev/shm/match-fti-bench)",
     [](Opt &o, const Flag &, const char *v) { o.spec.sandboxDir = v; }},
    {"--jobs", "N", "grid worker threads (default: hardware "
                    "concurrency; output is identical for any N)",
     [](Opt &o, const Flag &f, const char *v) {
         o.jobs = intFlag(f, v, 0);
     }},
    {"--storage", "mem|disk", "checkpoint sandbox backend (default "
                              "mem: zero-syscall hot path)",
     [](Opt &o, const Flag &f, const char *v) {
         o.spec.storage = choiceFlag(
             f, v, {storage::Kind::Mem, storage::Kind::Disk},
             storage::kindName);
     }},
    {"--drain", "sync|async", "PFS drain execution (default async: "
                              "flush I/O overlaps compute; output "
                              "identical)",
     [](Opt &o, const Flag &f, const char *v) {
         o.spec.drain = choiceFlag(
             f, v, {storage::DrainMode::Sync, storage::DrainMode::Async},
             storage::drainModeName);
     }},
    {"--drain-depth", "N", "burst-buffer queue bound, 0 = unbounded "
                           "(default 4; wall-clock only)",
     [](Opt &o, const Flag &f, const char *v) {
         o.spec.drainDepth = intFlag(f, v, 0);
     }},
    {"--drain-capacity", "BYTES", "burst-buffer capacity; flushes "
                                  "stall (priced) when staged bytes "
                                  "exceed it (default 0 = unbounded)",
     [](Opt &o, const Flag &f, const char *v) {
         o.spec.drainCapacityBytes =
             static_cast<std::size_t>(u64Flag(f, v));
     }},
    {"--cell-timeout", "SECS|auto", "wall-clock watchdog per cell "
                                    "attempt (auto: 5x the grid's "
                                    "completed-cell p99; 0 disables)",
     [](Opt &o, const Flag &f, const char *v) {
         o.policy.autoTimeout = std::strcmp(v, "auto") == 0;
         o.policy.cellTimeoutSeconds =
             o.policy.autoTimeout ? 0.0 : numberFlag(f, v, 0.0);
     }},
    {"--cell-retries", "N", "attempts after the first before a "
                            "throwing/hung cell is quarantined "
                            "(default 2)",
     [](Opt &o, const Flag &f, const char *v) {
         o.policy.cellRetries = intFlag(f, v, 0);
     }},
    {"--resume", nullptr, "journal cell status next to the result "
                          "cache and resume a killed grid (default)",
     [](Opt &o, const Flag &, const char *) { o.policy.resume = true; }},
    {"--no-resume", nullptr, "discard the journal history (the result "
                             "cache itself is untouched)",
     [](Opt &o, const Flag &, const char *) {
         o.policy.resume = false;
     }},
    {"--strict", nullptr, "exit nonzero when any cell was quarantined",
     [](Opt &o, const Flag &, const char *) { o.strict = true; }},
    {"--failure-model", "single|independent|correlated|trace",
     "failure process for injected runs (default single: the paper's "
     "one uniform crash)",
     [](Opt &o, const Flag &f, const char *v) {
         if (!ft::parseFailureModel(v, o.spec.failureModel))
             badChoice(f, v);
     }},
    {"--failure-trace", "FILE", "replay a failure trace (see "
                                "bench/FAILURE_TRACES.md; implies "
                                "--failure-model trace)",
     [](Opt &o, const Flag &, const char *v) {
         o.spec.traceEvents = ft::readTraceFile(v);
         o.spec.failureModel = ft::FailureModelKind::Trace;
     }},
    {"--mean-failures", "M", "expected failures per run "
                             "(independent/correlated models)",
     [](Opt &o, const Flag &f, const char *v) {
         o.spec.meanFailures = numberFlag(f, v, 0.0);
     }},
    {"--cascade-prob", "P", "node/rack cascade probability "
                            "(correlated model)",
     [](Opt &o, const Flag &f, const char *v) {
         o.spec.cascadeProb = numberFlag(f, v, 0.0, 1.0);
     }},
    {"--corrupt-fraction", "F", "fraction of failures demoted to "
                                "silent checkpoint corruption",
     [](Opt &o, const Flag &f, const char *v) {
         o.spec.corruptFraction = numberFlag(f, v, 0.0, 1.0);
     }},
    {"--sdc-checks", nullptr, "CRC32C-verify checkpoints at recovery, "
                              "fall back to older checkpoints on rot",
     [](Opt &o, const Flag &, const char *) { o.spec.sdcChecks = true; }},
    {"--scrub-stride", "N", "verify the newest checkpoint every N "
                            "iterations (needs --sdc-checks)",
     [](Opt &o, const Flag &f, const char *v) {
         o.spec.scrubStride = intFlag(f, v, 0);
     }},
    {"--transform", "none|delta|compress|delta+compress",
     "checkpoint data reduction (default none; see "
     "bench/TRANSFORMS.md)",
     [](Opt &o, const Flag &f, const char *v) {
         if (!storage::parseTransformKind(v, o.spec.transform))
             badChoice(f, v);
         o.spec.transforms = {o.spec.transform};
     }},
    {"--storage-fault-windows", "N", "storage-tier fault windows per "
                                     "run (default 0 = off; see "
                                     "bench/FAULTS.md)",
     [](Opt &o, const Flag &f, const char *v) {
         o.spec.storageFaultWindows = intFlag(f, v, 0);
     }},
    {"--storage-fault-pfs-bias", "P", "probability a drawn window "
                                      "targets the PFS tier (default "
                                      "0.75)",
     [](Opt &o, const Flag &f, const char *v) {
         o.spec.storageFaultPfsBias = numberFlag(f, v, 0.0, 1.0);
     }},
    {"--storage-fault-mean-epochs", "N", "mean fault-window length in "
                                         "checkpoint epochs (default 2)",
     [](Opt &o, const Flag &f, const char *v) {
         o.spec.storageFaultMeanEpochs = intFlag(f, v, 1);
     }},
    {"--storage-fault-strikes", "N", "failing attempts per (window, "
                                     "path) before the tier heals; "
                                     "more than --io-retry-limit is a "
                                     "persistent outage (default 2)",
     [](Opt &o, const Flag &f, const char *v) {
         o.spec.storageFaultStrikes = intFlag(f, v, 1);
     }},
    {"--storage-fault-trace", "FILE", "replay a storage-fault trace "
                                      "verbatim (engages at least one "
                                      "window)",
     [](Opt &o, const Flag &, const char *v) {
         o.spec.storageFaultTrace = storage::readFaultTraceFile(v);
     }},
    {"--io-retry-limit", "N", "checkpoint clients' bounded retry "
                              "budget on storage errors (default 3)",
     [](Opt &o, const Flag &f, const char *v) {
         o.spec.ioRetryLimit = intFlag(f, v, 0);
     }},
    {"--perf", nullptr, "time the grid under both backends and both "
                        "drain modes, write BENCH_<name>.json",
     [](Opt &o, const Flag &, const char *) { o.perf = true; }},
    {"--perf-dir", "DIR", "where BENCH_<name>.json lands (default .)",
     [](Opt &o, const Flag &, const char *v) { o.perfDir = v; }},
    {"--help", nullptr, "print this help and exit (also -h)",
     [](Opt &, const Flag &, const char *) {
         printHelp();
         std::exit(0);
     }},
};

void
printHelp()
{
    std::printf("options:\n");
    for (const Flag &flag : kFlags) {
        std::printf("  %s%s%s  %s\n", flag.name, flag.hint ? " " : "",
                    flag.hint ? flag.hint : "", flag.help);
    }
    std::printf("valid apps: %s\n", apps::registryNames().c_str());
}

} // anonymous namespace

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    BenchOptions options;
    options.spec.sandboxDir = "/dev/shm/match-fti-bench";
    for (int i = 1; i < argc; ++i) {
        const char *arg =
            std::strcmp(argv[i], "-h") == 0 ? "--help" : argv[i];
        const auto flag = std::find_if(
            std::begin(kFlags), std::end(kFlags),
            [arg](const Flag &f) { return std::strcmp(f.name, arg) == 0; });
        if (flag == std::end(kFlags))
            util::fatal("unknown option: %s (see --help)", arg);
        const char *value = nullptr;
        if (flag->hint) {
            if (i + 1 == argc)
                util::fatal("%s: missing value (%s)", arg, flag->hint);
            value = argv[++i];
        }
        flag->apply(options, *flag, value);
    }
    GridSpec &spec = options.spec;
    // A replayed trace engages the engine even without an explicit
    // window count (the draws are skipped anyway).
    if (!spec.storageFaultTrace.empty() && spec.storageFaultWindows == 0)
        spec.storageFaultWindows = 1;
    spec.cacheDir = spec.sandboxDir + "/cell-cache";
    if (spec.apps.empty()) {
        for (const auto &app : apps::registry())
            spec.apps.push_back(app.name);
    } else {
        for (const std::string &name : spec.apps)
            apps::findApp(name); // fail fast with the valid-name list
    }
    return options;
}

core::GridRunner
BenchOptions::makeRunner() const
{
    return core::GridRunner(jobs, policy);
}

int
reportCellFailures(const core::GridTiming &timing)
{
    if (timing.failures.empty())
        return 0;
    std::printf("\n!!! %zu cell(s) quarantined (grid degraded; healthy "
                "cells completed):\n",
                timing.failures.size());
    for (const core::CellFailure &failure : timing.failures) {
        std::printf("  - %s [key %s]: %d attempt(s), %s: %s\n",
                    failure.summary.c_str(), failure.key.c_str(),
                    failure.attempts,
                    failure.timedOut ? "watchdog timeout" : "exception",
                    failure.lastError.c_str());
    }
    return static_cast<int>(timing.failures.size());
}

int
gridExitCode(const BenchOptions &options, int quarantined)
{
    if (quarantined > 0 && options.strict) {
        util::warn("--strict: %d quarantined cell(s) -> exit 1",
                   quarantined);
        return 1;
    }
    return 0;
}

namespace
{

std::string
sanitize(std::string name)
{
    std::replace(name.begin(), name.end(), ' ', '_');
    return name;
}

/** Sorted-copy percentile (nearest rank); q in [0, 1]. */
double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1) + 0.5);
    return samples[std::min(rank, samples.size() - 1)];
}

/** Minimal JSON string escape for error texts in failure records. */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

/** One backend's measurement in a perf record. */
struct PerfSample
{
    storage::Kind kind;
    core::GridTiming timing;
};

/** One drain mode's measurement (L4 grid) in a perf record. */
struct DrainSample
{
    storage::DrainMode mode;
    core::GridTiming timing;
};

/** One transform kind's measurement (the same L4 drained grid) in a
 *  perf record: wall timing plus the shipped-byte and encoder
 *  counters that prove (or disprove) the byte reduction. */
struct TransformSample
{
    storage::TransformKind kind;
    core::GridTiming timing;
    /** PFS bytes actually shipped by drain jobs during the run. */
    std::uint64_t shippedBytes = 0;
    storage::TransformStats delta;
    storage::TransformStats compress;
};

void
writeJsonTiming(std::FILE *out, const char *key, const char *label,
                const core::GridTiming &t, bool last,
                const std::string &extra = std::string())
{
    const double cells = static_cast<double>(t.cellSeconds.size());
    // Phase attribution: ckptSerialize/rsEncode/storage are exclusive
    // scheduler-thread phases, so simCore (everything else the grid
    // spent: the event loop, app kernels, collectives) is derived by
    // subtraction. Drain runs on its own thread and overlaps the
    // others, so it is reported alongside but never subtracted. With
    // more than one worker the phase sums span threads and simCore is
    // a lower bound.
    const double serialize =
        t.phases.secondsFor(util::Phase::CkptSerialize);
    const double rs = t.phases.secondsFor(util::Phase::RsEncode);
    const double io = t.phases.secondsFor(util::Phase::Storage);
    const double drain = t.phases.secondsFor(util::Phase::Drain);
    const double sim_core =
        std::max(0.0, t.totalSeconds - serialize - rs - io);
    std::fprintf(
        out,
        "    {\"%s\": \"%s\", \"totalSeconds\": %.6f, "
        "\"cellP50Seconds\": %.6f, \"cellP99Seconds\": %.6f, "
        "\"cellsPerSecond\": %.3f, "
        "\"phases\": {\"simCoreSeconds\": %.6f, "
        "\"ckptSerializeSeconds\": %.6f, \"rsEncodeSeconds\": %.6f, "
        "\"storageSeconds\": %.6f, \"drainSeconds\": %.6f}%s}%s\n",
        key, label, t.totalSeconds, percentile(t.cellSeconds, 0.50),
        percentile(t.cellSeconds, 0.99),
        t.totalSeconds > 0.0 ? cells / t.totalSeconds : 0.0, sim_core,
        serialize, rs, io, drain, extra.c_str(), last ? "" : ",");
}

/**
 * Emit BENCH_<slug>.json: the per-bench perf record CI uploads as an
 * artifact, accumulating the repo's wall-clock trajectory PR by PR.
 * `digest` is the grid digest of the rendered (mem-backend) results.
 */
void
writePerfRecord(const BenchOptions &options, const FigureDef &def,
                int jobs, std::size_t cells,
                const std::vector<PerfSample> &samples,
                const std::vector<DrainSample> &drain_samples,
                const std::vector<TransformSample> &transform_samples,
                const storage::BlobStats &mem_blob,
                const std::vector<core::CellFailure> &failures,
                std::uint64_t digest)
{
    std::filesystem::create_directories(options.perfDir);
    const std::string path =
        options.perfDir + "/BENCH_" + def.slug + ".json";
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        util::warn("cannot write %s", path.c_str());
        return;
    }
    // GridRunner dedups identical cells: the per-cell stats cover the
    // computed (unique) cells, reported separately from the enumerated
    // grid size so the record stays internally consistent.
    const std::size_t computed =
        samples.empty() ? 0 : samples.front().timing.cellSeconds.size();
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"%s\",\n"
                 "  \"figure\": \"%s\",\n"
                 "  \"quick\": %s,\n"
                 "  \"runsPerCell\": %d,\n"
                 "  \"jobs\": %d,\n"
                 "  \"hardwareConcurrency\": %d,\n"
                 "  \"cells\": %zu,\n"
                 "  \"computedCells\": %zu,\n"
                 "  \"digest\": \"%016" PRIx64 "\",\n"
                 "  \"backends\": [\n",
                 def.slug, def.figure, options.quick ? "true" : "false",
                 options.spec.runs, jobs, core::GridRunner::hardwareJobs(),
                 cells, computed, digest);
    for (std::size_t i = 0; i < samples.size(); ++i)
        writeJsonTiming(out, "storage",
                        storage::kindName(samples[i].kind),
                        samples[i].timing, i + 1 == samples.size());
    double disk_total = 0.0, mem_total = 0.0;
    for (const PerfSample &sample : samples) {
        (sample.kind == storage::Kind::Disk ? disk_total : mem_total) =
            sample.timing.totalSeconds;
    }
    std::fprintf(out, "  ],\n  \"memSpeedupOverDisk\": %.3f,\n",
                 mem_total > 0.0 ? disk_total / mem_total : 0.0);
    // Blob data-plane counters over the mem-backend run: the zero-copy
    // claim as numbers. bytesCopied counts payload memcpy'd between
    // staging buffers and the object store; bytesStored counts payload
    // admitted (copied or ownership-transferred), so copied/stored is
    // the fraction of checkpoint traffic that still moves bytes.
    std::fprintf(
        out,
        "  \"blob\": {\"allocs\": %llu, \"poolHits\": %llu, "
        "\"bytesCopied\": %llu, \"bytesStored\": %llu, "
        "\"copiedPerStored\": %.4f},\n",
        static_cast<unsigned long long>(mem_blob.allocs),
        static_cast<unsigned long long>(mem_blob.poolHits),
        static_cast<unsigned long long>(mem_blob.bytesCopied),
        static_cast<unsigned long long>(mem_blob.bytesStored),
        mem_blob.bytesStored > 0
            ? static_cast<double>(mem_blob.bytesCopied) /
                  static_cast<double>(mem_blob.bytesStored)
            : 0.0);
    // The drain axis: the same grid forced to L4 checkpoints at a
    // dense stride (so every cell carries PFS flush traffic), sync vs
    // async execution.
    double sync_total = 0.0, async_total = 0.0;
    std::fprintf(out, "  \"drainCkptLevel\": 4,\n"
                      "  \"drainCkptStride\": 2,\n"
                      "  \"drain\": [\n");
    // Async drain only overlaps when the drain worker gets a core the
    // grid workers are not already saturating: with jobs + 1 threads on
    // fewer cores the async row measures contention, not overlap, so it
    // is flagged for perf_guard to skip rather than fail on.
    const bool undersubscribed =
        jobs + 1 > core::GridRunner::hardwareJobs();
    for (std::size_t i = 0; i < drain_samples.size(); ++i) {
        const bool async =
            drain_samples[i].mode == storage::DrainMode::Async;
        writeJsonTiming(out, "mode",
                        storage::drainModeName(drain_samples[i].mode),
                        drain_samples[i].timing,
                        i + 1 == drain_samples.size(),
                        async ? std::string(", \"undersubscribed\": ") +
                                    (undersubscribed ? "true" : "false")
                              : std::string());
        (async ? async_total : sync_total) =
            drain_samples[i].timing.totalSeconds;
    }
    std::fprintf(out, "  ],\n  \"asyncDrainSpeedupOverSync\": %.3f,\n",
                 async_total > 0.0 ? sync_total / async_total : 0.0);
    // Transform axis: the same L4 drained grid swept over the data-
    // reduction chain. shippedBytes is the drain jobs' actual PFS
    // traffic; the per-stage encoder counters (bytesOut < bytesIn)
    // prove where the reduction came from. Orderable rows: the none
    // row is the baseline the other rows' shippedBytes compare to.
    std::uint64_t none_shipped = 0;
    std::uint64_t delta_shipped = 0;
    std::fprintf(out, "  \"transforms\": [\n");
    for (std::size_t i = 0; i < transform_samples.size(); ++i) {
        const TransformSample &sample = transform_samples[i];
        if (sample.kind == storage::TransformKind::None)
            none_shipped = sample.shippedBytes;
        if (sample.kind == storage::TransformKind::Delta)
            delta_shipped = sample.shippedBytes;
        std::fprintf(
            out,
            "    {\"transform\": \"%s\", \"totalSeconds\": %.6f, "
            "\"shippedBytes\": %llu, "
            "\"delta\": {\"bytesIn\": %llu, \"bytesOut\": %llu, "
            "\"applies\": %llu, \"reverses\": %llu}, "
            "\"compress\": {\"bytesIn\": %llu, \"bytesOut\": %llu, "
            "\"applies\": %llu, \"reverses\": %llu}}%s\n",
            storage::transformKindName(sample.kind),
            sample.timing.totalSeconds,
            static_cast<unsigned long long>(sample.shippedBytes),
            static_cast<unsigned long long>(sample.delta.bytesIn),
            static_cast<unsigned long long>(sample.delta.bytesOut),
            static_cast<unsigned long long>(sample.delta.applies),
            static_cast<unsigned long long>(sample.delta.reverses),
            static_cast<unsigned long long>(sample.compress.bytesIn),
            static_cast<unsigned long long>(sample.compress.bytesOut),
            static_cast<unsigned long long>(sample.compress.applies),
            static_cast<unsigned long long>(sample.compress.reverses),
            i + 1 == transform_samples.size() ? "" : ",");
    }
    std::fprintf(out,
                 "  ],\n  \"deltaShippedBytesReduction\": %.4f,\n",
                 none_shipped > 0
                     ? 1.0 - static_cast<double>(delta_shipped) /
                                 static_cast<double>(none_shipped)
                     : 0.0);
    // Structured degraded-grid record: quarantined cells (config,
    // attempts, last error) instead of an aborted sweep. perf_guard
    // downgrades its perf failures to warnings when this is nonzero —
    // a degraded grid's throughput numbers are not a regression signal.
    std::fprintf(out, "  \"quarantinedCells\": %zu,\n  \"failures\": [\n",
                 failures.size());
    for (std::size_t i = 0; i < failures.size(); ++i) {
        const core::CellFailure &f = failures[i];
        std::fprintf(out,
                     "    {\"cell\": \"%s\", \"key\": \"%s\", "
                     "\"attempts\": %d, \"timedOut\": %s, "
                     "\"lastError\": \"%s\"}%s\n",
                     jsonEscape(f.summary).c_str(),
                     jsonEscape(f.key).c_str(), f.attempts,
                     f.timedOut ? "true" : "false",
                     jsonEscape(f.lastError).c_str(),
                     i + 1 == failures.size() ? "" : ",");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("perf: wrote %s (mem %.2fs vs disk %.2fs, %.2fx; "
                "L4 drain async %.2fs vs sync %.2fs, %.2fx; "
                "delta ships %.1f%% fewer PFS bytes)\n",
                path.c_str(), mem_total, disk_total,
                mem_total > 0.0 ? disk_total / mem_total : 0.0,
                async_total, sync_total,
                async_total > 0.0 ? sync_total / async_total : 0.0,
                100.0 * (none_shipped > 0
                             ? 1.0 - static_cast<double>(delta_shipped) /
                                         static_cast<double>(none_shipped)
                             : 0.0));
}

} // anonymous namespace

int
runFigure(const BenchOptions &options, const FigureDef &def)
{
    std::printf("=== %s: %s, %s ===\n", def.figure,
                def.sweep == Sweep::ScalingSizes
                    ? "scaling sizes (small input)"
                    : "input sizes (64 processes)",
                def.inject ? "one injected process failure"
                           : "no process failures");
    std::printf("(methodology: %d runs averaged per configuration)\n\n",
                options.spec.runs);

    GridSpec spec = options.spec;
    spec.injectFailure = def.inject;
    if (def.sweep == Sweep::ScalingSizes) {
        spec.inputs = {InputSize::Small};
        spec.endpointsOnly = options.quick;
    } else {
        spec.scales = {64};
        spec.inputs = {InputSize::Small, InputSize::Medium,
                       InputSize::Large};
    }

    // Parallel phase: all apps' cells at once, so the pool stays busy
    // across app boundaries. Rendering below follows enumeration order.
    const std::vector<ExperimentConfig> cells = spec.enumerate();
    const GridRunner runner = options.makeRunner();
    std::vector<core::ExperimentResult> results;
    // Timing of whichever grid produced the rendered results — its
    // failures are the ones the tables below render as zero rows.
    core::GridTiming timing;
    if (!options.perf) {
        results = runner.run(cells, &timing);
    } else {
        // Perf mode measures real simulation + storage work under both
        // backends: the result cache is bypassed (a replayed cell
        // measures nothing) and the disk baseline runs first so its
        // sandbox traffic cannot warm anything for the mem run.
        GridSpec timed = spec;
        timed.cacheDir.clear();
        std::vector<PerfSample> samples;
        storage::BlobStats mem_blob;
        for (const storage::Kind kind :
             {storage::Kind::Disk, storage::Kind::Mem}) {
            timed.storage = kind;
            PerfSample sample{kind, {}};
            const storage::BlobStats before =
                storage::BlobPool::globalStats();
            auto timed_results = runner.run(timed.enumerate(),
                                            &sample.timing);
            const storage::BlobStats after =
                storage::BlobPool::globalStats();
            samples.push_back(std::move(sample));
            // Results are backend-invariant; render from the mem run,
            // whose data-plane counters also land in the perf record.
            if (kind == storage::Kind::Mem) {
                results = std::move(timed_results);
                timing = samples.back().timing;
                mem_blob.allocs = after.allocs - before.allocs;
                mem_blob.poolHits = after.poolHits - before.poolHits;
                mem_blob.bytesCopied =
                    after.bytesCopied - before.bytesCopied;
                mem_blob.bytesStored =
                    after.bytesStored - before.bytesStored;
            }
        }
        // Drain axis: force L4 at a dense stride so every cell carries
        // substantial PFS flush traffic (the overlap win is bounded by
        // the flush share), then time sync (inline replay) vs async
        // (overlap). The sync baseline runs first, mirroring the
        // disk-first rule. Note the win needs spare cores: a
        // single-core host measures ~parity by construction.
        GridSpec drained = timed;
        drained.storage = storage::Kind::Mem;
        drained.ckptLevels = {4};
        drained.ckptStrides = {2};
        std::vector<DrainSample> drain_samples;
        for (const storage::DrainMode mode :
             {storage::DrainMode::Sync, storage::DrainMode::Async}) {
            drained.drain = mode;
            DrainSample sample{mode, {}};
            runner.run(drained.enumerate(), &sample.timing);
            drain_samples.push_back(std::move(sample));
        }
        // Transform axis: the drained L4 grid again, swept over the
        // data-reduction chain under the sync drain (inline replay, so
        // the shipped-byte snapshot brackets exactly this sweep's
        // jobs). Byte counters are snapshot-diffed around each run.
        drained.drain = storage::DrainMode::Sync;
        std::vector<TransformSample> transform_samples;
        for (const storage::TransformKind kind :
             {storage::TransformKind::None, storage::TransformKind::Delta,
              storage::TransformKind::Compress,
              storage::TransformKind::DeltaCompress}) {
            drained.transforms = {kind};
            TransformSample sample;
            sample.kind = kind;
            const std::uint64_t shipped0 =
                storage::drainGlobalShippedBytes();
            const storage::TransformStats delta0 =
                storage::transformGlobalStats(
                    storage::TransformStage::Delta);
            const storage::TransformStats compress0 =
                storage::transformGlobalStats(
                    storage::TransformStage::Compress);
            runner.run(drained.enumerate(), &sample.timing);
            sample.shippedBytes =
                storage::drainGlobalShippedBytes() - shipped0;
            const storage::TransformStats delta1 =
                storage::transformGlobalStats(
                    storage::TransformStage::Delta);
            const storage::TransformStats compress1 =
                storage::transformGlobalStats(
                    storage::TransformStage::Compress);
            sample.delta = {delta1.bytesIn - delta0.bytesIn,
                            delta1.bytesOut - delta0.bytesOut,
                            delta1.applies - delta0.applies,
                            delta1.reverses - delta0.reverses};
            sample.compress = {
                compress1.bytesIn - compress0.bytesIn,
                compress1.bytesOut - compress0.bytesOut,
                compress1.applies - compress0.applies,
                compress1.reverses - compress0.reverses};
            transform_samples.push_back(std::move(sample));
        }
        writePerfRecord(options, def, runner.jobs(), cells.size(),
                        samples, drain_samples, transform_samples,
                        mem_blob, timing.failures,
                        core::gridDigest(results));
    }

    std::size_t at = 0;
    for (const std::string &app : options.spec.apps) {
        std::vector<std::string> headers;
        if (def.sweep == Sweep::ScalingSizes)
            headers = {"#Processes", "Design"};
        else
            headers = {"Input", "Design"};
        if (def.report == Report::Breakdown) {
            headers.insert(headers.end(),
                           {"Application(s)", "WriteCkpt(s)",
                            "Recovery(s)", "Total(s)"});
        } else {
            headers.insert(headers.end(), {"Recovery(s)"});
        }
        util::Table table(headers);

        for (; at < cells.size() && cells[at].app == app; ++at) {
            const ExperimentConfig &cell = cells[at];
            const ft::Breakdown &bd = results[at].mean;

            std::vector<std::string> row;
            row.push_back(def.sweep == Sweep::ScalingSizes
                              ? std::to_string(cell.nprocs)
                              : apps::inputSizeName(cell.input));
            row.push_back(ft::designName(cell.design));
            if (def.report == Report::Breakdown) {
                row.push_back(util::Table::cell(bd.application));
                row.push_back(util::Table::cell(bd.ckptWrite));
                row.push_back(util::Table::cell(bd.recovery));
                row.push_back(util::Table::cell(bd.total()));
            } else {
                row.push_back(util::Table::cell(bd.recovery));
            }
            table.addRow(std::move(row));
        }

        std::printf("--- %s ---\n%s\n", app.c_str(),
                    table.toString().c_str());
        if (!options.csvDir.empty()) {
            std::filesystem::create_directories(options.csvDir);
            const std::string path = options.csvDir + "/" +
                                     sanitize(def.figure) + "-" + app +
                                     ".csv";
            if (!table.writeCsv(path))
                util::warn("cannot write %s", path.c_str());
        }
    }
    printGridDigest(results);
    return reportCellFailures(timing);
}

std::uint64_t
printGridDigest(const std::vector<core::ExperimentResult> &results)
{
    const std::uint64_t digest = core::gridDigest(results);
    std::printf("grid digest: %016" PRIx64 "\n", digest);
    return digest;
}

int
figureMain(const FigureDef &def, int argc, char **argv)
{
    const BenchOptions options = BenchOptions::parse(argc, argv);
    return gridExitCode(options, runFigure(options, def));
}

} // namespace match::bench
