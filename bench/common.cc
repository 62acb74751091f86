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
    {"--drain-capacity", "BYTES", "burst-buffer capacity; flushes "
                                  "stall (priced) when staged bytes "
                                  "exceed it (default 0 = unbounded)",
     [](Opt &o, const Flag &f, const char *v) {
         o.spec.drainCapacityBytes =
             static_cast<std::size_t>(u64Flag(f, v));
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
    {"--perf-dir", "DIR", "where the failure ablation writes its "
                          "BENCH_*.json record (default .)",
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

int
reportCellFailures(const core::GridTiming &timing)
{
    if (timing.failures.empty())
        return 0;
    std::printf("\n!!! %zu cell(s) quarantined (grid degraded; healthy "
                "cells completed):\n",
                timing.failures.size());
    for (const core::CellFailure &failure : timing.failures) {
        std::printf("  - %s [key %s]: %s\n", failure.summary.c_str(),
                    failure.key.c_str(), failure.lastError.c_str());
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
    const GridRunner runner(options.jobs);
    core::GridTiming timing;
    const std::vector<core::ExperimentResult> results =
        runner.run(cells, &timing);

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
