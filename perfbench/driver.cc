/**
 * perfbench_driver: runs one benchmark workload's cells through the
 * program's public API and prints one JSON record per line on stdout.
 * run.py owns the schedule (how many passes, where to resume after an
 * abort) and all statistics; this program only executes and measures.
 *
 *   perfbench_driver --workload W --seed S --sandbox DIR [--list]
 *       [--setup-only] [--trace 0|1] [--passes N] [--start-pass P]
 *       [--start-pos K] [--grid-check] [--grid-skip I,J,...]
 *
 * --seed orders the cells: pass P runs the list in a shuffle drawn from
 * (seed, P); --start-pos resumes pass P at position K of that order, and
 * the process ends after pass N-1.
 * Times are CLOCK_MONOTONIC seconds, so run.py can compare them with its
 * own clock. Timed cells run one at a time through core::runExperiment,
 * each after a timed reference kernel by which run.py takes the host's
 * speed drift out of the times it reports.
 * With --grid-check the list also runs once through core::GridRunner
 * after the timed window, outside it, to check that the grid reproduces
 * the serial results and to measure the worker pool and the async
 * DrainWorker; --grid-skip leaves out cells that abort the process.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiment.hh"
#include "src/core/grid.hh"
#include "src/storage/blob.hh"
#include "src/storage/drain.hh"
#include "src/storage/transform.hh"
#include "src/util/phase.hh"
#include "src/util/rng.hh"

namespace
{

using namespace match;

double
clockSeconds(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

double monoNow() { return clockSeconds(CLOCK_MONOTONIC); }

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    std::string sandbox;
    bool list = false;
    bool setupOnly = false;
    bool trace = false;
    int passes = 2;
    int startPass = 0;
    int startPos = 0;
    bool gridCheck = false;
    std::vector<int> gridSkip;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "perfbench_driver: %s\n", why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            o.workload = value();
        else if (arg == "--seed")
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--sandbox")
            o.sandbox = value();
        else if (arg == "--list")
            o.list = true;
        else if (arg == "--setup-only")
            o.setupOnly = true;
        else if (arg == "--trace")
            o.trace = value() == "1";
        else if (arg == "--passes")
            o.passes = std::atoi(value().c_str());
        else if (arg == "--start-pass")
            o.startPass = std::atoi(value().c_str());
        else if (arg == "--start-pos")
            o.startPos = std::atoi(value().c_str());
        else if (arg == "--grid-check")
            o.gridCheck = true;
        else if (arg == "--grid-skip") {
            std::istringstream list(value());
            for (std::string cell; std::getline(list, cell, ',');)
                o.gridSkip.push_back(std::atoi(cell.c_str()));
        }
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (o.workload.empty() || o.sandbox.empty())
        usage("--workload and --sandbox are required");
    return o;
}

/** The cell lists. Every config is built here from constants: the
 *  program's default experiment seed (so the simulated work and the
 *  pinned digests are the same for every --seed), no result cache (empty
 *  cacheDir, so no resume either), MemBackend, the sandbox under the
 *  benchmark's build directory. Serial workloads use sync drain so every
 *  phase runs on the cell's own thread. */
std::vector<core::ExperimentConfig>
workloadCells(const std::string &name, const std::string &sandbox)
{
    core::GridSpec spec;
    spec.sandboxDir = sandbox;
    spec.cacheDir.clear();
    spec.storage = storage::Kind::Mem;
    spec.inputs = {apps::InputSize::Small};
    spec.scales = {64};
    spec.drain = storage::DrainMode::Sync;
    if (name == "ff-scaling") {
        spec.scales = {64, 512};
        spec.ckptStrides = {10};
        spec.ckptLevels = {1};
        spec.runs = 5;
    } else if (name == "ckpt-write") {
        spec.designs = {ft::Design::ReinitFti};
        spec.ckptStrides = {1};
        spec.ckptLevels = {3, 4};
        spec.transforms = {storage::TransformKind::None,
                           storage::TransformKind::DeltaCompress};
        spec.runs = 1;
    } else if (name == "recover-multi") {
        spec.ckptStrides = {10};
        spec.ckptLevels = {1, 4};
        spec.transforms = {storage::TransformKind::DeltaCompress};
        spec.injectFailure = true;
        spec.failureModel = ft::FailureModelKind::IndependentExp;
        spec.meanFailures = 2.0;
        spec.corruptFraction = 0.25;
        spec.sdcChecks = true;
        spec.runs = 2;
    } else {
        usage(("unknown workload " + name).c_str());
    }
    return spec.enumerate();
}

std::string
cellLabel(const core::ExperimentConfig &c)
{
    return c.app + "/p" + std::to_string(c.nprocs) + "/" +
           ft::designName(c.design) + "/L" + std::to_string(c.ckptLevel) +
           "/s" + std::to_string(c.ckptStride) + "/" +
           storage::transformKindName(c.transform);
}

/** FNV-1a over the bit patterns of every ExperimentResult field. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    }
    void
    f64(double v)
    {
        std::uint64_t u = 0;
        std::memcpy(&u, &v, sizeof u);
        bytes(&u, sizeof u);
    }
    void
    i64(std::int64_t v)
    {
        bytes(&v, sizeof v);
    }
    void
    breakdown(const ft::Breakdown &b)
    {
        f64(b.application);
        f64(b.ckptWrite);
        f64(b.ckptRead);
        f64(b.recovery);
        i64(b.attempts);
        i64(b.recoveries);
        i64(b.failureFired ? 1 : 0);
    }
};

std::string
resultDigest(const core::ExperimentResult &r)
{
    Digest d;
    d.breakdown(r.mean);
    d.i64(static_cast<std::int64_t>(r.perRun.size()));
    for (const ft::Breakdown &b : r.perRun)
        d.breakdown(b);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, d.h);
    return hex;
}

/** Layer counters read before and after a measured interval. */
struct Counters
{
    util::PhaseTotals phases;
    storage::BlobStats blob;
    storage::TransformStats delta;
    storage::TransformStats compress;
    std::uint64_t shipped = 0;
    double threadCpu = 0.0;

    static Counters
    read()
    {
        Counters c;
        c.phases = util::phaseTotals();
        c.blob = storage::BlobPool::globalStats();
        c.delta = storage::transformGlobalStats(storage::TransformStage::Delta);
        c.compress =
            storage::transformGlobalStats(storage::TransformStage::Compress);
        c.shipped = storage::drainGlobalShippedBytes();
        c.threadCpu = clockSeconds(CLOCK_THREAD_CPUTIME_ID);
        return c;
    }
};

/** Appends `"key":value` pairs to a one-line JSON object. */
class Record
{
  public:
    explicit Record(const char *kind)
        : text_("{\"kind\":\"" + std::string(kind) + "\"")
    {
    }

    Record &
    num(const char *key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }
    Record &
    count(const char *key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }
    Record &
    str(const char *key, const std::string &v)
    {
        std::string q = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                q += '\\';
            q += (c == '\n' ? ' ' : c);
        }
        return raw(key, q + "\"");
    }
    Record &
    raw(const char *key, const std::string &v)
    {
        text_ += ",\"" + std::string(key) + "\":" + v;
        return *this;
    }
    void
    emit()
    {
        std::printf("%s}\n", text_.c_str());
        std::fflush(stdout);
    }

  private:
    std::string text_;
};

/** Counter deltas of one traced cell. */
void
addLayerFields(Record &rec, const Counters &a, const Counters &b)
{
    const util::PhaseTotals ph = util::PhaseTotals::diff(b.phases, a.phases);
    std::string secs = "[", calls = "[";
    for (int i = 0; i < util::phaseCount; ++i) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "",
                      ph.seconds[i]);
        secs += buf;
        calls += (i ? "," : "") + std::to_string(ph.entries[i]);
    }
    rec.raw("phase_s", secs + "]").raw("phase_n", calls + "]");
    rec.num("thread_cpu", b.threadCpu - a.threadCpu);
    rec.count("allocs", b.blob.allocs - a.blob.allocs);
    rec.count("pool_hits", b.blob.poolHits - a.blob.poolHits);
    rec.count("bytes_copied", b.blob.bytesCopied - a.blob.bytesCopied);
    rec.count("bytes_stored", b.blob.bytesStored - a.blob.bytesStored);
    rec.count("delta_in", b.delta.bytesIn - a.delta.bytesIn);
    rec.count("delta_out", b.delta.bytesOut - a.delta.bytesOut);
    rec.count("compress_in", b.compress.bytesIn - a.compress.bytesIn);
    rec.count("compress_out", b.compress.bytesOut - a.compress.bytesOut);
    rec.count("decodes", (b.delta.reverses - a.delta.reverses) +
                             (b.compress.reverses - a.compress.reverses));
    rec.count("shipped", b.shipped - a.shipped);
}

void
addResultFields(Record &rec, const core::ExperimentResult &r)
{
    std::uint64_t attempts = 0, recoveries = 0;
    double virt = 0.0;
    for (const ft::Breakdown &b : r.perRun) {
        attempts += static_cast<std::uint64_t>(b.attempts);
        recoveries += static_cast<std::uint64_t>(b.recoveries);
        virt += b.total();
    }
    rec.count("attempts", attempts).count("recoveries", recoveries);
    rec.num("virtual_s", virt);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Calls into runExperiment made by this process (warm-up included);
 *  experimentComputeCount must match it exactly, or a cell replayed. */
std::uint64_t g_executions = 0;

/** The host-speed reference, timed before every timed cell: one copy of
 *  an 8 MiB buffer (memory bound) and a sort of 32 Ki pseudo-random keys
 *  (branchy, cache resident), which take about equally long. A shared
 *  host's speed can drift by tens of percent over seconds to minutes,
 *  and the cells' wall time moves with this reference's
 *  (perfbench/NOTES.md, "Host and noise"); run.py scales the times it
 *  reports by it. It runs only the driver's own code and the standard
 *  library, so no program change moves it. */
double
referenceSeconds()
{
    static std::vector<std::uint8_t> src(8u << 20, 1), dst(8u << 20);
    static const std::vector<std::uint32_t> keys = [] {
        std::vector<std::uint32_t> v(1u << 15);
        std::uint64_t x = 1;
        for (std::uint32_t &k : v) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            k = static_cast<std::uint32_t>(x >> 32);
        }
        return v;
    }();
    static std::vector<std::uint32_t> sorted(keys.size());
    const double t0 = monoNow();
    std::memcpy(dst.data(), src.data(), src.size());
    std::copy(keys.begin(), keys.end(), sorted.begin());
    std::sort(sorted.begin(), sorted.end());
    const double t = monoNow() - t0;
    src[0] = static_cast<std::uint8_t>(dst[1] + sorted[0]); // both are used
    return t;
}

/** Pass `pass`'s cell order: a Fisher-Yates shuffle drawn from (seed,
 *  pass), so a pass never inherits the previous pass's warm state in the
 *  same order. */
std::vector<int>
passOrder(std::size_t n, std::uint64_t seed, int pass)
{
    std::vector<int> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = static_cast<int>(i);
    util::Rng rng(seed, static_cast<std::uint64_t>(pass));
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

void
runSerialCell(const core::ExperimentConfig &cell, int pass, int pos,
              int index, bool traced)
{
    const double ref = referenceSeconds();
    Record begin("begin");
    begin.count("pass", pass).count("pos", pos).count("cell", index);
    begin.raw("traced", traced ? "true" : "false");
    begin.num("t", monoNow());
    begin.emit();

    Record rec("cell");
    rec.count("pass", pass).count("cell", index);
    rec.raw("traced", traced ? "true" : "false");
    rec.num("ref", ref);
    Counters before;
    if (traced)
        before = Counters::read();
    const double t0 = monoNow();
    try {
        ++g_executions;
        const core::ExperimentResult r = core::runExperiment(cell);
        const double wall = monoNow() - t0;
        if (traced)
            addLayerFields(rec, before, Counters::read());
        rec.num("wall", wall).str("digest", resultDigest(r));
        addResultFields(rec, r);
    } catch (const std::exception &e) {
        rec.num("wall", monoNow() - t0).str("error", e.what());
    }
    rec.count("computed", core::experimentComputeCount());
    rec.count("executions", g_executions);
    rec.emit();
}

/** The --jobs/drain-mode identity check and the grid layers' numbers:
 *  the list once on a 2-worker GridRunner with the program's default
 *  grid drain settings (async, so the DrainWorker thread runs), outside
 *  the timed window. Cells in `skip` are left out (an abort would kill
 *  the whole grid). Digests are in list order, null for a skipped cell.
 *  The busy ratio is the workers' summed cell wall over workers x the
 *  grid's wall; the phases are summed over workers and drain threads. */
void
runGridCheck(const std::vector<core::ExperimentConfig> &all,
             const std::vector<int> &skip)
{
    const core::GridSpec defaults;
    std::vector<core::ExperimentConfig> cells;
    std::vector<int> index; // cells[i] is all[index[i]]
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (std::find(skip.begin(), skip.end(), static_cast<int>(i)) !=
            skip.end())
            continue;
        cells.push_back(all[i]);
        cells.back().drain = defaults.drain;
        cells.back().drainDepth = defaults.drainDepth;
        index.push_back(static_cast<int>(i));
    }
    const core::GridRunner runner(2);
    core::GridTiming timing;
    const std::vector<core::ExperimentResult> results =
        runner.run(cells, &timing);
    g_executions += cells.size();

    std::vector<std::string> digests(all.size(), "null");
    for (std::size_t i = 0; i < results.size(); ++i)
        digests[index[i]] = "\"" + resultDigest(results[i]) + "\"";
    std::string list = "[";
    for (std::size_t i = 0; i < digests.size(); ++i)
        list += (i ? "," : "") + digests[i];
    std::string failed = "[";
    for (const core::CellFailure &f : timing.failures)
        failed += (failed.size() > 1 ? "," : "") +
                  std::to_string(index[f.cell]);
    double cellSum = 0.0;
    for (double s : timing.cellSeconds)
        cellSum += s;
    const auto drain = static_cast<int>(util::Phase::Drain);

    Record rec("gridcheck");
    rec.raw("digests", list + "]").raw("failed_cells", failed + "]");
    rec.num("makespan", timing.totalSeconds).count("workers", runner.jobs());
    rec.num("busy_ratio",
            cellSum / (runner.jobs() * timing.totalSeconds));
    rec.num("drain_s", timing.phases.seconds[drain]);
    rec.count("drain_jobs", timing.phases.entries[drain]);
    rec.count("computed", core::experimentComputeCount());
    rec.count("executions", g_executions);
    rec.emit();
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const std::vector<core::ExperimentConfig> cells =
        workloadCells(opt.workload, opt.sandbox);

    if (opt.list) {
        for (const core::ExperimentConfig &c : cells) {
            Record rec("label");
            rec.str("label", cellLabel(c));
            rec.emit();
        }
        return 0;
    }

    // Set-up: one warm-up cell fills the fiber-stack and blob pools and
    // builds the lazy GF(256)/CRC tables before anything is timed: the
    // last cell at the list's largest scale, an L3 one (RS encode) when
    // the list has any.
    const core::ExperimentConfig *warm = &cells.back();
    for (const core::ExperimentConfig &c : cells) {
        if (c.nprocs > warm->nprocs ||
            (c.nprocs == warm->nprocs && c.ckptLevel == 3))
            warm = &c;
    }
    {
        Record rec("warmup");
        ++g_executions;
        const core::ExperimentResult r = core::runExperiment(*warm);
        rec.count("cell", static_cast<std::uint64_t>(warm - cells.data()));
        rec.str("digest", resultDigest(r));
        rec.emit();
    }
    const double ready = monoNow();
    {
        Record rec("ready");
        rec.num("t", ready).num("cpu", clockSeconds(CLOCK_PROCESS_CPUTIME_ID));
        rec.emit();
    }
    if (opt.setupOnly)
        return 0;

    int startPos = opt.startPos;
    for (int pass = opt.startPass; pass < opt.passes; ++pass) {
        const std::vector<int> order = passOrder(cells.size(), opt.seed, pass);
        for (int pos = startPos; pos < static_cast<int>(order.size()); ++pos) {
            // A traced run traces each cell on every other pass, so traced
            // and untraced executions interleave in time: one run gives
            // the layer counters and a paired tracing-overhead estimate.
            const bool traced = opt.trace && (pass + order[pos]) % 2 == 1;
            runSerialCell(cells[order[pos]], pass, pos, order[pos], traced);
        }
        startPos = 0;
    }
    {
        // Peak RSS here, before the grid check raises it.
        Record rec("end");
        rec.num("cpu", clockSeconds(CLOCK_PROCESS_CPUTIME_ID));
        rec.num("rss_mb", peakRssMb());
        rec.emit();
    }

    if (opt.gridCheck)
        runGridCheck(cells, opt.gridSkip);

    Record done("done");
    done.count("computed", core::experimentComputeCount());
    done.count("executions", g_executions);
    done.emit();
    return 0;
}
