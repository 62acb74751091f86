#include "src/core/grid.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "src/fti/fti.hh"
#include "src/util/logging.hh"

namespace match::core
{

namespace
{

/** Human-readable cell label for failure records and logs. */
std::string
cellSummary(const ExperimentConfig &config)
{
    std::ostringstream s;
    s << config.app << ' ' << apps::inputSizeName(config.input) << " p"
      << config.nprocs << ' ' << ft::designName(config.design)
      << " stride" << config.ckptStride << " L" << config.ckptLevel;
    return s.str();
}

/** Harness fault-injection hook: MATCH_GRID_CRASH_AFTER=N makes the
 *  process _exit after the Nth cell completes — after that cell's
 *  .cell commit when the grid has a cache — modelling a mid-grid kill
 *  for the resume tests and the CI resume-smoke step. Parsed per run()
 *  call; <= 0 or unset disables it. */
long
crashAfterFromEnv()
{
    const char *env = std::getenv("MATCH_GRID_CRASH_AFTER");
    return env ? std::atol(env) : -1;
}

} // anonymous namespace

std::vector<ExperimentConfig>
GridSpec::enumerate() const
{
    std::vector<std::string> app_names = apps;
    if (app_names.empty()) {
        for (const auto &spec : match::apps::registry())
            app_names.push_back(spec.name);
    }

    std::vector<ExperimentConfig> cells;
    for (const std::string &app : app_names) {
        const auto &spec = match::apps::findApp(app);
        std::vector<int> app_scales = scales;
        if (app_scales.empty()) {
            app_scales = spec.scalingSizes;
            if (endpointsOnly && app_scales.size() > 2)
                app_scales = {app_scales.front(), app_scales.back()};
        }
        for (int nprocs : app_scales) {
            for (apps::InputSize input : inputs) {
                for (ft::Design design : designs) {
                    for (int stride : ckptStrides) {
                        for (int level : ckptLevels) {
                          for (storage::TransformKind transform :
                               transforms) {
                            ExperimentConfig config = *this;
                            config.app = app;
                            config.input = input;
                            config.nprocs = nprocs;
                            config.design = design;
                            config.ckptStride = stride;
                            config.ckptLevel = level;
                            config.transform = transform;
                            cells.push_back(std::move(config));
                          }
                        }
                    }
                }
            }
        }
    }
    return cells;
}

std::uint64_t
gridDigest(const std::vector<ExperimentResult> &results)
{
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a offset basis
    const auto f64 = [&h](double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        h = fti::fnv1a(&bits, sizeof bits, h);
    };
    const auto i64 = [&h](std::int64_t v) {
        h = fti::fnv1a(&v, sizeof v, h);
    };
    const auto breakdown = [&](const ft::Breakdown &b) {
        f64(b.application);
        f64(b.ckptWrite);
        f64(b.ckptRead);
        f64(b.recovery);
        i64(b.attempts);
        i64(b.recoveries);
        i64(b.failureFired ? 1 : 0);
    };
    for (const ExperimentResult &r : results) {
        breakdown(r.mean);
        i64(static_cast<std::int64_t>(r.perRun.size()));
        for (const ft::Breakdown &b : r.perRun)
            breakdown(b);
    }
    return h;
}

GridRunner::GridRunner(int jobs) : jobs_(jobs > 0 ? jobs : hardwareJobs())
{}

int
GridRunner::hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

std::vector<ExperimentResult>
GridRunner::run(const std::vector<ExperimentConfig> &cells,
                GridTiming *timing) const
{
    using Clock = std::chrono::steady_clock;
    const auto wallSince = [](Clock::time_point start) {
        return std::chrono::duration<double>(Clock::now() - start)
            .count();
    };
    const auto grid_start = Clock::now();
    const util::PhaseTotals phases_before = util::phaseTotals();

    std::vector<ExperimentResult> results(cells.size());
    if (cells.empty()) {
        if (timing)
            *timing = GridTiming{};
        return results;
    }

    // Deduplicate: figure grids share cells (and a spec may enumerate
    // duplicates). Each distinct configuration is computed exactly once,
    // which also guarantees two workers never touch the same sandbox.
    std::map<std::string, std::size_t> first_index;
    std::vector<std::size_t> unique;            // indices to compute
    std::vector<std::string> unique_keys;       // configKey per unique
    std::vector<std::size_t> duplicate_of(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        std::string key = configKey(cells[i]);
        const auto [it, inserted] = first_index.try_emplace(key, i);
        duplicate_of[i] = it->second;
        if (inserted) {
            unique.push_back(i);
            unique_keys.push_back(std::move(key));
        }
    }

    const long crash_after = crashAfterFromEnv();
    std::atomic<long> completions{0};

    const int workers = std::min<int>(
        jobs_, static_cast<int>(unique.size()));
    std::vector<double> cell_seconds(unique.size(), 0.0);
    std::atomic<std::size_t> next{0};

    std::mutex failures_mu;
    std::vector<CellFailure> failures;
    std::atomic<std::size_t> cells_computed{0};
    std::atomic<std::size_t> cells_from_cache{0};

    auto drain = [&] {
        for (;;) {
            const std::size_t u = next.fetch_add(1);
            if (u >= unique.size())
                return;
            const std::size_t i = unique[u];
            const auto cell_start = Clock::now();
            const std::uint64_t before = experimentComputeCountThisThread();
            bool threw = true;
            std::string error;
            try {
                results[i] = runExperiment(cells[i]);
                threw = false;
            } catch (const std::exception &e) {
                error = e.what();
            } catch (...) {
                error = "unknown exception";
            }
            cell_seconds[u] = wallSince(cell_start);

            if (threw) {
                // Quarantine: the grid degrades gracefully — every
                // healthy cell still completes; this one is reported,
                // not fatal. Its result slot keeps the default
                // (all-zero) ExperimentResult.
                CellFailure failure;
                failure.cell = i;
                failure.key = unique_keys[u];
                failure.summary = cellSummary(cells[i]);
                failure.lastError = std::move(error);
                MATCH_WARN("grid: quarantining cell %s: %s",
                           failure.summary.c_str(),
                           failure.lastError.c_str());
                std::lock_guard<std::mutex> lock(failures_mu);
                failures.push_back(std::move(failure));
                continue;
            }
            const bool replayed =
                experimentComputeCountThisThread() == before;
            (replayed ? cells_from_cache : cells_computed).fetch_add(1);
            // Crash-after fires once, after the Nth completion's result
            // has been committed — a kill between cells, the hardest
            // point for resume.
            if (crash_after > 0 &&
                completions.fetch_add(1) + 1 == crash_after) {
                std::fflush(nullptr);
                std::_Exit(42);
            }
        }
    };

    if (workers <= 1) {
        // The calling thread runs the grid itself.
        drain();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w)
            pool.emplace_back(drain);
        for (auto &t : pool)
            t.join();
    }

    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (duplicate_of[i] != i)
            results[i] = results[duplicate_of[i]];
    }
    if (timing) {
        timing->totalSeconds = wallSince(grid_start);
        timing->cellSeconds = std::move(cell_seconds);
        // Workers have joined, so every phase counter they touched is
        // visible here; the diff isolates this grid from earlier runs
        // in the same process.
        timing->phases =
            util::PhaseTotals::diff(util::phaseTotals(), phases_before);
        timing->failures = std::move(failures);
        timing->cellsComputed = cells_computed.load();
        timing->cellsFromCache = cells_from_cache.load();
    }
    return results;
}

} // namespace match::core
