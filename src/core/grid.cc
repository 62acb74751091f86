#include "src/core/grid.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "src/fti/fti.hh"
#include "src/util/logging.hh"

namespace match::core
{

namespace
{

/** Auto watchdog: arm once this many cells were computed, at this
 *  multiple of their p99 wall time (floored at 1 s). */
constexpr std::size_t kAutoTimeoutMinSamples = 8;
constexpr double kAutoTimeoutFactor = 5.0;

/** Retry backoff: base * 2^strike, capped. */
constexpr double kBackoffBaseSeconds = 0.05;
constexpr double kBackoffCapSeconds = 2.0;

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

/** Sorted-copy nearest-rank percentile; q in [0, 1]. */
double
percentileOf(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1) + 0.5);
    return samples[std::min(rank, samples.size() - 1)];
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

/** Per-worker watchdog view of the in-flight attempt. */
struct WorkerSlot
{
    /** Cooperative cancel token handed to the attempt's config. */
    std::atomic<bool> cancel{false};
    /** steady_clock nanoseconds when the attempt started; -1 idle. */
    std::atomic<long long> startNs{-1};
};

long long
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
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

GridRunner::GridRunner(int jobs, GridPolicy policy)
    : jobs_(jobs > 0 ? jobs : hardwareJobs()), policy_(std::move(policy))
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
    const int slot_count = std::max(workers, 1);
    const std::unique_ptr<WorkerSlot[]> slots(new WorkerSlot[slot_count]);
    std::vector<double> cell_seconds(unique.size(), 0.0);
    std::atomic<std::size_t> next{0};

    // Completed computed-cell wall times feed the auto watchdog
    // deadline (cache replays are excluded: a p99 of millisecond
    // replays must not arm a deadline real computation cannot meet).
    std::mutex computed_mu;
    std::vector<double> computed_seconds;
    const auto attemptTimeout = [&]() -> double {
        if (policy_.cellTimeoutSeconds > 0.0)
            return policy_.cellTimeoutSeconds;
        if (!policy_.autoTimeout)
            return 0.0;
        std::lock_guard<std::mutex> lock(computed_mu);
        if (computed_seconds.size() < kAutoTimeoutMinSamples)
            return 0.0;
        return std::max(1.0, kAutoTimeoutFactor *
                                 percentileOf(computed_seconds, 0.99));
    };

    std::mutex failures_mu;
    std::vector<CellFailure> failures;
    std::atomic<std::size_t> cells_computed{0};
    std::atomic<std::size_t> cells_from_cache{0};

    auto drain = [&](int w) {
        WorkerSlot &slot = slots[w];
        for (;;) {
            const std::size_t u = next.fetch_add(1);
            if (u >= unique.size())
                return;
            const std::size_t i = unique[u];
            const std::string &key = unique_keys[u];
            const auto cell_start = Clock::now();

            // Guarded attempt loop: watchdog deadline, capped
            // exponential backoff, quarantine after the retry budget.
            std::string last_error;
            bool timed_out = false;
            bool done = false;
            for (int strike = 0;; ++strike) {
                slot.cancel.store(false, std::memory_order_relaxed);
                const auto attempt_start = Clock::now();
                slot.startNs.store(steadyNowNs(),
                                   std::memory_order_release);
                ExperimentConfig attempt = cells[i];
                attempt.cancel = &slot.cancel;
                timed_out = false;
                const std::uint64_t before =
                    experimentComputeCountThisThread();
                try {
                    results[i] = runExperiment(attempt);
                    done = true;
                } catch (const CellCancelled &) {
                    timed_out = true;
                    std::ostringstream err;
                    err.precision(3);
                    err << "watchdog timeout after "
                        << wallSince(attempt_start) << "s";
                    last_error = err.str();
                } catch (const std::exception &e) {
                    last_error = e.what();
                } catch (...) {
                    last_error = "unknown exception";
                }
                slot.startNs.store(-1, std::memory_order_release);
                slot.cancel.store(false, std::memory_order_relaxed);
                const int attempts = strike + 1;

                if (done) {
                    const bool replayed =
                        experimentComputeCountThisThread() == before;
                    (replayed ? cells_from_cache : cells_computed)
                        .fetch_add(1);
                    cell_seconds[u] = wallSince(cell_start);
                    if (!replayed) {
                        std::lock_guard<std::mutex> lock(computed_mu);
                        computed_seconds.push_back(cell_seconds[u]);
                    }
                    // Crash-after fires once, after the Nth
                    // completion's result has been committed — a kill
                    // between cells, the hardest point for resume.
                    if (crash_after > 0 &&
                        completions.fetch_add(1) + 1 == crash_after) {
                        std::fflush(nullptr);
                        std::_Exit(42);
                    }
                    break;
                }
                if (strike >= policy_.cellRetries) {
                    // Quarantine: the grid degrades gracefully — every
                    // healthy cell still completes; this one is
                    // reported, not fatal. Its result slot keeps the
                    // default (all-zero) ExperimentResult.
                    MATCH_WARN(
                        "grid: quarantining cell %s after %d "
                        "attempt(s): %s",
                        cellSummary(cells[i]).c_str(), attempts,
                        last_error.c_str());
                    CellFailure failure;
                    failure.cell = i;
                    failure.key = key;
                    failure.summary = cellSummary(cells[i]);
                    failure.attempts = attempts;
                    failure.timedOut = timed_out;
                    failure.lastError = last_error;
                    std::lock_guard<std::mutex> lock(failures_mu);
                    failures.push_back(std::move(failure));
                    cell_seconds[u] = wallSince(cell_start);
                    break;
                }
                MATCH_WARN("grid: cell %s attempt %d failed (%s); "
                           "retrying",
                           cellSummary(cells[i]).c_str(), attempts,
                           last_error.c_str());
                double backoff = kBackoffBaseSeconds;
                for (int b = 0; b < strike; ++b)
                    backoff *= 2.0;
                std::this_thread::sleep_for(std::chrono::duration<double>(
                    std::min(backoff, kBackoffCapSeconds)));
            }
        }
    };

    // The watchdog scans in-flight attempts and raises their cancel
    // tokens past the deadline. It never touches results — cancellation
    // is cooperative (runExperiment polls at run boundaries), so a
    // cancelled attempt unwinds cleanly with no partial state.
    std::atomic<bool> watchdog_stop{false};
    std::thread watchdog;
    if (policy_.cellTimeoutSeconds > 0.0 || policy_.autoTimeout) {
        watchdog = std::thread([&] {
            while (!watchdog_stop.load(std::memory_order_relaxed)) {
                const double limit = attemptTimeout();
                if (limit > 0.0) {
                    const long long now = steadyNowNs();
                    const auto budget =
                        static_cast<long long>(limit * 1e9);
                    for (int w = 0; w < slot_count; ++w) {
                        const long long start = slots[w].startNs.load(
                            std::memory_order_acquire);
                        if (start >= 0 && now - start > budget) {
                            slots[w].cancel.store(
                                true, std::memory_order_relaxed);
                        }
                    }
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
            }
        });
    }

    if (workers <= 1) {
        // The calling thread runs the grid itself.
        drain(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w)
            pool.emplace_back(drain, w);
        for (auto &t : pool)
            t.join();
    }
    if (watchdog.joinable()) {
        watchdog_stop.store(true, std::memory_order_relaxed);
        watchdog.join();
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
