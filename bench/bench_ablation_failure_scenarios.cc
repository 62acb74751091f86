/**
 * @file
 * Ablation: the failure-scenario engine. The paper's methodology
 * (Section V-B) injects exactly one uniformly random process failure
 * per run; the designs it compares are exactly the ones whose rankings
 * move under richer failure processes. This bench sweeps the scenario
 * axes the engine adds:
 *
 *  - failure models: single (paper baseline), independent-exponential
 *    multi-failure, node/rack-correlated cascades, and a trace replay
 *    round-tripped through the on-disk format (serialize -> parse ->
 *    file -> replay must be bit-identical to the generated schedule);
 *  - silent data corruption: correlated crashes with half the events
 *    demoted to checkpoint corruption, detected at recovery by CRC32C
 *    and survived by falling back to an older checkpoint;
 *  - SDC verification overhead: the same cell with and without
 *    --sdc-checks (plus a periodic scrub), no corruption injected;
 *  - burst-buffer capacity pressure: L4 checkpoints at a dense stride
 *    under a shrinking --drain-capacity, showing the priced admission
 *    stalls grow as the buffer shrinks;
 *  - storage-tier faults: the same injected cell swept over the
 *    storage-fault engine (off, transient faults the retry policy
 *    rides out, a persistent PFS outage survived by L4->L3
 *    degradation), with the process-global fault counters per
 *    scenario, plus a fault-trace round-trip (generated plan ->
 *    serialize -> file -> replay must be bit-identical).
 *
 * Writes BENCH_ablation_failure_scenarios.json (per-scenario rows) into
 * --perf-dir for CI's perf-trajectory artifact.
 */

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "src/ft/failure_model.hh"
#include "src/util/logging.hh"
#include "src/util/rng.hh"
#include "src/util/table.hh"

using namespace match;
using namespace match::bench;
using core::ExperimentConfig;

namespace
{

/** One named configuration of the scenario axes. */
struct Scenario
{
    const char *name;
    ft::FailureModelKind model = ft::FailureModelKind::Single;
    double meanFailures = 1.0;
    double cascadeProb = 0.35;
    double corruptFraction = 0.0;
    bool sdcChecks = false;
    int scrubStride = 0;
};

ExperimentConfig
baseCell(const BenchOptions &options)
{
    ExperimentConfig cell = options.spec;
    cell.app = "HPCCG";
    cell.nprocs = 64;
    // Noise off: scenario deltas and the trace-replay identity check
    // must not be smeared by the run-to-run noise model.
    cell.noiseSigma = 0.0;
    // Uncached: the fault counters are snapshot-diffed around each
    // grid, and a replayed cell injects nothing.
    cell.cacheDir.clear();
    cell.injectFailure = true;
    return cell;
}

ExperimentConfig
scenarioCell(const BenchOptions &options, const Scenario &scenario,
             int procs, ft::Design design)
{
    ExperimentConfig cell = baseCell(options);
    cell.nprocs = procs;
    cell.design = design;
    cell.failureModel = scenario.model;
    cell.meanFailures = scenario.meanFailures;
    cell.cascadeProb = scenario.cascadeProb;
    cell.corruptFraction = scenario.corruptFraction;
    cell.sdcChecks = scenario.sdcChecks;
    cell.scrubStride = scenario.scrubStride;
    return cell;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto options = BenchOptions::parse(argc, argv);
    const core::GridRunner runner(options.jobs);

    std::printf("=== Ablation: failure-scenario engine "
                "(HPCCG, small) ===\n");
    std::printf("(methodology: %d runs averaged per configuration, "
                "noise off)\n\n",
                options.spec.runs);

    const std::vector<int> scales =
        options.quick ? std::vector<int>{64} : std::vector<int>{64, 512};
    const std::vector<Scenario> scenarios = {
        {"single"},
        {"independent", ft::FailureModelKind::IndependentExp, 3.0},
        {"correlated", ft::FailureModelKind::Correlated, 2.0, 0.5},
        {"correlated+sdc", ft::FailureModelKind::Correlated, 2.0, 0.5,
         /*corruptFraction=*/0.5, /*sdcChecks=*/true,
         /*scrubStride=*/5},
    };

    // One flat cell list for all scenario rows: the grid runner
    // deduplicates and keeps --jobs workers busy across scenarios.
    std::vector<ExperimentConfig> cells;
    for (const Scenario &scenario : scenarios)
        for (int procs : scales)
            for (ft::Design design : ft::allDesigns)
                cells.push_back(
                    scenarioCell(options, scenario, procs, design));
    core::GridTiming timing;
    const std::vector<core::ExperimentResult> results =
        runner.run(cells, &timing);

    struct Row
    {
        const Scenario *scenario;
        const ExperimentConfig *cell;
        const ft::Breakdown *mean;
    };
    std::vector<Row> rows;
    util::Table table({"Scenario", "#Processes", "Design",
                       "Application(s)", "WriteCkpt(s)", "Recovery(s)",
                       "Total(s)", "Recoveries"});
    std::size_t at = 0;
    for (const Scenario &scenario : scenarios) {
        for (int procs : scales) {
            for (ft::Design design : ft::allDesigns) {
                const ft::Breakdown &mean = results[at].mean;
                rows.push_back({&scenario, &cells[at], &mean});
                table.addRow({scenario.name, std::to_string(procs),
                              ft::designName(design),
                              util::Table::cell(mean.application),
                              util::Table::cell(mean.ckptWrite),
                              util::Table::cell(mean.recovery),
                              util::Table::cell(mean.total()),
                              std::to_string(mean.recoveries)});
                ++at;
            }
        }
    }
    std::printf("%s\n", table.toString().c_str());

    // Trace round-trip: generate the correlated schedule exactly the
    // way runExperiment does for run 0, push it through the trace
    // format (text -> parse -> file -> read), and replay it. The
    // replayed cell must reproduce the generated cell bit-for-bit.
    ExperimentConfig generated = scenarioCell(
        options, scenarios[2], scales.front(), ft::Design::ReinitFti);
    generated.runs = 1;
    util::Rng rng(core::cellSeed(generated, 0));
    const std::vector<ft::FailureEvent> schedule =
        core::failureScheduleFor(generated, rng);

    std::filesystem::create_directories(options.spec.sandboxDir);
    const std::string trace_path =
        options.spec.sandboxDir + "/ablation-correlated.trace";
    ft::writeTraceFile(trace_path, schedule);
    const std::vector<ft::FailureEvent> replayed =
        ft::readTraceFile(trace_path);
    const bool format_ok =
        replayed == schedule &&
        ft::parseTrace(ft::serializeTrace(schedule)) == schedule;

    ExperimentConfig replay = generated;
    replay.failureModel = ft::FailureModelKind::Trace;
    replay.traceEvents = replayed;
    const ft::Breakdown gen_bd = core::runExperiment(generated).mean;
    const ft::Breakdown rep_bd = core::runExperiment(replay).mean;
    const bool replay_ok = format_ok &&
                           gen_bd.application == rep_bd.application &&
                           gen_bd.ckptWrite == rep_bd.ckptWrite &&
                           gen_bd.ckptRead == rep_bd.ckptRead &&
                           gen_bd.recovery == rep_bd.recovery &&
                           gen_bd.recoveries == rep_bd.recoveries;
    std::printf("trace round-trip: %zu events, format %s, replay %s "
                "(generated total %.6fs, replayed total %.6fs)\n",
                schedule.size(), format_ok ? "identical" : "DIVERGED",
                replay_ok ? "bit-identical" : "DIVERGED",
                gen_bd.total(), rep_bd.total());
    if (!replay_ok)
        util::warn("trace replay diverged from the generated schedule");

    // SDC verification overhead: same cell, checks off vs on, nothing
    // corrupted — the delta is the priced CRC verification and scrub.
    ExperimentConfig plain = scenarioCell(
        options, scenarios[0], scales.front(), ft::Design::ReinitFti);
    ExperimentConfig checked = plain;
    checked.sdcChecks = true;
    checked.scrubStride = 5;
    const double plain_total = core::runExperiment(plain).mean.total();
    const double checked_total =
        core::runExperiment(checked).mean.total();
    const double sdc_overhead_pct =
        plain_total > 0.0 ? 100.0 * (checked_total / plain_total - 1.0)
                          : 0.0;
    std::printf("sdc-checks overhead (single-failure cell, scrub "
                "stride 5): %.6fs -> %.6fs (%+.2f%%)\n",
                plain_total, checked_total, sdc_overhead_pct);

    // Burst-buffer capacity pressure: L4 checkpoints every other
    // iteration so every cell carries flush traffic, with the PFS pipe
    // throttled 100x so a flush outlives the checkpoint interval and
    // staged bytes accumulate. Admission stalls are priced, so total
    // time grows as capacity drops; 0 is the unbounded baseline.
    const std::vector<std::size_t> capacities = {
        0, std::size_t{1} << 30, std::size_t{1} << 26,
        std::size_t{1} << 22, std::size_t{1} << 18};
    std::vector<ExperimentConfig> pressure_cells;
    for (std::size_t capacity : capacities) {
        ExperimentConfig cell = baseCell(options);
        cell.injectFailure = false;
        cell.design = ft::Design::RestartFti;
        cell.ckptLevel = 4;
        cell.ckptStride = 2;
        cell.costParams.ckptL4AggregateBw /= 100.0;
        cell.drainCapacityBytes = capacity;
        pressure_cells.push_back(std::move(cell));
    }
    const std::vector<core::ExperimentResult> pressure =
        runner.run(pressure_cells);
    util::Table pressure_table(
        {"Capacity(bytes)", "WriteCkpt(s)", "Total(s)"});
    for (std::size_t i = 0; i < capacities.size(); ++i) {
        pressure_table.addRow(
            {capacities[i] == 0 ? std::string("unbounded")
                                : std::to_string(capacities[i]),
             util::Table::cell(pressure[i].mean.ckptWrite),
             util::Table::cell(pressure[i].mean.total())});
    }
    std::printf("\n--- L4 burst-buffer capacity pressure (stride 2, "
                "no failures) ---\n%s\n",
                pressure_table.toString().c_str());

    // Storage-tier faults: one injected L4 cell per design, swept over
    // the fault engine. Transient windows (strikes <= retry limit) must
    // complete via priced retries; the persistent PFS outage must
    // complete via L4->L3 degradation and skipped flushes — never a
    // fatal error while a healthy tier remains. Counters are
    // snapshot-diffed per scenario, so each row shows what its grid
    // actually injected and survived.
    struct FaultScenario
    {
        const char *name;
        int windows = 0;
        double pfsBias = 0.75;
        int strikes = 2;
    };
    const std::vector<FaultScenario> fault_scenarios = {
        {"faults-off", 0},
        {"transient", 2, 0.75, 2},
        {"pfs-outage", 3, 1.0, 99},
    };
    struct FaultRow
    {
        const FaultScenario *scenario;
        storage::FaultStats stats;
        std::vector<ExperimentConfig> cells;
        std::vector<core::ExperimentResult> results;
    };
    std::vector<FaultRow> fault_rows;
    util::Table fault_table({"Scenario", "Design", "WriteCkpt(s)",
                             "Recovery(s)", "Total(s)", "Recoveries"});
    for (const FaultScenario &scenario : fault_scenarios) {
        FaultRow row;
        row.scenario = &scenario;
        for (ft::Design design : ft::allDesigns) {
            ExperimentConfig cell = baseCell(options);
            cell.nprocs = scales.front();
            cell.design = design;
            cell.ckptLevel = 4;
            cell.ckptStride = 5;
            cell.storageFaultWindows = scenario.windows;
            cell.storageFaultPfsBias = scenario.pfsBias;
            cell.storageFaultStrikes = scenario.strikes;
            row.cells.push_back(std::move(cell));
        }
        const storage::FaultStats before = storage::faultGlobalStats();
        row.results = runner.run(row.cells);
        const storage::FaultStats after = storage::faultGlobalStats();
        row.stats.injectedReadFaults =
            after.injectedReadFaults - before.injectedReadFaults;
        row.stats.injectedWriteFaults =
            after.injectedWriteFaults - before.injectedWriteFaults;
        row.stats.tornWrites = after.tornWrites - before.tornWrites;
        row.stats.enospcHits = after.enospcHits - before.enospcHits;
        row.stats.pricedRetries =
            after.pricedRetries - before.pricedRetries;
        row.stats.latencySpikes =
            after.latencySpikes - before.latencySpikes;
        row.stats.degradedCkpts =
            after.degradedCkpts - before.degradedCkpts;
        row.stats.skippedEpochs =
            after.skippedEpochs - before.skippedEpochs;
        row.stats.failedFlushes =
            after.failedFlushes - before.failedFlushes;
        for (std::size_t i = 0; i < row.cells.size(); ++i) {
            const ft::Breakdown &mean = row.results[i].mean;
            fault_table.addRow(
                {scenario.name, ft::designName(row.cells[i].design),
                 util::Table::cell(mean.ckptWrite),
                 util::Table::cell(mean.recovery),
                 util::Table::cell(mean.total()),
                 std::to_string(mean.recoveries)});
        }
        fault_rows.push_back(std::move(row));
    }
    std::printf("--- Storage-tier faults (L4, stride 5, one injected "
                "process failure) ---\n%s",
                fault_table.toString().c_str());
    for (const FaultRow &row : fault_rows) {
        std::printf("%-12s injected r/w/torn/enospc %llu/%llu/%llu/%llu, "
                    "priced retries %llu, spikes %llu, degraded %llu, "
                    "skipped %llu, failed flushes %llu\n",
                    row.scenario->name,
                    static_cast<unsigned long long>(
                        row.stats.injectedReadFaults),
                    static_cast<unsigned long long>(
                        row.stats.injectedWriteFaults),
                    static_cast<unsigned long long>(row.stats.tornWrites),
                    static_cast<unsigned long long>(row.stats.enospcHits),
                    static_cast<unsigned long long>(
                        row.stats.pricedRetries),
                    static_cast<unsigned long long>(
                        row.stats.latencySpikes),
                    static_cast<unsigned long long>(
                        row.stats.degradedCkpts),
                    static_cast<unsigned long long>(
                        row.stats.skippedEpochs),
                    static_cast<unsigned long long>(
                        row.stats.failedFlushes));
    }

    // Storage-fault trace round-trip, mirroring the failure-trace check
    // above: the plan runExperiment would draw for run 0, pushed
    // through the trace format and replayed verbatim, must reproduce
    // the drawn-plan run bit-for-bit.
    ExperimentConfig fault_gen = baseCell(options);
    fault_gen.nprocs = scales.front();
    fault_gen.design = ft::Design::RestartFti;
    fault_gen.ckptLevel = 4;
    fault_gen.ckptStride = 5;
    fault_gen.runs = 1;
    fault_gen.storageFaultWindows = 3;
    fault_gen.storageFaultStrikes = 2;
    const storage::StorageFaultPlan fault_plan =
        core::storageFaultPlanFor(fault_gen, 0);
    const std::string fault_trace_path =
        options.spec.sandboxDir + "/ablation-storage-faults.trace";
    storage::writeFaultTraceFile(fault_trace_path, fault_plan.windows);
    const std::vector<storage::FaultWindow> fault_replayed =
        storage::readFaultTraceFile(fault_trace_path);
    const bool fault_format_ok =
        fault_replayed == fault_plan.windows &&
        storage::parseFaultTrace(
            storage::serializeFaultTrace(fault_plan.windows)) ==
            fault_plan.windows;
    ExperimentConfig fault_replay = fault_gen;
    fault_replay.storageFaultTrace = fault_replayed;
    const ft::Breakdown fgen_bd = core::runExperiment(fault_gen).mean;
    const ft::Breakdown frep_bd = core::runExperiment(fault_replay).mean;
    const bool fault_replay_ok =
        fault_format_ok && fgen_bd.application == frep_bd.application &&
        fgen_bd.ckptWrite == frep_bd.ckptWrite &&
        fgen_bd.ckptRead == frep_bd.ckptRead &&
        fgen_bd.recovery == frep_bd.recovery &&
        fgen_bd.recoveries == frep_bd.recoveries;
    std::printf("storage-fault trace round-trip: %zu windows, format "
                "%s, replay %s (generated total %.6fs, replayed total "
                "%.6fs)\n\n",
                fault_plan.windows.size(),
                fault_format_ok ? "identical" : "DIVERGED",
                fault_replay_ok ? "bit-identical" : "DIVERGED",
                fgen_bd.total(), frep_bd.total());
    if (!fault_replay_ok)
        util::warn("storage-fault trace replay diverged from the "
                   "generated plan");

    // One digest over every grid above, in the order they ran.
    std::vector<core::ExperimentResult> all_results = results;
    all_results.insert(all_results.end(), pressure.begin(), pressure.end());
    for (const FaultRow &row : fault_rows)
        all_results.insert(all_results.end(), row.results.begin(),
                           row.results.end());
    const std::uint64_t digest = printGridDigest(all_results);

    // Perf record: per-scenario rows for CI's trajectory artifact.
    std::filesystem::create_directories(options.perfDir);
    const std::string json_path =
        options.perfDir + "/BENCH_ablation_failure_scenarios.json";
    std::FILE *out = std::fopen(json_path.c_str(), "w");
    if (!out) {
        util::warn("cannot write %s", json_path.c_str());
        return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"ablation_failure_scenarios\",\n"
                 "  \"quick\": %s,\n"
                 "  \"runsPerCell\": %d,\n"
                 "  \"jobs\": %d,\n"
                 "  \"digest\": \"%016" PRIx64 "\",\n"
                 "  \"traceRoundTripIdentical\": %s,\n"
                 "  \"traceReplayBitIdentical\": %s,\n"
                 "  \"traceEvents\": %zu,\n"
                 "  \"sdcCheckOverheadPct\": %.4f,\n"
                 "  \"scenarios\": [\n",
                 options.quick ? "true" : "false", options.spec.runs,
                 runner.jobs(), digest, format_ok ? "true" : "false",
                 replay_ok ? "true" : "false", schedule.size(),
                 sdc_overhead_pct);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        std::fprintf(
            out,
            "    {\"scenario\": \"%s\", \"nprocs\": %d, "
            "\"design\": \"%s\", \"application\": %.9f, "
            "\"ckptWrite\": %.9f, \"recovery\": %.9f, "
            "\"total\": %.9f, \"recoveries\": %d, "
            "\"failureFired\": %s}%s\n",
            row.scenario->name, row.cell->nprocs,
            ft::designName(row.cell->design), row.mean->application,
            row.mean->ckptWrite, row.mean->recovery, row.mean->total(),
            row.mean->recoveries,
            row.mean->failureFired ? "true" : "false",
            i + 1 == rows.size() ? "" : ",");
    }
    std::fprintf(out, "  ],\n  \"capacityPressure\": [\n");
    for (std::size_t i = 0; i < capacities.size(); ++i) {
        std::fprintf(
            out,
            "    {\"capacityBytes\": %llu, \"ckptWrite\": %.9f, "
            "\"total\": %.9f}%s\n",
            static_cast<unsigned long long>(capacities[i]),
            pressure[i].mean.ckptWrite, pressure[i].mean.total(),
            i + 1 == capacities.size() ? "" : ",");
    }
    std::fprintf(out,
                 "  ],\n"
                 "  \"storageFaultTraceIdentical\": %s,\n"
                 "  \"storageFaultReplayBitIdentical\": %s,\n"
                 "  \"storageFaultTraceWindows\": %zu,\n"
                 "  \"storageFaults\": [\n",
                 fault_format_ok ? "true" : "false",
                 fault_replay_ok ? "true" : "false",
                 fault_plan.windows.size());
    for (std::size_t i = 0; i < fault_rows.size(); ++i) {
        const FaultRow &row = fault_rows[i];
        double total = 0.0;
        int recoveries = 0;
        for (const core::ExperimentResult &result : row.results) {
            total += result.mean.total();
            recoveries += result.mean.recoveries;
        }
        std::fprintf(
            out,
            "    {\"scenario\": \"%s\", \"windows\": %d, "
            "\"pfsBias\": %.3f, \"strikes\": %d, "
            "\"meanTotalSum\": %.9f, \"recoveries\": %d, "
            "\"injectedReadFaults\": %llu, "
            "\"injectedWriteFaults\": %llu, \"tornWrites\": %llu, "
            "\"enospcHits\": %llu, \"pricedRetries\": %llu, "
            "\"latencySpikes\": %llu, \"degradedCkpts\": %llu, "
            "\"skippedEpochs\": %llu, \"failedFlushes\": %llu}%s\n",
            row.scenario->name, row.scenario->windows,
            row.scenario->pfsBias, row.scenario->strikes, total,
            recoveries,
            static_cast<unsigned long long>(
                row.stats.injectedReadFaults),
            static_cast<unsigned long long>(
                row.stats.injectedWriteFaults),
            static_cast<unsigned long long>(row.stats.tornWrites),
            static_cast<unsigned long long>(row.stats.enospcHits),
            static_cast<unsigned long long>(row.stats.pricedRetries),
            static_cast<unsigned long long>(row.stats.latencySpikes),
            static_cast<unsigned long long>(row.stats.degradedCkpts),
            static_cast<unsigned long long>(row.stats.skippedEpochs),
            static_cast<unsigned long long>(row.stats.failedFlushes),
            i + 1 == fault_rows.size() ? "" : ",");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("perf: wrote %s\n", json_path.c_str());
    const int quarantined = reportCellFailures(timing);
    if (!replay_ok || !fault_replay_ok)
        return 1;
    return gridExitCode(options, quarantined);
}
