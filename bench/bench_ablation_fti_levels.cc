/**
 * @file
 * Ablation: FTI checkpoint levels L1-L4 (the paper evaluates L1 only
 * and defers the level comparison to the FTI paper; this bench
 * regenerates that comparison on a MATCH workload).
 *
 * Expected shape: write time L1 < L2 < L3 for the rank-serializing
 * levels; L4 drops back to ~L1 because the PFS flush is drained — the
 * rank pays burst-buffer staging and the streaming overlaps compute on
 * the drain channel (any unhidden remainder surfaces at finalize).
 * Read (recovery) time stays in milliseconds for local levels.
 */

#include <cstdio>

#include "bench/common.hh"
#include "src/util/table.hh"

using namespace match;
using namespace match::bench;

int
main(int argc, char **argv)
{
    const auto options = BenchOptions::parse(argc, argv);

    std::printf("=== Ablation: FTI checkpoint levels (HPCCG, small, 64 "
                "processes, REINIT-FTI) ===\n\n");
    core::GridSpec spec = options.spec;
    spec.apps = {"HPCCG"};
    spec.scales = {64};
    spec.designs = {ft::Design::ReinitFti};
    spec.ckptLevels = {1, 2, 3, 4};
    const auto cells = spec.enumerate();
    core::GridTiming timing;
    const auto results =
        core::GridRunner(options.jobs).run(cells, &timing);

    util::Table table({"Level", "Storage path", "WriteCkpt(s)",
                       "Application(s)", "Total(s)"});
    const char *paths[] = {
        "", "node-local ramfs", "local + partner copy",
        "local + Reed-Solomon group",
        "parallel FS (whole object, drained)"};
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const ft::Breakdown &mean = results[i].mean;
        table.addRow({"L" + std::to_string(cells[i].ckptLevel),
                      paths[cells[i].ckptLevel],
                      util::Table::cell(mean.ckptWrite),
                      util::Table::cell(mean.application),
                      util::Table::cell(mean.total())});
    }
    std::printf("%s\n", table.toString().c_str());
    printGridDigest(results);
    return gridExitCode(options, reportCellFailures(timing));
}
