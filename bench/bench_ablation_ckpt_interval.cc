/**
 * @file
 * Ablation: checkpoint-interval sweep (the paper fixes the stride at 10
 * iterations; this bench shows the classic trade-off behind that
 * choice: frequent checkpoints cost write time, sparse checkpoints cost
 * re-executed work after a failure).
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

    std::printf("=== Ablation: checkpoint interval (HPCCG, small, 64 "
                "processes, REINIT-FTI, one failure) ===\n\n");
    core::GridSpec spec = options.spec;
    spec.apps = {"HPCCG"};
    spec.scales = {64};
    spec.designs = {ft::Design::ReinitFti};
    spec.injectFailure = true;
    spec.ckptStrides = {2, 5, 10, 20, 40, 80};
    const auto cells = spec.enumerate();
    core::GridTiming timing;
    const auto results =
        core::GridRunner(options.jobs).run(cells, &timing);

    util::Table table({"Stride(iters)", "WriteCkpt(s)", "Application(s)",
                       "Recovery(s)", "Total(s)"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const ft::Breakdown &mean = results[i].mean;
        table.addRow({std::to_string(cells[i].ckptStride),
                      util::Table::cell(mean.ckptWrite),
                      util::Table::cell(mean.application),
                      util::Table::cell(mean.recovery),
                      util::Table::cell(mean.total())});
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf("Note: application time includes the work re-executed "
                "since the last checkpoint, which grows with the "
                "stride; write time shrinks with the stride.\n");
    printGridDigest(results);
    return gridExitCode(options, reportCellFailures(timing));
}
