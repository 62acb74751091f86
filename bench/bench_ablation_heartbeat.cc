/**
 * @file
 * Ablation: ULFM background-overhead sensitivity. The paper attributes
 * ULFM-FTI's application slowdown to the runtime's heartbeat failure
 * detector and failure-aware communication wrappers (Bosilca et al.).
 * This bench sweeps the modelled per-tree-level slowdown and shows how
 * the Figure-5 gap between ULFM-FTI and REINIT-FTI responds.
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

    std::printf("=== Ablation: ULFM heartbeat/wrapper slowdown "
                "(HPCCG, small) ===\n\n");
    util::Table table({"SlowdownPerLevel", "#Processes",
                       "ULFM App(s)", "Reinit App(s)", "Overhead(%)"});
    std::vector<core::ExperimentResult> results;
    for (double slowdown : {0.0, 0.014, 0.028, 0.056}) {
        for (int procs : {64, 512}) {
            core::ExperimentConfig config = options.spec;
            config.app = "HPCCG";
            config.nprocs = procs;
            config.noiseSigma = 0.0;
            config.costParams.ulfmAppSlowdownPerLevel = slowdown;

            config.design = ft::Design::UlfmFti;
            results.push_back(core::runExperiment(config));
            const double ulfm = results.back().mean.application;
            config.design = ft::Design::ReinitFti;
            results.push_back(core::runExperiment(config));
            const double reinit = results.back().mean.application;

            table.addRow({util::Table::cell(slowdown, 3),
                          std::to_string(procs),
                          util::Table::cell(ulfm),
                          util::Table::cell(reinit),
                          util::Table::cell(
                              100.0 * (ulfm / reinit - 1.0), 1)});
        }
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf("The paper's default (0.028/level) reproduces the "
                "Figure-5 overhead of ~15%% at 64 and ~25%% at 512 "
                "processes; 0 models a heartbeat-free ULFM.\n");
    printGridDigest(results);
    return 0;
}
