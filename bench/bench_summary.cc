/**
 * @file
 * Reproduces the paper's headline statistics (Sections I and V):
 *
 *  1. Reinit recovery is ~4x faster than ULFM recovery on average,
 *     and up to 13x faster.
 *  2. Reinit recovery is ~16x faster than Restart on average, and up
 *     to 22x faster.
 *  3. Restart recovery is 2-3x slower than ULFM recovery.
 *  4. Writing checkpoints accounts for ~13% of total execution time.
 *  5. Reading checkpoints is in the order of milliseconds.
 *
 * The statistics are computed over the same grid the paper uses: all
 * apps across the four scaling sizes (small input) and the three input
 * sizes (64 processes), with one injected failure per run. The whole
 * grid (four design/injection variants per cell) executes on the
 * GridRunner worker pool before any statistic is reduced.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/common.hh"
#include "src/util/stats.hh"
#include "src/util/table.hh"

using namespace match;
using namespace match::bench;
using apps::InputSize;
using core::ExperimentConfig;
using ft::Design;

namespace
{

struct Cell
{
    std::string app;
    InputSize input;
    int procs;
};

/** One concrete cell on top of the parsed options, so this bench maps
 *  runs/seed/sandbox/cache exactly like the figure benches (and shares
 *  their disk-cached cells). */
ExperimentConfig
makeConfig(const BenchOptions &options, const Cell &cell, Design design,
           bool inject)
{
    ExperimentConfig config = options.spec;
    config.app = cell.app;
    config.input = cell.input;
    config.nprocs = cell.procs;
    config.design = design;
    config.injectFailure = inject;
    return config;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto options = BenchOptions::parse(argc, argv);

    // The evaluation grid (Table I): scaling sweep + input sweep.
    std::vector<Cell> cells;
    for (const std::string &app : options.spec.apps) {
        const auto &spec = apps::findApp(app);
        for (int procs : spec.scalingSizes) {
            if (options.quick && procs != spec.scalingSizes.front() &&
                procs != spec.scalingSizes.back())
                continue;
            cells.push_back({app, InputSize::Small, procs});
        }
        cells.push_back({app, InputSize::Medium, 64});
        cells.push_back({app, InputSize::Large, 64});
    }

    // Four variants per cell, executed in one parallel grid pass:
    // the three designs with an injected failure plus a clean Restart
    // run for the checkpoint-write share.
    std::vector<ExperimentConfig> grid;
    grid.reserve(cells.size() * 4);
    for (const Cell &cell : cells) {
        for (Design design : {Design::RestartFti, Design::ReinitFti,
                              Design::UlfmFti})
            grid.push_back(makeConfig(options, cell, design, true));
        grid.push_back(makeConfig(options, cell, Design::RestartFti, false));
    }
    core::GridTiming timing;
    const auto results =
        core::GridRunner(options.jobs).run(grid, &timing);

    std::vector<double> ulfm_vs_reinit, restart_vs_reinit,
        restart_vs_ulfm, ckpt_fraction, read_seconds;

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const ft::Breakdown &restart = results[4 * i + 0].mean;
        const ft::Breakdown &reinit = results[4 * i + 1].mean;
        const ft::Breakdown &ulfm = results[4 * i + 2].mean;
        const ft::Breakdown &clean = results[4 * i + 3].mean;
        if (reinit.recovery > 0.0) {
            ulfm_vs_reinit.push_back(ulfm.recovery / reinit.recovery);
            restart_vs_reinit.push_back(restart.recovery /
                                        reinit.recovery);
        }
        if (ulfm.recovery > 0.0)
            restart_vs_ulfm.push_back(restart.recovery / ulfm.recovery);
        read_seconds.push_back(reinit.ckptRead);

        if (clean.total() > 0.0)
            ckpt_fraction.push_back(clean.ckptWrite / clean.total());
    }

    auto maxOf = [](const std::vector<double> &v) {
        return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    };

    std::printf("=== Headline statistics over %zu grid cells ===\n\n",
                cells.size());
    util::Table table({"Metric", "Paper", "Measured"});
    table.addRow({"ULFM recovery / Reinit recovery (mean)", "4x",
                  util::Table::cell(util::mean(ulfm_vs_reinit), 1) + "x"});
    table.addRow({"ULFM recovery / Reinit recovery (max)", "13x",
                  util::Table::cell(maxOf(ulfm_vs_reinit), 1) + "x"});
    table.addRow({"Restart recovery / Reinit recovery (mean)", "16x",
                  util::Table::cell(util::mean(restart_vs_reinit), 1) +
                      "x"});
    table.addRow({"Restart recovery / Reinit recovery (max)", "22x",
                  util::Table::cell(maxOf(restart_vs_reinit), 1) + "x"});
    table.addRow({"Restart recovery / ULFM recovery (mean)", "2-3x",
                  util::Table::cell(util::mean(restart_vs_ulfm), 1) +
                      "x"});
    table.addRow({"Checkpoint-write share of execution (mean)", "13%",
                  util::Table::cell(100.0 * util::mean(ckpt_fraction), 1) +
                      "%"});
    table.addRow({"Checkpoint read time (mean)", "milliseconds",
                  util::Table::cell(1000.0 * util::mean(read_seconds), 1) +
                      " ms"});
    std::printf("%s\n", table.toString().c_str());
    printGridDigest(results);
    return gridExitCode(options, reportCellFailures(timing));
}
