/**
 * @file
 * Ablation: ULFM shrinking vs non-shrinking recovery (the paper's
 * Section V-E names replacing global non-shrinking recovery with
 * shrinking/local recovery as the natural extension of MATCH).
 *
 * A synthetic BSP kernel runs under both strategies: shrinking skips
 * the spawn + merge steps (cheaper recovery) but continues on fewer
 * processes (more time per remaining iteration).
 */

#include <cstdio>

#include "bench/common.hh"
#include "src/simmpi/launcher.hh"
#include "src/simmpi/proc.hh"
#include "src/util/table.hh"

using namespace match;
using namespace match::simmpi;

namespace
{

/** Synthetic BSP loop whose per-iteration work is fixed per job and
 *  redistributes over the current world size (shrink-tolerant). */
void
bspMain(Proc &proc, int iters, double flops_per_iter, bool shrinking)
{
    proc.setErrorHandler([&proc, shrinking](Err) {
        CategoryScope recovery(proc, TimeCategory::Recovery);
        proc.revoke();
        if (shrinking)
            proc.shrinkWorld();
        else
            proc.repairWorld();
        throw UlfmRestart{};
    });
    for (;;) {
        try {
            // No checkpointing here: the ablation isolates MPI recovery.
            for (int i = 0; i < iters; ++i) {
                proc.iterationPoint(i);
                proc.compute(flops_per_iter / proc.size());
                proc.allreduce(1.0);
            }
            return;
        } catch (const UlfmRestart &) {
            continue;
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const auto options = match::bench::BenchOptions::parse(argc, argv);
    (void)options;

    std::printf("=== Ablation: ULFM shrinking vs non-shrinking recovery "
                "(synthetic BSP kernel, one failure) ===\n\n");
    util::Table table({"#Processes", "Strategy", "Recovery(s)",
                       "Application(s)", "Total(s)", "FinalWorldSize"});
    constexpr int iters = 40;
    constexpr double job_flops_per_iter = 64 * 4.0e9; // 64 proc-seconds

    for (int procs : {16, 64, 256}) {
        for (bool shrinking : {false, true}) {
            JobOptions opts;
            opts.nprocs = procs;
            opts.policy = ErrorPolicy::Return;
            opts.schedule = std::make_shared<InjectionSchedule>(
                InjectionSchedule{{{iters / 2, procs / 3}}});

            int final_size = 0;
            Runtime runtime;
            const JobResult result =
                runtime.run(opts, [&](Proc &proc) {
                    bspMain(proc, iters, job_flops_per_iter, shrinking);
                    if (proc.rank() == 0)
                        final_size = proc.size();
                });

            table.addRow(
                {std::to_string(procs),
                 shrinking ? "shrinking" : "non-shrinking",
                 util::Table::cell(result.breakdown[static_cast<int>(
                     TimeCategory::Recovery)]),
                 util::Table::cell(result.breakdown[static_cast<int>(
                     TimeCategory::Application)]),
                 util::Table::cell(result.total()),
                 std::to_string(final_size)});
        }
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf("Shrinking recovery avoids the spawn+merge cost but the "
                "job finishes on P-1 processes, so the same work takes "
                "longer per iteration afterwards.\n");
    return 0;
}
