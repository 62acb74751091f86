/**
 * @file
 * Extending MATCH with a new application (the paper's Section V-E
 * encourages exactly this): a 1-D heat-diffusion solver written against
 * the public API, instrumented with FTI, and run under ULFM-FTI with a
 * failure — including the paper's Figure-3 error-handler pattern spelt
 * out by hand instead of using ft::runDesign.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "src/ft/checkpoint_loop.hh"
#include "src/fti/fti.hh"
#include "src/simmpi/launcher.hh"
#include "src/simmpi/proc.hh"

using namespace match;
using namespace match::simmpi;

namespace
{

/** Explicit heat diffusion on a 1-D rod distributed over the ranks. */
void
heatMain(Proc &proc, const fti::FtiConfig &fcfg)
{
    constexpr int cells_per_rank = 64;
    constexpr int steps = 40;
    constexpr double alpha = 0.2;

    std::vector<double> u(cells_per_rank + 2, 0.0); // with ghost cells
    if (proc.rank() == 0)
        u[1] = 100.0; // hot spot at the left end of the rod

    fti::Fti fti(proc, fcfg);
    int iter = 0;
    fti.protect(0, &iter, sizeof(iter));
    fti.protect(1, u.data(), u.size() * sizeof(double));

    ft::CheckpointLoop loop(proc, fti, 10);
    loop.run(&iter, steps, [&](int) {
        // Exchange ghost cells with the left/right neighbors.
        const int rank = proc.rank(), size = proc.size();
        if (rank > 0)
            proc.send(rank - 1, 0, &u[1], sizeof(double));
        if (rank < size - 1)
            proc.send(rank + 1, 1, &u[cells_per_rank], sizeof(double));
        if (rank > 0)
            proc.recv(rank - 1, 1, &u[0], sizeof(double));
        if (rank < size - 1)
            proc.recv(rank + 1, 0, &u[cells_per_rank + 1],
                      sizeof(double));

        // NOTE: the scratch result is copied back INTO u rather than
        // swapped: FTI_Protect registers u's address, so the protected
        // buffer must never be reallocated or swapped away (the same
        // rule the real FTI imposes).
        std::vector<double> next(u);
        for (int i = 1; i <= cells_per_rank; ++i)
            next[i] = u[i] + alpha * (u[i - 1] - 2 * u[i] + u[i + 1]);
        std::copy(next.begin(), next.end(), u.begin());
        proc.compute(5.0e7);

        // Global diagnostics: total heat is conserved.
        double local = 0.0;
        for (int i = 1; i <= cells_per_rank; ++i)
            local += u[i];
        const double total = proc.allreduce(local);
        if (proc.rank() == 0 && iter % 10 == 0)
            std::printf("  step %2d  total heat %.6f\n", iter, total);
    });
    fti.finalize();
}

} // namespace

int
main()
{
    fti::FtiConfig fcfg;
    fcfg.ckptDir = "/tmp/match-custom-app";
    fcfg.execId = "heat1d";
    fti::Fti::purge(fcfg);

    constexpr int fail_step = 23;
    constexpr Rank fail_rank = 5;

    JobOptions opts;
    opts.nprocs = 8;
    opts.policy = ErrorPolicy::Return; // ULFM
    opts.schedule = std::make_shared<InjectionSchedule>(
        InjectionSchedule{{{fail_step, fail_rank}}});

    std::printf("1-D heat diffusion under ULFM-FTI, killing rank %d at "
                "step %d:\n", fail_rank, fail_step);

    Runtime runtime;
    const JobResult result = runtime.run(opts, [&](Proc &proc) {
        // The paper's Figure 3 by hand: error handler repairs the
        // world, then unwinds to the restart scope below.
        proc.setErrorHandler([&proc](Err err) {
            std::printf("  [rank %d] error handler: %s\n", proc.rank(),
                        errName(err));
            CategoryScope recovery(proc, TimeCategory::Recovery);
            proc.revoke();               // MPIX_Comm_revoke
            proc.repairWorld();          // shrink+spawn+merge+agree
            throw UlfmRestart{};         // longjmp(stack_jmp_buf, 1)
        });
        for (;;) {
            try {
                heatMain(proc, fcfg); // FTI_Init is inside, re-binding
                return;               // to the repaired communicator
            } catch (const UlfmRestart &) {
                continue; // setjmp restart point
            }
        }
    });

    std::printf("\ncompleted: %d online recovery(ies), makespan %.3f s "
                "(virtual)\n", result.recoveries, result.makespan);
    std::printf("mean per-rank recovery time %.3f s\n",
                result.breakdown[static_cast<int>(
                    TimeCategory::Recovery)]);
    return 0;
}
