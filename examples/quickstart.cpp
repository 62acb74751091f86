/**
 * @file
 * Quickstart: the smallest complete MATCH program.
 *
 * Runs a tiny FTI-protected BSP loop on 8 simulated MPI ranks under the
 * REINIT-FTI fault-tolerance design, injects a process failure halfway
 * through, and prints the execution-time breakdown — the same numbers
 * the paper's figures stack.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "src/ft/checkpoint_loop.hh"
#include "src/ft/design.hh"
#include "src/fti/fti.hh"

using namespace match;

int
main()
{
    // 1. Describe the run: 8 ranks, REINIT-FTI, kill rank 3 at
    //    iteration 17 (the paper injects SIGTERM at a random site;
    //    here we pick one for reproducibility).
    ft::DesignRunConfig config;
    config.design = ft::Design::ReinitFti;
    config.nprocs = 8;
    config.ftiConfig.ckptDir = "/tmp/match-quickstart";
    config.ftiConfig.execId = "quickstart";
    config.failureEvents = {{17, 3}}; // {iteration, rank}

    // 2. The application: a BSP loop in the paper's Figure-1 pattern.
    //    CheckpointLoop recovers at the loop top and checkpoints every
    //    10 iterations; `acc` and the loop counter are the protected
    //    data objects.
    auto app = [](simmpi::Proc &proc, const fti::FtiConfig &fcfg) {
        fti::Fti fti(proc, fcfg); // FTI_Init
        int iter = 0;
        double acc = 0.0;
        fti.protect(0, &iter, sizeof(iter)); // FTI_Protect
        fti.protect(1, &acc, sizeof(acc));
        ft::CheckpointLoop loop(proc, fti, /*stride=*/10);
        loop.run(&iter, 30, [&](int i) {
            proc.compute(1.0e8); // ~25 ms of modelled work
            acc += proc.allreduce(static_cast<double>(i));
        });
        fti.finalize();
        if (proc.rank() == 0)
            std::printf("final value on rank 0: %.1f (expected %.1f)\n",
                        acc, 8.0 * (29 * 30 / 2));
    };

    // 3. Run it and read the breakdown.
    const ft::Breakdown bd = ft::runDesign(config, app);
    std::printf("\nREINIT-FTI breakdown over one injected failure:\n");
    std::printf("  application        %.3f s\n", bd.application);
    std::printf("  write checkpoints  %.3f s\n", bd.ckptWrite);
    std::printf("  read checkpoints   %.3f s (milliseconds, as the "
                "paper reports)\n", bd.ckptRead);
    std::printf("  recovery           %.3f s\n", bd.recovery);
    std::printf("  total              %.3f s\n", bd.total());
    return 0;
}
