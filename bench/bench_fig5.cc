/**
 * @file
 * Reproduces Figure 5: execution-time breakdown (application + write
 * checkpoints) per design across scaling sizes, with NO process
 * failures.
 *
 * Expected shape (paper Sec. V-C): ULFM-FTI performs worst and its gap
 * grows with the process count; RESTART-FTI and REINIT-FTI are close;
 * checkpoint-write time grows modestly with scale.
 */

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace match::bench;
    return figureMain({"Figure 5", Sweep::ScalingSizes,
                       /*inject=*/false, Report::Breakdown},
                      argc, argv);
}
