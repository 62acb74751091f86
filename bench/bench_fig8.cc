/**
 * @file
 * Reproduces Figure 8: execution-time breakdown per design across
 * input problem sizes (64 processes), with NO process failures.
 *
 * Expected shape (paper Sec. V-D): application and checkpoint time grow
 * with the input size; ULFM-FTI's overhead grows with the input size;
 * REINIT-FTI tracks RESTART-FTI.
 */

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace match::bench;
    return figureMain({"Figure 8", Sweep::InputSizes,
                       /*inject=*/false, Report::Breakdown},
                      argc, argv);
}
