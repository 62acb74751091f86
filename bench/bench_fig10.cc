/**
 * @file
 * Reproduces Figure 10: MPI recovery time per design across input
 * problem sizes (64 processes, one injected process failure).
 *
 * Expected shape (paper Sec. V-D): ULFM and Reinit recovery times are
 * independent of the input problem size; Restart remains the slowest.
 */

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace match::bench;
    return figureMain({"Figure 10", Sweep::InputSizes,
                       /*inject=*/true, Report::Recovery},
                      argc, argv);
}
