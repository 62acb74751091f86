/**
 * @file
 * Reproduces Figure 7: MPI recovery time per design across scaling
 * sizes (one injected process failure, small input).
 *
 * Expected shape (paper Sec. V-C): Restart recovery is the slowest and
 * grows with P; ULFM recovery grows with P (up to 13x Reinit); Reinit
 * recovery is flat, independent of the scaling size.
 */

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace match::bench;
    return figureMain({"Figure 7", Sweep::ScalingSizes,
                       /*inject=*/true, Report::Recovery},
                      argc, argv);
}
