/**
 * @file
 * Reproduces Figure 6: execution-time breakdown (application + write
 * checkpoints + recovery) per design across scaling sizes, recovering
 * from ONE injected process failure.
 *
 * Expected shape (paper Sec. V-C): REINIT-FTI achieves the best total;
 * ULFM recovery grows with scale; reading checkpoints is milliseconds
 * (reported by bench_summary, excluded from the stacked bars as in the
 * paper).
 */

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace match::bench;
    return figureMain({"Figure 6", Sweep::ScalingSizes,
                       /*inject=*/true, Report::Breakdown},
                      argc, argv);
}
