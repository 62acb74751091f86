/**
 * @file
 * Reproduces Figure 9: execution-time breakdown per design across
 * input problem sizes (64 processes), recovering from ONE injected
 * process failure.
 */

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace match::bench;
    return figureMain({"Figure 9", Sweep::InputSizes,
                       /*inject=*/true, Report::Breakdown},
                      argc, argv);
}
