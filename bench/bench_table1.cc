/**
 * @file
 * Reproduces Table I: the experimentation configuration for the six
 * proxy applications (arguments per input class and process counts).
 *
 * Shares the figure benches' CLI (--apps restricts the rows); there is
 * no grid to execute, so --jobs is accepted but has no effect.
 */

#include <cstdio>
#include <sstream>

#include "bench/common.hh"
#include "src/util/table.hh"

using namespace match;

int
main(int argc, char **argv)
{
    const auto options = bench::BenchOptions::parse(argc, argv);

    std::printf("=== Table I: Experimentation configuration for proxy "
                "applications ===\n");
    std::printf("(default scaling size: 64 processes; default input "
                "problem: small)\n\n");

    util::Table table({"Application", "Small Input", "Medium Input",
                       "Large Input", "Number of processes"});
    for (const std::string &app : options.spec.apps) {
        const auto &spec = apps::findApp(app);
        std::ostringstream procs;
        for (std::size_t i = 0; i < spec.scalingSizes.size(); ++i) {
            if (i)
                procs << ", ";
            procs << spec.scalingSizes[i];
        }
        table.addRow({spec.name, spec.args(apps::InputSize::Small),
                      spec.args(apps::InputSize::Medium),
                      spec.args(apps::InputSize::Large), procs.str()});
    }
    std::printf("%s\n", table.toString().c_str());
    return 0;
}
