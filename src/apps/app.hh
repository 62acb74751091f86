/**
 * @file
 * Common infrastructure for the six MATCH proxy applications.
 *
 * Each app is a faithful miniature of its namesake: it runs real
 * distributed numerics (so checkpoints carry real state and recovery is
 * verifiable) on a laptop-scale local problem, while virtual time is
 * priced from the Table-I-scale work model so the reproduced figures
 * have paper-scale magnitudes. Every calibration constant lives in the
 * app's .cc with the paper magnitude it targets.
 */

#ifndef MATCH_APPS_APP_HH
#define MATCH_APPS_APP_HH

#include <functional>
#include <string>
#include <vector>

#include "src/fti/config.hh"
#include "src/simmpi/proc.hh"

namespace match::apps
{

/** Input problem classes (Table I columns). */
enum class InputSize
{
    Small,
    Medium,
    Large,
};

const char *inputSizeName(InputSize input);

/** Workload parameters for one run. */
struct AppParams
{
    InputSize input = InputSize::Small;
    int nprocs = 64;
    /** Checkpoint every `ckptStride` loop iterations (paper: 10). */
    int ckptStride = 10;
    /** Optional per-global-rank final-result sink (tests compare runs
     *  with and without failures through it). Sized nprocs by caller. */
    std::vector<double> *finals = nullptr;
    /** Run the numeric kernels. False runs the app price-only: the
     *  same halo exchanges, allreduces, compute pricing, protected
     *  regions and checkpoints, without the loops that change the
     *  protected values. Sound only when checkpoint bytes cannot reach
     *  a result (core::checkpointBytesMatter). A non-null `finals`
     *  always runs the kernels. */
    bool kernels = true;

    /** Whether this run executes the numeric kernels. */
    bool runKernels() const { return kernels || finals != nullptr; }
};

/** Descriptor of one proxy application. */
struct AppSpec
{
    std::string name;
    std::string description;

    /** Scaling sizes from Table I (LULESH: cube counts only). */
    std::vector<int> scalingSizes;

    /** Table I command-line arguments for an input class. */
    std::function<std::string(InputSize)> args;

    /** Number of main-loop iterations the simulation executes; the
     *  fault injector picks its iteration in [1, loopIterations). */
    std::function<int(const AppParams &)> loopIterations;

    /** FTI-instrumented per-rank main (the paper's Figure-1 pattern). */
    std::function<void(simmpi::Proc &, const fti::FtiConfig &,
                       const AppParams &)>
        main;
};

/** All six registered proxy applications, in the paper's order. */
const std::vector<AppSpec> &registry();

/** Look up an app by (case-sensitive) name; nullptr when unknown. */
const AppSpec *tryFindApp(const std::string &name);

/** Look up an app by (case-sensitive) name; fatal when unknown, with
 *  an error naming every valid application. */
const AppSpec &findApp(const std::string &name);

/** Comma-separated valid app names ("AMG, CoMD, ..."), for errors and
 *  usage text. */
std::string registryNames();

/** Split a Table-I argument string on whitespace. */
std::vector<std::string> splitArgs(const std::string &args);

/**
 * 1-D slab halo exchange used by the grid apps: swap `bytes` of real
 * payload with the z-neighbors, priced as `virtual_bytes` each way.
 * Rank 0 and P-1 have one neighbor; everyone else two. Buffered sends
 * first, then receives: deadlock-free under the eager-send runtime.
 */
void exchangeHalo1d(simmpi::Proc &proc, const void *send_lo,
                    const void *send_hi, void *recv_lo, void *recv_hi,
                    std::size_t bytes, std::size_t virtual_bytes);

} // namespace match::apps

#endif // MATCH_APPS_APP_HH
