#include "src/apps/lulesh.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "src/ft/checkpoint_loop.hh"
#include "src/fti/fti.hh"
#include "src/util/logging.hh"

namespace match::apps
{

using simmpi::Proc;
using simmpi::ReduceOp;

namespace
{

// --- Calibration (anchored to Figures 5d and 8d) ---------------------------
// Per physical timestep at 64 processes: ~0.68 s of element work for
// s=30 (27k elements/process) plus a per-process synchronization term
// (the global dt reduction and imbalance) that reproduces the growth
// from ~900 s at 64 procs to ~2100 s at 512 (Figure 5d). Medium/large
// inputs land near 2200/5100 s at 64 procs (Figures 8d/9d).
constexpr double elementSecondsPerStep = 2.5e-5; // 27k elems => 0.675 s
constexpr double jitterSecondsPerProc = 3.07e-3;

/** The simulation executes this many loop iterations; each one is
 *  priced as physicalIterations()/simIterations real timesteps. */
constexpr int simIterations = 120;

/** Real local element edge (27k paper elements -> 512 real). */
constexpr int realEdge = 6;

} // anonymous namespace

LuleshConfig
LuleshConfig::fromArgs(const std::vector<std::string> &args)
{
    LuleshConfig cfg;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "-s" && i + 1 < args.size())
            cfg.s = std::atoi(args[i + 1].c_str());
        if (args[i] == "-p")
            cfg.progress = true;
    }
    if (cfg.s <= 0)
        util::fatal("LULESH needs a positive -s");
    return cfg;
}

void
luleshMain(Proc &proc, const fti::FtiConfig &fti_config,
           const AppParams &params)
{
    const LuleshConfig cfg =
        LuleshConfig::fromArgs(splitArgs(luleshSpec().args(params.input)));
    const int size = proc.size();

    // Real mesh: a cubic block of elements with energy/pressure per
    // element and a z-staggered velocity field. The Sedov setup puts
    // all energy in the origin element of rank 0.
    const int ne = realEdge;
    const std::size_t elems =
        static_cast<std::size_t>(ne) * ne * ne;
    std::vector<double> e(elems, 0.0), p(elems, 0.0), q(elems, 0.0),
        vdov(elems, 0.0);
    if (proc.rank() == 0)
        e[0] = 3.948746e+7; // LULESH's Sedov initial energy deposit
    double dt = 1e-7;
    double time = 0.0;

    fti::FtiConfig fcfg = fti_config;
    // Paper-scale state: ~12 fields over s^3 elements per process.
    const double virt_bytes = 12.0 * std::pow(cfg.s, 3) * sizeof(double);
    const double real_bytes = static_cast<double>(4 * elems + 2) *
                              sizeof(double);
    fcfg.virtualFactor = std::max(1.0, virt_bytes / real_bytes);
    fcfg.snapshotRegions = params.runKernels();
    fti::Fti fti(proc, fcfg);
    int iter = 0;
    fti.protect(0, &iter, sizeof(iter));
    fti.protect(1, e.data(), e.size() * sizeof(double));
    fti.protect(2, p.data(), p.size() * sizeof(double));
    fti.protect(3, q.data(), q.size() * sizeof(double));
    fti.protect(4, vdov.data(), vdov.size() * sizeof(double));
    fti.protect(5, &dt, sizeof(dt));
    fti.protect(6, &time, sizeof(time));

    const double steps_per_sim_iter =
        static_cast<double>(cfg.physicalIterations()) / simIterations;
    const double elems_paper = std::pow(cfg.s, 3);
    const double model_flops = elems_paper * elementSecondsPerStep *
                               steps_per_sim_iter *
                               proc.runtime().costModel().params()
                                   .computeFlops;
    // Face halo: one element face of pressures each way.
    const std::size_t halo_virt = static_cast<std::size_t>(
        std::pow(cfg.s, 2) * sizeof(double));
    const std::size_t face = static_cast<std::size_t>(ne) * ne;
    std::vector<double> ghost_lo(face, 0.0), ghost_hi(face, 0.0);

    // Price-only runs skip the element loop and dt scan (AppParams).
    const bool kernels = params.runKernels();
    ft::CheckpointLoop loop(proc, fti, params.ckptStride);
    loop.run(&iter, simIterations, [&](int) {
        // Exchange boundary pressure faces with z neighbors.
        exchangeHalo1d(proc, p.data(), p.data() + (elems - face),
                       ghost_lo.data(), ghost_hi.data(),
                       face * sizeof(double), halo_virt);

        // Lagrange leapfrog (volume work + EOS), simplified: pressure
        // from an ideal-gas EOS, energy advected by local divergence.
        if (kernels) {
            for (std::size_t i = 0; i < elems; ++i) {
                const double c = 1e-4;
                double div = -6.0 * p[i];
                if (i > 0) div += p[i - 1];
                if (i + 1 < elems) div += p[i + 1];
                if (i >= face) div += p[i - face];
                if (i + face < elems) div += p[i + face];
                div += (i < face ? ghost_lo[i] : 0.0);
                div += (i + face >= elems ? ghost_hi[i % face] : 0.0);
                vdov[i] = c * div;
                e[i] = std::max(0.0, e[i] + dt * vdov[i]);
                p[i] = (2.0 / 3.0) * e[i]; // gamma-law EOS, rho ~ 1
                q[i] = std::max(0.0, -vdov[i]) * 1e-2;
            }
        }
        proc.compute(model_flops);
        proc.sleepFor(jitterSecondsPerProc * size * steps_per_sim_iter);

        // Courant/hydro constraint: the global minimum-dt reduction that
        // every LULESH timestep performs.
        double local_dt = 1e-2;
        if (kernels) {
            for (std::size_t i = 0; i < elems; ++i) {
                const double speed = std::sqrt(p[i] + q[i]) + 1e-9;
                local_dt = std::min(local_dt, 0.1 / speed);
            }
        }
        dt = proc.allreduce(local_dt, ReduceOp::Min);
        time += dt * steps_per_sim_iter;
    });

    fti.finalize();
    if (params.finals) {
        double local_e = 0.0;
        for (double v : e)
            local_e += v;
        (*params.finals)[proc.globalIndex()] = local_e;
    }
}

AppSpec
luleshSpec()
{
    AppSpec spec;
    spec.name = "LULESH";
    spec.description =
        "Lagrangian shock hydrodynamics (Sedov blast problem)";
    spec.scalingSizes = {64, 512}; // cube process counts only (Table I)
    spec.args = [](InputSize input) -> std::string {
        switch (input) {
          case InputSize::Small: return "-s 30 -p";
          case InputSize::Medium: return "-s 40 -p";
          case InputSize::Large: return "-s 50 -p";
        }
        return "";
    };
    spec.loopIterations = [](const AppParams &) { return simIterations; };
    spec.main = luleshMain;
    return spec;
}

} // namespace match::apps
