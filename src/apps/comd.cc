#include "src/apps/comd.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "src/ft/checkpoint_loop.hh"
#include "src/fti/fti.hh"
#include "src/util/logging.hh"
#include "src/util/rng.hh"

namespace match::apps
{

using simmpi::Proc;

namespace
{

// --- Calibration (anchored to Figures 5b and 8b) ---------------------------
// Strong scaling: per-step cost ~ atoms-per-process x perAtomSeconds
// plus a fixed force/comm overhead. At 64 procs, small (128^3 cells,
// 8.4M atoms) gives ~0.49 s/step => ~49 s over 100 steps; at 512 procs
// ~9 s (Figure 5b). Medium ~380 s, large ~3000 s (Figure 8b, log axis).
constexpr double perAtomSeconds = 3.6e-6;
constexpr double fixedSecondsPerStep = 20e-3;
constexpr double jitterSecondsPerProc = 30e-6;

/** Real (executed) atoms per rank. */
constexpr int realAtoms = 64;

constexpr double boxEdge = 8.0; ///< real local box edge (sigma units)

} // anonymous namespace

namespace detail
{

bool
LjNeighbourList::stale(const double *px, const double *py,
                       const double *pz, int n) const
{
    if (x0_.size() != static_cast<std::size_t>(n))
        return true;
    const double limit = 0.5 * rebuildFraction * verletSkin;
    for (int i = 0; i < n; ++i) {
        const double dx = px[i] - x0_[i];
        const double dy = py[i] - y0_[i];
        const double dz = pz[i] - z0_[i];
        // Negated so a NaN displacement also rebuilds.
        if (!(dx * dx + dy * dy + dz * dz < limit * limit))
            return true;
    }
    return false;
}

void
LjNeighbourList::build(const double *px, const double *py,
                       const double *pz, int n)
{
    const double rl = ljCutoff + verletSkin;
    x0_.assign(px, px + n);
    y0_.assign(py, py + n);
    z0_.assign(pz, pz + n);
    first_.resize(static_cast<std::size_t>(n) + 1);
    nbr_.clear();
    for (int i = 0; i < n; ++i) {
        first_[i] = static_cast<int>(nbr_.size());
        for (int j = i + 1; j < n; ++j) {
            const double dx = px[i] - px[j];
            const double dy = py[i] - py[j];
            const double dz = pz[i] - pz[j];
            // Negated so a NaN distance is listed: the cutoff test in
            // forces() lets it through, as the all-pairs loop does.
            if (!(dx * dx + dy * dy + dz * dz > rl * rl))
                nbr_.push_back(j);
        }
    }
    first_[n] = static_cast<int>(nbr_.size());
    ++builds_;
}

double
LjNeighbourList::forces(const double *px, const double *py,
                        const double *pz, double *fx, double *fy,
                        double *fz, int n)
{
    if (stale(px, py, pz, n))
        build(px, py, pz, n);
    std::fill(fx, fx + n, 0.0);
    std::fill(fy, fy + n, 0.0);
    std::fill(fz, fz + n, 0.0);
    double pot = 0.0;
    const double rc2 = ljCutoff * ljCutoff;
    for (int i = 0; i < n; ++i) {
        for (int k = first_[i]; k < first_[i + 1]; ++k) {
            const int j = nbr_[k];
            const double dx = px[i] - px[j];
            const double dy = py[i] - py[j];
            const double dz = pz[i] - pz[j];
            const double r2 = dx * dx + dy * dy + dz * dz;
            if (r2 > rc2 || r2 < 1e-12)
                continue;
            const double inv2 = 1.0 / r2;
            const double inv6 = inv2 * inv2 * inv2;
            const double force = 24.0 * inv2 * inv6 * (2.0 * inv6 - 1.0);
            fx[i] += force * dx;
            fy[i] += force * dy;
            fz[i] += force * dz;
            fx[j] -= force * dx;
            fy[j] -= force * dy;
            fz[j] -= force * dz;
            pot += 4.0 * inv6 * (inv6 - 1.0);
        }
    }
    return pot;
}

} // namespace detail

ComdConfig
ComdConfig::fromArgs(const std::vector<std::string> &args)
{
    ComdConfig cfg;
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
        if (args[i] == "-nx")
            cfg.nx = std::atoi(args[i + 1].c_str());
        else if (args[i] == "-ny")
            cfg.ny = std::atoi(args[i + 1].c_str());
        else if (args[i] == "-nz")
            cfg.nz = std::atoi(args[i + 1].c_str());
    }
    if (cfg.nx <= 0 || cfg.ny <= 0 || cfg.nz <= 0)
        util::fatal("CoMD needs positive -nx -ny -nz");
    return cfg;
}

void
comdMain(Proc &proc, const fti::FtiConfig &fti_config,
         const AppParams &params)
{
    const ComdConfig cfg =
        ComdConfig::fromArgs(splitArgs(comdSpec().args(params.input)));
    const int size = proc.size();
    const double virt_atoms = cfg.globalAtoms() / size;

    // Real particles: a jittered cubic lattice in the local box.
    const int n = realAtoms;
    std::vector<double> px(n), py(n), pz(n), vx(n, 0.0), vy(n, 0.0),
        vz(n, 0.0), fx(n), fy(n), fz(n);
    {
        util::Rng rng(1234, static_cast<std::uint64_t>(proc.rank()));
        const int edge = static_cast<int>(std::ceil(std::cbrt(n)));
        const double h = boxEdge / edge;
        for (int i = 0; i < n; ++i) {
            const int cx = i % edge, cy = (i / edge) % edge,
                      cz = i / (edge * edge);
            px[i] = (cx + 0.5) * h + 0.05 * h * rng.uniform(-1, 1);
            py[i] = (cy + 0.5) * h + 0.05 * h * rng.uniform(-1, 1);
            pz[i] = (cz + 0.5) * h + 0.05 * h * rng.uniform(-1, 1);
        }
    }

    fti::FtiConfig fcfg = fti_config;
    // Paper-scale state: 6 doubles per atom (pos+vel).
    fcfg.virtualFactor = std::max(
        1.0, virt_atoms * 6 * sizeof(double) /
                 (static_cast<double>(n) * 6 * sizeof(double)));
    fcfg.snapshotRegions = params.runKernels();
    fti::Fti fti(proc, fcfg);
    int iter = 0;
    double energy = 0.0;
    fti.protect(0, &iter, sizeof(iter));
    fti.protect(1, px.data(), px.size() * sizeof(double));
    fti.protect(2, py.data(), py.size() * sizeof(double));
    fti.protect(3, pz.data(), pz.size() * sizeof(double));
    fti.protect(4, vx.data(), vx.size() * sizeof(double));
    fti.protect(5, vy.data(), vy.size() * sizeof(double));
    fti.protect(6, vz.data(), vz.size() * sizeof(double));
    fti.protect(7, &energy, sizeof(energy));

    const double model_flops =
        (virt_atoms * perAtomSeconds + fixedSecondsPerStep) *
        proc.runtime().costModel().params().computeFlops;
    // Halo: boundary atoms (one face's worth) to each z neighbor.
    const double face_fraction = 1.0 / std::cbrt(virt_atoms);
    const std::size_t halo_virt = static_cast<std::size_t>(
        std::max(1.0, virt_atoms * face_fraction) * 3 * sizeof(double));
    std::vector<double> halo_out(32 * 3, 0.0), ghost_lo(32 * 3),
        ghost_hi(32 * 3);

    const double dt = 1e-3;
    detail::LjNeighbourList neighbours;
    // Price-only runs skip the forces and Verlet update (AppParams).
    const bool kernels = params.runKernels();
    ft::CheckpointLoop loop(proc, fti, params.ckptStride);
    loop.run(&iter, cfg.steps, [&](int) {
        // Exchange boundary atom positions with the z neighbors.
        for (int i = 0; i < 32; ++i) {
            halo_out[3 * i] = px[i];
            halo_out[3 * i + 1] = py[i];
            halo_out[3 * i + 2] = pz[i];
        }
        exchangeHalo1d(proc, halo_out.data(), halo_out.data(),
                       ghost_lo.data(), ghost_hi.data(),
                       halo_out.size() * sizeof(double), halo_virt);

        // Lennard-Jones forces with a cutoff (a neighbour list on the
        // small real set; the Table-I-scale force loop is priced below).
        const double pot =
            kernels ? neighbours.forces(px.data(), py.data(), pz.data(),
                                        fx.data(), fy.data(), fz.data(),
                                        n)
                    : 0.0;
        proc.compute(model_flops);
        proc.sleepFor(jitterSecondsPerProc * size);

        // Velocity-Verlet update (forces treated as constant over dt).
        double kin = 0.0;
        if (kernels) {
            for (int i = 0; i < n; ++i) {
                vx[i] += dt * fx[i];
                vy[i] += dt * fy[i];
                vz[i] += dt * fz[i];
                px[i] += dt * vx[i];
                py[i] += dt * vy[i];
                pz[i] += dt * vz[i];
                kin += 0.5 * (vx[i] * vx[i] + vy[i] * vy[i] +
                              vz[i] * vz[i]);
            }
        }
        // Global energy: one allreduce per step (CoMD prints it).
        energy = proc.allreduce(pot + kin);
    });

    fti.finalize();
    if (params.finals)
        (*params.finals)[proc.globalIndex()] = energy;
}

AppSpec
comdSpec()
{
    AppSpec spec;
    spec.name = "CoMD";
    spec.description =
        "Lennard-Jones molecular dynamics (FCC lattice, cell method)";
    spec.scalingSizes = {64, 128, 256, 512};
    spec.args = [](InputSize input) -> std::string {
        switch (input) {
          case InputSize::Small: return "-nx 128 -ny 128 -nz 128";
          case InputSize::Medium: return "-nx 256 -ny 256 -nz 256";
          case InputSize::Large: return "-nx 512 -ny 512 -nz 512";
        }
        return "";
    };
    spec.loopIterations = [](const AppParams &) { return 100; };
    spec.main = comdMain;
    return spec;
}

} // namespace match::apps
