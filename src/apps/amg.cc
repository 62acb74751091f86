#include "src/apps/amg.hh"

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

namespace
{

// --- Calibration (anchored to Figures 5a and 8a) ---------------------------
// Per V-cycle at 64 processes: ~1.33 s (small, -n 20), ~4.7 s (medium),
// ~9.3 s (large) => 30-cycle totals of ~40/140/280 s. The coarse-grid
// term is the real AMG scaling story: coarse levels have too few points
// to parallelize, so their cost is charged per process and reproduces
// the growth to ~230 s at 512 processes (Figure 5a).
constexpr double baseSecondsPerCycle[3] = {0.42, 3.76, 8.43};
constexpr double coarseSecondsPerProc = 14.2e-3;

/** Real local fine grid cap (memory bound at 512 ranks). */
constexpr int realCap = 8;

/** One multigrid level: a cubic local grid with a Jacobi smoother. */
struct Level
{
    int n; ///< local grid edge
    std::vector<double> u, f, tmp;

    explicit Level(int n_)
        : n(n_), u(static_cast<std::size_t>(n) * n * n, 0.0),
          f(u.size(), 0.0), tmp(u.size(), 0.0)
    {}

    std::size_t
    idx(int x, int y, int z) const
    {
        return (static_cast<std::size_t>(z) * n + y) * n + x;
    }
};

/**
 * Hand `out(i, nb)` the sum of u's in-domain 7-point neighbours at every
 * point i of the level, in index order; each sum adds x-1, x+1, y-1,
 * y+1, z-1, z+1 in that order. Neighbours outside the domain (the
 * Dirichlet zeros) are skipped rather than added: the sum starts at
 * +0.0 and so can never be -0.0, and adding +0.0 to anything else is
 * exact. Interior points take a branch-free path.
 */
template <class Out>
void
forEachNeighbourSum(const Level &lvl, Out out)
{
    const int n = lvl.n;
    const std::ptrdiff_t sy = n;
    const std::ptrdiff_t sz = static_cast<std::ptrdiff_t>(n) * n;
    for (int z = 0; z < n; ++z) {
        for (int y = 0; y < n; ++y) {
            const std::size_t row = lvl.idx(0, y, z);
            const double *u = lvl.u.data() + row;
            const bool ylo = y > 0, yhi = y < n - 1;
            const bool zlo = z > 0, zhi = z < n - 1;
            const bool inner = ylo && yhi && zlo && zhi;
            for (int x = 0; x < n; ++x) {
                double nb = 0.0;
                if (inner && x > 0 && x < n - 1) {
                    nb += u[x - 1];
                    nb += u[x + 1];
                    nb += u[x - sy];
                    nb += u[x + sy];
                    nb += u[x - sz];
                    nb += u[x + sz];
                } else {
                    if (x > 0) nb += u[x - 1];
                    if (x < n - 1) nb += u[x + 1];
                    if (ylo) nb += u[x - sy];
                    if (yhi) nb += u[x + sy];
                    if (zlo) nb += u[x - sz];
                    if (zhi) nb += u[x + sz];
                }
                out(row + x, nb);
            }
        }
    }
}

/** Weighted-Jacobi sweeps on -Laplace(u) = f (7-point, Dirichlet). */
void
smooth(Level &lvl, int sweeps)
{
    for (int s = 0; s < sweeps; ++s) {
        forEachNeighbourSum(lvl, [&lvl](std::size_t i, double nb) {
            lvl.tmp[i] = (lvl.f[i] + nb) / 6.0;
        });
        // Damped update (omega = 2/3).
        for (std::size_t i = 0; i < lvl.u.size(); ++i)
            lvl.u[i] += (2.0 / 3.0) * (lvl.tmp[i] - lvl.u[i]);
    }
}

/** residual r = f + Laplace(u), returned into tmp. */
void
residual(Level &lvl)
{
    forEachNeighbourSum(lvl, [&lvl](std::size_t i, double nb) {
        lvl.tmp[i] = lvl.f[i] - (6.0 * lvl.u[i] - nb);
    });
}

/** Full-weighting restriction of lvl.tmp (residual) into coarse.f. */
void
restrictTo(const Level &fine, Level &coarse)
{
    for (int z = 0; z < coarse.n; ++z)
        for (int y = 0; y < coarse.n; ++y)
            for (int x = 0; x < coarse.n; ++x)
                coarse.f[coarse.idx(x, y, z)] =
                    fine.tmp[fine.idx(std::min(2 * x, fine.n - 1),
                                      std::min(2 * y, fine.n - 1),
                                      std::min(2 * z, fine.n - 1))];
}

/** Piecewise-constant prolongation: u_fine += P * u_coarse. */
void
prolongAdd(Level &fine, const Level &coarse)
{
    for (int z = 0; z < fine.n; ++z)
        for (int y = 0; y < fine.n; ++y)
            for (int x = 0; x < fine.n; ++x)
                fine.u[fine.idx(x, y, z)] +=
                    coarse.u[coarse.idx(std::min(x / 2, coarse.n - 1),
                                        std::min(y / 2, coarse.n - 1),
                                        std::min(z / 2, coarse.n - 1))];
}

} // anonymous namespace

AmgConfig
AmgConfig::fromArgs(const std::vector<std::string> &args)
{
    AmgConfig cfg;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "-problem" && i + 1 < args.size())
            cfg.problem = std::atoi(args[i + 1].c_str());
        if (args[i] == "-n" && i + 3 < args.size()) {
            cfg.nx = std::atoi(args[i + 1].c_str());
            cfg.ny = std::atoi(args[i + 2].c_str());
            cfg.nz = std::atoi(args[i + 3].c_str());
        }
    }
    if (cfg.nx <= 0 || cfg.ny <= 0 || cfg.nz <= 0)
        util::fatal("AMG needs positive -n dimensions");
    return cfg;
}

void
amgMain(Proc &proc, const fti::FtiConfig &fti_config,
        const AppParams &params)
{
    const AmgConfig cfg =
        AmgConfig::fromArgs(splitArgs(amgSpec().args(params.input)));
    const int size = proc.size();

    // Build the multigrid hierarchy on the capped real grid.
    const int fine_n = std::min(std::min({cfg.nx, cfg.ny, cfg.nz}),
                                realCap);
    std::vector<Level> levels;
    for (int n = fine_n; n >= 2; n /= 2)
        levels.emplace_back(n);
    Level &fine = levels.front();
    // RHS: a point-ish load in the domain interior (anisotropy problem
    // stand-in; SPD and smooth-converging either way).
    for (int z = 0; z < fine.n; ++z)
        for (int y = 0; y < fine.n; ++y)
            for (int x = 0; x < fine.n; ++x)
                fine.f[fine.idx(x, y, z)] =
                    1.0 + 0.1 * ((x + y + z) % 3);

    fti::FtiConfig fcfg = fti_config;
    // Paper-scale protected data: the fine-level vectors of an
    // -n nx ny nz per-process hierarchy (~1.14x for coarse levels).
    const double virt_bytes = 1.14 * 3.0 * cfg.nx * cfg.ny * cfg.nz *
                              sizeof(double);
    const double real_bytes =
        static_cast<double>(fine.u.size() * 3 * sizeof(double));
    fcfg.virtualFactor = std::max(1.0, virt_bytes / real_bytes);
    fcfg.snapshotRegions = params.runKernels();
    fti::Fti fti(proc, fcfg);
    int iter = 0;
    double norm = 0.0;
    fti.protect(0, &iter, sizeof(iter));
    fti.protect(1, fine.u.data(), fine.u.size() * sizeof(double));
    fti.protect(2, &norm, sizeof(norm));

    const double model_flops =
        baseSecondsPerCycle[static_cast<int>(params.input)] *
        proc.runtime().costModel().params().computeFlops;
    const std::size_t halo_virt = static_cast<std::size_t>(cfg.nx) *
                                  cfg.ny * sizeof(double);
    std::vector<double> halo_buf(static_cast<std::size_t>(fine.n) *
                                 fine.n);
    std::vector<double> ghost_lo(halo_buf.size()),
        ghost_hi(halo_buf.size());

    // Price-only runs skip the V-cycle and residual norm (AppParams).
    const bool kernels = params.runKernels();
    ft::CheckpointLoop loop(proc, fti, params.ckptStride);
    loop.run(&iter, cfg.cycles, [&](int) {
        // Fine-level halo exchange with z-neighbors.
        exchangeHalo1d(proc, halo_buf.data(), halo_buf.data(),
                       ghost_lo.data(), ghost_hi.data(),
                       halo_buf.size() * sizeof(double), halo_virt);

        // V-cycle: pre-smooth, restrict, ..., coarse solve, prolong back.
        if (kernels) {
            for (std::size_t l = 0; l + 1 < levels.size(); ++l) {
                smooth(levels[l], 2);
                residual(levels[l]);
                restrictTo(levels[l], levels[l + 1]);
                std::fill(levels[l + 1].u.begin(),
                          levels[l + 1].u.end(), 0.0);
            }
            smooth(levels.back(), 8); // coarse solve
            for (std::size_t l = levels.size() - 1; l-- > 0;) {
                prolongAdd(levels[l], levels[l + 1]);
                smooth(levels[l], 2);
            }
        }

        // Fine-level work at Table-I scale plus the serialized
        // coarse-grid correction (the per-process term).
        proc.compute(model_flops);
        proc.sleepFor(coarseSecondsPerProc * size);

        // Residual norm: one allreduce per cycle.
        double local = 0.0;
        if (kernels) {
            residual(fine);
            for (double v : fine.tmp)
                local += v * v;
        }
        norm = std::sqrt(proc.allreduce(local));
    });

    fti.finalize();
    if (params.finals)
        (*params.finals)[proc.globalIndex()] = norm;
}

AppSpec
amgSpec()
{
    AppSpec spec;
    spec.name = "AMG";
    spec.description =
        "Algebraic multigrid solver (anisotropic Laplace problem)";
    spec.scalingSizes = {64, 128, 256, 512};
    spec.args = [](InputSize input) -> std::string {
        switch (input) {
          case InputSize::Small: return "-problem 2 -n 20 20 20";
          case InputSize::Medium: return "-problem 2 -n 40 40 40";
          case InputSize::Large: return "-problem 2 -n 60 60 60";
        }
        return "";
    };
    spec.loopIterations = [](const AppParams &) { return 30; };
    spec.main = amgMain;
    return spec;
}

} // namespace match::apps
