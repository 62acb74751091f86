#include "src/apps/hpccg.hh"

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

// --- Calibration (anchored to Figures 5c and 8c) ---------------------------
// Application seconds per CG iteration at 64 processes: small ~42 ms,
// medium ~230 ms, large ~411 ms => totals of ~7/35/62 s over 149
// iterations, matching the paper's 64-process bars. The per-process
// jitter term reproduces the growth to ~12 s at 512 processes.
constexpr double baseSecondsPerIter[3] = {0.0422, 0.230, 0.411};
constexpr double jitterSecondsPerProc = 75e-6;

/** Real local grid is capped so 512-rank jobs stay laptop-sized. */
constexpr int realCap = 8;

/** The real (executed) CG state on the capped local grid. */
struct LocalCg
{
    int nx, ny, nz;          ///< real local dims (z is the slab axis)
    std::vector<double> x;   ///< solution, with z ghost planes
    std::vector<double> r;   ///< residual
    std::vector<double> p;   ///< search direction, with ghosts
    std::vector<double> ap;  ///< A*p
    double rtrans = 0.0;

    LocalCg(int nx_, int ny_, int nz_)
        : nx(nx_), ny(ny_), nz(nz_),
          x(static_cast<std::size_t>(nx) * ny * (nz + 2), 0.0),
          r(static_cast<std::size_t>(nx) * ny * nz, 0.0),
          p(static_cast<std::size_t>(nx) * ny * (nz + 2), 0.0),
          ap(static_cast<std::size_t>(nx) * ny * nz, 0.0)
    {}

    std::size_t plane() const
    {
        return static_cast<std::size_t>(nx) * ny;
    }
    std::size_t rows() const { return plane() * nz; }

    /** Interior of a ghosted field: contiguous from plane 1, so every
     *  elementwise update walks x, r, p and ap with one index. */
    double *interior(std::vector<double> &ghosted)
    {
        return ghosted.data() + plane();
    }
};

/** 7-point Laplacian SpMV on the ghosted p: ap = A*p, returning the
 *  local p.Ap summed in row order. SPD with the diagonal dominating
 *  (6+1 on the diagonal keeps CG well-behaved). Neighbours outside the
 *  x/y boundary are skipped; the z ghost planes are zero at the slab
 *  ends. */
double
spmvDot(LocalCg &cg)
{
    const std::ptrdiff_t nx = cg.nx;
    const std::ptrdiff_t pl = static_cast<std::ptrdiff_t>(cg.plane());
    const double *g = cg.interior(cg.p);
    double *ap = cg.ap.data();
    double pap = 0.0;
    for (int z = 0; z < cg.nz; ++z) {
        for (int y = 0; y < cg.ny; ++y) {
            for (int x = 0; x < cg.nx; ++x, ++g, ++ap) {
                double sum = 7.0 * g[0];
                if (x > 0) sum -= g[-1];
                if (x < cg.nx - 1) sum -= g[1];
                if (y > 0) sum -= g[-nx];
                if (y < cg.ny - 1) sum -= g[nx];
                sum -= g[-pl];
                sum -= g[pl];
                *ap = sum;
                pap += g[0] * sum;
            }
        }
    }
    return pap;
}

/** x += alpha p, r -= alpha ap; returns the new r.r in row order. */
double
updateXr(double *__restrict x, double *__restrict r,
         const double *__restrict p, const double *__restrict ap,
         std::size_t rows, double alpha)
{
    double rr = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
        x[i] += alpha * p[i];
        r[i] -= alpha * ap[i];
        rr += r[i] * r[i];
    }
    return rr;
}

/** p = r + beta p. */
void
updateP(double *__restrict p, const double *__restrict r,
        std::size_t rows, double beta)
{
    for (std::size_t i = 0; i < rows; ++i)
        p[i] = r[i] + beta * p[i];
}

} // anonymous namespace

HpccgConfig
HpccgConfig::fromArgs(const std::vector<std::string> &args)
{
    HpccgConfig cfg;
    if (args.size() >= 3) {
        cfg.nx = std::atoi(args[0].c_str());
        cfg.ny = std::atoi(args[1].c_str());
        cfg.nz = std::atoi(args[2].c_str());
    }
    if (cfg.nx <= 0 || cfg.ny <= 0 || cfg.nz <= 0)
        util::fatal("HPCCG needs positive nx ny nz");
    return cfg;
}

void
hpccgMain(Proc &proc, const fti::FtiConfig &fti_config,
          const AppParams &params)
{
    const HpccgConfig cfg = HpccgConfig::fromArgs(
        splitArgs(hpccgSpec().args(params.input)));
    const int size = proc.size();

    // Real (executed) grid: capped; virtual (priced) grid: Table I.
    LocalCg cg(std::min(cfg.nx, realCap), std::min(cfg.ny, realCap),
               std::min(cfg.nz, realCap));
    const double virt_rows = static_cast<double>(cfg.nx) * cfg.ny * cfg.nz;
    const double real_bytes_halo = cg.plane() * sizeof(double);
    const double virt_bytes_halo =
        static_cast<double>(cfg.nx) * cfg.ny * sizeof(double);

    // b = 1, x0 = 0  =>  r = b, p = r.
    std::fill(cg.r.begin(), cg.r.end(), 1.0);
    std::copy(cg.r.begin(), cg.r.end(), cg.interior(cg.p));
    double rr = 0.0;
    for (double v : cg.r)
        rr += v * v;
    cg.rtrans = proc.allreduce(rr);

    // FTI setup: protect the CG state that principles 1-3 of the paper's
    // data-dependency analysis identify (defined before the loop, used
    // and varying across iterations).
    fti::FtiConfig fcfg = fti_config;
    const double virt_ckpt_bytes = 4.0 * virt_rows * sizeof(double);
    const double real_ckpt_bytes = static_cast<double>(
        (cg.x.size() + cg.r.size() + cg.p.size()) * sizeof(double) +
        sizeof(int) + sizeof(double));
    fcfg.virtualFactor = virt_ckpt_bytes / real_ckpt_bytes;
    fcfg.snapshotRegions = params.runKernels();
    fti::Fti fti(proc, fcfg);
    int iter = 0;
    fti.protect(0, &iter, sizeof(iter));
    fti.protect(1, cg.x.data(), cg.x.size() * sizeof(double));
    fti.protect(2, cg.r.data(), cg.r.size() * sizeof(double));
    fti.protect(3, cg.p.data(), cg.p.size() * sizeof(double));
    fti.protect(4, &cg.rtrans, sizeof(cg.rtrans));

    const double model_flops =
        baseSecondsPerIter[static_cast<int>(params.input)] *
        proc.runtime().costModel().params().computeFlops;

    // Price-only runs skip the SpMV and vector updates (AppParams).
    const bool kernels = params.runKernels();
    ft::CheckpointLoop loop(proc, fti, params.ckptStride);
    loop.run(&iter, cfg.maxIterations, [&](int) {
        // Halo exchange of the search direction's boundary planes.
        const std::size_t pl = cg.plane();
        exchangeHalo1d(proc, cg.p.data() + pl,
                       cg.p.data() + pl * cg.nz, cg.p.data(),
                       cg.p.data() + pl * (cg.nz + 1),
                       static_cast<std::size_t>(real_bytes_halo),
                       static_cast<std::size_t>(virt_bytes_halo));

        const double local_pap = kernels ? spmvDot(cg) : 0.0;
        proc.compute(model_flops);
        proc.sleepFor(jitterSecondsPerProc * size);

        const double pap = proc.allreduce(local_pap);
        // Guard against exact convergence within the fixed iteration
        // budget (keeps re-executed iterations NaN-free).
        const double alpha = pap != 0.0 ? cg.rtrans / pap : 0.0;
        const double local_rr =
            kernels ? updateXr(cg.interior(cg.x), cg.r.data(),
                               cg.interior(cg.p), cg.ap.data(), cg.rows(),
                               alpha)
                    : 0.0;
        const double old_rtrans = cg.rtrans;
        cg.rtrans = proc.allreduce(local_rr);
        const double beta =
            old_rtrans != 0.0 ? cg.rtrans / old_rtrans : 0.0;
        if (kernels)
            updateP(cg.interior(cg.p), cg.r.data(), cg.rows(), beta);
    });

    fti.finalize();
    if (params.finals)
        (*params.finals)[proc.globalIndex()] = std::sqrt(cg.rtrans);
}

AppSpec
hpccgSpec()
{
    AppSpec spec;
    spec.name = "HPCCG";
    spec.description =
        "Preconditioned conjugate-gradient solver on a 3D chimney domain";
    spec.scalingSizes = {64, 128, 256, 512};
    spec.args = [](InputSize input) -> std::string {
        switch (input) {
          case InputSize::Small: return "64 64 64";
          case InputSize::Medium: return "128 128 128";
          case InputSize::Large: return "192 192 192";
        }
        return "";
    };
    spec.loopIterations = [](const AppParams &) { return 149; };
    spec.main = hpccgMain;
    return spec;
}

} // namespace match::apps
