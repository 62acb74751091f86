/**
 * @file
 * CoMD proxy: classical molecular dynamics with a Lennard-Jones
 * potential (ExMatEx/ECP CoMD). Table I arguments are the GLOBAL cell
 * grid: "-nx 128 -ny 128 -nz 128" (small) up to 512^3 (large); four
 * atoms per cell (FCC lattice), strong scaling across ranks.
 */

#ifndef MATCH_APPS_COMD_HH
#define MATCH_APPS_COMD_HH

#include <vector>

#include "src/apps/app.hh"

namespace match::apps
{

/** Parsed CoMD command line. */
struct ComdConfig
{
    int nx = 128; ///< global cell grid
    int ny = 128;
    int nz = 128;
    int steps = 100; ///< CoMD's default timestep count

    /** Parse "-nx A -ny B -nz C" (Table I format). */
    static ComdConfig fromArgs(const std::vector<std::string> &args);

    /** Atoms in the global problem (4 per FCC cell). */
    double
    globalAtoms() const
    {
        return 4.0 * nx * ny * nz;
    }
};

namespace detail
{

/** Lennard-Jones cutoff radius (sigma units). */
constexpr double ljCutoff = 2.5;
/** Verlet list radius beyond the cutoff. The real atoms sit on a
 *  lattice of spacing 2 and move far less than this over a run, so the
 *  list is built about once per run; a wider skin (0.3) admits most
 *  diagonal neighbours at ~2.8 and made the force loop ~1.6x slower. */
constexpr double verletSkin = 0.1;
/** The list is rebuilt once 2 x the largest displacement since the
 *  last build reaches this fraction of the skin; the rest of the skin
 *  is slack for rounding in the distance tests. */
constexpr double rebuildFraction = 0.9;

/**
 * CoMD's Lennard-Jones pair kernel over a Verlet neighbour list: atom
 * i's neighbours are the atoms j > i, ascending, that were within
 * ljCutoff + verletSkin at the last build. Each step checks every
 * listed pair against the exact cutoff, in the order of the all-pairs
 * loop, so the forces and the potential are bit-identical to it.
 *
 * The list is a cache derived from the positions, not protected
 * state: it is checked against the positions it was built from on
 * every call, so positions rewritten in place (an FTI restore) simply
 * rebuild it.
 */
class LjNeighbourList
{
  public:
    /** Overwrite fx/fy/fz with the forces on the n atoms at px/py/pz
     *  and return the potential energy, rebuilding the list first when
     *  the atoms have moved too far since it was built. */
    double forces(const double *px, const double *py, const double *pz,
                  double *fx, double *fy, double *fz, int n);

    /** Number of list builds so far. */
    int builds() const { return builds_; }

  private:
    bool stale(const double *px, const double *py, const double *pz,
               int n) const;
    void build(const double *px, const double *py, const double *pz,
               int n);

    std::vector<int> first_; ///< CSR offsets into nbr_ (n + 1)
    std::vector<int> nbr_;   ///< neighbours of each i, ascending
    std::vector<double> x0_, y0_, z0_; ///< positions at the last build
    int builds_ = 0;
};

} // namespace detail

void comdMain(simmpi::Proc &proc, const fti::FtiConfig &fti_config,
              const AppParams &params);

AppSpec comdSpec();

} // namespace match::apps

#endif // MATCH_APPS_COMD_HH
