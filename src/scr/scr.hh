/**
 * @file
 * SCR: a Scalable Checkpoint/Restart library in the style of LLNL's SCR
 * (Mohror et al., TPDS 2014), the alternative checkpointing interface
 * the paper names for future MATCH extensions (Section V-E).
 *
 * SCR differs from FTI in its programming model: the application writes
 * its own checkpoint files and SCR only *routes* them into a node-local
 * cache, applies a redundancy scheme, and flushes/fetches against the
 * parallel file system:
 *
 *     Scr scr(proc, config);                     // SCR_Init
 *     if (scr.haveRestart()) {                   // SCR_Have_restart
 *         scr.startRestart();                    // SCR_Start_restart
 *         read(scr.routeFile("state.bin"));      // SCR_Route_file
 *         scr.completeRestart(true);             // SCR_Complete_restart
 *     }
 *     while (...) {
 *         if (scr.needCheckpoint(iter)) {        // SCR_Need_checkpoint
 *             scr.startCheckpoint();             // SCR_Start_checkpoint
 *             write(scr.routeFile("state.bin"));
 *             scr.completeCheckpoint(true);      // SCR_Complete_checkpoint
 *         }
 *     }
 *     scr.finalize();                            // SCR_Finalize
 *
 * Redundancy schemes: SINGLE (node-local only), PARTNER (copy on the
 * neighbour node), XOR (RAID-5-style parity across the group, one
 * member loss per group recoverable).
 */

#ifndef MATCH_SCR_SCR_HH
#define MATCH_SCR_SCR_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/ckpt/io.hh"
#include "src/simmpi/proc.hh"
#include "src/storage/backend.hh"
#include "src/storage/drain.hh"
#include "src/storage/faults.hh"
#include "src/storage/transform.hh"

namespace match::scr
{

/** Redundancy scheme applied at SCR_Complete_checkpoint. */
enum class Redundancy
{
    Single,  ///< cache copy only; any storage loss is fatal
    Partner, ///< full copy on the (rank+1) neighbour
    Xor,     ///< XOR parity across the group; survives 1 loss per group
};

const char *redundancyName(Redundancy scheme);

/** SCR configuration (the real library reads these from scr.conf). */
struct ScrConfig
{
    /** Node-local cache root (the real SCR uses /dev/shm or SSD). */
    std::string cacheDir = "/tmp/match-scr/cache";
    /** Prefix directory on the parallel file system (flush target). */
    std::string prefixDir = "/tmp/match-scr/prefix";
    /** Job identifier: restarted jobs find their datasets under it. */
    std::string jobId = "job";
    Redundancy scheme = Redundancy::Xor;
    /** XOR/partner group size. */
    int groupSize = 4;
    /** SCR_Need_checkpoint: checkpoint every N loop iterations. */
    int checkpointInterval = 10;
    /** Flush every Nth checkpoint to the prefix directory (0 = never).
     *  Like the real library, the flush is asynchronous: it is admitted
     *  to the drain worker and overlaps compute; restarts that need the
     *  prefix copy quiesce the drain first. */
    int flushEvery = 0;

    /** Silent-data-corruption hardening. Off (the default) reproduces
     *  the historical behaviour bit-for-bit. On, completeCheckpoint
     *  seals a CRC32C sidecar (`<name>.crc32c`) next to every routed
     *  file — carried by partner copies and prefix flushes — and
     *  routeRestartFile verifies the restored copy against it: a
     *  corrupt cache copy is dropped and rebuilt from the redundancy
     *  tiers, and a dataset no tier can produce verifiably falls back
     *  to the next older committed dataset instead of restoring rot.
     *  XOR-rebuilt files without a surviving sidecar are accepted
     *  unverified (parity does not cover sidecars). Verification time
     *  is priced via CostModel::scrubVerify. */
    bool sdcChecks = false;

    /** Checkpoint data-reduction chain. SCR applications write their
     *  own files, so only the compress stage applies here: flush jobs
     *  RLE-compress each routed data file before shipping it to the
     *  prefix directory (integrity sidecars travel verbatim), and
     *  SCR_Fetch decompresses on the way back into the cache. Delta
     *  kinds degrade to their compress half. None ships raw bytes
     *  bit-identical to the pre-transform code. */
    storage::TransformKind transform = storage::TransformKind::None;

    /** Storage backend for SCR's own traffic (markers, redundancy
     *  copies, parity, flushes). Null selects the shared DiskBackend.
     *  Applications write routed files themselves, through this same
     *  backend, so the redundancy encoder sees their data (a write
     *  creates the dataset directory it lands in). */
    std::shared_ptr<storage::Backend> backend;

    /** Drain worker executing flush-to-prefix jobs. Shared by every
     *  SCR incarnation of one run. Null makes the instance create a
     *  private sync worker (flushes complete inline at enqueue).
     *  Simulated results are bit-identical for any worker mode or
     *  queue depth; only wall-clock changes. */
    std::shared_ptr<storage::DrainWorker> drain;
};

/** Per-rank SCR instance. */
class Scr
{
  public:
    /** SCR_Init: bind to the rank, scan for restartable datasets. */
    Scr(simmpi::Proc &proc, ScrConfig config);

    /// @name Checkpoint path.
    /// @{
    /** SCR_Need_checkpoint: interval policy on the loop counter. */
    bool needCheckpoint(int iteration) const;

    /** SCR_Start_checkpoint: open a new dataset. */
    void startCheckpoint();

    /**
     * SCR_Route_file: translate an application file name into the path
     * the application must actually use (inside the cache, unique per
     * dataset and rank). Valid between start/complete pairs. The
     * application writes the file through config.backend, whose write
     * creates the dataset directory.
     */
    std::string routeFile(const std::string &name);

    /**
     * SCR_Complete_checkpoint: apply the redundancy scheme, commit the
     * dataset marker, and charge the modelled cost. All ranks must call
     * it with the same validity flag.
     */
    void completeCheckpoint(bool valid);
    /// @}

    /// @name Restart path.
    /// @{
    /** SCR_Have_restart: a committed dataset is available. */
    bool haveRestart() const { return restartDataset_ > 0; }

    /** SCR_Start_restart: open the newest committed dataset. */
    void startRestart();

    /**
     * Route a file for reading; when the rank's cache copy is missing,
     * the redundancy scheme rebuilds it (partner fetch or XOR rebuild),
     * falling back to the dataset's flushed prefix copy (SCR_Fetch,
     * waiting out a pending drain) before returning the path.
     */
    std::string routeRestartFile(const std::string &name);

    /** SCR_Complete_restart: close the restart (clears haveRestart). */
    void completeRestart(bool valid);
    /// @}

    /** SCR_Finalize. */
    void finalize();

    /** Id of the dataset currently open for writing (0 when none). */
    int currentDataset() const { return writingDataset_; }

    /** Graceful-degradation decisions taken because a storage tier was
     *  exhausted (see storage::DegradeEvent): abandoned datasets
     *  (toLevel 0) when the cache tier is out, skipped prefix flushes
     *  (fromLevel 4) when the PFS is. Pure plan queries — identical on
     *  every rank. */
    const std::vector<storage::DegradeEvent> &
    degradeEvents() const
    {
        return degradeEvents_;
    }

    /// @name Sandbox helpers shared with tests.
    /// @{
    static std::string datasetDir(const ScrConfig &config, int dataset,
                                  int rank);
    static std::string markerFile(const ScrConfig &config, int dataset);
    static std::string parityFile(const ScrConfig &config, int dataset,
                                  int group);
    static std::string prefixDatasetDir(const ScrConfig &config,
                                        int dataset, int rank);
    /** Marker committed on the PFS once `rank`'s part of a dataset's
     *  flush has drained. A dataset is fetchable on restart only when
     *  every rank's marker exists — a crash mid-drain must not present
     *  a half-flushed dataset as restartable. */
    static std::string flushedMarkerFile(const ScrConfig &config,
                                         int dataset, int rank);
    /// @}

    /** Remove a job's whole sandbox. */
    static void purge(const ScrConfig &config);

  private:
    /** Newest committed dataset; `below > 0` restricts to ids < below
     *  (the SDC fall-back ladder). */
    int newestCommittedDataset(int below = 0) const;
    void applyRedundancy();
    bool tryRebuildFromPartner(const std::string &name);
    bool tryRebuildFromXor(const std::string &name);
    bool tryFetchFromPrefix(const std::string &name);
    /** Make the rank's cache copy of `name` exist, escalating through
     *  the redundancy tiers. Returns the tier it came from, which
     *  prices the read (1 cache/partner, 3 XOR, 4 prefix fetch), or 0
     *  when every tier is lost; routeRestartFile decides what a loss
     *  means. */
    int ensureRestartFile(const std::string &name);
    /** CRC32C-verify a restored file against its sidecar (priced via
     *  scrubVerify); a missing sidecar is accepted. */
    bool verifyRestartFile(const std::string &path);
    void enqueueFlush(int dataset, std::size_t bytes);
    int rank() const;
    int size() const;

    simmpi::Proc &proc_;
    ScrConfig config_;
    /** Cache storage, retry policy, fault epoch (the dataset being
     *  written or restored) and the drain with this rank's virtual
     *  channel of flush-to-prefix jobs. A fault engine behind the
     *  backend has the prefix dir registered as a PFS root. */
    ckpt::CkptIo io_;
    /** Tier-exhaustion decisions taken (abandoned datasets, skipped
     *  flushes). */
    std::vector<storage::DegradeEvent> degradeEvents_;
    int writingDataset_ = 0;
    int restartDataset_ = 0;
    int lastCommitted_ = 0;
    std::vector<std::string> routedFiles_;
    bool finalized_ = false;
};

} // namespace match::scr

#endif // MATCH_SCR_SCR_HH
