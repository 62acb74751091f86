/**
 * @file
 * FTI configuration: the real library's [basic]/[advanced] INI
 * settings plus the simulation's storage and transform knobs.
 */

#ifndef MATCH_FTI_CONFIG_HH
#define MATCH_FTI_CONFIG_HH

#include <memory>
#include <string>

#include "src/storage/backend.hh"
#include "src/storage/transform.hh"

namespace match::fti
{

/** FTI configuration (the real library's [basic]/[advanced] keys). */
struct FtiConfig
{
    /** Root of the checkpoint sandbox. Subdirectories model the storage
     *  tiers: `local/` is the node-local ramfs ("/dev/shm"), `pfs/` the
     *  parallel file system. */
    std::string ckptDir = "/tmp/match-fti";

    /** Execution id: restarted jobs find their checkpoints under it. */
    std::string execId = "exec";

    /** Default checkpoint level for Fti::checkpoint() (paper: L1). */
    int defaultLevel = 1;

    /** L3 Reed-Solomon group size (data shards per stripe). */
    int groupSize = 4;

    /** Parity shards per L3 stripe; groupSize/2 survives "half the
     *  nodes within a checkpoint encoding group". */
    int parityShards = 2;

    /** Keep only the latest committed checkpoint (saves disk). */
    bool keepOnlyLatest = true;

    /** Multiplier applied to real protected bytes when pricing virtual
     *  checkpoint time (scaled-down arrays standing in for paper-scale
     *  ones). */
    double virtualFactor = 1.0;

    /** Snapshot the protected regions into each checkpoint. False, for
     *  a run whose protected bytes reach no result (an app that skips
     *  its kernels), stores a shared all-zero image of the same size:
     *  every stored object, priced byte and I/O decision stays the
     *  same, and recovery restores no region. The apps set it from
     *  AppParams::runKernels(). */
    bool snapshotRegions = true;

    /** Silent-data-corruption hardening. Off (the default) reproduces
     *  the historical behaviour bit-for-bit: recovery trusts the
     *  within-level redundancy and any unrecoverable object is fatal.
     *  On, recovery CRC32C-verifies the restored blob, the ranks agree
     *  (allreduce-MIN) on the newest checkpoint every rank can verify,
     *  and an unrecoverable newest checkpoint falls back to the next
     *  older committed one — or to a fresh start — instead of either
     *  aborting or silently restoring corrupt state. Verification time
     *  is priced via CostModel::scrubVerify. */
    bool sdcChecks = false;

    /** Scrub the newest committed checkpoint's local object every N
     *  main-loop iterations (0 = never): re-read, CRC32C-verify, and
     *  delete a corrupt object so the next recovery deterministically
     *  falls back to the level's redundancy. Requires sdcChecks. */
    int scrubStride = 0;

    /** Checkpoint data-reduction chain. Delta emits differential
     *  checkpoints against the previous epoch's serialized image (all
     *  levels store the delta envelope; recovery follows the chain);
     *  Compress RLE-compresses L4 drain traffic so flushes ship fewer
     *  bytes. None stores raw images bit-identical to the
     *  pre-transform code. */
    storage::TransformKind transform = storage::TransformKind::None;

    /** With delta on, emit a full (self-contained) envelope every
     *  `deltaRebase`-th checkpoint, bounding the recovery chain and
     *  letting keep_only_latest reclaim the superseded chain. 1 means
     *  every checkpoint is full (delta effectively off). */
    int deltaRebase = 8;

    /** Virtual burst-buffer capacity in (virtual) bytes shared by this
     *  rank's staged-but-undrained L4 flushes; 0 = unbounded (the
     *  historical behaviour). When staging a flush would exceed it,
     *  the rank stalls in virtual time until enough earlier flushes
     *  complete — capacity pressure turns the overlapped drain back
     *  into foreground checkpoint time. */
    std::size_t drainCapacityBytes = 0;

    /** Storage backend the sandbox lives in. Null selects the shared
     *  DiskBackend (the historical on-disk semantics); experiment runs
     *  install a per-run MemBackend here so the checkpoint hot path
     *  makes zero syscalls. */
    std::shared_ptr<storage::Backend> backend;
};

} // namespace match::fti

#endif // MATCH_FTI_CONFIG_HH
