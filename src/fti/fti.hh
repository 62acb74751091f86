/**
 * @file
 * FTI: an application-level, multi-level checkpointing library
 * (reimplementation of Bautista-Gomez et al., SC'11, as used by MATCH).
 *
 * The API mirrors the real library's usage pattern (paper Figure 1):
 *
 *     Fti fti(proc, config, world);                       // FTI_Init
 *     fti.protect(0, &iter, sizeof(iter));                // FTI_Protect
 *     fti.protect(1, x.data(), bytes(x));
 *     while (...) {
 *         if (fti.status() != 0) fti.recover();           // FTI_Recover
 *         if (iter % stride == 0) fti.checkpoint(++id);   // FTI_Checkpoint
 *     }
 *     fti.finalize();                                     // FTI_Finalize
 *
 * Checkpoint levels:
 *  - L1: node-local ramfs write (the paper's configuration).
 *  - L2: L1 plus a copy on a partner node.
 *  - L3: L1 plus Reed-Solomon parity across the encoding group; survives
 *        the loss of up to `parityShards` members per group.
 *  - L4: flush to the parallel file system, one whole object per rank
 *        and checkpoint (compressed when the transform says so).
 *        The flush is *drained*: the rank pays only the burst-buffer
 *        staging and resumes compute; the PFS streaming overlaps on
 *        a per-rank virtual drain channel and is only waited for at a
 *        quiesce point (recovery, finalize).
 *
 * Checkpoints are real objects under a sandbox directory in the
 * configured storage backend (MemBackend for simulation runs,
 * DiskBackend for inspectable on-disk sandboxes); recovery really
 * restores the protected buffers (bit-for-bit, verified by checksums).
 * A run with config.snapshotRegions off stores a shared zero image of
 * the serialized size instead and restores no region: its objects,
 * checksums and prices follow the sizes alone.
 * Virtual time is charged through the runtime's cost model.
 */

#ifndef MATCH_FTI_FTI_HH
#define MATCH_FTI_FTI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/ckpt/io.hh"
#include "src/fti/config.hh"
#include "src/simmpi/proc.hh"
#include "src/storage/blob.hh"
#include "src/storage/faults.hh"

namespace match::fti
{

/** One registered data object (FTI_Protect target). */
struct ProtectedRegion
{
    int id = 0;
    void *ptr = nullptr;
    std::size_t bytes = 0;
};

/** FNV-1a 64-bit checksum used for checkpoint integrity. */
std::uint64_t fnv1a(const void *data, std::size_t bytes,
                    std::uint64_t seed = 0xcbf29ce484222325ULL);

/**
 * One checkpoint's commit record, read in place. Rank 0 commits the
 * record as fixed-width little-endian binary: a 16-byte header of four
 * int32 fields (magic, ckptId, level, nprocs), then nprocs entries of
 * {u64 stored bytes, u64 CRC32C}, in rank order. A MetaInfo is a view
 * of such a record: it holds the stored Blob (a handle, not a copy) and
 * loads the header fields once; the per-rank entries are loaded on
 * access. A default-constructed view is invalid.
 */
struct MetaInfo
{
    /** "MFTI" as the header's first little-endian int32. */
    static constexpr std::int32_t kMagic = 0x4954464d;
    static constexpr std::size_t kHeaderBytes = 16;
    static constexpr std::size_t kEntryBytes = 16;

    /** The record's exact size for `nprocs` ranks. */
    static constexpr std::size_t
    recordBytes(int nprocs)
    {
        return kHeaderBytes +
               kEntryBytes * static_cast<std::size_t>(nprocs);
    }

    int ckptId = 0;
    int level = 0;
    int nprocs = 0;
    /** The stored record; null for an invalid view. */
    storage::Blob record;

    explicit operator bool() const { return static_cast<bool>(record); }

    /** Rank r's stored object size and CRC32C (0 <= r < nprocs). */
    std::size_t bytes(int r) const;
    std::uint64_t crc(int r) const;
};

/**
 * Check a stored record and return its view (pure, O(1)). The view is
 * valid when the magic matches, 1 <= level <= 4, nprocs >= 1 and the
 * record is exactly recordBytes(nprocs) long.
 */
MetaInfo parseMeta(storage::Blob record);

/** Per-rank FTI instance (the library is an MPI library: one per rank). */
class Fti
{
  public:
    /**
     * FTI_Init: bind to a rank and a communicator, scan the sandbox for
     * a committed checkpoint from a previous incarnation.
     */
    Fti(simmpi::Proc &proc, FtiConfig config,
        simmpi::CommId comm = simmpi::commNull);

    /**
     * FTI_Protect: register (or re-register) a data object.
     *
     * @warning The region must remain at this address for the lifetime
     * of the registration: like the real FTI, the library snapshots
     * whatever `ptr` points to at checkpoint time. If the application
     * reallocates the buffer (vector growth, swap tricks), it must call
     * protect() again with the new address.
     */
    void protect(int id, void *ptr, std::size_t bytes);

    /** Drop a protected region (real FTI: protect with count 0). */
    void unprotect(int id);

    /**
     * FTI_Status: 0 when this execution starts fresh; otherwise the id of
     * the committed checkpoint that recovery would restore.
     */
    int status() const { return recoveryCkptId_; }

    /**
     * FTI_Checkpoint: write all protected regions at `level` (default:
     * the configured level). Collective over the bound communicator.
     * @param ckpt_id monotonically increasing checkpoint id (> 0)
     */
    void checkpoint(int ckpt_id, int level = 0);

    /**
     * FTI_Recover: restore all protected regions from the newest
     * committed checkpoint that can be restored. Sizes must match the
     * registrations.
     *
     * One ladder walks the committed checkpoints newest-first. Each
     * rung reads this rank's stored object, falling back to the partner
     * copy (L2) or RS reconstruction (L3) when the local one is lost or
     * fails its CRC32C, follows a delta chain back to its full envelope,
     * and prices the restore read from the stored bytes. A storage tier
     * faulting past the retry budget moves every rank to the next rung.
     *
     * config.sdcChecks sets the policy. With it, each rung is a priced
     * verification vote (allreduce-MIN): a checkpoint any rank cannot
     * restore is skipped by everyone, and running out of rungs is a
     * fresh start (initial values), never a silently restored rot.
     * Without it, a lost object is fatal ("L<level> recovery failed
     * ...") and so is running out of rungs.
     *
     * With config.snapshotRegions off the ladder reads, verifies and
     * prices exactly the same objects but writes no region: the
     * caller derives what it needs from the returned id.
     *
     * @return the restored checkpoint id; 0 after a fresh start
     */
    int recover();

    /**
     * SDC scrub pass: CRC32C-verify this rank's local object of the
     * newest committed checkpoint (levels 1-3; L4 objects live behind
     * the drain) and delete it when corrupt, so the next recovery
     * deterministically falls back to the level's redundancy instead of
     * restoring rot. Priced via CostModel::scrubVerify under CkptWrite.
     * Requires config.sdcChecks; a no-op when nothing is committed.
     */
    void scrub();

    /** FTI_Finalize: waits (in virtual time) for this rank's pending
     *  PFS drains — a job cannot release its nodes while its burst
     *  buffer still holds undrained checkpoints. */
    void finalize();

    /** Re-bind to a repaired world communicator (paper Fig. 3 note:
     *  "FTI must use the repaired world communicator"). */
    void setComm(simmpi::CommId comm);

    /** This instance's configuration, as given to the constructor. */
    const FtiConfig &config() const { return config_; }

    /** Total bytes currently protected on this rank. */
    std::size_t protectedBytes() const;

    /** Id of the last checkpoint this rank committed (0 if none). */
    int lastCheckpointId() const { return lastCkptId_; }

    /** Virtual seconds spent writing checkpoints by this rank. */
    double writeSeconds() const { return writeSeconds_; }

    /** Virtual seconds spent reading checkpoints by this rank. */
    double readSeconds() const { return readSeconds_; }

    /**
     * Graceful-degradation decisions this rank took because a storage
     * tier was write-exhausted (see storage::DegradeEvent): L4 -> L3
     * demotions when the PFS is out, epoch skips when the local tier
     * itself is full. Empty when no fault engine is attached. The
     * decisions are pure plan queries, so every rank records the same
     * sequence.
     */
    const std::vector<storage::DegradeEvent> &
    degradeEvents() const
    {
        return degradeEvents_;
    }

    /// @name Sandbox path helpers (shared with tests/tools).
    /// @{
    static std::string execDir(const FtiConfig &config);
    static std::string localDir(const FtiConfig &config, int rank);
    static std::string ckptFile(const FtiConfig &config, int rank,
                                int ckpt_id);
    static std::string partnerFile(const FtiConfig &config, int holder,
                                   int owner, int ckpt_id);
    static std::string parityFile(const FtiConfig &config, int rank,
                                  int ckpt_id);
    static std::string pfsFile(const FtiConfig &config, int rank,
                               int ckpt_id);
    static std::string metaFile(const FtiConfig &config, int ckpt_id);
    /// @}

    /** Remove an execution's whole sandbox (fresh-experiment helper). */
    static void purge(const FtiConfig &config);

    /**
     * Silent-data-corruption injector: flip one payload byte of `rank`'s
     * object of the newest committed checkpoint, at rest, without
     * touching the metadata — the modelled bit-flip in burst-buffer or
     * node-local storage. L1-L3 corrupt the local checkpoint file; L4
     * corrupts the whole PFS object. A no-op when nothing is
     * committed. Static: callable from outside any rank context (the
     * failure-scenario corrupt hook runs on the simulation driver).
     */
    static void corruptAtRest(const FtiConfig &config, int rank);

  private:
    /** Path prefixes "<ckptFile without id and suffix>" and
     *  "<metaFile without id and suffix>"; ids are appended to them. */
    static std::string ckptPrefix(const FtiConfig &config, int rank);
    static std::string metaPrefix(const FtiConfig &config);
    /** Cache this rank's prefixes (construction and setComm). */
    void bindPaths();
    /** ckptFile(config_, this rank, id) and metaFile(config_, id),
     *  from the cached prefixes. */
    std::string ckptPath(int ckpt_id) const;
    std::string metaPath(int ckpt_id) const;
    /** Serialized size of the protected regions: the size of every
     *  image this rank stores, snapshot or zero. */
    std::size_t imageBytes() const;
    /** Snapshot every protected region into one pooled, sealed blob
     *  (the only payload copy on the checkpoint hot path). */
    storage::Blob serializeRegions() const;
    void deserializeRegions(const std::uint8_t *data, std::size_t bytes);
    void writeLocal(int ckpt_id, const storage::Blob &blob);
    void writePartnerCopy(int ckpt_id, const storage::Blob &blob);
    /** `sizes` holds every rank's stored object size (allgathered). */
    void encodeGroupParity(int ckpt_id,
                           const std::vector<std::uint64_t> &sizes);
    /** Flush the staged blob (a refcount, not a copy) to the PFS
     *  inline; returns the bytes it shipped, which checkpoint() hands
     *  to the drain channel once the staging cost is charged. */
    std::uint64_t flushToPfs(int ckpt_id, storage::Blob blob);
    /** Fetch (soft read) and check checkpoint `ckpt_id`'s record;
     *  an invalid view when it is missing, unreadable, malformed or
     *  names another id. */
    MetaInfo loadMeta(int ckpt_id) const;
    int newestCommittedCkpt() const;
    /** Every committed checkpoint id, newest first (the recovery
     *  ladder walks this list). */
    std::vector<int> committedCkptsNewestFirst() const;
    void cleanupOlderCheckpoints(int keep_id);
    /**
     * This rank's stored object of a committed checkpoint, verified
     * against the meta (which covers the post-transform bytes), with
     * the level's redundancy tried before giving up. Null, with `why`
     * set, when it is lost or corrupt. An exhausted PFS read throws
     * StorageError.
     */
    storage::Blob readStored(const MetaInfo &meta, const char *&why);
    /** RS-rebuild this rank's object from its encoding group; data
     *  shards failing their CRC32C count as lost. Null when too many
     *  shards are gone. */
    storage::Blob reconstructFromGroup(const MetaInfo &meta);
    /** This rank's whole L4 object, decompressed when the transform
     *  has a compress stage; not yet verified (see readStored). */
    storage::Blob readPfsBlob(const MetaInfo &meta, const char *&why);
    /**
     * Resolve a committed checkpoint to its serialized image: read the
     * stored object (readStored), then — with the delta transform on —
     * follow the envelope's base links back to the last full envelope
     * and reassemble. Each chain link is priced as the recovery read
     * it is. Null, with `why` set, on a lost or corrupt object, a lost
     * link or a malformed envelope.
     */
    storage::Blob loadImage(const MetaInfo &meta, const char *&why,
                            int depth = 0);
    /** Remove one committed checkpoint's stored objects (this rank's
     *  files per level; rank 0 retires the metadata). */
    void removeCheckpointFiles(int id, int level);
    double ckptFactor() const;

    simmpi::Proc &proc_;
    FtiConfig config_;
    simmpi::CommId comm_;
    /** ckptPrefix(config_, this rank) and metaPrefix(config_), the
     *  prefixes ckptPath and metaPath append the id to. */
    std::string ckptPrefix_;
    std::string metaPrefix_;
    /** Sandbox storage, retry policy, fault epoch (the checkpoint id
     *  being written, or the rung being restored) and this rank's
     *  virtual drain channel of L4 flushes. */
    ckpt::CkptIo io_;
    /** Write-exhaustion decisions taken (demotions, epoch skips). */
    std::vector<storage::DegradeEvent> degradeEvents_;
    std::map<int, ProtectedRegion> regions_;
    int recoveryCkptId_ = 0;
    int lastCkptId_ = 0;
    double writeSeconds_ = 0.0;
    double readSeconds_ = 0.0;
    bool finalized_ = false;
    /** Previous committed checkpoint (for precise cleanup). */
    int prevCkptId_ = 0;
    int prevLevel_ = 0;
    /** Differential-checkpoint encoder (config.transform with delta):
     *  holds the previous epoch's serialized image as the reference. */
    storage::DeltaTransform deltaTx_;
    /** Consecutive delta envelopes since the last full one; a full is
     *  forced every config.deltaRebase-th checkpoint. */
    int deltaDepth_ = 0;
    /** Committed (ckptId, level) pairs the live delta chain still
     *  needs for recovery: keepOnlyLatest defers their deletion until
     *  a full envelope supersedes the chain. The delta-vs-full
     *  decision is collective, so every rank tracks the same chain. */
    std::vector<std::pair<int, int>> deltaChain_;
};

} // namespace match::fti

#endif // MATCH_FTI_FTI_HH
