#include "src/fti/fti.hh"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <utility>

#include "src/fti/rs_codec.hh"
#include "src/util/logging.hh"
#include "src/util/phase.hh"

namespace match::fti
{

using simmpi::CategoryScope;
using simmpi::TimeCategory;

std::uint64_t
fnv1a(const void *data, std::size_t bytes, std::uint64_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

// ---------------------------------------------------------------------------
// Path helpers
// ---------------------------------------------------------------------------

namespace
{

/** prefix + decimal id + suffix, built in one allocation. */
std::string
idPath(const std::string &prefix, int id, const char *suffix)
{
    char digits[12];
    const char *end = std::to_chars(digits, digits + sizeof(digits), id).ptr;
    std::string path;
    path.reserve(prefix.size() + sizeof(digits) + std::strlen(suffix));
    path.append(prefix);
    path.append(digits, static_cast<std::size_t>(end - digits));
    path.append(suffix);
    return path;
}

} // anonymous namespace

std::string
Fti::execDir(const FtiConfig &config)
{
    return config.ckptDir + "/" + config.execId;
}

std::string
Fti::localDir(const FtiConfig &config, int rank)
{
    return execDir(config) + "/local/rank" + std::to_string(rank);
}

std::string
Fti::ckptPrefix(const FtiConfig &config, int rank)
{
    return localDir(config, rank) + "/ckpt";
}

std::string
Fti::metaPrefix(const FtiConfig &config)
{
    return execDir(config) + "/meta/ckpt";
}

std::string
Fti::ckptFile(const FtiConfig &config, int rank, int ckpt_id)
{
    return idPath(ckptPrefix(config, rank), ckpt_id, ".fti");
}

std::string
Fti::partnerFile(const FtiConfig &config, int holder, int owner,
                 int ckpt_id)
{
    return localDir(config, holder) + "/partner" + std::to_string(owner) +
           "-ckpt" + std::to_string(ckpt_id) + ".fti";
}

std::string
Fti::parityFile(const FtiConfig &config, int rank, int ckpt_id)
{
    return localDir(config, rank) + "/parity-ckpt" +
           std::to_string(ckpt_id) + ".rs";
}

std::string
Fti::pfsFile(const FtiConfig &config, int rank, int ckpt_id)
{
    return execDir(config) + "/pfs/rank" + std::to_string(rank) + "-ckpt" +
           std::to_string(ckpt_id) + ".fti";
}

std::string
Fti::metaFile(const FtiConfig &config, int ckpt_id)
{
    return idPath(metaPrefix(config), ckpt_id, ".meta");
}

void
Fti::purge(const FtiConfig &config)
{
    storage::resolve(config.backend).removeTree(execDir(config));
}

// ---------------------------------------------------------------------------
// Construction / registration
// ---------------------------------------------------------------------------

Fti::Fti(simmpi::Proc &proc, FtiConfig config, simmpi::CommId comm)
    : proc_(proc), config_(std::move(config)),
      comm_(comm == simmpi::commNull ? proc.world() : comm),
      io_(proc, config_.backend, config_.virtualFactor, config_.transform)
{
    bindPaths();
    recoveryCkptId_ = newestCommittedCkpt();
    if (recoveryCkptId_ > 0) {
        if (const auto meta = loadMeta(recoveryCkptId_)) {
            prevCkptId_ = meta.ckptId;
            prevLevel_ = meta.level;
        }
    }
}

void
Fti::setComm(simmpi::CommId comm)
{
    comm_ = comm;
    bindPaths(); // a shrunken world renumbers the ranks
}

void
Fti::bindPaths()
{
    ckptPrefix_ = ckptPrefix(
        config_, proc_.runtime().commRank(proc_.globalIndex(), comm_));
    metaPrefix_ = metaPrefix(config_);
}

std::string
Fti::ckptPath(int ckpt_id) const
{
    return idPath(ckptPrefix_, ckpt_id, ".fti");
}

std::string
Fti::metaPath(int ckpt_id) const
{
    return idPath(metaPrefix_, ckpt_id, ".meta");
}

void
Fti::protect(int id, void *ptr, std::size_t bytes)
{
    MATCH_ASSERT(ptr != nullptr || bytes == 0,
                 "cannot protect a null region");
    regions_[id] = ProtectedRegion{id, ptr, bytes};
}

void
Fti::unprotect(int id)
{
    regions_.erase(id);
}

std::size_t
Fti::protectedBytes() const
{
    std::size_t total = 0;
    for (const auto &[id, region] : regions_)
        total += region.bytes;
    return total;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

std::size_t
Fti::imageBytes() const
{
    std::size_t total = 0;
    for (const auto &[id, region] : regions_)
        total += sizeof(std::uint32_t) + sizeof(std::uint64_t) +
                 region.bytes;
    return total;
}

storage::Blob
Fti::serializeRegions() const
{
    util::PhaseScope phase(util::Phase::CkptSerialize);
    // [u32 id][u64 bytes][raw payload] per region, in id order. The
    // snapshot lands directly in a pooled buffer: sealing it makes it
    // the very object the backend stores, the partner copy shares and
    // the PFS flush ships — this one staging pass is the only
    // payload copy the checkpoint hot path performs.
    storage::MutableBlob blob =
        storage::BlobPool::local().acquire(imageBytes());
    std::size_t off = 0;
    for (const auto &[id, region] : regions_) {
        const auto id32 = static_cast<std::uint32_t>(id);
        const auto len64 = static_cast<std::uint64_t>(region.bytes);
        std::memcpy(blob.data() + off, &id32, sizeof(id32));
        off += sizeof(id32);
        std::memcpy(blob.data() + off, &len64, sizeof(len64));
        off += sizeof(len64);
        std::memcpy(blob.data() + off, region.ptr, region.bytes);
        off += region.bytes;
    }
    return std::move(blob).seal();
}

void
Fti::deserializeRegions(const std::uint8_t *data, std::size_t bytes)
{
    util::PhaseScope phase(util::Phase::CkptSerialize);
    std::size_t off = 0;
    while (off < bytes) {
        std::uint32_t id32;
        std::uint64_t len64;
        MATCH_ASSERT(off + sizeof(id32) + sizeof(len64) <= bytes,
                     "truncated checkpoint blob");
        std::memcpy(&id32, data + off, sizeof(id32));
        off += sizeof(id32);
        std::memcpy(&len64, data + off, sizeof(len64));
        off += sizeof(len64);
        auto it = regions_.find(static_cast<int>(id32));
        if (it == regions_.end()) {
            util::fatal("checkpoint contains unprotected region id %u",
                        id32);
        }
        if (it->second.bytes != len64) {
            util::fatal("size mismatch restoring region %u: "
                        "registered %zu, stored %llu",
                        id32, it->second.bytes,
                        static_cast<unsigned long long>(len64));
        }
        MATCH_ASSERT(off + len64 <= bytes,
                     "truncated checkpoint payload");
        std::memcpy(it->second.ptr, data + off, len64);
        off += len64;
    }
    MATCH_ASSERT(off == bytes, "trailing bytes in checkpoint blob");
}

// ---------------------------------------------------------------------------
// Metadata
// ---------------------------------------------------------------------------

// The record is read and written with plain loads and stores of its
// little-endian fields.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "the binary commit record assumes a little-endian host");

namespace
{

template <typename T>
T
load(const std::uint8_t *p)
{
    T v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** Rank r's {bytes, crc} entry of a valid record. */
const std::uint8_t *
entryOf(const MetaInfo &meta, int r)
{
    MATCH_ASSERT(r >= 0 && r < meta.nprocs, "rank outside the record");
    return meta.record.data() + MetaInfo::kHeaderBytes +
           MetaInfo::kEntryBytes * static_cast<std::size_t>(r);
}

} // anonymous namespace

std::size_t
MetaInfo::bytes(int r) const
{
    return static_cast<std::size_t>(
        load<std::uint64_t>(entryOf(*this, r)));
}

std::uint64_t
MetaInfo::crc(int r) const
{
    return load<std::uint64_t>(entryOf(*this, r) + 8);
}

MetaInfo
parseMeta(storage::Blob record)
{
    if (record.size() < MetaInfo::kHeaderBytes)
        return {};
    const std::uint8_t *p = record.data();
    MetaInfo meta;
    meta.ckptId = load<std::int32_t>(p + 4);
    meta.level = load<std::int32_t>(p + 8);
    meta.nprocs = load<std::int32_t>(p + 12);
    if (load<std::int32_t>(p) != MetaInfo::kMagic || meta.level < 1 ||
        meta.level > 4 || meta.nprocs < 1 ||
        record.size() != MetaInfo::recordBytes(meta.nprocs))
        return {};
    meta.record = std::move(record);
    return meta;
}

MetaInfo
Fti::loadMeta(int ckpt_id) const
{
    // Retry exhaustion reads as "metadata missing": recovery walks to
    // an older committed checkpoint instead of aborting on a tier
    // fault window. Meta reads are fault-injectable per actor, so every
    // rank fetches every record it checks: strike budgets and priced
    // retries follow the fetches.
    MetaInfo meta = parseMeta(io_.readSoft(metaPath(ckpt_id)));
    if (!meta || meta.ckptId != ckpt_id)
        return {};
    return meta;
}

int
Fti::newestCommittedCkpt() const
{
    int newest = 0;
    for (const std::string &name :
         io_.store().listDir(execDir(config_) + "/meta")) {
        if (name.rfind("ckpt", 0) != 0)
            continue;
        const int id = std::atoi(name.c_str() + 4);
        if (id <= newest)
            continue;
        const MetaInfo meta = loadMeta(id);
        if (meta && meta.nprocs == proc_.runtime().commSize(comm_))
            newest = id;
    }
    return newest;
}

std::vector<int>
Fti::committedCkptsNewestFirst() const
{
    // Derived from the shared meta directory, so every rank of the
    // communicator computes the same list — the recovery ladder's
    // collective verification votes line up without communication.
    std::vector<int> ids;
    for (const std::string &name :
         io_.store().listDir(execDir(config_) + "/meta")) {
        if (name.rfind("ckpt", 0) != 0)
            continue;
        const int id = std::atoi(name.c_str() + 4);
        const MetaInfo meta = id > 0 ? loadMeta(id) : MetaInfo();
        if (meta && meta.nprocs == proc_.runtime().commSize(comm_))
            ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end(),
              [](int a, int b) { return a > b; });
    return ids;
}

void
Fti::removeCheckpointFiles(int id, int level)
{
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);
    const int size = proc_.runtime().commSize(comm_);
    const int owner = (rank + size - 1) % size; // whose L2 copy I hold
    if (level <= 3)
        io_.store().remove(ckptPath(id));
    if (level == 2)
        io_.store().remove(partnerFile(config_, rank, owner, id));
    if (level == 3)
        io_.store().remove(parityFile(config_, rank, id));
    if (level == 4)
        io_.store().remove(pfsFile(config_, rank, id));
    if (rank == 0)
        io_.store().remove(metaPath(id));
}

void
Fti::cleanupOlderCheckpoints(int keep_id)
{
    // Remove exactly the files of the previous committed checkpoint
    // (tracked per level), not a speculative id window: the filesystem
    // traffic of stat-ing absent files dominated checkpoint wall time.
    if (prevCkptId_ <= 0 || prevCkptId_ >= keep_id)
        return;
    removeCheckpointFiles(prevCkptId_, prevLevel_);
}

// ---------------------------------------------------------------------------
// Checkpoint write paths
// ---------------------------------------------------------------------------

double
Fti::ckptFactor() const
{
    if (proc_.runtime().policy() == simmpi::ErrorPolicy::Return) {
        return proc_.runtime().costModel().ulfmCkptFactor(
            proc_.runtime().commSize(comm_));
    }
    return 1.0;
}

void
Fti::writeLocal(int ckpt_id, const storage::Blob &blob)
{
    // The store takes a handle to the sealed snapshot — no payload
    // copy.
    const std::string path = ckptPath(ckpt_id);
    io_.retry([&] { io_.store().write(path, blob); });
}

void
Fti::writePartnerCopy(int ckpt_id, const storage::Blob &blob)
{
    // Rank r's copy lives on the "next node": holder = (r+1) mod P.
    // Under MemBackend the partner path shares the local copy's buffer
    // (immutable, refcounted) — the L2 duplicate costs no memory move.
    const int size = proc_.runtime().commSize(comm_);
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);
    const int holder = (rank + 1) % size;
    const std::string path = partnerFile(config_, holder, rank, ckpt_id);
    io_.retry([&] { io_.store().write(path, blob); });
}

void
Fti::encodeGroupParity(int ckpt_id, const std::vector<std::uint64_t> &sizes)
{
    // The group leader (first rank of each encoding group) reads the
    // group's data files, pads them to the longest, and writes one parity
    // shard into each member's local directory. Any ceil(G/2) member
    // losses are then recoverable.
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);
    const int gs = config_.groupSize;
    if (rank % gs != 0)
        return;
    const int size = proc_.runtime().commSize(comm_);
    const int group_lo = rank;
    const int group_hi = std::min(rank + gs, size);
    const int k = group_hi - group_lo;
    const int m = std::min(k, config_.parityShards);
    if (m == 0)
        return;

    // Read the members' blobs for the encoder: a refcounted handle
    // under MemBackend (the leader never re-reads bytes it just
    // wrote), exactly one copy under DiskBackend. Shards shorter than
    // the stripe are zero-padded implicitly by the span encoder, and
    // the parity rows are built directly in pooled buffers whose
    // handles the store then keeps.
    std::size_t stripe = 0;
    for (int i = 0; i < k; ++i)
        stripe = std::max(stripe,
                          static_cast<std::size_t>(sizes[group_lo + i]));
    std::vector<RsCodec::ShardView> data(k);
    std::vector<storage::Blob> members(k);
    for (int i = 0; i < k; ++i) {
        // readSoft folds retry exhaustion into "missing", which is
        // fatal here either way; the checkpoint pre-flight demotes L3
        // when local reads are persistently exhausted, so only a real
        // loss can trip this.
        members[i] =
            io_.readSoft(ckptFile(config_, group_lo + i, ckpt_id));
        if (!members[i])
            util::fatal("L3 encode: missing data file for rank %d",
                        group_lo + i);
        data[i] = {members[i].data(), members[i].size()};
    }
    const RsCodec codec(k, m);
    auto parity =
        codec.encode(data, stripe, storage::BlobPool::local());
    for (int p = 0; p < m; ++p) {
        const std::string path = parityFile(config_, group_lo + p, ckpt_id);
        io_.retry([&] { io_.store().write(path, parity[p]); });
    }
}

std::uint64_t
Fti::flushToPfs(int ckpt_id, storage::Blob blob)
{
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);
    const auto virt_bytes = static_cast<std::uint64_t>(
        static_cast<double>(blob.size()) * config_.virtualFactor);
    // Burst-buffer capacity pressure, in virtual time: when the
    // staged-but-undrained flushes plus this one would exceed the
    // buffer, the rank stalls until enough earlier flushes finish
    // streaming — capacity turns the overlapped drain back into
    // foreground checkpoint time (we run under CkptWrite here).
    io_.reserve(virt_bytes, config_.drainCapacityBytes);
    // The flush body writes the staged blob as the rank's whole PFS
    // object, compressed here in the drain stage when the transform
    // has a compress stage (the delta stage ran at serialize time).
    // The meta covers the staged, pre-compression bytes, so recovery
    // decompresses before verifying. The shipped size is a pure
    // function of the staged blob. A permanently failed flush leaves
    // the object lost or torn for recovery's ladder to deal with.
    return io_.flush(ckpt_id, rank, [&](int retry_limit) -> std::uint64_t {
        const storage::Blob out =
            storage::transformHasCompress(config_.transform)
                ? storage::compressEncode(blob)
                : blob;
        storage::withIoRetry(
            retry_limit,
            [&] { io_.store().write(pfsFile(config_, rank, ckpt_id), out); },
            [](int) {});
        return out.size();
    });
}

void
Fti::checkpoint(int ckpt_id, int level)
{
    MATCH_ASSERT(!finalized_, "checkpoint after finalize");
    MATCH_ASSERT(ckpt_id > 0, "checkpoint ids start at 1");
    if (level == 0)
        level = config_.defaultLevel;
    MATCH_ASSERT(level >= 1 && level <= 4, "invalid checkpoint level");

    // Storage-fault pre-flight: every decision below is a pure query
    // against the deterministic plan, so all ranks take the same
    // branch before any I/O or collective — degradation never
    // desynchronizes the communicator.
    double fault_penalty = 0.0;
    io_.setEpoch(ckpt_id);
    if (const storage::FaultInjectingBackend *faults = io_.faults()) {
        const storage::StorageFaultPlan &plan = faults->plan();
        const int limit = io_.retryLimit();
        const simmpi::CostModel &cm = proc_.runtime().costModel();
        const int rank =
            proc_.runtime().commRank(proc_.globalIndex(), comm_);
        if (plan.writeExhausted(ckpt_id, storage::PathClass::Local,
                                limit)) {
            // Every level stages through the local tier (data and
            // metadata); with it write-exhausted the epoch cannot
            // commit anywhere. Skip it — priced, recorded, loud —
            // rather than dying while the application is healthy.
            CategoryScope scope(proc_, TimeCategory::CkptWrite);
            const double t0 = proc_.now();
            proc_.sleepFor(cm.ioRetryPenalty(1));
            storage::notePricedRetries(1);
            storage::noteSkippedEpoch();
            degradeEvents_.push_back(
                {ckpt_id, level, 0, storage::PathClass::Local});
            if (rank == 0)
                util::warn("FTI checkpoint %d skipped: local tier "
                           "write-exhausted (full or down past the "
                           "retry budget)", ckpt_id);
            writeSeconds_ += proc_.now() - t0;
            return;
        }
        if (level == 4 &&
            plan.writeExhausted(ckpt_id, storage::PathClass::Pfs,
                                limit)) {
            // PFS out for longer than the retry budget can ride:
            // demote to the strongest local tier instead of wedging
            // the drain on a flush that cannot land.
            degradeEvents_.push_back(
                {ckpt_id, 4, 3, storage::PathClass::Pfs});
            storage::noteDegradedCkpt();
            storage::notePricedRetries(limit);
            fault_penalty += cm.ioRetryPenalty(limit);
            if (rank == 0)
                util::warn("FTI checkpoint %d: PFS write-exhausted, "
                           "degrading L4 -> L3", ckpt_id);
            level = 3;
        }
        if (level == 3 &&
            plan.readExhausted(ckpt_id, storage::PathClass::Local,
                               limit)) {
            // The L3 encoder reads the group's freshly written data
            // files back; with local reads exhausted it cannot. L2
            // keeps cross-node redundancy without a read path.
            degradeEvents_.push_back(
                {ckpt_id, 3, 2, storage::PathClass::Local});
            storage::noteDegradedCkpt();
            storage::notePricedRetries(limit);
            fault_penalty += cm.ioRetryPenalty(limit);
            if (rank == 0)
                util::warn("FTI checkpoint %d: local reads exhausted, "
                           "degrading L3 -> L2", ckpt_id);
            level = 2;
        }
        if (level == 4) {
            // Transient PFS strikes are ridden out by the flush's
            // unpriced retry loop (CkptIo::flush): charge the
            // re-staging backoff here. (Local-tier writes price their
            // actual attempts inside io_.retry.)
            const int strikes = plan.transientWriteStrikes(
                ckpt_id, storage::PathClass::Pfs, limit);
            if (strikes > 0) {
                fault_penalty += cm.ioRetryPenalty(strikes);
                storage::notePricedRetries(
                    static_cast<std::uint64_t>(strikes));
            }
        }
        // A latency-spike window on the level's primary class slows
        // the epoch without failing anything.
        const storage::PathClass primary =
            level == 4 ? storage::PathClass::Pfs
                       : storage::PathClass::Local;
        if (plan.latencySpike(ckpt_id, primary)) {
            fault_penalty += cm.faultLatencySpike();
            storage::noteLatencySpike();
        }
    }

    CategoryScope scope(proc_, TimeCategory::CkptWrite);
    const double t0 = proc_.now();
    if (fault_penalty > 0.0)
        proc_.sleepFor(fault_penalty);

    // Without snapshots every rank and checkpoint of this thread stores
    // one shared zero image of the serialized size: the same objects,
    // sizes and decisions downstream, with no copy and one CRC pass.
    storage::Blob blob = config_.snapshotRegions
                             ? serializeRegions()
                             : storage::zeroBlob(imageBytes());
    bool emitted_full = true;
    if (storage::transformHasDelta(config_.transform)) {
        // Differential checkpoint: encode the image against the
        // previous epoch's. The delta-vs-full decision is collective
        // (allreduce-MIN) so every rank's chain has the same shape and
        // cleanup/meta retirement stay rank-uniform; a full envelope
        // is forced every deltaRebase-th checkpoint, after recovery,
        // and whenever the image changed size.
        const std::int64_t can_delta =
            (deltaTx_.hasReference() &&
             deltaTx_.referenceSize() == blob.size() &&
             deltaDepth_ + 1 < config_.deltaRebase)
                ? 1
                : 0;
        const bool emit_delta =
            proc_.allreduceInt(can_delta, simmpi::ReduceOp::Min,
                               comm_) == 1;
        if (!emit_delta) {
            deltaTx_.clearReference();
        } else {
            // The dirty scan streams both images; priced inline — it
            // is foreground checkpoint time, like the serialize pass.
            proc_.sleepFor(
                proc_.runtime().costModel().transformDelta(
                    static_cast<std::size_t>(
                        static_cast<double>(blob.size()) *
                        config_.virtualFactor)) *
                ckptFactor());
        }
        storage::Blob image = blob; // handle copy, not bytes
        blob = deltaTx_.apply(image);
        deltaTx_.setReference(std::move(image), ckpt_id);
        deltaDepth_ = emit_delta ? deltaDepth_ + 1 : 0;
        emitted_full = !emit_delta;
    }
    const std::size_t blob_bytes = blob.size();
    // CRC32C, computed once here and cached on the sealed buffer: the
    // partner copy, recovery verify and scrub all reuse it for free.
    // With a transform on, the checksum (and the meta sizes) cover the
    // stored envelope, so a corrupt delta fails verification before
    // any decode attempt.
    const std::uint64_t crc = blob.crc32c();
    MATCH_DEBUG("FTI checkpoint: g=%d comm=%d id=%d bytes=%zu crc=%llu",
                proc_.globalIndex(), comm_, ckpt_id, blob_bytes,
                static_cast<unsigned long long>(crc));

    // Data path: every level keeps a local copy except L4, which is
    // flushed to the parallel file system right here and priced on the
    // virtual drain channel by the bytes actually shipped, where the
    // streaming overlaps the collectives and the following compute
    // phase. Every consumer — local store, partner store, PFS flush —
    // shares the one sealed snapshot by refcount; no path deep-copies
    // the payload.
    if (level <= 3)
        writeLocal(ckpt_id, blob);
    if (level == 2)
        writePartnerCopy(ckpt_id, blob);
    std::uint64_t shipped = 0;
    if (level == 4)
        shipped = flushToPfs(ckpt_id, std::move(blob)); // staged, not copied

    // Consistency protocol: gather sizes/checksums at rank 0, straight
    // into the body of the commit record (see MetaInfo), which rank 0
    // then commits; everyone waits for the commit. The other ranks
    // build no record (a non-root gather ignores its receive buffer).
    const int size = proc_.runtime().commSize(comm_);
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);
    const std::uint64_t mine[2] = {blob_bytes, crc};
    storage::MutableBlob record;
    if (rank == 0) {
        record = storage::BlobPool::local().acquire(
            MetaInfo::recordBytes(size));
        const std::int32_t header[4] = {MetaInfo::kMagic, ckpt_id, level,
                                        size};
        std::memcpy(record.data(), header, sizeof(header));
    }
    proc_.gather(0, mine, sizeof(mine),
                 rank == 0 ? record.data() + MetaInfo::kHeaderBytes
                           : nullptr,
                 comm_);

    if (level == 3) {
        // All data files must exist before the leaders encode.
        proc_.barrier(comm_);
        // Distribute sizes so every leader can pad its stripe.
        std::vector<std::uint64_t> sizes(static_cast<std::size_t>(size));
        std::uint64_t my_size = blob_bytes;
        proc_.allgather(&my_size, sizeof(my_size), sizes.data(), comm_);
        encodeGroupParity(ckpt_id, sizes);
        proc_.barrier(comm_);
    }

    if (rank == 0) {
        // writeAtomic, which no fault ever tears: recovery never sees a
        // half-written record.
        const std::string path = metaPath(ckpt_id);
        const storage::Blob sealed = std::move(record).seal();
        io_.retry([&] { io_.store().writeAtomic(path, sealed); });
    }
    int committed = 1;
    proc_.bcast(0, &committed, sizeof(committed), comm_);

    // Virtual cost of the data path (the real file I/O above happens in
    // wall time, not simulated time). A drained L4 checkpoint charges
    // the rank only the consistency protocol + burst-buffer staging;
    // the PFS streaming lands on the virtual drain channel, where it
    // overlaps compute until a quiesce point catches up with it.
    const double virt_bytes =
        static_cast<double>(blob_bytes) * config_.virtualFactor;
    if (level == 4) {
        proc_.sleepFor(
            proc_.runtime().costModel().drainStage(
                static_cast<std::size_t>(virt_bytes), size) *
            ckptFactor());
        // The flush enters the drain channel once the blob is staged,
        // and holds its staged bytes of the burst buffer until drained.
        const auto staged = static_cast<std::uint64_t>(virt_bytes);
        io_.drain(shipped, size, ckptFactor(), staged, staged);
    } else {
        proc_.sleepFor(
            proc_.runtime().costModel().checkpointWrite(
                level, static_cast<std::size_t>(virt_bytes), size) *
            ckptFactor());
    }

    if (storage::transformHasDelta(config_.transform)) {
        // A delta checkpoint's ancestors must survive until a full
        // envelope supersedes the chain: keepOnlyLatest retires the
        // whole superseded chain at each rebase instead of the single
        // previous checkpoint.
        if (emitted_full) {
            if (config_.keepOnlyLatest) {
                for (const auto &[id, lvl] : deltaChain_)
                    removeCheckpointFiles(id, lvl);
            }
            deltaChain_.clear();
        }
        deltaChain_.emplace_back(ckpt_id, level);
    } else if (config_.keepOnlyLatest) {
        cleanupOlderCheckpoints(ckpt_id);
    }
    prevCkptId_ = ckpt_id;
    prevLevel_ = level;
    lastCkptId_ = ckpt_id;
    writeSeconds_ += proc_.now() - t0;
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

namespace
{

/** The one integrity rule for a stored object: present, with the size
 *  and CRC32C that `rank`'s entries of the committed record name. */
bool
intact(const storage::Blob &blob, const MetaInfo &meta, int rank)
{
    return blob && blob.size() == meta.bytes(rank) &&
           blob.crc32c() == meta.crc(rank);
}

} // anonymous namespace

storage::Blob
Fti::reconstructFromGroup(const MetaInfo &meta)
{
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);
    const int gs = config_.groupSize;
    const int size = meta.nprocs;
    const int group_lo = (rank / gs) * gs;
    const int group_hi = std::min(group_lo + gs, size);
    const int k = group_hi - group_lo;
    const int m = std::min(k, config_.parityShards);
    std::size_t stripe = 0;
    for (int i = 0; i < k; ++i)
        stripe = std::max(stripe, meta.bytes(group_lo + i));

    // The codec decodes in place, so each surviving shard is copied
    // out of its (immutable) stored blob into a stripe-sized buffer.
    std::vector<std::optional<std::vector<std::uint8_t>>> shards(
        static_cast<std::size_t>(k + m));
    const auto take = [&](const storage::Blob &blob) {
        std::vector<std::uint8_t> buf(stripe, 0);
        std::copy_n(blob.data(), blob.size(), buf.begin());
        storage::noteBlobCopy(blob.size());
        return buf;
    };
    for (int i = 0; i < k; ++i) {
        const int member = group_lo + i;
        // A data shard that is unreadable, mis-sized or fails its CRC32C
        // is a lost shard: a corrupt member would poison the whole
        // stripe's reconstruction, while the parity rebuilds a missing
        // one.
        const storage::Blob blob =
            io_.readSoft(ckptFile(config_, member, meta.ckptId));
        if (intact(blob, meta, member))
            shards[i] = take(blob);
    }
    for (int p = 0; p < m; ++p) {
        // Like a data shard, a parity shard unreadable past the retry
        // budget is simply a lost shard — the codec reconstructs
        // around it while enough members survive.
        const storage::Blob blob =
            io_.readSoft(parityFile(config_, group_lo + p, meta.ckptId));
        if (blob && blob.size() == stripe)
            shards[k + p] = take(blob);
    }
    const RsCodec codec(k, m);
    auto data = codec.reconstruct(shards);
    if (data.empty())
        return storage::Blob();
    auto blob = std::move(data[rank - group_lo]);
    blob.resize(meta.bytes(rank));
    return storage::Blob::fromVector(std::move(blob));
}

storage::Blob
Fti::readPfsBlob(const MetaInfo &meta, const char *&why)
{
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);
    // Unlike the local tiers, a PFS read exhausted past the retry
    // budget throws StorageError, which ends the rung.
    storage::Blob whole = io_.retry([&] {
        return io_.store().read(pfsFile(config_, rank, meta.ckptId));
    });
    if (!whole) {
        why = "PFS object lost";
        return storage::Blob();
    }
    if (!storage::transformHasCompress(config_.transform))
        return whole;
    // The PFS object is the compressed envelope; the meta checksum
    // covers the decompressed (staged) bytes, so decode first, then
    // let the caller verify. Decompression is a real recovery-path
    // cost, priced inline.
    const std::uint64_t raw = storage::compressRawBytes(whole);
    storage::Blob decoded = storage::compressDecode(whole);
    if (decoded)
        proc_.sleepFor(proc_.runtime().costModel().transformDecompress(
            static_cast<std::size_t>(static_cast<double>(raw) *
                                     config_.virtualFactor)));
    else
        why = "corrupt compress envelope";
    return decoded;
}

storage::Blob
Fti::readStored(const MetaInfo &meta, const char *&why)
{
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);
    if (meta.level == 4) {
        const storage::Blob blob = readPfsBlob(meta, why);
        if (intact(blob, meta, rank))
            return blob;
        if (blob)
            why = "PFS object failed its checksum";
        return storage::Blob();
    }
    // Local tiers: an object unreadable past the retry budget is
    // treated exactly like a lost one, so the level's redundancy
    // absorbs it.
    if (storage::Blob blob =
            io_.readSoft(ckptPath(meta.ckptId));
        intact(blob, meta, rank))
        return blob;
    if (meta.level == 2) {
        const int holder = (rank + 1) % meta.nprocs;
        if (storage::Blob blob = io_.readSoft(
                partnerFile(config_, holder, rank, meta.ckptId));
            intact(blob, meta, rank))
            return blob;
        why = "local and partner copies both lost";
    } else if (meta.level == 3) {
        if (storage::Blob blob = reconstructFromGroup(meta);
            intact(blob, meta, rank))
            return blob;
        why = "too many lost or corrupt shards in the encoding group";
    } else {
        why = "checkpoint lost (L1 cannot survive node-storage loss)";
    }
    return storage::Blob();
}

storage::Blob
Fti::loadImage(const MetaInfo &meta, const char *&why, int depth)
{
    const storage::Blob stored = readStored(meta, why);
    if (!storage::transformHasDelta(config_.transform) || !stored)
        return stored;
    const storage::DeltaInfo info = storage::deltaInspect(stored);
    if (!info.valid) {
        why = "corrupt delta envelope";
        return storage::Blob();
    }
    storage::Blob base; // a full envelope decodes without one
    if (!info.isFull) {
        // Base ids decrease strictly along a well-formed chain; the
        // depth bound stops a corrupt-but-verifiable cycle from looping.
        if (depth >= 64 || info.baseCkptId <= 0 ||
            info.baseCkptId >= meta.ckptId) {
            why = "malformed delta chain";
            return storage::Blob();
        }
        const MetaInfo base_meta = loadMeta(info.baseCkptId);
        if (!base_meta) {
            why = "delta base checkpoint lost its metadata";
            return storage::Blob();
        }
        // Each chain link is an additional stored object the rank
        // really reads back; price it like the recovery read it is.
        const int rank =
            proc_.runtime().commRank(proc_.globalIndex(), comm_);
        proc_.sleepFor(proc_.runtime().costModel().checkpointRead(
            base_meta.level,
            static_cast<std::size_t>(
                static_cast<double>(base_meta.bytes(rank)) *
                config_.virtualFactor),
            proc_.runtime().commSize(comm_)));
        base = loadImage(base_meta, why, depth + 1);
        if (!base)
            return base;
    }
    storage::Blob image = storage::deltaDecode(stored, base);
    if (!image)
        why = "corrupt delta envelope";
    return image;
}

int
Fti::recover()
{
    MATCH_ASSERT(!finalized_, "recover after finalize");
    CategoryScope scope(proc_, TimeCategory::CkptRead);
    const double t0 = proc_.now();
    const int size = proc_.runtime().commSize(comm_);
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);

    // One newest-first walk. Every rank derives the same ladder from
    // the shared meta directory and charges its OWN strike budget
    // against every object (per-actor counters, rank-less meta files
    // included), so tier decisions agree without communication.
    // config_.sdcChecks decides three things only: whether each rung
    // is a priced allreduce-MIN verification vote, whether a lost rung
    // is fatal, and whether running out of rungs is a fresh start.
    storage::Blob restored;
    int restored_id = 0;
    int restored_level = 0;
    for (const int id : committedCkptsNewestFirst()) {
        // Re-key this rank's fault epoch to the rung before its meta
        // read: the windows of the checkpoint being restored gate all
        // of the rung's I/O, the meta file included.
        io_.setEpoch(id);
        const MetaInfo meta = loadMeta(id);
        if (!meta)
            continue; // same per-actor outcome on every rank
        // An L4 restore reads objects the drain channel may still be
        // streaming in virtual time: wait it out first.
        if (meta.level == 4)
            io_.barrier();
        storage::Blob image;
        const char *why = nullptr;
        bool tier_exhausted = false;
        try {
            image = loadImage(meta, why);
        } catch (const storage::StorageError &err) {
            // A storage tier faulting past the retry budget ends the
            // rung in both modes: fall back to an older checkpoint.
            tier_exhausted = true;
            if (rank == 0)
                util::warn("FTI recover: checkpoint %d unreadable "
                           "(%s), falling back to an older one", id,
                           err.what());
        }
        // Verification and the restore read are priced from the stored
        // bytes (for a delta chain, the envelope, not the image).
        const auto stored_bytes = static_cast<std::size_t>(
            static_cast<double>(meta.bytes(rank)) *
            config_.virtualFactor);
        if (config_.sdcChecks) {
            // A checkpoint any rank cannot verify is rejected by all.
            proc_.sleepFor(
                proc_.runtime().costModel().scrubVerify(stored_bytes));
            if (proc_.allreduceInt(image ? 1 : 0, simmpi::ReduceOp::Min,
                                   comm_) == 0) {
                if (rank == 0)
                    util::warn("FTI recover: checkpoint %d failed SDC "
                               "verification, falling back to an older "
                               "one", id);
                continue;
            }
        } else if (!image) {
            if (tier_exhausted)
                continue;
            util::fatal("L%d recovery failed for rank %d (checkpoint "
                        "%d): %s", meta.level, rank, id, why);
        }
        MATCH_DEBUG("FTI recover: g=%d comm=%d rank=%d ckpt=%d "
                    "bytes=%zu", proc_.globalIndex(), comm_, rank, id,
                    image.size());
        if (config_.snapshotRegions)
            deserializeRegions(image.data(), image.size());
        proc_.sleepFor(proc_.runtime().costModel().checkpointRead(
            meta.level, stored_bytes, size));
        restored = std::move(image);
        restored_id = id;
        restored_level = meta.level;
        break;
    }
    if (restored_id != 0) {
        lastCkptId_ = restored_id;
    } else if (!config_.sdcChecks) {
        util::fatal("FTI_Recover: no committed checkpoint could be "
                    "restored (storage tiers exhausted)");
    } else if (rank == 0) {
        // Never a silent wrong result: with every committed checkpoint
        // unverifiable, declare a fresh start — the protected regions
        // keep their initial values and the loop re-executes from
        // iteration 0.
        util::warn("FTI recover: no committed checkpoint passed SDC "
                   "verification; restarting from initial state");
    }
    if (storage::transformHasDelta(config_.transform)) {
        // The restored image is the reference the next delta is encoded
        // against, and the restored checkpoint (transitively, its chain)
        // must outlive whatever this incarnation writes. After a fresh
        // start (no image) the next checkpoint is a full envelope.
        deltaTx_.setReference(restored, restored_id);
        deltaDepth_ = 0;
        deltaChain_.clear();
        if (restored_id != 0)
            deltaChain_.emplace_back(restored_id, restored_level);
    }
    recoveryCkptId_ = 0; // the paper's loop recovers exactly once
    readSeconds_ += proc_.now() - t0;
    return restored_id;
}

void
Fti::scrub()
{
    MATCH_ASSERT(config_.sdcChecks, "scrub requires sdc checks enabled");
    MATCH_ASSERT(!finalized_, "scrub after finalize");
    const int newest = newestCommittedCkpt();
    if (newest == 0)
        return;
    const MetaInfo meta = loadMeta(newest);
    if (!meta || meta.level > 3)
        return; // L4 objects live behind the drain; nothing local
    CategoryScope scope(proc_, TimeCategory::CkptWrite);
    const double t0 = proc_.now();
    io_.setEpoch(newest);
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);
    const std::string path = ckptPath(newest);
    // Retry exhaustion reads as "missing": the scrub just finds
    // nothing to verify and the next recovery handles the fallout.
    const storage::Blob blob = io_.readSoft(path);
    const double virt_bytes =
        static_cast<double>(meta.bytes(rank)) *
        config_.virtualFactor;
    proc_.sleepFor(proc_.runtime().costModel().scrubVerify(
        static_cast<std::size_t>(virt_bytes)));
    if (blob && !intact(blob, meta, rank)) {
        // Deleting the rotten object turns a silent-corruption hazard
        // into an ordinary lost-object recovery: the next recover()
        // falls back to this level's redundancy deterministically.
        io_.store().remove(path);
        MATCH_DEBUG("FTI scrub: rank %d dropped corrupt ckpt %d", rank,
                    newest);
    }
    writeSeconds_ += proc_.now() - t0;
}

namespace
{

/**
 * Bit-rot one stored object in place: flip its middle byte and rewrite
 * the object atomically. A missing or empty object is left alone.
 */
void
flipByte(storage::Backend &store, const std::string &path)
{
    const storage::Blob blob = store.read(path);
    if (blob.size() == 0)
        return;
    std::vector<std::uint8_t> bytes(blob.data(),
                                    blob.data() + blob.size());
    storage::noteBlobCopy(bytes.size());
    bytes[bytes.size() / 2] ^= 0x5a;
    store.writeAtomic(path, storage::Blob::fromVector(std::move(bytes)));
}

} // anonymous namespace

void
Fti::corruptAtRest(const FtiConfig &config, int rank)
{
    storage::Backend &store = storage::resolve(config.backend);
    // Newest committed checkpoint, by direct meta scan: this runs on
    // the simulation driver (no Proc), so it cannot ask an instance.
    int newest = 0;
    int level = 0;
    for (const std::string &name :
         store.listDir(execDir(config) + "/meta")) {
        if (name.rfind("ckpt", 0) != 0)
            continue;
        const int id = std::atoi(name.c_str() + 4);
        if (id <= newest)
            continue;
        // Best-effort, like the flip sections below: a read window
        // open at injection time just hides this id from the scan —
        // it must never abort the simulation driver.
        MetaInfo meta;
        try {
            meta = parseMeta(store.read(metaFile(config, id)));
        } catch (const storage::StorageError &) {
        }
        if (!meta)
            continue;
        newest = id;
        level = meta.level;
    }
    if (newest == 0)
        return;

    // Corruption injection is best-effort: a storage-fault window open
    // at injection time just means the flip found nothing to rot. L1-L3
    // rot the local checkpoint file, L4 the rank's whole PFS object.
    try {
        flipByte(store, level <= 3 ? ckptFile(config, rank, newest)
                                   : pfsFile(config, rank, newest));
    } catch (const storage::StorageError &) {
    }
}

void
Fti::finalize()
{
    if (!finalized_) {
        // scr_postrun-style drain: the job cannot release its nodes
        // while the burst buffer still holds undrained checkpoints.
        // The residual wait is checkpoint-write time the overlap could
        // not hide.
        CategoryScope scope(proc_, TimeCategory::CkptWrite);
        const double t0 = proc_.now();
        io_.barrier();
        writeSeconds_ += proc_.now() - t0;
    }
    finalized_ = true;
}

} // namespace match::fti
