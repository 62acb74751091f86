#include "src/scr/scr.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "src/util/crc32c.hh"
#include "src/util/logging.hh"
#include "src/util/phase.hh"

namespace match::scr
{

using simmpi::CategoryScope;
using simmpi::TimeCategory;

const char *
redundancyName(Redundancy scheme)
{
    switch (scheme) {
      case Redundancy::Single: return "SINGLE";
      case Redundancy::Partner: return "PARTNER";
      case Redundancy::Xor: return "XOR";
    }
    return "UNKNOWN";
}

namespace
{

std::string
jobDir(const ScrConfig &config)
{
    return config.cacheDir + "/" + config.jobId;
}

/** Integrity sidecars travel verbatim through flush and fetch — only
 *  routed data files go through the compress stage. */
bool
isSidecar(const std::string &name)
{
    static const std::string suffix = ".crc32c";
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

} // anonymous namespace

std::string
Scr::datasetDir(const ScrConfig &config, int dataset, int rank)
{
    return jobDir(config) + "/dataset" + std::to_string(dataset) +
           "/rank" + std::to_string(rank);
}

std::string
Scr::markerFile(const ScrConfig &config, int dataset)
{
    return jobDir(config) + "/dataset" + std::to_string(dataset) +
           "/committed";
}

std::string
Scr::parityFile(const ScrConfig &config, int dataset, int group)
{
    return jobDir(config) + "/dataset" + std::to_string(dataset) +
           "/xor-group" + std::to_string(group) + ".parity";
}

std::string
Scr::prefixDatasetDir(const ScrConfig &config, int dataset, int rank)
{
    return config.prefixDir + "/" + config.jobId + "/dataset" +
           std::to_string(dataset) + "/rank" + std::to_string(rank);
}

std::string
Scr::flushedMarkerFile(const ScrConfig &config, int dataset, int rank)
{
    return config.prefixDir + "/" + config.jobId + "/dataset" +
           std::to_string(dataset) + "/flushed-rank" +
           std::to_string(rank);
}

void
Scr::purge(const ScrConfig &config)
{
    storage::Backend &store = storage::resolve(config.backend);
    store.removeTree(jobDir(config));
    store.removeTree(config.prefixDir + "/" + config.jobId);
}

Scr::Scr(simmpi::Proc &proc, ScrConfig config)
    : proc_(proc), config_(std::move(config)),
      // Flushes ship the cache's bytes as they are: virtual factor 1.
      io_(proc, config_.backend, 1.0, config_.transform)
{
    // SCR's prefix directory carries no "/pfs/" segment, so register it
    // as a PFS root with the fault engine — flushes and fetches against
    // it then see PFS-class windows, while the cache sees local-class
    // ones.
    if (storage::FaultInjectingBackend *faults = io_.faults())
        faults->addPfsPrefix(config_.prefixDir);
    lastCommitted_ = newestCommittedDataset();
    restartDataset_ = lastCommitted_;
}

int
Scr::rank() const
{
    return proc_.rank();
}

int
Scr::size() const
{
    return proc_.size();
}

int
Scr::newestCommittedDataset(int below) const
{
    int newest = 0;
    for (const std::string &name : io_.store().listDir(jobDir(config_))) {
        if (name.rfind("dataset", 0) != 0)
            continue;
        const int id = std::atoi(name.c_str() + 7);
        if (below > 0 && id >= below)
            continue;
        if (id > newest && io_.store().exists(markerFile(config_, id)))
            newest = id;
    }
    // A dataset whose cache was lost is still restartable from its
    // flushed prefix copy — but only when every rank's flush committed
    // its marker (a flush that failed or was skipped leaves the dataset
    // unfetchable, falling back to the newest fully flushed one).
    for (const std::string &name :
         io_.store().listDir(config_.prefixDir + "/" + config_.jobId)) {
        if (name.rfind("dataset", 0) != 0)
            continue;
        const int id = std::atoi(name.c_str() + 7);
        if (below > 0 && id >= below)
            continue;
        if (id <= newest)
            continue;
        bool complete = true;
        for (int r = 0; r < size() && complete; ++r)
            complete =
                io_.store().exists(flushedMarkerFile(config_, id, r));
        if (complete)
            newest = id;
    }
    return newest;
}

bool
Scr::needCheckpoint(int iteration) const
{
    return iteration > 0 && config_.checkpointInterval > 0 &&
           iteration % config_.checkpointInterval == 0;
}

void
Scr::startCheckpoint()
{
    MATCH_ASSERT(!finalized_, "SCR used after finalize");
    MATCH_ASSERT(writingDataset_ == 0,
                 "SCR_Start_checkpoint while a checkpoint is open");
    writingDataset_ = lastCommitted_ + 1;
    routedFiles_.clear();
}

std::string
Scr::routeFile(const std::string &name)
{
    MATCH_ASSERT(writingDataset_ != 0,
                 "SCR_Route_file outside a checkpoint");
    MATCH_ASSERT(name.find('/') == std::string::npos,
                 "SCR file names must be plain file names");
    routedFiles_.push_back(name);
    return datasetDir(config_, writingDataset_, rank()) + "/" + name;
}

void
Scr::applyRedundancy()
{
    const int r = rank();
    const int n = size();
    switch (config_.scheme) {
      case Redundancy::Single:
        return;
      case Redundancy::Partner: {
        // Copy every routed file to the neighbour's directory.
        const int holder = (r + 1) % n;
        const std::string dst =
            datasetDir(config_, writingDataset_, holder) + "-partner" +
            std::to_string(r);
        for (const std::string &name : routedFiles_) {
            const std::string src =
                datasetDir(config_, writingDataset_, r) + "/" + name;
            if (!io_.copySoft(src, dst + "/" + name))
                util::fatal("SCR PARTNER: missing routed file %s "
                            "(rank %d)", name.c_str(), r);
            // The partner copy carries the integrity record too, so a
            // rebuilt file stays verifiable.
            if (config_.sdcChecks)
                io_.copySoft(src + ".crc32c",
                             dst + "/" + name + ".crc32c");
        }
        return;
      }
      case Redundancy::Xor: {
        // RAID-5-style: the group leader XORs the members' files
        // (concatenated, zero-padded) into one parity blob per group.
        // The parity accumulates directly in a pooled buffer over
        // fetched member views — the member blobs are never
        // concatenated or padded in memory (a zero pad XORs to a
        // no-op, so short members simply stop contributing).
        const int gs = config_.groupSize;
        if (r % gs != 0)
            return;
        const int lo = r;
        const int hi = std::min(lo + gs, n);
        std::size_t stripe = 0;
        for (int m = lo; m < hi; ++m) {
            std::size_t total = 0;
            for (const std::string &name : routedFiles_) {
                std::size_t bytes = 0;
                if (!io_.store().size(
                        datasetDir(config_, writingDataset_, m) + "/" +
                            name,
                        bytes))
                    util::fatal("SCR XOR: missing member file (rank %d)",
                                m);
                total += bytes;
            }
            stripe = std::max(stripe, total);
        }
        util::PhaseScope phase(util::Phase::RsEncode);
        storage::MutableBlob parity =
            storage::BlobPool::local().acquireZeroed(stripe);
        for (int m = lo; m < hi; ++m) {
            std::size_t off = 0;
            for (const std::string &name : routedFiles_) {
                const storage::Blob file = io_.readSoft(
                    datasetDir(config_, writingDataset_, m) + "/" +
                    name);
                if (!file)
                    util::fatal("SCR XOR: missing member file (rank %d)",
                                m);
                for (std::size_t i = 0; i < file.size(); ++i)
                    parity.data()[off + i] ^= file.data()[i];
                off += file.size();
            }
        }
        if (!io_.writeSoft(parityFile(config_, writingDataset_, lo / gs),
                           std::move(parity).seal())) {
            // Parity lost to a persistent fault window: the dataset
            // stays committed (cache copies are intact) but a later
            // member loss must fall through to the prefix copy.
            util::warn("SCR XOR: parity write failed for group %d "
                       "(dataset %d)", lo / gs, writingDataset_);
        }
        return;
      }
    }
}

namespace
{

/**
 * The flush body: copy the rank's routed files from the cache to the
 * prefix directory, then commit the rank's flushed marker.
 *
 * A missing source file fails the flush *softly*: no
 * marker is written, so the dataset never becomes fetchable and
 * restart falls back to the newest fully flushed one — a failed flush
 * loses its dataset's prefix copy, it never aborts the run.
 *
 * @return bytes shipped to the PFS (0 when the flush failed).
 */
std::uint64_t
scrFlushJob(const ScrConfig &config, int dataset, int rank,
            const std::vector<std::string> &files, int retry_limit)
{
    storage::Backend &store = storage::resolve(config.backend);
    // Transient fault windows strike each path independently, so the
    // retry budget must be spent per object: re-running the whole job
    // would burn attempts on paths that already landed and turn a
    // rideable window into a spurious permanent failure. These
    // retries are unpriced — the flushing rank already priced the
    // window's transient strikes in virtual time.
    const auto retried = [retry_limit](auto &&op) {
        return storage::withIoRetry(
            retry_limit, std::forward<decltype(op)>(op), [](int) {});
    };
    const std::string src_dir = Scr::datasetDir(config, dataset, rank);
    const std::string dst_dir =
        Scr::prefixDatasetDir(config, dataset, rank);
    const bool compress =
        storage::transformHasCompress(config.transform);
    std::uint64_t shipped = 0;
    for (const std::string &name : files) {
        const std::string src = src_dir + "/" + name;
        const std::string dst = dst_dir + "/" + name;
        bool copied = false;
        if (compress && !isSidecar(name)) {
            // Ship the compress envelope; fetch undoes it. Sidecars
            // keep covering the raw bytes the application wrote.
            const storage::Blob raw =
                retried([&] { return store.read(src); });
            if (raw) {
                retried([&] {
                    store.write(dst, storage::compressEncode(raw));
                });
                copied = true;
            }
        } else {
            copied = retried([&] { return store.copy(src, dst); });
        }
        if (!copied) {
            MATCH_DEBUG("SCR flush: lost routed file %s (rank %d); "
                        "dataset %d stays unflushed",
                        name.c_str(), rank, dataset);
            return 0;
        }
        std::size_t bytes = 0;
        store.size(dst, bytes);
        shipped += bytes;
    }
    static const char text[] = "flushed\n";
    const storage::Blob marker =
        storage::BlobPool::local().copyOf(text, sizeof(text) - 1);
    retried([&] {
        store.writeAtomic(Scr::flushedMarkerFile(config, dataset, rank),
                          marker);
    });
    return shipped;
}

} // anonymous namespace

void
Scr::flushToPrefix(int dataset, std::size_t bytes)
{
    std::vector<std::string> files = routedFiles_;
    if (config_.sdcChecks) {
        // Flush the integrity sidecars with their files, so a prefix
        // fetch restores a verifiable copy.
        for (const std::string &name : routedFiles_)
            files.push_back(name + ".crc32c");
    }
    // A permanently failed flush writes no flushed marker: the dataset
    // never becomes fetchable and restart falls back to the newest
    // fully flushed one — exactly the lost-cache soft-failure path.
    const int r = rank();
    const std::uint64_t shipped =
        io_.flush(dataset, r, [&](int retry_limit) {
            return scrFlushJob(config_, dataset, r, files, retry_limit);
        });
    // No occupancy bytes: SCR has no burst-buffer capacity bound, so
    // the channel must not accumulate occupants it never evicts.
    io_.channel().admit(shipped, size(), 1.0, 0, bytes);
    // Staging the dataset into the burst buffer serializes the rank;
    // the PFS streaming overlaps on the virtual drain channel.
    proc_.sleepFor(proc_.runtime().costModel().drainStage(bytes, size()));
    io_.channel().stamp(proc_.now());
}

void
Scr::completeCheckpoint(bool valid)
{
    MATCH_ASSERT(writingDataset_ != 0,
                 "SCR_Complete_checkpoint without start");
    CategoryScope scope(proc_, TimeCategory::CkptWrite);

    // Storage-fault pre-flight: pure plan queries, identical on every
    // rank, folded into SCR's own validity vote — an exhausted cache
    // tier abandons the dataset exactly like an application-invalid
    // one, and the run keeps computing.
    bool tier_ok = true;
    io_.setEpoch(writingDataset_);
    if (const storage::FaultInjectingBackend *faults = io_.faults()) {
        const storage::StorageFaultPlan &plan = faults->plan();
        const int limit = io_.retryLimit();
        const simmpi::CostModel &cm = proc_.runtime().costModel();
        double fault_penalty = 0.0;
        const bool needs_reads = config_.scheme != Redundancy::Single;
        // Partner redundancy copies, and a copy spends ONE retry
        // budget across its read and write legs — overlapping windows
        // that are each individually rideable can together exhaust it,
        // so the pre-flight must ask the combined-budget query or
        // applyRedundancy would fatal on a file that provably exists.
        const bool copies = config_.scheme == Redundancy::Partner;
        if (plan.writeExhausted(writingDataset_,
                                storage::PathClass::Local, limit) ||
            (needs_reads &&
             plan.readExhausted(writingDataset_,
                                storage::PathClass::Local, limit)) ||
            (copies &&
             plan.copyExhausted(writingDataset_,
                                storage::PathClass::Local,
                                storage::PathClass::Local, limit))) {
            tier_ok = false;
            fault_penalty += cm.ioRetryPenalty(1);
            storage::notePricedRetries(1);
            storage::noteSkippedEpoch();
            const int scheme_level =
                config_.scheme == Redundancy::Single    ? 1
                : config_.scheme == Redundancy::Partner ? 2
                                                        : 3;
            degradeEvents_.push_back({writingDataset_, scheme_level, 0,
                                      storage::PathClass::Local});
            if (rank() == 0)
                util::warn("SCR dataset %d abandoned: cache tier "
                           "exhausted past the retry budget",
                           writingDataset_);
        }
        if (plan.latencySpike(writingDataset_,
                              storage::PathClass::Local)) {
            fault_penalty += cm.faultLatencySpike();
            storage::noteLatencySpike();
        }
        if (fault_penalty > 0.0)
            proc_.sleepFor(fault_penalty);
    }

    // All ranks agree on validity (SCR's allreduce).
    const std::int64_t all_valid = proc_.allreduceInt(
        (valid && tier_ok) ? 1 : 0, simmpi::ReduceOp::LogicalAnd);

    std::size_t bytes = 0;
    for (const std::string &name : routedFiles_) {
        std::size_t file_bytes = 0;
        if (io_.store().size(
                datasetDir(config_, writingDataset_, rank()) + "/" + name,
                file_bytes))
            bytes += file_bytes;
    }

    if (all_valid) {
        if (config_.sdcChecks) {
            // Seal each routed file's CRC32C next to it before the
            // redundancy pass and the flush, so every later copy
            // (partner, prefix) carries its own integrity record.
            for (const std::string &name : routedFiles_) {
                const std::string path =
                    datasetDir(config_, writingDataset_, rank()) + "/" +
                    name;
                const storage::Blob file = io_.readSoft(path);
                if (!file)
                    continue;
                const std::string crc = std::to_string(file.crc32c());
                const storage::Blob sidecar =
                    storage::BlobPool::local().copyOf(crc.data(),
                                                      crc.size());
                io_.retry([&] {
                    io_.store().writeAtomic(path + ".crc32c", sidecar);
                });
            }
        }
        if (config_.scheme != Redundancy::Single)
            proc_.barrier(); // member files must exist before encoding
        applyRedundancy();
        if (config_.scheme != Redundancy::Single)
            proc_.barrier();
        if (rank() == 0) {
            static const char text[] = "committed\n";
            const storage::Blob marker =
                storage::BlobPool::local().copyOf(text, sizeof(text) - 1);
            io_.retry([&] {
                io_.store().writeAtomic(
                    markerFile(config_, writingDataset_), marker);
            });
        }
        int committed = 1;
        proc_.bcast(0, &committed, sizeof(committed));
        lastCommitted_ = writingDataset_;

    }

    // Modelled cost: map the scheme onto the storage-tier model.
    const int level = config_.scheme == Redundancy::Single  ? 1
                      : config_.scheme == Redundancy::Partner ? 2
                                                              : 3;
    proc_.sleepFor(proc_.runtime().costModel().checkpointWrite(
        level, bytes, size()));

    // Optional flush of every Nth dataset to the prefix directory:
    // admitted to the drain (after the cache write is priced, so the
    // flush's virtual enqueue instant is the staged dataset's commit).
    if (all_valid && config_.flushEvery > 0 &&
        lastCommitted_ % config_.flushEvery == 0) {
        bool flush_ok = true;
        if (const storage::FaultInjectingBackend *faults = io_.faults()) {
            const storage::StorageFaultPlan &plan = faults->plan();
            const int limit = io_.retryLimit();
            const simmpi::CostModel &cm = proc_.runtime().costModel();
            // Uncompressed flushes copy cache -> prefix, spending one
            // retry budget across both legs; ask the combined query so
            // a doomed flush is skipped (priced, recorded) instead of
            // burning the drain on a copy that cannot land.
            const bool flush_copies =
                !storage::transformHasCompress(config_.transform);
            if (plan.writeExhausted(lastCommitted_,
                                    storage::PathClass::Pfs, limit) ||
                (flush_copies &&
                 plan.copyExhausted(lastCommitted_,
                                    storage::PathClass::Local,
                                    storage::PathClass::Pfs, limit))) {
                // PFS out past the retry budget: skip the flush. The
                // dataset stays committed in the cache; with no
                // flushed markers it never poses as fetchable, so a
                // later restart falls back to the newest fully
                // drained dataset — graceful, never silently wrong.
                flush_ok = false;
                proc_.sleepFor(cm.ioRetryPenalty(limit));
                storage::notePricedRetries(limit);
                storage::noteDegradedCkpt();
                const int scheme_level =
                    config_.scheme == Redundancy::Single    ? 1
                    : config_.scheme == Redundancy::Partner ? 2
                                                            : 3;
                degradeEvents_.push_back(
                    {lastCommitted_, 4, scheme_level,
                     storage::PathClass::Pfs});
                if (rank() == 0)
                    util::warn("SCR dataset %d: PFS write-exhausted, "
                               "skipping prefix flush", lastCommitted_);
            } else {
                // Transient PFS strikes ride out on the flush's
                // unpriced retry loop: price the re-staging backoff
                // here, on the rank that flushes.
                const int strikes = plan.transientWriteStrikes(
                    lastCommitted_, storage::PathClass::Pfs, limit);
                if (strikes > 0) {
                    proc_.sleepFor(cm.ioRetryPenalty(strikes));
                    storage::notePricedRetries(
                        static_cast<std::uint64_t>(strikes));
                }
                if (plan.latencySpike(lastCommitted_,
                                      storage::PathClass::Pfs)) {
                    proc_.sleepFor(cm.faultLatencySpike());
                    storage::noteLatencySpike();
                }
            }
        }
        if (flush_ok)
            flushToPrefix(lastCommitted_, bytes);
    }

    // Drop the previous dataset (SCR keeps a bounded cache); its
    // flush, if any, already copied its files out.
    if (all_valid && lastCommitted_ >= 2) {
        const int prev = lastCommitted_ - 1;
        io_.store().removeTree(datasetDir(config_, prev, rank()));
        if (rank() == 0)
            io_.store().remove(markerFile(config_, prev));
    }
    writingDataset_ = 0;
    routedFiles_.clear();
}

void
Scr::startRestart()
{
    MATCH_ASSERT(restartDataset_ > 0, "SCR_Start_restart without restart");
    routedFiles_.clear();
}

bool
Scr::tryRebuildFromPartner(const std::string &name)
{
    const int holder = (rank() + 1) % size();
    const std::string src = datasetDir(config_, restartDataset_, holder) +
                            "-partner" + std::to_string(rank()) + "/" +
                            name;
    if (!io_.store().exists(src))
        return false;
    const std::string dst =
        datasetDir(config_, restartDataset_, rank()) + "/" + name;
    if (!io_.copySoft(src, dst))
        return false;
    if (config_.sdcChecks)
        io_.copySoft(src + ".crc32c", dst + ".crc32c");
    return true;
}

bool
Scr::tryRebuildFromXor(const std::string &name)
{
    // XOR the surviving members' blobs with the parity to recover this
    // rank's blob; only single-file datasets are rebuildable this way
    // (the benchmark writes one file per rank, like most SCR users).
    // The parity seeds a pooled accumulator; survivors are fetched
    // views XOR'd in place (a short survivor's zero pad is a no-op).
    const int gs = config_.groupSize;
    const int lo = (rank() / gs) * gs;
    const int hi = std::min(lo + gs, size());
    const storage::Blob parity =
        io_.readSoft(parityFile(config_, restartDataset_, lo / gs));
    if (!parity)
        return false; // parity lost (or unreadable past retries)
    storage::MutableBlob acc =
        storage::BlobPool::local().acquire(parity.size());
    std::memcpy(acc.data(), parity.data(), parity.size());
    storage::noteBlobCopy(parity.size());
    for (int m = lo; m < hi; ++m) {
        if (m == rank())
            continue;
        const storage::Blob blob = io_.readSoft(
            datasetDir(config_, restartDataset_, m) + "/" + name);
        if (!blob)
            return false; // two losses in the group
        const std::size_t n = std::min(blob.size(), acc.size());
        for (std::size_t i = 0; i < n; ++i)
            acc.data()[i] ^= blob.data()[i];
    }
    // The recovered blob is padded to the stripe; the application reads
    // the bytes it wrote (sizes are application knowledge under SCR).
    return io_.writeSoft(datasetDir(config_, restartDataset_, rank()) +
                             "/" + name,
                         std::move(acc).seal());
}

bool
Scr::tryFetchFromPrefix(const std::string &name)
{
    // SCR_Fetch: pull the flushed copy back into the cache. The flush
    // may still be draining in virtual time — wait it out before
    // looking.
    io_.barrier();
    const std::string src =
        prefixDatasetDir(config_, restartDataset_, rank()) + "/" + name;
    if (!io_.store().exists(src))
        return false;
    const std::string dst =
        datasetDir(config_, restartDataset_, rank()) + "/" + name;
    if (storage::transformHasCompress(config_.transform)) {
        // The prefix copy is a compress envelope: decode it back into
        // the cache. A malformed envelope fails the fetch softly, like
        // a lost prefix copy (the SDC ladder keeps walking).
        const storage::Blob envelope = io_.readSoft(src);
        if (!envelope)
            return false;
        const storage::Blob raw = storage::compressDecode(envelope);
        if (!raw)
            return false;
        proc_.sleepFor(proc_.runtime().costModel().transformDecompress(
            raw.size()));
        if (!io_.writeSoft(dst, raw))
            return false;
    } else if (!io_.copySoft(src, dst)) {
        return false;
    }
    if (config_.sdcChecks)
        io_.copySoft(src + ".crc32c", dst + ".crc32c");
    return true;
}

int
Scr::ensureRestartFile(const std::string &name)
{
    // Cached and rebuilt copies read at the redundancy tier's speed; a
    // prefix fetch is a PFS read.
    const int cacheTier = config_.scheme == Redundancy::Xor ? 3 : 1;
    if (io_.store().exists(datasetDir(config_, restartDataset_, rank()) +
                           "/" + name))
        return cacheTier;
    bool rebuilt = false;
    switch (config_.scheme) {
      case Redundancy::Single:
        break; // no redundancy tier; straight to the PFS copy
      case Redundancy::Partner:
        rebuilt = tryRebuildFromPartner(name);
        break;
      case Redundancy::Xor:
        rebuilt = tryRebuildFromXor(name);
        break;
    }
    if (rebuilt)
        return cacheTier;
    return tryFetchFromPrefix(name) ? 4 : 0;
}

bool
Scr::verifyRestartFile(const std::string &path)
{
    const storage::Blob file = io_.readSoft(path);
    if (!file)
        return false;
    proc_.sleepFor(
        proc_.runtime().costModel().scrubVerify(file.size()));
    const storage::Blob sidecar = io_.readSoft(path + ".crc32c");
    if (!sidecar) {
        // No surviving integrity record (e.g. an XOR-rebuilt file —
        // parity does not cover sidecars): accept unverified.
        return true;
    }
    const std::string text(
        reinterpret_cast<const char *>(sidecar.data()), sidecar.size());
    return std::strtoull(text.c_str(), nullptr, 10) == file.crc32c();
}

std::string
Scr::routeRestartFile(const std::string &name)
{
    MATCH_ASSERT(restartDataset_ > 0,
                 "SCR restart routing without a restart");
    CategoryScope scope(proc_, TimeCategory::CkptRead);
    for (;;) {
        // Windows are keyed on the dataset being restored; the SDC
        // ladder re-keys as it falls back to older datasets.
        io_.setEpoch(restartDataset_);
        const std::string path =
            datasetDir(config_, restartDataset_, rank()) + "/" + name;
        int tier = ensureRestartFile(name);
        if (tier == 0 && !config_.sdcChecks) {
            switch (config_.scheme) {
              case Redundancy::Single:
                util::fatal("SCR SINGLE cannot rebuild lost file %s "
                            "(no flushed PFS copy)", path.c_str());
              case Redundancy::Partner:
                util::fatal("SCR PARTNER rebuild failed for rank "
                            "%d: partner copy lost too and no "
                            "flushed PFS copy", rank());
              case Redundancy::Xor:
                util::fatal("SCR XOR rebuild failed: two losses in "
                            "rank %d's group and no flushed PFS "
                            "copy", rank());
            }
        }
        if (tier != 0 && config_.sdcChecks && !verifyRestartFile(path)) {
            // The cache copy is rot: drop it and give the redundancy
            // and prefix tiers one shot at producing a clean copy.
            io_.store().remove(path);
            tier = ensureRestartFile(name);
            if (tier != 0 && !verifyRestartFile(path))
                tier = 0;
            if (tier == 0)
                io_.store().remove(path);
        }
        if (tier != 0) {
            std::size_t bytes = 0;
            io_.store().size(path, bytes);
            proc_.sleepFor(proc_.runtime().costModel().checkpointRead(
                tier, bytes, size()));
            return path;
        }
        // SDC mode only: every tier of this dataset is lost or rot.
        // Never a silent wrong restore — fall back to the next older
        // committed dataset, or abort when none is left.
        const int older = newestCommittedDataset(restartDataset_);
        if (older <= 0)
            util::fatal("SCR restart: no dataset passes SDC "
                        "verification for rank %d", rank());
        util::warn("SCR restart: dataset %d failed SDC verification "
                   "(rank %d); falling back to dataset %d",
                   restartDataset_, rank(), older);
        restartDataset_ = older;
    }
}

void
Scr::completeRestart(bool valid)
{
    MATCH_ASSERT(restartDataset_ > 0,
                 "SCR_Complete_restart without a restart");
    (void)valid;
    restartDataset_ = 0;
}

void
Scr::finalize()
{
    if (!finalized_) {
        // scr_postrun: the job drains its pending flushes before
        // releasing the allocation; the residual wait is flush time
        // the overlap could not hide.
        CategoryScope scope(proc_, TimeCategory::CkptWrite);
        io_.barrier();
    }
    finalized_ = true;
}

} // namespace match::scr
