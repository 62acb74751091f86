/**
 * @file
 * Pluggable storage backend for the checkpoint libraries (FTI, SCR).
 *
 * The simulated checkpoint/restart stack originally spoke to the real
 * filesystem for every operation — directory creation, per-rank blob
 * writes, read-backs to feed the Reed-Solomon encoder — so syscalls,
 * not simulation, dominated the wall-clock of a grid sweep. The
 * Backend interface routes all of that traffic through one seam:
 *
 *  - MemBackend: a thread-safe in-process object store keyed by path.
 *    The default for simulation runs; the hot checkpoint path makes
 *    zero syscalls.
 *  - DiskBackend: the original `<filesystem>`/fstream semantics
 *    (plain writes, tmp+rename atomic commits). Use it when the
 *    sandbox must be inspectable on disk, e.g. by external tools or
 *    the FTI/SCR unit tests that simulate storage loss by deleting
 *    files.
 *
 * Paths keep their meaning in both backends: "directories" are just
 * the '/'-separated prefix structure of object names, so the FTI and
 * SCR path helpers work unchanged. Objects written under one backend
 * are invisible to the other.
 *
 * Thread-safety: every method is safe to call concurrently on one
 * instance. read() returns a refcounted Blob handle that stays valid
 * for as long as the caller holds it — overwriting or removing the
 * path cannot invalidate a blob already read.
 *
 * Zero-copy data plane: one read and one write per durability, all in
 * Blobs. MemBackend's read() hands out the stored handle and its
 * writes store the caller's sealed buffer, so neither moves a byte;
 * DiskBackend reads a file once into a fresh buffer. Callers holding
 * raw bytes stage them with BlobPool::copyOf (the one counted copy).
 *
 * Directories are implicit in object names on both backends:
 * DiskBackend creates a missing parent directory when a write or copy
 * first fails to open its destination, then retries once.
 *
 * Error contract: an operation that cannot complete throws
 * StorageError carrying the operation, the path and (for DiskBackend)
 * the errno — it never commits a truncated object and never aborts the
 * process. "Object does not exist" is not an error: read() reports it
 * as an invalid Blob, size()/copy() through their boolean results.
 * Checkpoint clients wrap backend calls in a bounded, virtual-time-
 * priced retry loop (see src/storage/faults.hh) so a transient tier
 * fault degrades gracefully instead of killing a run.
 */

#ifndef MATCH_STORAGE_BACKEND_HH
#define MATCH_STORAGE_BACKEND_HH

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/storage/blob.hh"

namespace match::storage
{

/**
 * Structured storage failure: the operation that failed, the object
 * path it failed on, and the OS errno when one exists (0 for injected
 * or logical faults). Thrown instead of aborting so checkpoint clients
 * can retry, demote to a healthier tier, or vote the object lost on
 * the recovery ladder.
 */
class StorageError : public std::runtime_error
{
  public:
    StorageError(std::string op, std::string path, int errnum,
                 const std::string &detail)
        : std::runtime_error("storage " + op + " failed: " + path +
                             (detail.empty() ? "" : " (" + detail + ")")),
          op_(std::move(op)), path_(std::move(path)), errnum_(errnum)
    {}

    /** Operation label ("write", "writeAtomic", "read", "rename"). */
    const std::string &op() const { return op_; }

    /** Object path the operation failed on. */
    const std::string &path() const { return path_; }

    /** OS errno, or 0 when the failure carries none (injected). */
    int errnum() const { return errnum_; }

  private:
    std::string op_;
    std::string path_;
    int errnum_ = 0;
};

/** Selectable backend implementations. */
enum class Kind
{
    Mem,  ///< in-process object store (simulation default)
    Disk, ///< real filesystem (inspectable sandboxes)
};

/** Lower-case label ("mem", "disk") for logs and perf records. */
const char *kindName(Kind kind);

/** Abstract object store addressed by filesystem-style paths. */
class Backend
{
  public:
    virtual ~Backend() = default;

    virtual Kind kind() const = 0;

    /**
     * Read a whole object: a refcounted handle that stays valid for as
     * long as the caller holds it, even across overwrite/remove of the
     * path. MemBackend returns the stored handle (zero copy);
     * DiskBackend reads the file once into a fresh buffer. An invalid
     * Blob when the object does not exist.
     */
    virtual Blob read(const std::string &path) const = 0;

    /** Create or replace an object with `blob`'s bytes (MemBackend
     *  keeps the handle itself). Throws StorageError on I/O failure
     *  (path + errno surfaced; never commits a truncation). */
    virtual void write(const std::string &path, Blob blob) = 0;

    /**
     * Atomically create or replace an object: a reader never observes
     * a partial write (DiskBackend: tmp + rename; MemBackend: writes
     * are atomic by construction). Throws StorageError on I/O failure,
     * leaving the previous object (if any) intact.
     */
    virtual void writeAtomic(const std::string &path, Blob blob) = 0;

    /** Whether an object exists at `path` (a path that only prefixes
     *  other objects' names is not one). */
    virtual bool exists(const std::string &path) const = 0;

    /** Object size. @retval false when it does not exist. */
    virtual bool size(const std::string &path,
                      std::size_t &bytes) const = 0;

    /** Copy one object. @retval false when the source is missing. */
    virtual bool copy(const std::string &src, const std::string &dst) = 0;

    /** Remove one object (no-op when absent). */
    virtual void remove(const std::string &path) = 0;

    /**
     * Remove every object under `dir` (recursive), plus a plain object
     * stored at exactly `dir`. No-op when nothing matches. Trailing
     * slashes on `dir` are ignored; an empty (or root) prefix is a
     * no-op — no caller legitimately sweeps the whole store.
     */
    virtual void removeTree(const std::string &dir) = 0;

    /** Names of the immediate children of `dir` (files and
     *  subdirectories), in unspecified order. Empty when `dir` is
     *  missing or names a plain object. Trailing slashes are ignored;
     *  an empty (or root) prefix yields an empty list. */
    virtual std::vector<std::string>
    listDir(const std::string &dir) const = 0;
};

/** Create a fresh backend of the given kind. */
std::shared_ptr<Backend> makeBackend(Kind kind);

/** Process-wide shared DiskBackend (stateless, always available). */
Backend &sharedDiskBackend();

/** The backend a config carries, or the shared DiskBackend when the
 *  config predates the storage layer (null pointer). */
inline Backend &
resolve(const std::shared_ptr<Backend> &backend)
{
    return backend ? *backend : sharedDiskBackend();
}

} // namespace match::storage

#endif // MATCH_STORAGE_BACKEND_HH
