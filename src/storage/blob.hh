/**
 * @file
 * Refcounted immutable byte buffers and the pool that recycles them:
 * the zero-copy currency of the checkpoint data plane.
 *
 * Every checkpoint byte used to be memcpy'd at least twice on the hot
 * path — once serializing the protected regions into a staging vector,
 * then again into the storage backend's own vector (and a third time
 * for partner copies, PFS flushes and read-backs). Blob collapses all of that into reference counting:
 *
 *  - Blob: an immutable, refcounted view of a byte buffer. Copying a
 *    Blob copies a handle, never bytes. A Blob stored in a MemBackend
 *    and handed back by read() stays valid for as long as any handle
 *    lives — overwriting or removing the path cannot invalidate it.
 *  - MutableBlob: the single-owner staging form. A client acquires one
 *    from a pool, fills it, and seals it into a Blob; sealing is a
 *    pointer move.
 *  - BlobPool: a slab-style recycler of checkpoint-sized buffers,
 *    bucketed by power-of-two capacity. Dropping the last handle to a
 *    pooled Blob returns its buffer to the pool that allocated it (or
 *    frees it when the pool is gone — blobs may outlive their pool).
 *    Each grid worker thread owns its own pool (BlobPool::local()), so
 *    workers recycle buffers without sharing a lock.
 *
 * Accounting: the pool layer counts buffer allocations, pool hits and
 * every payload byte the *storage data plane* memcpys (raw bytes
 * staged for a write, DiskBackend reads) — application staging such
 * as region serialization is not a data-plane copy. The counters make
 * the zero-copy claim measurable: on the MemBackend checkpoint hot
 * path, bytesCopied stays ~0 while bytesStored counts the payload.
 *
 * Thread-safety: BlobPool is safe to share across threads (a buffer
 * may be released on a thread other than the one that acquired it);
 * Blob handles are as thread-safe as shared_ptr. A MutableBlob must be
 * confined to one thread until sealed.
 */

#ifndef MATCH_STORAGE_BLOB_HH
#define MATCH_STORAGE_BLOB_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace match::storage
{

namespace detail
{
/** The actual allocation: a vector so read paths can wrap an
 *  already-filled buffer without copying. */
struct BlobBuf
{
    std::vector<std::uint8_t> bytes;

    /** Lazily cached CRC32C of `bytes` (kCrcUnset until computed).
     *  Mutable + atomic: the checksum is computed on demand through
     *  const handles, possibly from several threads at once — both
     *  racers compute and store the same value, so a relaxed data
     *  race on the cache slot is benign. */
    static constexpr std::uint64_t kCrcUnset = ~std::uint64_t{0};
    mutable std::atomic<std::uint64_t> crc{kCrcUnset};
};
} // namespace detail

class BlobPool;
class MutableBlob;

/** Immutable, refcounted byte buffer. Copies are handle copies. */
class Blob
{
  public:
    /** Invalid handle ("no object"); distinct from a zero-byte blob. */
    Blob() = default;

    /** Wrap an already-filled vector without copying (read paths). */
    static Blob fromVector(std::vector<std::uint8_t> &&bytes);

    const std::uint8_t *
    data() const
    {
        return buf_ ? buf_->bytes.data() : nullptr;
    }

    std::size_t
    size() const
    {
        return buf_ ? buf_->bytes.size() : 0;
    }

    /** Whether this handle references a buffer at all. */
    explicit operator bool() const { return buf_ != nullptr; }

    /** Live handles to the underlying buffer (tests/diagnostics). */
    long refCount() const { return buf_ ? buf_.use_count() : 0; }

    /**
     * CRC32C of the payload, computed once per buffer and cached: the
     * checkpoint path checksums a sealed snapshot exactly once, and
     * every later consumer (partner copy, recovery verify, scrub)
     * reuses the cached value for free. 0 for a null handle.
     */
    std::uint32_t crc32c() const;

  private:
    friend class MutableBlob;
    explicit Blob(std::shared_ptr<const detail::BlobBuf> buf)
        : buf_(std::move(buf))
    {}

    std::shared_ptr<const detail::BlobBuf> buf_;
};

/** Single-owner staging buffer; seal() freezes it into a Blob. */
class MutableBlob
{
  public:
    MutableBlob() = default;

    std::uint8_t *
    data()
    {
        return buf_ ? buf_->bytes.data() : nullptr;
    }

    std::size_t
    size() const
    {
        return buf_ ? buf_->bytes.size() : 0;
    }

    explicit operator bool() const { return buf_ != nullptr; }

    /**
     * Freeze into an immutable Blob (a pointer move, never a copy).
     * When the last Blob handle drops, the buffer returns to the pool
     * it came from — or is freed if that pool no longer exists.
     */
    Blob seal() &&;

  private:
    friend class BlobPool;

    detail::BlobBuf *buf_ = nullptr; ///< owned until sealed/destroyed
    std::weak_ptr<void> pool_;       ///< recycle target (type-erased)

  public:
    ~MutableBlob();
    MutableBlob(MutableBlob &&other) noexcept;
    MutableBlob &operator=(MutableBlob &&other) noexcept;
    MutableBlob(const MutableBlob &) = delete;
    MutableBlob &operator=(const MutableBlob &) = delete;
};

/** Allocation/copy counters; see BlobPool::stats()/globalStats(). */
struct BlobStats
{
    std::uint64_t allocs = 0;      ///< buffers newly allocated
    std::uint64_t poolHits = 0;    ///< buffers recycled from a pool
    std::uint64_t bytesCopied = 0; ///< data-plane payload bytes memcpy'd
    std::uint64_t bytesStored = 0; ///< payload bytes admitted to MemBackend
};

/** Count a data-plane memcpy not attributable to a pool (DiskBackend
 *  reads, recovery copies). Feeds BlobPool::globalStats(). */
void noteBlobCopy(std::size_t bytes);

/** Count payload bytes admitted to an in-memory object store, whether
 *  they were copied or ownership-transferred (the denominator of the
 *  zero-copy ratio). */
void noteBlobStore(std::size_t bytes);

/** Slab recycler of checkpoint-sized buffers (see file comment). */
class BlobPool
{
  public:
    /** Shared pool state; buffers outliving the pool release through a
     *  weak reference to it (opaque outside blob.cc). */
    struct Core;

    BlobPool();
    ~BlobPool();
    BlobPool(const BlobPool &) = delete;
    BlobPool &operator=(const BlobPool &) = delete;

    /** A buffer of exactly `bytes` bytes with unspecified contents
     *  (recycled when a large-enough buffer is pooled). The caller must
     *  fill every byte it stores. */
    MutableBlob acquire(std::size_t bytes);

    /** acquire() plus a zero fill (for accumulation targets such as
     *  parity rows that rely on a zeroed seed). */
    MutableBlob acquireZeroed(std::size_t bytes);

    /** Stage a copy of caller memory into a sealed blob; counts the
     *  memcpy in bytesCopied (this is the non-zero-copy write path). */
    Blob copyOf(const void *data, std::size_t bytes);

    /** This pool's counters. */
    BlobStats stats() const;

    /** Process-wide counters: every pool plus the unpooled data-plane
     *  copies reported through noteBlobCopy()/noteBlobStore(). Benches
     *  snapshot-and-diff this around a measured region. */
    static BlobStats globalStats();

    /** The calling thread's own pool. Grid workers allocate and recycle
     *  through it, so a worker's hot buffers are reused by that worker
     *  alone, with no cross-thread contention. */
    static BlobPool &local();

  private:
    MutableBlob acquireImpl(std::size_t bytes, bool &recycled);

    std::shared_ptr<Core> core_;
};

} // namespace match::storage

#endif // MATCH_STORAGE_BLOB_HH
