#include "src/storage/blob.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <mutex>

#include "src/util/crc32c.hh"

namespace match::storage
{

namespace
{

/** Process-wide aggregates (every pool + unpooled data-plane copies). */
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_poolHits{0};
std::atomic<std::uint64_t> g_bytesCopied{0};
std::atomic<std::uint64_t> g_bytesStored{0};

constexpr std::size_t kMinCapacity = 4096; ///< smallest slab class
constexpr std::size_t kClasses = 48;       ///< up to 2^47-byte buffers
/** Idle memory bound per class: a whole run's checkpoint set (e.g. 64
 *  ranks x a few objects) dies at run teardown and must fit back into
 *  the pool for the worker's next run to hit, so the bound is in bytes
 *  rather than buffers — small classes pool ~1k buffers, a 4 MiB
 *  class pools one. Overflow frees. */
constexpr std::size_t kMaxFreeBytesPerClass = 4 << 20;

/** Smallest class whose capacity (2^class) holds `bytes`. */
std::size_t
classFor(std::size_t bytes)
{
    std::size_t cls = 12; // 2^12 == kMinCapacity
    while ((std::size_t{1} << cls) < bytes && cls + 1 < kClasses)
        ++cls;
    return cls;
}

/** Largest class whose capacity is <= `capacity` (release side: a
 *  buffer filed under class c is guaranteed to hold 2^c bytes). */
std::size_t
releaseClassFor(std::size_t capacity)
{
    std::size_t cls = 12;
    while (cls + 1 < kClasses &&
           (std::size_t{1} << (cls + 1)) <= capacity)
        ++cls;
    return cls;
}

} // anonymous namespace

void
noteBlobCopy(std::size_t bytes)
{
    g_bytesCopied.fetch_add(bytes, std::memory_order_relaxed);
}

void
noteBlobStore(std::size_t bytes)
{
    g_bytesStored.fetch_add(bytes, std::memory_order_relaxed);
}

/** Shared state of one pool; buffers may outlive the BlobPool object,
 *  so releases go through a weak_ptr to this. */
struct BlobPool::Core
{
    std::mutex mutex;
    std::array<std::vector<detail::BlobBuf *>, kClasses> free;
    std::atomic<std::uint64_t> allocs{0};
    std::atomic<std::uint64_t> poolHits{0};
    std::atomic<std::uint64_t> bytesCopied{0};

    ~Core()
    {
        for (auto &bucket : free)
            for (detail::BlobBuf *buf : bucket)
                delete buf;
    }

    /** Pop a recycled buffer of at least `bytes`, or nullptr. */
    detail::BlobBuf *
    take(std::size_t bytes)
    {
        const std::size_t cls = classFor(bytes);
        std::lock_guard<std::mutex> lock(mutex);
        auto &bucket = free[cls];
        if (bucket.empty())
            return nullptr;
        detail::BlobBuf *buf = bucket.back();
        bucket.pop_back();
        return buf;
    }

    /** File a released buffer for reuse (bounded; overflow frees). */
    void
    put(detail::BlobBuf *buf)
    {
        const std::size_t cls = releaseClassFor(buf->bytes.capacity());
        const std::size_t limit =
            std::max<std::size_t>(kMaxFreeBytesPerClass >> cls, 1);
        {
            std::lock_guard<std::mutex> lock(mutex);
            auto &bucket = free[cls];
            if (bucket.size() < limit) {
                bucket.push_back(buf);
                return;
            }
        }
        delete buf;
    }
};

namespace
{

/** Return a buffer to its origin pool, or free it when the pool died
 *  first (blobs legitimately outlive their worker's pool). */
void
recycle(const std::weak_ptr<void> &pool, detail::BlobBuf *buf)
{
    if (buf == nullptr)
        return;
    if (const auto core = std::static_pointer_cast<BlobPool::Core>(
            pool.lock())) {
        core->put(buf);
        return;
    }
    delete buf;
}

} // anonymous namespace

// ---------------------------------------------------------------------------
// Blob / MutableBlob
// ---------------------------------------------------------------------------

Blob
Blob::fromVector(std::vector<std::uint8_t> &&bytes)
{
    auto buf = std::make_shared<detail::BlobBuf>();
    buf->bytes = std::move(bytes);
    return Blob(std::move(buf));
}

Blob
zeroBlob(std::size_t bytes)
{
    // A handful of sizes covers a job (one image size per rank shape);
    // the oldest entry makes room for a new size.
    constexpr std::size_t kSizes = 8;
    thread_local std::vector<Blob> cache;
    for (const Blob &blob : cache)
        if (blob.size() == bytes)
            return blob;
    if (cache.size() == kSizes)
        cache.erase(cache.begin());
    cache.push_back(Blob::fromVector(std::vector<std::uint8_t>(bytes)));
    return cache.back();
}

std::uint32_t
Blob::crc32c() const
{
    if (!buf_)
        return 0;
    std::uint64_t cached = buf_->crc.load(std::memory_order_relaxed);
    if (cached == detail::BlobBuf::kCrcUnset) {
        cached = util::crc32c(buf_->bytes.data(), buf_->bytes.size());
        buf_->crc.store(cached, std::memory_order_relaxed);
    }
    return static_cast<std::uint32_t>(cached);
}

MutableBlob::~MutableBlob()
{
    recycle(pool_, buf_);
}

MutableBlob::MutableBlob(MutableBlob &&other) noexcept
    : buf_(other.buf_), pool_(std::move(other.pool_))
{
    other.buf_ = nullptr;
}

MutableBlob &
MutableBlob::operator=(MutableBlob &&other) noexcept
{
    if (this != &other) {
        recycle(pool_, buf_);
        buf_ = other.buf_;
        pool_ = std::move(other.pool_);
        other.buf_ = nullptr;
    }
    return *this;
}

Blob
MutableBlob::seal() &&
{
    if (buf_ == nullptr)
        return Blob();
    detail::BlobBuf *buf = buf_;
    buf_ = nullptr;
    // The deleter routes the buffer back to the pool; aliasing through
    // a shared_ptr keeps seal() a pointer move.
    std::shared_ptr<const detail::BlobBuf> shared(
        buf, [pool = std::move(pool_)](const detail::BlobBuf *p) {
            recycle(pool, const_cast<detail::BlobBuf *>(p));
        });
    return Blob(std::move(shared));
}

// ---------------------------------------------------------------------------
// BlobPool
// ---------------------------------------------------------------------------

BlobPool::BlobPool() : core_(std::make_shared<Core>()) {}

BlobPool::~BlobPool() = default;

MutableBlob
BlobPool::acquire(std::size_t bytes)
{
    bool recycled = false;
    return acquireImpl(bytes, recycled);
}

MutableBlob
BlobPool::acquireZeroed(std::size_t bytes)
{
    bool recycled = false;
    MutableBlob blob = acquireImpl(bytes, recycled);
    // A fresh buffer is already zeroed by its value-initializing
    // resize; only recycled buffers carry stale bytes.
    if (recycled && bytes > 0)
        std::memset(blob.data(), 0, bytes);
    return blob;
}

MutableBlob
BlobPool::acquireImpl(std::size_t bytes, bool &recycled)
{
    detail::BlobBuf *buf = core_->take(bytes);
    recycled = buf != nullptr;
    if (recycled) {
        // The recycled buffer is about to be refilled: its cached
        // checksum describes the previous tenant's payload.
        buf->crc.store(detail::BlobBuf::kCrcUnset,
                       std::memory_order_relaxed);
        core_->poolHits.fetch_add(1, std::memory_order_relaxed);
        g_poolHits.fetch_add(1, std::memory_order_relaxed);
    } else {
        buf = new detail::BlobBuf();
        buf->bytes.reserve(std::size_t{1} << classFor(bytes));
        core_->allocs.fetch_add(1, std::memory_order_relaxed);
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    }
    buf->bytes.resize(bytes);
    MutableBlob blob;
    blob.buf_ = buf;
    blob.pool_ = std::weak_ptr<void>(core_);
    return blob;
}

Blob
BlobPool::copyOf(const void *data, std::size_t bytes)
{
    MutableBlob blob = acquire(bytes);
    if (bytes > 0)
        std::memcpy(blob.data(), data, bytes);
    core_->bytesCopied.fetch_add(bytes, std::memory_order_relaxed);
    g_bytesCopied.fetch_add(bytes, std::memory_order_relaxed);
    return std::move(blob).seal();
}

BlobStats
BlobPool::stats() const
{
    BlobStats stats;
    stats.allocs = core_->allocs.load(std::memory_order_relaxed);
    stats.poolHits = core_->poolHits.load(std::memory_order_relaxed);
    stats.bytesCopied =
        core_->bytesCopied.load(std::memory_order_relaxed);
    return stats;
}

BlobStats
BlobPool::globalStats()
{
    BlobStats stats;
    stats.allocs = g_allocs.load(std::memory_order_relaxed);
    stats.poolHits = g_poolHits.load(std::memory_order_relaxed);
    stats.bytesCopied = g_bytesCopied.load(std::memory_order_relaxed);
    stats.bytesStored = g_bytesStored.load(std::memory_order_relaxed);
    return stats;
}

BlobPool &
BlobPool::local()
{
    thread_local BlobPool pool;
    return pool;
}

} // namespace match::storage
