/**
 * @file
 * Blob/BlobPool semantics: refcounted immutability (a read handle
 * survives remove and overwrite of its path), pool recycling that never
 * aliases live blobs, exact-once copy accounting in Backend::read(),
 * and a concurrency
 * stress of pool recycle racing drain traffic (the TSAN CI lane runs
 * this under -fsanitize=thread).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/storage/backend.hh"
#include "src/storage/blob.hh"
#include "src/storage/drain.hh"

using namespace match;
using match::storage::Backend;
using match::storage::Blob;
using match::storage::BlobPool;
using match::storage::Kind;
using match::storage::MutableBlob;

namespace
{

Blob
sealText(BlobPool &pool, const std::string &text)
{
    MutableBlob blob = pool.acquire(text.size());
    std::memcpy(blob.data(), text.data(), text.size());
    return std::move(blob).seal();
}

std::string
asText(const Blob &blob)
{
    return std::string(reinterpret_cast<const char *>(blob.data()),
                       blob.size());
}

} // namespace

TEST(Blob, HandlesShareOneBufferByRefcount)
{
    BlobPool pool;
    Blob a = sealText(pool, "shared");
    Blob b = a;
    EXPECT_EQ(a.data(), b.data());
    EXPECT_EQ(a.refCount(), 2);
    b = Blob();
    EXPECT_EQ(a.refCount(), 1);
    EXPECT_EQ(asText(a), "shared");
}

TEST(Blob, InvalidHandleIsDistinctFromZeroByteBlob)
{
    // "No object" (default handle) and "zero-byte object" must stay
    // distinguishable: Backend::read() reports absence with the former.
    BlobPool pool;
    EXPECT_FALSE(Blob());
    const Blob zero = sealText(pool, "");
    EXPECT_TRUE(zero);
    EXPECT_EQ(zero.size(), 0u);
}

TEST(Blob, FromVectorWrapsWithoutCopy)
{
    std::vector<std::uint8_t> bytes{1, 2, 3, 4};
    const std::uint8_t *raw = bytes.data();
    const Blob blob = Blob::fromVector(std::move(bytes));
    EXPECT_EQ(blob.data(), raw);
    EXPECT_EQ(blob.size(), 4u);
}

TEST(BlobPool, RecyclesReleasedBuffersAndCountsHits)
{
    BlobPool pool;
    {
        Blob blob = sealText(pool, "first use of the buffer");
        EXPECT_EQ(pool.stats().allocs, 1u);
        EXPECT_EQ(pool.stats().poolHits, 0u);
    } // last handle dropped: buffer returns to the pool
    Blob again = sealText(pool, "second use, same slab class");
    EXPECT_EQ(pool.stats().allocs, 1u);
    EXPECT_EQ(pool.stats().poolHits, 1u);
}

TEST(BlobPool, ReuseNeverAliasesLiveBlobs)
{
    BlobPool pool;
    Blob live = sealText(pool, "still referenced");
    Blob other = sealText(pool, "must get its own buffer");
    EXPECT_NE(live.data(), other.data());
    // The live blob's bytes are untouched by the second acquisition.
    EXPECT_EQ(asText(live), "still referenced");
    EXPECT_EQ(pool.stats().poolHits, 0u); // nothing was free to reuse
}

TEST(BlobPool, BlobsOutliveTheirPool)
{
    Blob survivor;
    {
        BlobPool pool;
        survivor = sealText(pool, "outlives the pool");
    } // pool destroyed first; release must free, not recycle
    EXPECT_EQ(asText(survivor), "outlives the pool");
}

TEST(BlobPool, CopyOfCountsTheMemcpy)
{
    BlobPool pool;
    const std::string text = "counted copy";
    const Blob blob = pool.copyOf(text.data(), text.size());
    EXPECT_EQ(asText(blob), text);
    EXPECT_EQ(pool.stats().bytesCopied, text.size());
}

TEST(MemBackendBlob, ReadSurvivesRemoveOfThePath)
{
    const auto backend = storage::makeBackend(Kind::Mem);
    const std::string text = "kept alive by the handle";
    backend->write("/job/blob", sealText(BlobPool::local(), text));
    const Blob view = backend->read("/job/blob");
    backend->remove("/job/blob");
    EXPECT_FALSE(backend->exists("/job/blob"));
    EXPECT_EQ(asText(view), text);
}

TEST(MemBackendBlob, ReadSurvivesOverwriteOfThePath)
{
    const auto backend = storage::makeBackend(Kind::Mem);
    backend->write("/job/blob", sealText(BlobPool::local(), "old contents"));
    const Blob old_view = backend->read("/job/blob");
    backend->write("/job/blob", sealText(BlobPool::local(), "new"));
    EXPECT_EQ(asText(old_view), "old contents");
    EXPECT_EQ(asText(backend->read("/job/blob")), "new");
}

TEST(MemBackendBlob, CopyIsARefcountBumpNotAByteCopy)
{
    const auto backend = storage::makeBackend(Kind::Mem);
    backend->write("/job/src", sealText(BlobPool::local(), "immutable"));
    const auto before = BlobPool::globalStats().bytesCopied;
    ASSERT_TRUE(backend->copy("/job/src", "/job/dst"));
    EXPECT_EQ(BlobPool::globalStats().bytesCopied, before);
    EXPECT_EQ(backend->read("/job/src").data(),
              backend->read("/job/dst").data());
}

TEST(ReadAccounting, CopiesNothingOnMemBackend)
{
    const auto backend = storage::makeBackend(Kind::Mem);
    backend->write("/job/blob", sealText(BlobPool::local(), "zero copy"));
    const auto before = BlobPool::globalStats().bytesCopied;
    const Blob a = backend->read("/job/blob");
    const Blob b = backend->read("/job/blob");
    ASSERT_TRUE(a);
    EXPECT_EQ(a.data(), b.data()); // same stored buffer, no copies
    EXPECT_EQ(BlobPool::globalStats().bytesCopied, before);
    EXPECT_FALSE(backend->read("/job/absent"));
}

TEST(ReadAccounting, CopiesExactlyOnceOnDiskBackend)
{
    const auto backend = storage::makeBackend(Kind::Disk);
    const std::string root =
        (std::filesystem::temp_directory_path() / "match-blob-tests")
            .string();
    backend->removeTree(root);
    const std::string text = "one copy off the disk";
    backend->write(root + "/blob", sealText(BlobPool::local(), text));
    const auto before = BlobPool::globalStats().bytesCopied;
    const Blob blob = backend->read(root + "/blob");
    ASSERT_TRUE(blob);
    EXPECT_EQ(asText(blob), text);
    EXPECT_EQ(BlobPool::globalStats().bytesCopied,
              before + text.size());
    EXPECT_FALSE(backend->read(root + "/absent"));
    backend->removeTree(root);
}

TEST(BlobStress, ConcurrentPoolRecycleAndDrainTraffic)
{
    // One shared pool and backend, hammered from three sides at once:
    // writers stage blobs and transfer them to the store, a drain
    // worker executes flush jobs holding blob refs, and the main
    // thread overwrites/removes the same paths. Every held view must
    // keep serving the exact bytes it was taken over — recycled
    // buffers may only be handed out once their last ref dropped.
    const auto backend = storage::makeBackend(Kind::Mem);
    storage::DrainWorker drain(storage::DrainMode::Async, 4);
    constexpr int kThreads = 4, kRounds = 64;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            BlobPool &pool = BlobPool::local();
            const std::string path =
                "/stress/worker" + std::to_string(t);
            for (int round = 0; round < kRounds; ++round) {
                const std::string text =
                    path + "#" + std::to_string(round);
                backend->write(path, sealText(pool, text));
                const Blob view = backend->read(path);
                drain.enqueue([view, text]() -> std::uint64_t {
                    // The drain holds a ref: the payload must stay
                    // intact whatever the writers recycle meanwhile.
                    EXPECT_EQ(asText(view), text);
                    return view.size();
                });
                backend->copy(path, path + ".mirror");
                if (round % 8 == 7)
                    backend->remove(path);
                EXPECT_EQ(asText(view), text);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    drain.quiesce();
    EXPECT_EQ(drain.completedJobs(),
              static_cast<std::uint64_t>(kThreads) * kRounds);
}
