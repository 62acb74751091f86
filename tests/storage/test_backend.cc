/**
 * @file
 * Storage backend contract tests: MemBackend and DiskBackend must agree
 * on every operation's observable behaviour (the FTI/SCR stacks switch
 * between them expecting identical semantics), and MemBackend must
 * additionally honour its zero-copy read() guarantee.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/storage/backend.hh"

namespace fs = std::filesystem;
using namespace match;
using match::storage::Backend;
using match::storage::Kind;

namespace
{

storage::Blob
blobOf(const std::string &text)
{
    return storage::BlobPool::local().copyOf(text.data(), text.size());
}

/** An object's bytes as text; "<missing>" for an invalid blob. */
std::string
textOf(const storage::Blob &blob)
{
    if (!blob)
        return "<missing>";
    return {reinterpret_cast<const char *>(blob.data()), blob.size()};
}

} // namespace

class BackendContract : public ::testing::TestWithParam<Kind>
{
  protected:
    void
    SetUp() override
    {
        backend_ = storage::makeBackend(GetParam());
        root_ = (fs::temp_directory_path() / "match-storage-tests" /
                 storage::kindName(GetParam()))
                    .string();
        backend_->removeTree(root_);
    }

    void
    TearDown() override
    {
        backend_->removeTree(root_);
    }

    void
    put(const std::string &path, const std::string &text)
    {
        backend_->write(path, blobOf(text));
    }

    std::string
    get(const std::string &path) const
    {
        return textOf(backend_->read(path));
    }

    std::shared_ptr<Backend> backend_;
    std::string root_;
};

TEST_P(BackendContract, ReadBackWhatWasWritten)
{
    const std::string path = root_ + "/blob.bin";
    put(path, "hello backend");
    EXPECT_EQ(get(path), "hello backend");
}

TEST_P(BackendContract, MissingObjectReadsInvalid)
{
    EXPECT_FALSE(backend_->read(root_ + "/absent"));
    EXPECT_FALSE(backend_->exists(root_ + "/absent"));
    std::size_t n = 0;
    EXPECT_FALSE(backend_->size(root_ + "/absent", n));
}

TEST_P(BackendContract, ExistsAndSizeSeeOnlyObjects)
{
    // A path that only prefixes stored objects (a directory on disk)
    // is not an object: exists() and size() answer as for a missing one.
    put(root_ + "/job/rank0/ckpt.fti", "payload");
    EXPECT_TRUE(backend_->exists(root_ + "/job/rank0/ckpt.fti"));
    std::size_t n = 0;
    ASSERT_TRUE(backend_->size(root_ + "/job/rank0/ckpt.fti", n));
    EXPECT_EQ(n, 7u);
    for (const std::string &prefix :
         {root_ + "/job", root_ + "/job/rank0", root_ + "/job/rank0/"}) {
        EXPECT_FALSE(backend_->exists(prefix)) << prefix;
        EXPECT_FALSE(backend_->size(prefix, n)) << prefix;
    }
}

TEST_P(BackendContract, OverwriteReplacesContent)
{
    const std::string path = root_ + "/blob.bin";
    put(path, "first version, long");
    put(path, "second");
    EXPECT_EQ(get(path), "second");
}

TEST_P(BackendContract, StagedBlobWritesReadBack)
{
    // Both backends must accept pool-staged sealed blobs through
    // either durability and serve the same bytes back.
    storage::MutableBlob a = storage::BlobPool::local().acquire(7);
    std::memcpy(a.data(), "payload", 7);
    backend_->write(root_ + "/blob", std::move(a).seal());
    storage::MutableBlob b = storage::BlobPool::local().acquire(6);
    std::memcpy(b.data(), "atomic", 6);
    backend_->writeAtomic(root_ + "/commit", std::move(b).seal());
    EXPECT_EQ(get(root_ + "/blob"), "payload");
    EXPECT_EQ(get(root_ + "/commit"), "atomic");
}

TEST_P(BackendContract, AtomicWriteIsVisibleAndSized)
{
    const std::string path = root_ + "/commit.meta";
    const std::string text = "committed";
    backend_->writeAtomic(path, blobOf(text));
    EXPECT_TRUE(backend_->exists(path));
    std::size_t n = 0;
    ASSERT_TRUE(backend_->size(path, n));
    EXPECT_EQ(n, text.size());
}

TEST_P(BackendContract, CopyDuplicatesAndReportsMissingSource)
{
    put(root_ + "/src", "payload");
    EXPECT_TRUE(backend_->copy(root_ + "/src", root_ + "/dst"));
    EXPECT_EQ(get(root_ + "/dst"), "payload");
    EXPECT_FALSE(backend_->copy(root_ + "/absent", root_ + "/dst2"));
    EXPECT_FALSE(backend_->exists(root_ + "/dst2"));
}

TEST_P(BackendContract, WritesAndCopiesCreateMissingDirectories)
{
    // No caller creates directories: every way of making an object
    // lands in a tree nobody created, and the tree lists it.
    put(root_ + "/local/rank0/ckpt1.fti", "plain");
    backend_->writeAtomic(root_ + "/meta/ckpt1.meta", blobOf("atomic"));
    EXPECT_TRUE(backend_->copy(root_ + "/local/rank0/ckpt1.fti",
                               root_ + "/local/rank1/partner/ckpt1.fti"));
    EXPECT_EQ(get(root_ + "/local/rank0/ckpt1.fti"), "plain");
    EXPECT_EQ(get(root_ + "/meta/ckpt1.meta"), "atomic");
    EXPECT_EQ(get(root_ + "/local/rank1/partner/ckpt1.fti"), "plain");

    auto top = backend_->listDir(root_);
    std::sort(top.begin(), top.end());
    EXPECT_EQ(top, (std::vector<std::string>{"local", "meta"}));
    EXPECT_EQ(backend_->listDir(root_ + "/meta"),
              (std::vector<std::string>{"ckpt1.meta"}));
    EXPECT_EQ(backend_->listDir(root_ + "/local/rank1/partner"),
              (std::vector<std::string>{"ckpt1.fti"}));
}

TEST_P(BackendContract, RemoveDropsOneObject)
{
    put(root_ + "/a", "a");
    put(root_ + "/b", "b");
    backend_->remove(root_ + "/a");
    backend_->remove(root_ + "/a"); // absent: no-op
    EXPECT_FALSE(backend_->exists(root_ + "/a"));
    EXPECT_TRUE(backend_->exists(root_ + "/b"));
}

TEST_P(BackendContract, ListDirReturnsImmediateChildren)
{
    put(root_ + "/meta/ckpt1.meta", "1");
    put(root_ + "/meta/ckpt2.meta", "2");
    put(root_ + "/local/rank0/ckpt1.fti", "x");

    auto names = backend_->listDir(root_ + "/meta");
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{"ckpt1.meta",
                                               "ckpt2.meta"}));

    // Subdirectories appear as children of their parent, exactly once.
    auto top = backend_->listDir(root_);
    std::sort(top.begin(), top.end());
    EXPECT_EQ(top, (std::vector<std::string>{"local", "meta"}));

    EXPECT_TRUE(backend_->listDir(root_ + "/nonexistent").empty());
}

TEST_P(BackendContract, PrefixOpsIgnoreTrailingSlashes)
{
    // "dir/" and "dir" name the same tree in both backends — the FTI
    // and SCR path helpers occasionally join with a trailing slash.
    put(root_ + "/job/meta/ckpt1.meta", "1");
    put(root_ + "/job/data.bin", "payload");

    auto names = backend_->listDir(root_ + "/job/");
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{"data.bin", "meta"}));
    EXPECT_EQ(backend_->listDir(root_ + "/job//"), names);

    backend_->removeTree(root_ + "/job/");
    EXPECT_FALSE(backend_->exists(root_ + "/job/meta/ckpt1.meta"));
    EXPECT_FALSE(backend_->exists(root_ + "/job/data.bin"));
}

TEST_P(BackendContract, EmptyAndRootPrefixOpsAreNoOps)
{
    // Nobody legitimately sweeps the whole store: an empty (or
    // all-slashes, i.e. filesystem-root) prefix must not remove
    // anything — on DiskBackend "everything" is the host filesystem.
    put(root_ + "/keep.bin", "survives");
    backend_->removeTree("");
    backend_->removeTree("/");
    EXPECT_TRUE(backend_->exists(root_ + "/keep.bin"));
    EXPECT_TRUE(backend_->listDir("").empty());
}

TEST_P(BackendContract, RemoveTreeOnObjectPathRemovesTheObject)
{
    put(root_ + "/job1", "plain object, not a directory");
    put(root_ + "/job10/ckpt.fti", "sibling sharing the name prefix");
    backend_->removeTree(root_ + "/job1");
    EXPECT_FALSE(backend_->exists(root_ + "/job1"));
    EXPECT_TRUE(backend_->exists(root_ + "/job10/ckpt.fti"));
}

TEST_P(BackendContract, ListDirOnObjectPathIsEmpty)
{
    put(root_ + "/blob.bin", "not a directory");
    EXPECT_TRUE(backend_->listDir(root_ + "/blob.bin").empty());
}

TEST_P(BackendContract, RemoveTreeIsRecursiveAndScoped)
{
    put(root_ + "/job1/rank0/ckpt.fti", "a");
    put(root_ + "/job1/meta/ckpt1.meta", "b");
    put(root_ + "/job10/rank0/ckpt.fti", "c"); // sibling, shares prefix
    backend_->removeTree(root_ + "/job1");
    EXPECT_FALSE(backend_->exists(root_ + "/job1/rank0/ckpt.fti"));
    EXPECT_FALSE(backend_->exists(root_ + "/job1/meta/ckpt1.meta"));
    EXPECT_TRUE(backend_->exists(root_ + "/job10/rank0/ckpt.fti"));
}

INSTANTIATE_TEST_SUITE_P(Kinds, BackendContract,
                         ::testing::Values(Kind::Mem, Kind::Disk),
                         [](const auto &info) {
                             return std::string(
                                 storage::kindName(info.param));
                         });

TEST(MemBackend, ReadIsZeroCopyAndRefcounted)
{
    // A write stores the caller's sealed buffer itself, and every read
    // hands out a handle to it: the bytes served live at the very
    // address the client staged them at, and reads add references,
    // not copies.
    const auto backend = storage::makeBackend(Kind::Mem);
    storage::MutableBlob staged = storage::BlobPool::local().acquire(7);
    std::memcpy(staged.data(), "read me", 7);
    const std::uint8_t *raw = staged.data();
    backend->write("/sandbox/blob", std::move(staged).seal());
    const auto before = storage::BlobPool::globalStats().bytesCopied;
    const storage::Blob first = backend->read("/sandbox/blob");
    ASSERT_TRUE(first);
    EXPECT_EQ(textOf(first), "read me");
    EXPECT_EQ(first.data(), raw);
    const storage::Blob second = backend->read("/sandbox/blob");
    EXPECT_EQ(second.data(), raw);
    EXPECT_EQ(first.refCount(), 3); // the store's handle plus two reads
    EXPECT_EQ(storage::BlobPool::globalStats().bytesCopied, before);
    EXPECT_FALSE(backend->read("/sandbox/absent"));
}

TEST(MemBackend, InstancesAreIsolated)
{
    const auto a = storage::makeBackend(Kind::Mem);
    const auto b = storage::makeBackend(Kind::Mem);
    a->write("/x", blobOf("a"));
    EXPECT_FALSE(b->exists("/x"));
}

TEST(MemBackend, ConcurrentHammeringStaysConsistent)
{
    // The store must stay consistent when many threads pound it at
    // once: per-worker trees see all their own
    // writes, cross-tree prefix operations (removeTree, listDir) never
    // observe torn state, and copies land whole.
    const auto backend = storage::makeBackend(Kind::Mem);
    constexpr int kThreads = 8, kObjects = 64;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const std::string tree = "/hammer/job" + std::to_string(t);
            for (int round = 0; round < 3; ++round) {
                for (int i = 0; i < kObjects; ++i) {
                    const std::string path =
                        tree + "/ckpt" + std::to_string(i);
                    const std::string payload =
                        path + "#" + std::to_string(round);
                    backend->writeAtomic(path, blobOf(payload));
                    backend->copy(path, path + ".mirror");
                }
                // Prefix scans race against every other worker's
                // writes; they must only ever see whole objects from
                // this worker's own tree.
                for (const auto &name : backend->listDir(tree)) {
                    const std::string text =
                        textOf(backend->read(tree + "/" + name));
                    ASSERT_EQ(text.rfind(tree + "/ckpt", 0), 0u)
                        << text;
                }
                if (round + 1 < 3)
                    backend->removeTree(tree);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t) {
        const std::string tree = "/hammer/job" + std::to_string(t);
        EXPECT_EQ(backend->listDir(tree).size(), 2u * kObjects);
        EXPECT_EQ(textOf(backend->read(tree + "/ckpt0.mirror")),
                  tree + "/ckpt0#2");
    }
}

TEST(DiskBackend, ReadsFreshBuffersAndSharedInstanceIsDisk)
{
    // A file has no in-memory image to share: each read is its own
    // buffer (the one unavoidable copy).
    EXPECT_EQ(storage::sharedDiskBackend().kind(), Kind::Disk);
    const auto backend = storage::makeBackend(Kind::Disk);
    const std::string path =
        (fs::temp_directory_path() / "match-storage-tests/fresh.bin")
            .string();
    backend->write(path, blobOf("fresh"));
    const storage::Blob a = backend->read(path);
    const storage::Blob b = backend->read(path);
    EXPECT_EQ(textOf(a), "fresh");
    EXPECT_NE(a.data(), b.data());
    EXPECT_EQ(a.refCount(), 1);
    backend->remove(path);
}
