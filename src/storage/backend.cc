#include "src/storage/backend.hh"

#include <array>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <set>

#include "src/util/logging.hh"
#include "src/util/phase.hh"

namespace fs = std::filesystem;

namespace match::storage
{

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::Mem: return "mem";
      case Kind::Disk: return "disk";
    }
    return "unknown";
}

namespace
{

/**
 * Canonical form of a prefix-operation argument (removeTree, listDir):
 * trailing slashes are ignored, so "dir/" names the same tree as
 * "dir". An empty result (empty input, or only slashes — i.e. the
 * filesystem root) makes the operation a no-op: no caller legitimately
 * sweeps the whole store, and on DiskBackend the whole store is the
 * host filesystem.
 */
std::string
normalizeTree(const std::string &dir)
{
    std::size_t end = dir.size();
    while (end > 0 && dir[end - 1] == '/')
        --end;
    return dir.substr(0, end);
}

/**
 * DiskBackend's directory rule: after opening a destination failed
 * with ENOENT, create its missing parent directories. @retval true
 * when the parent now exists, so the caller retries the open once (a
 * concurrent creator of the same parent counts as success).
 */
bool
createParent(const std::string &path)
{
    const fs::path parent = fs::path(path).parent_path();
    if (parent.empty())
        return false;
    std::error_code ec;
    fs::create_directories(parent, ec);
    return !ec;
}

/**
 * In-process object store, sharded into lock-striped buckets: a path
 * hashes to one of kBuckets (mutex, ordered map) pairs, so concurrent
 * grid workers hammering checkpoint traffic contend only when their
 * paths collide in a bucket — a single global mutex serialized every
 * worker above ~8 jobs. Per-object operations touch exactly one
 * bucket; prefix operations (removeTree, listDir) visit each bucket's
 * map with the same ordered range scan as before, since a bucket's
 * map is keyed by full path.
 *
 * Objects are refcounted Blobs: a write stores the caller's sealed
 * buffer (zero memcpy), read() hands out handle copies that outlive
 * overwrite/remove, and copy() is a refcount bump (blobs are
 * immutable, so two paths can share one buffer safely).
 */
class MemBackend final : public Backend
{
  public:
    Kind kind() const override { return Kind::Mem; }

    Blob
    read(const std::string &path) const override
    {
        const Bucket &bucket = bucketFor(path);
        std::lock_guard<std::mutex> lock(bucket.mutex);
        const auto it = bucket.objects.find(path);
        return it == bucket.objects.end() ? Blob() : it->second;
    }

    void
    write(const std::string &path, Blob blob) override
    {
        util::PhaseScope phase(util::Phase::Storage);
        noteBlobStore(blob.size());
        Bucket &bucket = bucketFor(path);
        std::lock_guard<std::mutex> lock(bucket.mutex);
        bucket.objects[path] = std::move(blob);
    }

    void
    writeAtomic(const std::string &path, Blob blob) override
    {
        write(path, std::move(blob)); // bucket writes are already atomic
    }

    bool
    exists(const std::string &path) const override
    {
        const Bucket &bucket = bucketFor(path);
        std::lock_guard<std::mutex> lock(bucket.mutex);
        return bucket.objects.count(path) != 0;
    }

    bool
    size(const std::string &path, std::size_t &bytes) const override
    {
        const Bucket &bucket = bucketFor(path);
        std::lock_guard<std::mutex> lock(bucket.mutex);
        const auto it = bucket.objects.find(path);
        if (it == bucket.objects.end())
            return false;
        bytes = it->second.size();
        return true;
    }

    bool
    copy(const std::string &src, const std::string &dst) override
    {
        // Grab a handle under the source lock, insert under the
        // destination lock: no two buckets are ever held at once (src
        // and dst may share one), so bucket locks need no global
        // ordering. Blobs are immutable, so "copy" is a refcount bump.
        Blob blob;
        {
            const Bucket &bucket = bucketFor(src);
            std::lock_guard<std::mutex> lock(bucket.mutex);
            const auto it = bucket.objects.find(src);
            if (it == bucket.objects.end())
                return false;
            blob = it->second;
        }
        noteBlobStore(blob.size());
        Bucket &bucket = bucketFor(dst);
        std::lock_guard<std::mutex> lock(bucket.mutex);
        bucket.objects[dst] = std::move(blob);
        return true;
    }

    void
    remove(const std::string &path) override
    {
        Bucket &bucket = bucketFor(path);
        std::lock_guard<std::mutex> lock(bucket.mutex);
        bucket.objects.erase(path);
    }

    void
    removeTree(const std::string &dir_in) override
    {
        const std::string dir = normalizeTree(dir_in);
        if (dir.empty())
            return;
        // Objects under a prefix are scattered across buckets by hash;
        // sweep each bucket's ordered range. Buckets are locked one at
        // a time: concurrent writers to other paths proceed, and the
        // FTI/SCR stacks never race a removeTree against writes into
        // the same tree (a sandbox has one owner).
        const std::string prefix = dir + "/";
        for (Bucket &bucket : buckets_) {
            std::lock_guard<std::mutex> lock(bucket.mutex);
            auto it = bucket.objects.lower_bound(prefix);
            while (it != bucket.objects.end() &&
                   it->first.compare(0, prefix.size(), prefix) == 0)
                it = bucket.objects.erase(it);
        }
        // A plain object at the exact path lives in one known bucket.
        Bucket &bucket = bucketFor(dir);
        std::lock_guard<std::mutex> lock(bucket.mutex);
        bucket.objects.erase(dir);
    }

    std::vector<std::string>
    listDir(const std::string &dir_in) const override
    {
        const std::string dir = normalizeTree(dir_in);
        if (dir.empty())
            return {};
        const std::string prefix = dir + "/";
        std::set<std::string> names;
        for (const Bucket &bucket : buckets_) {
            std::lock_guard<std::mutex> lock(bucket.mutex);
            for (auto it = bucket.objects.lower_bound(prefix);
                 it != bucket.objects.end() &&
                 it->first.compare(0, prefix.size(), prefix) == 0;
                 ++it) {
                const std::string rest =
                    it->first.substr(prefix.size());
                names.insert(rest.substr(0, rest.find('/')));
            }
        }
        return {names.begin(), names.end()};
    }

  private:
    struct Bucket
    {
        mutable std::mutex mutex;
        std::map<std::string, Blob> objects;
    };

    /** Power of two so the hash mixes down to a cheap mask. */
    static constexpr std::size_t kBuckets = 16;

    Bucket &
    bucketFor(const std::string &path) const
    {
        return buckets_[std::hash<std::string>{}(path) & (kBuckets - 1)];
    }

    mutable std::array<Bucket, kBuckets> buckets_;
};

/**
 * The original filesystem semantics: plain writes for data files (a
 * checkpoint's atomicity comes from its metadata commit), tmp+rename
 * for commit records. Directories appear on first write (createParent),
 * so a successful write costs no extra syscall.
 */
class DiskBackend final : public Backend
{
  public:
    Kind kind() const override { return Kind::Disk; }

    Blob
    read(const std::string &path) const override
    {
        util::PhaseScope phase(util::Phase::Storage);
        errno = 0;
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        if (!in)
            return Blob(); // missing object: a result, not an error
        const std::streamoff bytes = in.tellg();
        if (bytes < 0) {
            throw StorageError("read", path, errno,
                               "cannot determine object size");
        }
        in.seekg(0);
        std::vector<std::uint8_t> out(static_cast<std::size_t>(bytes));
        in.read(reinterpret_cast<char *>(out.data()), bytes);
        // A short or failing read on an object that exists is an I/O
        // error, not a missing object: surface it instead of letting a
        // truncated buffer masquerade as the checkpoint.
        if (in.bad() || in.gcount() != bytes)
            throw StorageError("read", path, errno, "short read");
        // No in-memory image to share: this read is the one
        // unavoidable copy.
        noteBlobCopy(out.size());
        return Blob::fromVector(std::move(out));
    }

    void
    write(const std::string &path, Blob blob) override
    {
        util::PhaseScope phase(util::Phase::Storage);
        errno = 0;
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (!out && errno == ENOENT && createParent(path)) {
            errno = 0;
            out.open(path, std::ios::binary | std::ios::trunc);
        }
        if (!out) {
            throw StorageError("write", path, errno,
                               "cannot open for writing");
        }
        out.write(reinterpret_cast<const char *>(blob.data()),
                  static_cast<std::streamsize>(blob.size()));
        if (!out)
            throw StorageError("write", path, errno, "short write");
        // flush + close through the stream so a full filesystem
        // (ENOSPC surfaces at flush, not at write) cannot silently
        // commit a truncated object that only the CRC catches later.
        out.close();
        if (out.fail())
            throw StorageError("write", path, errno, "close/flush failed");
    }

    void
    writeAtomic(const std::string &path, Blob blob) override
    {
        const std::string tmp = path + ".tmp";
        write(tmp, std::move(blob));
        std::error_code ec;
        fs::rename(tmp, path, ec);
        if (ec) {
            const int errnum = ec.value();
            fs::remove(tmp, ec); // best effort; the commit failed
            throw StorageError("writeAtomic", path, errnum,
                               "rename failed");
        }
    }

    bool
    exists(const std::string &path) const override
    {
        // An object is a regular file; a directory is only a prefix of
        // object names, which MemBackend does not answer for either.
        std::error_code ec;
        return fs::is_regular_file(path, ec);
    }

    bool
    size(const std::string &path, std::size_t &bytes) const override
    {
        std::error_code ec;
        const auto n = fs::file_size(path, ec);
        if (ec)
            return false;
        bytes = static_cast<std::size_t>(n);
        return true;
    }

    bool
    copy(const std::string &src, const std::string &dst) override
    {
        const auto attempt = [&] {
            std::error_code ec;
            fs::copy_file(src, dst, fs::copy_options::overwrite_existing,
                          ec);
            return ec;
        };
        std::error_code ec = attempt();
        if (ec == std::errc::no_such_file_or_directory &&
            createParent(dst))
            ec = attempt();
        return !ec;
    }

    void
    remove(const std::string &path) override
    {
        std::error_code ec;
        fs::remove(path, ec);
    }

    void
    removeTree(const std::string &dir_in) override
    {
        const std::string dir = normalizeTree(dir_in);
        if (dir.empty())
            return;
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    std::vector<std::string>
    listDir(const std::string &dir_in) const override
    {
        const std::string dir = normalizeTree(dir_in);
        if (dir.empty())
            return {};
        std::vector<std::string> names;
        std::error_code ec;
        for (const auto &entry : fs::directory_iterator(dir, ec))
            names.push_back(entry.path().filename().string());
        return names;
    }
};

} // anonymous namespace

std::shared_ptr<Backend>
makeBackend(Kind kind)
{
    switch (kind) {
      case Kind::Mem: return std::make_shared<MemBackend>();
      case Kind::Disk: return std::make_shared<DiskBackend>();
    }
    util::panic("unknown storage backend kind");
}

Backend &
sharedDiskBackend()
{
    static DiskBackend backend;
    return backend;
}

} // namespace match::storage
