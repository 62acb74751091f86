#include "src/storage/backend.hh"

#include <cerrno>
#include <filesystem>
#include <fstream>
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
 * In-process object store: one mutex over one ordered map keyed by full
 * path. A store is private to one run (runExperiment builds a fresh
 * backend per run), so at most the run's cell thread and its drain
 * thread share it; prefix operations (removeTree, listDir) are one
 * ordered range scan.
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
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = objects_.find(path);
        return it == objects_.end() ? Blob() : it->second;
    }

    void
    write(const std::string &path, Blob blob) override
    {
        util::PhaseScope phase(util::Phase::Storage);
        noteBlobStore(blob.size());
        std::lock_guard<std::mutex> lock(mutex_);
        objects_[path] = std::move(blob);
    }

    void
    writeAtomic(const std::string &path, Blob blob) override
    {
        write(path, std::move(blob)); // map writes are already atomic
    }

    bool
    exists(const std::string &path) const override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return objects_.count(path) != 0;
    }

    bool
    size(const std::string &path, std::size_t &bytes) const override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = objects_.find(path);
        if (it == objects_.end())
            return false;
        bytes = it->second.size();
        return true;
    }

    bool
    copy(const std::string &src, const std::string &dst) override
    {
        // Blobs are immutable, so "copy" is a refcount bump.
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = objects_.find(src);
        if (it == objects_.end())
            return false;
        noteBlobStore(it->second.size());
        objects_[dst] = it->second;
        return true;
    }

    void
    remove(const std::string &path) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        objects_.erase(path);
    }

    void
    removeTree(const std::string &dir_in) override
    {
        const std::string dir = normalizeTree(dir_in);
        if (dir.empty())
            return;
        const std::string prefix = dir + "/";
        std::lock_guard<std::mutex> lock(mutex_);
        objects_.erase(dir);
        auto it = objects_.lower_bound(prefix);
        while (it != objects_.end() &&
               it->first.compare(0, prefix.size(), prefix) == 0)
            it = objects_.erase(it);
    }

    std::vector<std::string>
    listDir(const std::string &dir_in) const override
    {
        const std::string dir = normalizeTree(dir_in);
        if (dir.empty())
            return {};
        const std::string prefix = dir + "/";
        std::set<std::string> names;
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = objects_.lower_bound(prefix);
             it != objects_.end() &&
             it->first.compare(0, prefix.size(), prefix) == 0;
             ++it) {
            const std::string rest = it->first.substr(prefix.size());
            names.insert(rest.substr(0, rest.find('/')));
        }
        return {names.begin(), names.end()};
    }

  private:
    mutable std::mutex mutex_;
    std::map<std::string, Blob> objects_;
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
