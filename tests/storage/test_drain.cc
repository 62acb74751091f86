/**
 * @file
 * Drain contract tests over both storage backend kinds: a flush job
 * runs inline, so its object is in the store when runFlush returns,
 * each flush sees every earlier write, and the bytes it ships reach
 * the process-wide counter and the virtual drain channel. The
 * channel's capacity pricing is pinned separately.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "src/storage/backend.hh"
#include "src/storage/drain.hh"

namespace fs = std::filesystem;
using namespace match;
using match::storage::Backend;
using match::storage::Kind;

namespace
{

storage::Blob
blobOf(const std::string &payload)
{
    return storage::BlobPool::local().copyOf(payload.data(),
                                             payload.size());
}

std::string
text(Backend &backend, const std::string &path)
{
    const storage::Blob blob = backend.read(path);
    if (!blob)
        return "<missing>";
    return {reinterpret_cast<const char *>(blob.data()), blob.size()};
}

} // namespace

class DrainContract : public ::testing::TestWithParam<Kind>
{
  protected:
    void
    SetUp() override
    {
        backend_ = storage::makeBackend(GetParam());
        root_ = (fs::temp_directory_path() / "match-drain-tests" /
                 storage::kindName(GetParam()))
                    .string();
        backend_->removeTree(root_);
    }

    void
    TearDown() override
    {
        backend_->removeTree(root_);
    }

    /** Flush `payload` to `path`, returning the bytes shipped. */
    std::uint64_t
    flush(const std::string &path, const std::string &payload)
    {
        return storage::runFlush([&]() -> std::uint64_t {
            backend_->write(path, blobOf(payload));
            return payload.size();
        });
    }

    std::shared_ptr<Backend> backend_;
    std::string root_;
};

TEST_P(DrainContract, FlushedObjectIsStoredWhenRunFlushReturns)
{
    constexpr int kJobs = 16;
    for (int i = 0; i < kJobs; ++i) {
        const std::string path = root_ + "/pfs/ckpt" + std::to_string(i);
        const std::string payload = "object-" + std::to_string(i);
        EXPECT_EQ(flush(path, payload), payload.size());
        EXPECT_EQ(text(*backend_, path), payload)
            << "flush " << i << " must land before runFlush returns";
    }
}

TEST_P(DrainContract, FlushesSeeEarlierWrites)
{
    // Each flush reads the value its predecessor wrote before
    // overwriting it, and a plain removal after a flush deletes what
    // the flush wrote: program order is I/O order.
    const std::string path = root_ + "/pfs/latest";
    constexpr int kJobs = 12;
    for (int i = 0; i < kJobs; ++i) {
        const std::string expect_prev =
            i == 0 ? "<missing>" : "v" + std::to_string(i - 1);
        storage::runFlush([&]() -> std::uint64_t {
            EXPECT_EQ(text(*backend_, path), expect_prev);
            const std::string payload = "v" + std::to_string(i);
            backend_->write(path, blobOf(payload));
            return payload.size();
        });
    }
    EXPECT_EQ(text(*backend_, path), "v" + std::to_string(kJobs - 1));
    backend_->remove(path);
    EXPECT_FALSE(backend_->exists(path));
}

TEST_P(DrainContract, ShippedBytesReachTheCounterAndTheChannel)
{
    // The flush's return value is what the channel prices: 40 shipped
    // bytes at 1 virtual second per 10 bytes, admitted and stamped at
    // t=2, finish at t=6.
    const std::uint64_t before = storage::drainGlobalShippedBytes();
    const std::uint64_t shipped =
        flush(root_ + "/pfs/obj", std::string(40, 'x'));
    EXPECT_EQ(storage::drainGlobalShippedBytes() - before, 40u);

    storage::DrainChannel channel;
    channel.admit(shipped, 8);
    channel.stamp(2.0);
    std::uint64_t priced = 0;
    const double wait = channel.resolve(
        0.0, [&](std::uint64_t bytes, std::uint64_t, int, double) {
            priced = bytes;
            return static_cast<double>(bytes) / 10.0;
        });
    EXPECT_EQ(priced, 40u);
    EXPECT_DOUBLE_EQ(wait, 6.0);
}

INSTANTIATE_TEST_SUITE_P(Kinds, DrainContract,
                         ::testing::Values(Kind::Mem, Kind::Disk),
                         [](const auto &info) {
                             return std::string(
                                 storage::kindName(info.param));
                         });

TEST(DrainChannel, ReservePricesCapacityEvictionDeterministically)
{
    // Virtual-side capacity pressure: three 40-byte flushes priced at
    // 10 virtual seconds each (finishing at t=10, 20, 30) against a
    // 100-byte buffer. A fourth 40-byte reservation at t=0 must evict
    // the two oldest occupants (120 staged + 40 > 100 until only one
    // remains), so the stall runs to the second occupant's finish.
    storage::DrainChannel channel;
    const auto price = [](std::uint64_t, std::uint64_t, int, double) {
        return 10.0;
    };
    for (int i = 0; i < 3; ++i) {
        channel.admit(40, 8, 1.0, 40);
        channel.stamp(static_cast<double>(i) * 10.0);
    }
    EXPECT_DOUBLE_EQ(channel.reserve(0.0, 40, 100, price), 20.0);
    // The evicted occupant is gone and a later reservation at t=25 sees
    // only the t=30 occupant: 40 + 40 fits, no stall.
    EXPECT_DOUBLE_EQ(channel.reserve(25.0, 40, 100, price), 0.0);
    // Unbounded capacity never stalls.
    EXPECT_DOUBLE_EQ(channel.reserve(0.0, 1 << 20, 0, price), 0.0);
}
