#include "src/storage/drain.hh"

#include <atomic>

#include "src/util/phase.hh"

namespace match::storage
{

namespace
{
std::atomic<std::uint64_t> g_shippedBytes{0};
}

std::uint64_t
drainGlobalShippedBytes()
{
    return g_shippedBytes.load(std::memory_order_relaxed);
}

std::uint64_t
runFlush(const std::function<std::uint64_t()> &job)
{
    std::uint64_t shipped;
    {
        util::PhaseScope phase(util::Phase::Drain);
        shipped = job();
    }
    g_shippedBytes.fetch_add(shipped, std::memory_order_relaxed);
    return shipped;
}

} // namespace match::storage
