/**
 * @file
 * Counting replacements of the global allocation functions, for tests
 * that assert a steady-state window makes no (or a bounded number of)
 * heap allocations. The definitions are not inline: include this header
 * from exactly one source file of a test binary.
 */

#ifndef MATCH_TESTS_ALLOC_COUNTER_HH
#define MATCH_TESTS_ALLOC_COUNTER_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace
{
/** Allocation calls observed process-wide (operator new families). */
std::atomic<std::uint64_t> g_allocs{0};

std::uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}
} // namespace

// Counting global allocation functions. Deletes are intentionally not
// counted: the steady-state contract is "no heap traffic", and every
// delete implies a matching counted new.
//
// GCC's -Wmismatched-new-delete flags the free() inside the replaced
// operator delete; malloc/free is the standard implementation for
// replacement allocation functions, so the warning is a false
// positive here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    if (posix_memalign(&p, static_cast<std::size_t>(align),
                       size ? size : 1) == 0)
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop

#endif // MATCH_TESTS_ALLOC_COUNTER_HH
