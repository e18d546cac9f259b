/**
 * @file
 * Counting global operator new/delete replacements, shared by the
 * binaries that track heap allocations on the simulation hot path
 * (tests/test_alloc.cc, tests/test_runtime_api.cc, the benchmark ledger).
 *
 * Include this header from exactly ONE translation unit per binary:
 * replaceable allocation functions may not be inline, so a second
 * inclusion in the same binary fails the link (which is the guard you
 * want). Every allocation form the toolchain emits is covered — plain,
 * array, and over-aligned — so metrics cannot silently miss
 * `alignas`-driven allocations (VecReg containers and the like).
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace m2ndp {

/**
 * Total operator-new invocations in this binary (monotonic). Atomic so
 * executor threads of the partitioned engine can allocate concurrently;
 * relaxed increments — the count is a metric, not a synchronizer.
 */
inline std::atomic<std::uint64_t> &
allocationCount()
{
    static std::atomic<std::uint64_t> count{0};
    return count;
}

} // namespace m2ndp

void *
operator new(std::size_t size)
{
    m2ndp::allocationCount().fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
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
    m2ndp::allocationCount().fetch_add(1, std::memory_order_relaxed);
    std::size_t a = static_cast<std::size_t>(align);
    if (void *p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

// GCC's -Wmismatched-new-delete heuristic flags these frees when it
// inlines a replaced operator new at a call site and pairs it with a
// different delete form. All forms above allocate with malloc or
// aligned_alloc, both of which glibc's free() releases correctly, so
// the pairing is sound; suppress the false positive (the repo builds
// with -DWERROR=ON in CI).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop
