/**
 * @file
 * Virtual memory: address-space layout, per-process page tables, and
 * physical frame allocation across CXL devices.
 *
 * Layout follows the paper:
 *  - NDP-unit scratchpad is mapped into an otherwise-unused VA window at
 *    0x10000000 (Fig. 8) and is usable only from NDP kernels.
 *  - User heap allocations live high in the canonical VA range.
 *  - Each CXL device owns a 256 GiB-aligned physical window; the M2func
 *    region and the DRAM-TLB array are carved from the top of device memory.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/log.hh"
#include "common/units.hh"

namespace m2ndp {

/** Address space identifier (16-bit per the packet-filter entry format). */
using Asid = std::uint16_t;

namespace layout {

/** Scratchpad VA window (per Fig. 8); only valid inside NDP kernels. */
inline constexpr Addr kScratchpadVaBase = 0x10000000ull;
inline constexpr std::uint64_t kScratchpadSize = 128 * kKiB;
/** Kernel arguments are copied to the top 256 B of the scratchpad. */
inline constexpr std::uint64_t kKernelArgWindow = 256;
inline constexpr Addr kKernelArgVa =
    kScratchpadVaBase + kScratchpadSize - kKernelArgWindow;

/** User heap VA base. */
inline constexpr Addr kHeapVaBase = 0x400000000000ull;

/** Physical address bits per CXL device window (256 GiB). */
inline constexpr unsigned kDeviceAddrBits = 38;
inline constexpr std::uint64_t kDeviceWindow = 1ull << kDeviceAddrBits;

/** Physical base address of CXL device @p dev in the host physical map. */
constexpr Addr
deviceBase(unsigned dev)
{
    return static_cast<Addr>(dev) << kDeviceAddrBits;
}

constexpr unsigned
deviceOf(Addr pa)
{
    return static_cast<unsigned>(pa >> kDeviceAddrBits);
}

/**
 * Page size of every process page table, and of the NDP-unit TLBs and
 * the DRAM-TLB that cache its translations (2 MiB, the paper's page
 * placement granularity).
 */
inline constexpr std::uint64_t kPageBytes = 2 * kMiB;

/** Reserved M2func area: top 16 MiB of each device's populated capacity. */
inline constexpr std::uint64_t kM2FuncReserve = 16 * kMiB;
/** Bytes of M2func region per host process. */
inline constexpr std::uint64_t kM2FuncRegionSize = 64 * kKiB;
/** DRAM-TLB area (Section III-H; 16 B per 2 MiB page) right below the
 *  M2func reserve. Process allocations own everything below it. */
inline constexpr std::uint64_t kDramTlbBytes = 32 * kMiB;
inline constexpr std::uint64_t kDramTlbOffset =
    kDeviceWindow - kM2FuncReserve - kDramTlbBytes;

constexpr bool
isScratchpadVa(Addr va)
{
    return va >= kScratchpadVaBase && va < kScratchpadVaBase + kScratchpadSize;
}

} // namespace layout

/** Per-process page table over layout::kPageBytes pages. */
class PageTable
{
  public:
    explicit PageTable(Asid asid) : asid_(asid) {}

    Asid asid() const { return asid_; }
    static constexpr std::uint64_t pageSize() { return layout::kPageBytes; }

    /** Install a VA->PA mapping for one page (addresses page-aligned). */
    void map(Addr va, Addr pa);

    /** Remove the mapping containing @p va, if any. @return true if found. */
    bool unmap(Addr va);

    /** Translate a virtual address; nullopt if unmapped. */
    std::optional<Addr> translate(Addr va) const;

  private:
    Asid asid_;
    std::unordered_map<std::uint64_t, Addr> map_; // vpn -> pa of page start
};

/** Bump allocator over one device's physical window. */
class PhysAllocator
{
  public:
    PhysAllocator(Addr base, std::uint64_t capacity)
        : base_(base), capacity_(capacity), next_(base)
    {
    }

    /** Allocate @p size bytes aligned to @p align (power of two). */
    Addr allocate(std::uint64_t size, std::uint64_t align = 64);

    std::uint64_t capacity() const { return capacity_; }
    Addr base() const { return base_; }

  private:
    Addr base_;
    std::uint64_t capacity_;
    Addr next_;
};

/** How multi-page allocations are spread across CXL devices. */
enum class Placement : std::uint8_t {
    /** All pages on one device (locality-aware placement by the user). */
    Localized,
    /** Round-robin 2 MiB pages across devices (model-parallel sharding). */
    InterleavedPages,
};

/**
 * A host process' view of CXL memory: a VA allocator plus a page table,
 * backed by one or more per-device physical allocators.
 */
class ProcessAddressSpace
{
  public:
    ProcessAddressSpace(Asid asid, std::vector<PhysAllocator *> devices);

    /**
     * Allocate @p size bytes of virtual memory backed by physical pages.
     * @param placement cross-device placement policy
     * @param home_device device index used when placement == Localized
     * @return the starting virtual address
     */
    Addr allocate(std::uint64_t size, Placement placement = Placement::Localized,
                  unsigned home_device = 0);

    PageTable &pageTable() { return table_; }
    const PageTable &pageTable() const { return table_; }
    Asid asid() const { return table_.asid(); }

    std::optional<Addr> translate(Addr va) const { return table_.translate(va); }

  private:
    PageTable table_;
    std::vector<PhysAllocator *> devices_;
    Addr next_va_ = layout::kHeapVaBase;
};

} // namespace m2ndp
