#include "mem/page_table.hh"

#include "common/bitutil.hh"

namespace m2ndp {

void
PageTable::map(Addr va, Addr pa)
{
    M2_ASSERT(va % layout::kPageBytes == 0 && pa % layout::kPageBytes == 0,
              "unaligned mapping: va=", va, " pa=", pa);
    std::uint64_t vpn = va / layout::kPageBytes;
    M2_ASSERT(map_.find(vpn) == map_.end(), "double mapping of va ", va);
    map_.emplace(vpn, pa);
}

bool
PageTable::unmap(Addr va)
{
    return map_.erase(va / layout::kPageBytes) > 0;
}

std::optional<Addr>
PageTable::translate(Addr va) const
{
    auto it = map_.find(va / layout::kPageBytes);
    if (it == map_.end())
        return std::nullopt;
    return it->second + (va % layout::kPageBytes);
}

Addr
PhysAllocator::allocate(std::uint64_t size, std::uint64_t align)
{
    M2_ASSERT(isPowerOfTwo(align), "alignment must be a power of two");
    Addr start = alignUp(next_, align);
    if (start + size > base_ + capacity_) {
        M2_FATAL("device physical memory exhausted: requested ", size,
                 " bytes, ", (base_ + capacity_) - next_, " available");
    }
    next_ = start + size;
    return start;
}

ProcessAddressSpace::ProcessAddressSpace(Asid asid,
                                         std::vector<PhysAllocator *> devices)
    : table_(asid), devices_(std::move(devices))
{
    M2_ASSERT(!devices_.empty(), "address space needs at least one device");
}

Addr
ProcessAddressSpace::allocate(std::uint64_t size, Placement placement,
                              unsigned home_device)
{
    M2_ASSERT(home_device < devices_.size(), "bad home device");
    const std::uint64_t page = table_.pageSize();
    Addr va = alignUp(next_va_, page);
    std::uint64_t npages = (size + page - 1) / page;
    for (std::uint64_t i = 0; i < npages; ++i) {
        unsigned dev = placement == Placement::Localized
                           ? home_device
                           : static_cast<unsigned>(i % devices_.size());
        Addr pa = devices_[dev]->allocate(page, page);
        table_.map(va + i * page, pa);
    }
    next_va_ = va + npages * page;
    return va;
}

} // namespace m2ndp
