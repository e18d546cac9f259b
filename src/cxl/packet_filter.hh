/**
 * @file
 * M2func packet filter (Section III-B).
 *
 * Sits at the CXL memory's input port and checks every incoming CXL.mem
 * request against per-process M2func regions. Matching requests are
 * diverted to the NDP controller as function calls; everything else is a
 * normal memory access. Each entry is 18 B: 64-bit base, 64-bit bound,
 * 16-bit ASID — so 1024 processes cost only 18 KiB of SRAM.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.hh"
#include "mem/page_table.hh"

namespace m2ndp {

/** One packet-filter entry (18 bytes of modeled SRAM). */
struct PacketFilterEntry
{
    Addr base = 0;
    Addr bound = 0; ///< exclusive
    Asid asid = 0;
};

/** Result of a filter match. */
struct PacketFilterMatch
{
    Asid asid;
    std::uint64_t offset; ///< byte offset of the access into the region
};

/** The filter itself. Entries are installed via the CXL.io path at init. */
class PacketFilter
{
  public:
    explicit PacketFilter(std::size_t max_entries = 1024)
        : max_entries_(max_entries)
    {
    }

    /**
     * Install an entry. Privileged operation (driver via CXL.io).
     * @return false if the table is full or the range overlaps an entry.
     */
    bool insert(Addr base, Addr bound, Asid asid);

    /** Check an incoming request address. */
    std::optional<PacketFilterMatch> match(Addr addr) const;

    /** Modeled SRAM cost in bytes (18 B per entry). */
    std::uint64_t
    storageBytes() const
    {
        return static_cast<std::uint64_t>(max_entries_) * 18;
    }

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t matches() const { return matches_; }

  private:
    std::size_t max_entries_;
    std::vector<PacketFilterEntry> entries_;
    mutable std::uint64_t lookups_ = 0;
    mutable std::uint64_t matches_ = 0;
};

} // namespace m2ndp
