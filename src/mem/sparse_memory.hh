/**
 * @file
 * Sparse functional memory backend.
 *
 * Stores simulated memory contents in 4 KiB frames allocated on first
 * write, so a 256 GiB CXL expander costs host memory proportional to the
 * bytes a workload actually writes. This is the *functional* half of the
 * memory model; timing lives in dram/ and cache/.
 *
 * The table has two levels: a hash of 2 MiB pages (the page-table
 * granularity, layout::kPageBytes), each a flat array of 512 frame
 * pointers. Pages and frames are never freed or moved while the memory
 * lives, so a caller may hold on to a Page (each NDP unit keeps one per
 * cached translation, ndp/ndp_unit.hh) and reach any of its frames with
 * one array load. Sizes are static-asserted powers of two, so all
 * offset/index math is mask/shift.
 *
 * Thread safety (partitioned engine, sim/partition.hh): the page hash is
 * sharded by device window — shard = bits [41:38] of the physical
 * address — so each device partition's executor locks a different shard
 * mutex and the lock is effectively uncontended. A frame is zero-filled
 * under its shard's lock and published with a release store; finding an
 * existing frame is one acquire load and takes no lock. Ordering of
 * accesses to the *bytes* of a shared frame is the simulation's own
 * responsibility (cross-partition messages synchronize through mailbox
 * mutexes / the round barrier), the same contract as any other
 * cross-partition state.
 */

#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/annotations.hh"
#include "common/log.hh"
#include "common/units.hh"

namespace m2ndp {

/** Byte-addressable sparse memory. Unwritten bytes read as zero. */
class SparseMemory
{
  public:
    static constexpr std::uint64_t kFrameSize = 4096;
    static constexpr std::uint64_t kFrameMask = kFrameSize - 1;
    static constexpr std::uint64_t kPageBytes = 2 * kMiB;
    static constexpr std::uint64_t kPageMask = kPageBytes - 1;
    static_assert(std::has_single_bit(kFrameSize) &&
                      std::has_single_bit(kPageBytes),
                  "frame and page sizes must be powers of two");

    /** One 2 MiB page: a frame pointer per 4 KiB, null until written. */
    class Page
    {
      public:
        Page() = default;
        Page(const Page &) = delete;
        Page &operator=(const Page &) = delete;
        ~Page(); ///< frees the frames

        /** The frame holding @p addr (any address in this page), or
         *  nullptr while that frame has never been written. */
        std::uint8_t *
        find(Addr addr) const
        {
            return frames_[index(addr)].load(std::memory_order_acquire);
        }

      private:
        friend class SparseMemory;

        static std::size_t
        index(Addr addr)
        {
            return (addr & kPageMask) >> std::countr_zero(kFrameSize);
        }

        std::array<std::atomic<std::uint8_t *>, kPageBytes / kFrameSize>
            frames_{};
    };

    /** The page holding @p addr, created without frames on first use. */
    Page &pageFor(Addr addr);

    /** The frame of @p page holding @p addr, zero-filled on first use.
     *  Takes no lock once the frame exists. */
    std::uint8_t *
    frameFor(Page &page, Addr addr)
    {
        if (std::uint8_t *frame = page.find(addr))
            return frame;
        return allocFrame(page, addr);
    }

    /** Copy [addr, addr + size), which lies in @p page, out of it. An
     *  unwritten frame reads as zeros and is looked up again next time,
     *  so a later write to it is seen. */
    M2NDP_HOT_PATH
    static void
    read(const Page &page, Addr addr, void *out, std::uint64_t size)
    {
        auto *dst = static_cast<std::uint8_t *>(out);
        while (size > 0) {
            std::uint64_t offset = addr & kFrameMask;
            std::uint64_t chunk = std::min(size, kFrameSize - offset);
            if (const std::uint8_t *frame = page.find(addr))
                std::memcpy(dst, frame + offset, chunk);
            else
                std::memset(dst, 0, chunk);
            addr += chunk;
            dst += chunk;
            size -= chunk;
        }
    }

    /** Copy into [addr, addr + size), which lies in @p page. */
    M2NDP_HOT_PATH
    void
    write(Page &page, Addr addr, const void *in, std::uint64_t size)
    {
        const auto *src = static_cast<const std::uint8_t *>(in);
        while (size > 0) {
            std::uint64_t offset = addr & kFrameMask;
            std::uint64_t chunk = std::min(size, kFrameSize - offset);
            std::memcpy(frameFor(page, addr) + offset, src, chunk);
            addr += chunk;
            src += chunk;
            size -= chunk;
        }
    }

    /** Copy out of any range; allocates nothing. */
    void read(Addr addr, void *out, std::uint64_t size) const;
    /** Copy into any range. */
    void write(Addr addr, const void *in, std::uint64_t size);

    template <typename T>
    T
    read(Addr addr) const
    {
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    write(Addr addr, const T &v)
    {
        write(addr, &v, sizeof(T));
    }

    /** Number of frames currently allocated (for footprint stats). */
    std::size_t
    framesAllocated() const
    {
        std::size_t n = 0;
        for (const Shard &s : shards_) {
            std::lock_guard<std::mutex> lk(s.mu);
            n += s.frames;
        }
        return n;
    }

  private:
    /** Page-hash shards, one per 256 GiB device window (mod 16). */
    static constexpr std::size_t kShards = 16;
    static constexpr unsigned kShardShift = 38;

    struct Shard
    {
        std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages;
        std::size_t frames = 0;
        mutable std::mutex mu;
    };

    Shard &
    shardFor(Addr addr) const
    {
        return shards_[(addr >> kShardShift) & (kShards - 1)];
    }

    /** Lookup without creating; nullptr if the page does not exist. */
    const Page *findPage(Addr addr) const;
    std::uint8_t *allocFrame(Page &page, Addr addr);

    mutable std::array<Shard, kShards> shards_;
};

/** Atomic memory operations executed at the memory-side L2 / scratchpad. */
enum class AmoOp : std::uint8_t {
    Add,
    Swap,
    And,
    Or,
    Xor,
    Max,
    Min,
    MaxU,
    MinU,
};

/**
 * Perform a RISC-V style AMO of the given width (4 or 8 bytes) on @p mem.
 * @return the original memory value (zero-extended to 64 bits).
 */
std::uint64_t amoExecute(SparseMemory &mem, AmoOp op, Addr addr,
                         std::uint64_t operand, unsigned width);

/**
 * Same AMO semantics applied to raw bytes at @p p (used for scratchpad
 * atomics, which bypass the sparse backend entirely, and for in-frame
 * atomics on a frame the caller already holds).
 * @return the original value (zero-extended to 64 bits).
 */
std::uint64_t amoApply(void *p, AmoOp op, std::uint64_t operand,
                       unsigned width);

} // namespace m2ndp
