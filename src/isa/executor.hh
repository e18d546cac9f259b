/**
 * @file
 * Functional executor for M2NDP uthreads. It runs assembled sections
 * directly: each instruction carries its opcode traits (isa/inst.hh).
 *
 * Functional-first execution, so that data values never depend on timing:
 * an instruction's architectural effects — including memory reads/writes
 * via the MemoryIf — happen when the timing model issues it; the returned
 * StepResult tells the timing layer which functional unit was used, the
 * result latency, and which memory sectors were touched so it can model
 * stalls and traffic.
 */

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "common/log.hh"
#include "common/units.hh"
#include "isa/inst.hh"
#include "mem/sparse_memory.hh"

namespace m2ndp::isa {

/** One 256-bit vector register. */
struct VecReg
{
    alignas(32) std::array<std::uint8_t, kVlenBytes> b{};

    template <typename T>
    T
    get(unsigned i) const
    {
        T v;
        std::memcpy(&v, b.data() + i * sizeof(T), sizeof(T));
        return v;
    }

    template <typename T>
    void
    set(unsigned i, T v)
    {
        std::memcpy(b.data() + i * sizeof(T), &v, sizeof(T));
    }

    bool
    maskBit(unsigned i) const
    {
        return (b[i / 8] >> (i % 8)) & 1;
    }

    void
    setMaskBit(unsigned i, bool v)
    {
        if (v)
            b[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
        else
            b[i / 8] &= static_cast<std::uint8_t>(~(1u << (i % 8)));
    }
};

/**
 * Functional memory interface supplied by the NDP device: performs VA
 * translation and routes to scratchpad or device DRAM contents.
 */
class MemoryIf
{
  public:
    virtual ~MemoryIf() = default;
    virtual void read(Addr va, void *out, unsigned size) = 0;
    virtual void write(Addr va, const void *in, unsigned size) = 0;
    virtual std::uint64_t amo(AmoOp op, Addr va, std::uint64_t operand,
                              unsigned width) = 0;
};

/** One coalesced memory reference for the timing layer. */
struct MemRef
{
    bool is_store;
    Addr va;
    std::uint8_t size;
};

/**
 * Fixed-capacity list of memory references touched by one instruction.
 * Capacity covers the worst case (32 one-byte gather elements, or wider
 * elements each straddling two 32 B sectors before dedup), so the hot
 * path never heap-allocates a std::vector per instruction.
 */
struct MemRefList
{
    /** Each of up to kVlenBytes one-byte elements can touch a sector,
     *  and wider elements can straddle two before dedup. */
    static constexpr unsigned kCapacity = 2 * kVlenBytes;

    std::array<MemRef, kCapacity> refs;
    std::uint8_t count = 0;

    MemRefList() = default;
    /** Count-bounded copy: `res = isa::step(...)` runs once per issued
     *  instruction, and most instructions touch 0-2 sectors — copying
     *  the full 64-entry array there costs more than the step itself.
     *  Entries past `count` are never read, so they stay indeterminate. */
    MemRefList(const MemRefList &o) : count(o.count)
    {
        std::copy_n(o.refs.data(), count, refs.data());
    }
    MemRefList &
    operator=(const MemRefList &o)
    {
        count = o.count;
        std::copy_n(o.refs.data(), count, refs.data());
        return *this;
    }

    void
    push(const MemRef &r)
    {
        M2_ASSERT(count < kCapacity, "MemRefList overflow");
        refs[count++] = r;
    }

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    const MemRef &operator[](std::size_t i) const { return refs[i]; }
    const MemRef *begin() const { return refs.data(); }
    const MemRef *end() const { return refs.data() + count; }
};

/** Outcome of executing one instruction. */
struct StepResult
{
    FuType fu = FuType::ScalarAlu;
    unsigned latency = 1;       ///< result latency in cycles (non-memory)
    bool done = false;          ///< uthread finished
    bool blocking_mem = false;  ///< loads/AMOs: stall until data returns
    MemRefList mem;             ///< touched sectors (coalesced to 32 B)
};

/**
 * Architectural state of one uthread. The arrays are full-size for
 * simplicity; the *provisioned* counts (Section III-D: registers are
 * allocated per SW-declared usage) are enforced — touching a register
 * beyond the declared count is a kernel bug and panics.
 */
struct UthreadContext
{
    /** Architectural registers per file (x, f and v). */
    static constexpr unsigned kRegsPerFile = 32;

    std::array<std::uint64_t, kRegsPerFile> x{};
    /** Raw bits, NaN-boxed for FP32. */
    std::array<std::uint64_t, kRegsPerFile> f{};
    std::array<VecReg, kRegsPerFile> v{};

    std::uint32_t pc = 0;
    std::uint8_t sew = 4;  ///< current element width (bytes)
    std::uint32_t vl = 8;  ///< current vector length (elements)

    /** Provisioned register counts from kernel registration. */
    std::uint8_t num_x = 32;
    std::uint8_t num_f = 32;
    std::uint8_t num_v = 32;

    /**
     * Re-arm this context for a fresh uthread. Zeroes only the registers
     * the kernel can touch (the provisioned counts) instead of copying a
     * default-constructed 1.3 KiB context; registers beyond the
     * provisioned counts are unreachable (enforced by the executor).
     */
    void
    resetFor(std::uint8_t nx, std::uint8_t nf, std::uint8_t nv)
    {
        std::fill_n(x.begin(), nx, 0);
        std::fill_n(f.begin(), nf, 0);
        for (unsigned i = 0; i < nv; ++i)
            v[i].b.fill(0);
        pc = 0;
        sew = 4;
        vl = 8;
        num_x = nx;
        num_f = nf;
        num_v = nv;
    }
};

/**
 * Execute the instruction at ctx.pc of @p section, advancing ctx.pc. This
 * is the timing-layer hot path: the assembler filled every opcode trait,
 * so execution performs no per-issue operand parsing and no heap
 * allocation. Panics on malformed kernels (bad register indices,
 * missing vsetvli, out-of-range PC are simulator-user kernel bugs).
 */
StepResult step(UthreadContext &ctx, const KernelSection &section,
                MemoryIf &mem);

/**
 * Convenience: run one uthread section to completion functionally (no
 * timing), with an instruction budget to catch infinite loops.
 * @return dynamic instruction count.
 */
std::uint64_t runToCompletion(UthreadContext &ctx,
                              const KernelSection &section, MemoryIf &mem,
                              std::uint64_t max_instructions = 10'000'000);

} // namespace m2ndp::isa
