#include "isa/executor.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/bitutil.hh"
#include "common/error.hh"
#include "common/log.hh"

namespace m2ndp::isa {

namespace {

constexpr std::uint64_t kNanBoxHigh = 0xFFFFFFFF00000000ull;

/** Zero-extended element read with runtime element width. */
std::uint64_t
vget(const VecReg &r, unsigned sew, unsigned i)
{
    switch (sew) {
      case 1: return r.get<std::uint8_t>(i);
      case 2: return r.get<std::uint16_t>(i);
      case 4: return r.get<std::uint32_t>(i);
      case 8: return r.get<std::uint64_t>(i);
      default: M2_PANIC("bad SEW ", sew);
    }
}

/** Sign-extended element read. */
std::int64_t
vgetS(const VecReg &r, unsigned sew, unsigned i)
{
    return signExtend(vget(r, sew, i), sew * 8);
}

/** Truncating element write. */
void
vset(VecReg &r, unsigned sew, unsigned i, std::uint64_t v)
{
    switch (sew) {
      case 1: r.set<std::uint8_t>(i, static_cast<std::uint8_t>(v)); break;
      case 2: r.set<std::uint16_t>(i, static_cast<std::uint16_t>(v)); break;
      case 4: r.set<std::uint32_t>(i, static_cast<std::uint32_t>(v)); break;
      case 8: r.set<std::uint64_t>(i, v); break;
      default: M2_PANIC("bad SEW ", sew);
    }
}

double
vgetF(const VecReg &r, unsigned sew, unsigned i)
{
    if (sew == 4)
        return r.get<float>(i);
    if (sew == 8)
        return r.get<double>(i);
    M2_PANIC("bad FP SEW ", sew);
}

void
vsetF(VecReg &r, unsigned sew, unsigned i, double v)
{
    if (sew == 4)
        r.set<float>(i, static_cast<float>(v));
    else if (sew == 8)
        r.set<double>(i, v);
    else
        M2_PANIC("bad FP SEW ", sew);
}

float
asF32(std::uint64_t bits)
{
    float f;
    std::uint32_t lo = static_cast<std::uint32_t>(bits);
    std::memcpy(&f, &lo, sizeof(f));
    return f;
}

std::uint64_t
boxF32(float f)
{
    std::uint32_t lo;
    std::memcpy(&lo, &f, sizeof(f));
    return kNanBoxHigh | lo;
}

double
asF64(std::uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

std::uint64_t
boxF64(double d)
{
    std::uint64_t v;
    std::memcpy(&v, &d, sizeof(d));
    return v;
}

/** fcvt.{w,l}.{s,d} without a rounding-mode operand: round to nearest
 *  even (the default frm; the simulator never changes the host's
 *  rounding mode) and saturate as RISC-V does. NaN and positive overflow
 *  give the largest @p Int, negative overflow the smallest. Returned
 *  sign-extended to 64 bits. */
template <typename Int>
std::uint64_t
fcvtToInt(double v)
{
    constexpr Int kMax = std::numeric_limits<Int>::max();
    constexpr Int kMin = std::numeric_limits<Int>::min();
    // 2^(bits-1): the first value above kMax, exact as a double.
    constexpr double kLimit = -static_cast<double>(kMin);
    const double r = std::nearbyint(v);
    Int out;
    if (std::isnan(r) || r >= kLimit)
        out = kMax;
    else if (r < -kLimit)
        out = kMin;
    else
        out = static_cast<Int>(r);
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(out));
}

/** RISC-V fmin/fmax (IEEE 754-2019 minimumNumber/maximumNumber): a NaN
 *  operand yields the other operand, and -0.0 orders below +0.0. */
double
fminRv(double a, double b)
{
    if (a == b)
        return std::signbit(a) ? a : b;
    return std::fmin(a, b);
}

double
fmaxRv(double a, double b)
{
    if (a == b)
        return std::signbit(a) ? b : a;
    return std::fmax(a, b);
}

/** a * b + c rounded once, at the element width (4: float, 8: double). */
double
fmaAt(unsigned sew, double a, double b, double c)
{
    if (sew == 4)
        return std::fma(static_cast<float>(a), static_cast<float>(b),
                        static_cast<float>(c));
    return std::fma(a, b, c);
}

/** Per-element addresses of one vector access (vl <= kVlenBytes). */
struct AddrList
{
    std::array<Addr, kVlenBytes> a;
    unsigned n = 0;

    void
    push(Addr addr)
    {
        M2_ASSERT(n < a.size(), "AddrList overflow");
        a[n++] = addr;
    }
};

/** Coalesce element accesses into 32 B-sector MemRefs (no allocation). */
void
coalesce(MemRefList &out, bool is_store, const AddrList &addrs,
         unsigned width)
{
    // Each element spans at most two sectors before dedup.
    std::array<Addr, 2 * kVlenBytes> sectors;
    unsigned ns = 0;
    for (unsigned i = 0; i < addrs.n; ++i) {
        Addr a = addrs.a[i];
        sectors[ns++] = alignDown(a, kVlenBytes);
        if ((a + width - 1) / kVlenBytes != a / kVlenBytes)
            sectors[ns++] = alignDown(a + width - 1, kVlenBytes);
    }
    std::sort(sectors.begin(), sectors.begin() + ns);
    Addr last = 0;
    for (unsigned i = 0; i < ns; ++i) {
        if (i > 0 && sectors[i] == last)
            continue;
        last = sectors[i];
        out.push(MemRef{is_store, sectors[i], kVlenBytes});
    }
}

/**
 * Execute one instruction against @p ctx, advancing ctx.pc. @p code_size
 * is the section length (end-of-section detection).
 */
StepResult
execute(UthreadContext &ctx, const Instruction &in, std::uint32_t code_size,
        MemoryIf &mem)
{
    StepResult res;
    res.fu = in.fu;
    res.latency = in.latency;

    // Register provisioning checks (Section III-D): the kernel declared how
    // many registers it needs; exceeding that is a kernel bug.
    auto checkX = [&](unsigned r) {
        M2_ASSERT(r == 0 || r < ctx.num_x, "x", r,
                  " exceeds provisioned int registers (", unsigned(ctx.num_x),
                  ") at line ", in.line);
    };
    auto checkF = [&](unsigned r) {
        M2_ASSERT(r < ctx.num_f, "f", r, " exceeds provisioned FP registers (",
                  unsigned(ctx.num_f), ") at line ", in.line);
    };
    auto checkV = [&](unsigned r) {
        M2_ASSERT(r < ctx.num_v, "v", r,
                  " exceeds provisioned vector registers (",
                  unsigned(ctx.num_v), ") at line ", in.line);
    };

    auto rx = [&](unsigned r) -> std::uint64_t {
        checkX(r);
        return r == 0 ? 0 : ctx.x[r];
    };
    auto wx = [&](unsigned r, std::uint64_t v) {
        checkX(r);
        if (r != 0)
            ctx.x[r] = v;
    };
    auto rf = [&](unsigned r) -> std::uint64_t {
        checkF(r);
        return ctx.f[r];
    };
    auto wf = [&](unsigned r, std::uint64_t v) {
        checkF(r);
        ctx.f[r] = v;
    };

    auto branchTo = [&](bool taken) {
        M2_ASSERT(in.target >= 0, "unresolved branch target at line ", in.line);
        ctx.pc = taken ? static_cast<std::uint32_t>(in.target) : ctx.pc + 1;
    };

    // Scalar loads/stores: width and extension behaviour are opcode traits.
    auto scalarLoad = [&] {
        const unsigned width = in.mem_width;
        Addr va = rx(in.rs1) + static_cast<std::uint64_t>(in.imm);
        std::uint64_t raw = 0;
        mem.read(va, &raw, width);
        if (in.mem_fp) {
            wf(in.rd, width == 4 ? (kNanBoxHigh | raw) : raw);
        } else {
            wx(in.rd, in.mem_sign ? static_cast<std::uint64_t>(
                                        signExtend(raw, width * 8))
                                  : raw);
        }
        res.mem.push(MemRef{false, va, static_cast<std::uint8_t>(width)});
        res.blocking_mem = true;
    };
    auto scalarStore = [&] {
        const unsigned width = in.mem_width;
        Addr va = rx(in.rs1) + static_cast<std::uint64_t>(in.imm);
        std::uint64_t raw = in.mem_fp ? rf(in.rs2) : rx(in.rs2);
        mem.write(va, &raw, width);
        res.mem.push(MemRef{true, va, static_cast<std::uint8_t>(width)});
        // Stores are posted; the uthread does not stall.
    };
    auto amo = [&] {
        const unsigned width = in.mem_width;
        Addr va = rx(in.rs1);
        M2_ASSERT(va % width == 0, "misaligned AMO at line ", in.line);
        std::uint64_t old = mem.amo(in.amo_op, va, rx(in.rs2), width);
        wx(in.rd, width == 4 ? static_cast<std::uint64_t>(
                                   signExtend(old, 32))
                             : old);
        res.mem.push(MemRef{true, va, static_cast<std::uint8_t>(width)});
        res.blocking_mem = true;
    };

    // Vector helpers.
    const unsigned sew = ctx.sew;
    const unsigned vl = ctx.vl;
    auto active = [&](unsigned i) {
        return !in.masked || ctx.v[0].maskBit(i);
    };
    /** Touched sectors of a dense byte range (ascending, like coalesce). */
    auto denseSectors = [&](bool is_store, Addr base, unsigned bytes) {
        Addr first = alignDown(base, kVlenBytes);
        Addr last = alignDown(base + bytes - 1, kVlenBytes);
        for (Addr s = first; s <= last; s += kVlenBytes)
            res.mem.push(MemRef{is_store, s, kVlenBytes});
    };
    auto vloadUnit = [&](unsigned eew) {
        checkV(in.rd);
        Addr base = rx(in.rs1) + static_cast<std::uint64_t>(in.imm);
        if (!in.masked && vl > 0) {
            // Unmasked unit-stride: the element data is one contiguous
            // little-endian range, identical to the register layout — one
            // bulk read instead of vl element reads.
            unsigned bytes = vl * eew;
            M2_ASSERT(bytes <= kVlenBytes,
                      "vector access exceeds VLEN: vl=", vl, " eew=", eew,
                      " at line ", in.line);
            mem.read(base, ctx.v[in.rd].b.data(), bytes);
            denseSectors(false, base, bytes);
            res.blocking_mem = true;
            return;
        }
        AddrList addrs;
        for (unsigned i = 0; i < vl; ++i) {
            if (!active(i))
                continue;
            Addr va = base + static_cast<std::uint64_t>(i) * eew;
            std::uint64_t raw = 0;
            mem.read(va, &raw, eew);
            vset(ctx.v[in.rd], eew, i, raw);
            addrs.push(va);
        }
        coalesce(res.mem, false, addrs, eew);
        res.blocking_mem = addrs.n != 0;
    };
    auto vstoreUnit = [&](unsigned eew) {
        checkV(in.rs3);
        Addr base = rx(in.rs1) + static_cast<std::uint64_t>(in.imm);
        if (!in.masked && vl > 0) {
            unsigned bytes = vl * eew;
            M2_ASSERT(bytes <= kVlenBytes,
                      "vector access exceeds VLEN: vl=", vl, " eew=", eew,
                      " at line ", in.line);
            mem.write(base, ctx.v[in.rs3].b.data(), bytes);
            denseSectors(true, base, bytes);
            return;
        }
        AddrList addrs;
        for (unsigned i = 0; i < vl; ++i) {
            if (!active(i))
                continue;
            Addr va = base + static_cast<std::uint64_t>(i) * eew;
            std::uint64_t raw = vget(ctx.v[in.rs3], eew, i);
            mem.write(va, &raw, eew);
            addrs.push(va);
        }
        coalesce(res.mem, true, addrs, eew);
    };
    auto vloadStrided = [&](unsigned eew) {
        checkV(in.rd);
        Addr base = rx(in.rs1) + static_cast<std::uint64_t>(in.imm);
        std::uint64_t stride = rx(in.rs2);
        AddrList addrs;
        for (unsigned i = 0; i < vl; ++i) {
            if (!active(i))
                continue;
            Addr va = base + static_cast<std::uint64_t>(i) * stride;
            std::uint64_t raw = 0;
            mem.read(va, &raw, eew);
            vset(ctx.v[in.rd], eew, i, raw);
            addrs.push(va);
        }
        coalesce(res.mem, false, addrs, eew);
        res.blocking_mem = addrs.n != 0;
    };
    // The index register is one register (LMUL = 1 only): an index EEW
    // wider than SEW at a vl whose indices overflow it would need a
    // register group, which this model does not run. Kernel text is host
    // input, so this traps instead of reading past vs2.
    auto checkIndexFits = [&](unsigned index_eew) {
        if (vl * index_eew > kVlenBytes) [[unlikely]]
            throw KernelTrap{NdpError::IllegalInstruction};
    };
    auto vgather = [&](unsigned index_eew) {
        checkV(in.rd);
        checkV(in.rs2);
        checkIndexFits(index_eew);
        Addr base = rx(in.rs1) + static_cast<std::uint64_t>(in.imm);
        AddrList addrs;
        for (unsigned i = 0; i < vl; ++i) {
            if (!active(i))
                continue;
            Addr va = base + vget(ctx.v[in.rs2], index_eew, i);
            std::uint64_t raw = 0;
            mem.read(va, &raw, sew);
            vset(ctx.v[in.rd], sew, i, raw);
            addrs.push(va);
        }
        coalesce(res.mem, false, addrs, sew);
        res.blocking_mem = addrs.n != 0;
    };
    auto vscatter = [&](unsigned index_eew) {
        checkV(in.rs3);
        checkV(in.rs2);
        checkIndexFits(index_eew);
        Addr base = rx(in.rs1) + static_cast<std::uint64_t>(in.imm);
        AddrList addrs;
        for (unsigned i = 0; i < vl; ++i) {
            if (!active(i))
                continue;
            Addr va = base + vget(ctx.v[in.rs2], index_eew, i);
            std::uint64_t raw = vget(ctx.v[in.rs3], sew, i);
            mem.write(va, &raw, sew);
            addrs.push(va);
        }
        coalesce(res.mem, true, addrs, sew);
    };

    // The second source of a vector op, by its kind (Instruction::src):
    // element i of vs1 (.vv), or a scalar read once. Each operation has one
    // case across its operand forms; withIntSrc/withFpSrc compile its loop
    // once per form, so the form is not re-tested per element.
    //
    // These helpers are forced inline: a lambda instantiated out of line
    // needs the closures it refers to built on the stack, and this function
    // builds them on every call, whatever the opcode.
    const bool src_vec = in.src == Src::V;
    auto withIntSrc = [&](auto body) __attribute__((always_inline)) {
        if (src_vec) {
            checkV(in.rs1);
            body([&](unsigned i) { return vget(ctx.v[in.rs1], sew, i); });
            return;
        }
        const std::uint64_t s = in.src == Src::X
                                    ? rx(in.rs1)
                                    : static_cast<std::uint64_t>(in.imm);
        body([s](unsigned) { return s; });
    };
    auto withFpSrc = [&](auto body) __attribute__((always_inline)) {
        if (src_vec) {
            checkV(in.rs1);
            body([&](unsigned i) { return vgetF(ctx.v[in.rs1], sew, i); });
            return;
        }
        const double s = sew == 4 ? asF32(rf(in.rs1)) : asF64(rf(in.rs1));
        body([s](unsigned) { return s; });
    };
    // Signed and unsigned views of a SEW-bit element.
    auto sx = [&](std::uint64_t v) { return signExtend(v, 8 * sew); };
    auto zx = [&](std::uint64_t v) {
        return static_cast<std::int64_t>(v & (~0ull >> (64 - 8 * sew)));
    };

    /** vd[i] = fn(vs2[i], src[i] & src_mask) on zero-extended elements. */
    auto vBinop = [&](auto fn, std::uint64_t src_mask = ~0ull) __attribute__((always_inline)) {
        checkV(in.rd);
        checkV(in.rs2);
        withIntSrc([&](auto src) {
            for (unsigned i = 0; i < vl; ++i) {
                if (active(i))
                    vset(ctx.v[in.rd], sew, i,
                         fn(vget(ctx.v[in.rs2], sew, i), src(i) & src_mask));
            }
        });
    };

    /** vd[i] = fn(vs2[i], src[i], i) on FP elements (sew 4 or 8). */
    auto vfBinop = [&](auto fn) __attribute__((always_inline)) {
        checkV(in.rd);
        checkV(in.rs2);
        withFpSrc([&](auto src) {
            for (unsigned i = 0; i < vl; ++i) {
                if (active(i))
                    vsetF(ctx.v[in.rd], sew, i,
                          fn(vgetF(ctx.v[in.rs2], sew, i), src(i), i));
            }
        });
    };

    /** Mask-producing compare: v[rd] bit i = fn(ext(vs2[i]), ext(src[i])).
     *  A scalar operand is cut to SEW bits like the elements; ext is sx
     *  (signed compares) or zx (unsigned). */
    auto vCompare = [&](auto fn, auto ext) __attribute__((always_inline)) {
        checkV(in.rd);
        checkV(in.rs2);
        withIntSrc([&](auto src) {
            for (unsigned i = 0; i < vl; ++i) {
                if (active(i))
                    ctx.v[in.rd].setMaskBit(
                        i, fn(ext(vget(ctx.v[in.rs2], sew, i)), ext(src(i))));
            }
        });
    };

    /** FP compare: v[rd] bit i = fn(vs2[i], src[i]). */
    auto vfCompare = [&](auto fn) __attribute__((always_inline)) {
        checkV(in.rd);
        checkV(in.rs2);
        withFpSrc([&](auto src) {
            for (unsigned i = 0; i < vl; ++i) {
                if (active(i))
                    ctx.v[in.rd].setMaskBit(
                        i, fn(vgetF(ctx.v[in.rs2], sew, i), src(i)));
            }
        });
    };

    /** x[rs2] (register forms) or the immediate (immediate forms). */
    auto src2 = [&]() -> std::uint64_t {
        return in.src == Src::I ? static_cast<std::uint64_t>(in.imm)
                                : rx(in.rs2);
    };
    auto sext32 = [](std::uint64_t v) {
        return static_cast<std::uint64_t>(signExtend(v, 32));
    };

    bool pc_set = false;

    switch (in.op) {
      // ------------------------------------------------------- scalar int
      case Opcode::NOP:
        break;
      case Opcode::LUI:
        // RV64: the 32-bit result is sign-extended.
        wx(in.rd, static_cast<std::uint64_t>(signExtend(
                      static_cast<std::uint64_t>(in.imm) << 12, 32)));
        break;
      case Opcode::LI:
        wx(in.rd, static_cast<std::uint64_t>(in.imm));
        break;
      case Opcode::MV:
        wx(in.rd, rx(in.rs1));
        break;
      // Register and immediate forms share a case (src2).
      case Opcode::ADD: case Opcode::ADDI: wx(in.rd, rx(in.rs1) + src2()); break;
      case Opcode::ADDW: case Opcode::ADDIW:
        wx(in.rd, sext32(rx(in.rs1) + src2()));
        break;
      case Opcode::SUB: wx(in.rd, rx(in.rs1) - rx(in.rs2)); break;
      case Opcode::SUBW: wx(in.rd, sext32(rx(in.rs1) - rx(in.rs2))); break;
      case Opcode::AND: case Opcode::ANDI: wx(in.rd, rx(in.rs1) & src2()); break;
      case Opcode::OR: case Opcode::ORI: wx(in.rd, rx(in.rs1) | src2()); break;
      case Opcode::XOR: case Opcode::XORI: wx(in.rd, rx(in.rs1) ^ src2()); break;
      case Opcode::SLL: case Opcode::SLLI:
        wx(in.rd, rx(in.rs1) << (src2() & 63));
        break;
      case Opcode::SRL: case Opcode::SRLI:
        wx(in.rd, rx(in.rs1) >> (src2() & 63));
        break;
      case Opcode::SRA: case Opcode::SRAI:
        wx(in.rd, static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(rx(in.rs1)) >> (src2() & 63)));
        break;
      case Opcode::SLT: case Opcode::SLTI:
        wx(in.rd, static_cast<std::int64_t>(rx(in.rs1)) <
                          static_cast<std::int64_t>(src2())
                      ? 1
                      : 0);
        break;
      case Opcode::SLTU: case Opcode::SLTIU:
        wx(in.rd, rx(in.rs1) < src2() ? 1 : 0);
        break;
      case Opcode::MUL: wx(in.rd, rx(in.rs1) * rx(in.rs2)); break;
      case Opcode::MULW: wx(in.rd, sext32(rx(in.rs1) * rx(in.rs2))); break;
      case Opcode::MULH:
        wx(in.rd,
           static_cast<std::uint64_t>(
               (static_cast<__int128>(static_cast<std::int64_t>(rx(in.rs1))) *
                static_cast<__int128>(static_cast<std::int64_t>(rx(in.rs2)))) >>
               64));
        break;
      case Opcode::DIV: {
        // RISC-V defines x / 0 = -1 and the one overflow, INT64_MIN / -1,
        // as INT64_MIN; C++ leaves the latter undefined (x86 traps).
        auto a = static_cast<std::int64_t>(rx(in.rs1));
        auto b = static_cast<std::int64_t>(rx(in.rs2));
        wx(in.rd, b == 0    ? ~0ull
                  : b == -1 ? 0 - static_cast<std::uint64_t>(a)
                            : static_cast<std::uint64_t>(a / b));
        break;
      }
      case Opcode::DIVU: {
        std::uint64_t b = rx(in.rs2);
        wx(in.rd, b == 0 ? ~0ull : rx(in.rs1) / b);
        break;
      }
      case Opcode::REM: {
        auto a = static_cast<std::int64_t>(rx(in.rs1));
        auto b = static_cast<std::int64_t>(rx(in.rs2));
        wx(in.rd, b == 0    ? static_cast<std::uint64_t>(a)
                  : b == -1 ? 0
                            : static_cast<std::uint64_t>(a % b));
        break;
      }
      case Opcode::REMU: {
        std::uint64_t b = rx(in.rs2);
        wx(in.rd, b == 0 ? rx(in.rs1) : rx(in.rs1) % b);
        break;
      }

      // ------------------------------------------------------ control flow
      case Opcode::BEQ: branchTo(rx(in.rs1) == rx(in.rs2)); pc_set = true; break;
      case Opcode::BNE: branchTo(rx(in.rs1) != rx(in.rs2)); pc_set = true; break;
      case Opcode::BLT:
        branchTo(static_cast<std::int64_t>(rx(in.rs1)) <
                 static_cast<std::int64_t>(rx(in.rs2)));
        pc_set = true;
        break;
      case Opcode::BGE:
        branchTo(static_cast<std::int64_t>(rx(in.rs1)) >=
                 static_cast<std::int64_t>(rx(in.rs2)));
        pc_set = true;
        break;
      case Opcode::BLTU: branchTo(rx(in.rs1) < rx(in.rs2)); pc_set = true; break;
      case Opcode::BGEU: branchTo(rx(in.rs1) >= rx(in.rs2)); pc_set = true; break;
      case Opcode::J:
        branchTo(true);
        pc_set = true;
        break;

      // ------------------------------------------------------ scalar memory
      case Opcode::LB: case Opcode::LBU: case Opcode::LH: case Opcode::LHU:
      case Opcode::LW: case Opcode::LWU: case Opcode::LD:
      case Opcode::FLW: case Opcode::FLD:
        scalarLoad();
        break;
      case Opcode::SB: case Opcode::SH: case Opcode::SW: case Opcode::SD:
      case Opcode::FSW: case Opcode::FSD:
        scalarStore();
        break;

      case Opcode::AMOADD_W: case Opcode::AMOADD_D:
      case Opcode::AMOSWAP_W: case Opcode::AMOSWAP_D:
      case Opcode::AMOMIN_W: case Opcode::AMOMIN_D:
      case Opcode::AMOMAX_W: case Opcode::AMOMAX_D:
      case Opcode::AMOMINU_W: case Opcode::AMOMINU_D:
      case Opcode::AMOMAXU_W: case Opcode::AMOMAXU_D:
      case Opcode::AMOAND_W: case Opcode::AMOAND_D:
      case Opcode::AMOOR_W: case Opcode::AMOOR_D:
      case Opcode::AMOXOR_W: case Opcode::AMOXOR_D:
        amo();
        break;

      case Opcode::FENCE:
        // Functional-first: stores already applied; timing layer may drain.
        break;

      // ------------------------------------------------------- scalar float
      case Opcode::FADD_S: wf(in.rd, boxF32(asF32(rf(in.rs1)) + asF32(rf(in.rs2)))); break;
      case Opcode::FSUB_S: wf(in.rd, boxF32(asF32(rf(in.rs1)) - asF32(rf(in.rs2)))); break;
      case Opcode::FMUL_S: wf(in.rd, boxF32(asF32(rf(in.rs1)) * asF32(rf(in.rs2)))); break;
      case Opcode::FDIV_S: wf(in.rd, boxF32(asF32(rf(in.rs1)) / asF32(rf(in.rs2)))); break;
      case Opcode::FSQRT_S: wf(in.rd, boxF32(std::sqrt(asF32(rf(in.rs1))))); break;
      case Opcode::FMADD_S:
        wf(in.rd, boxF32(std::fma(asF32(rf(in.rs1)), asF32(rf(in.rs2)),
                                  asF32(rf(in.rs3)))));
        break;
      case Opcode::FMIN_S: wf(in.rd, boxF32(static_cast<float>(fminRv(asF32(rf(in.rs1)), asF32(rf(in.rs2)))))); break;
      case Opcode::FMAX_S: wf(in.rd, boxF32(static_cast<float>(fmaxRv(asF32(rf(in.rs1)), asF32(rf(in.rs2)))))); break;
      case Opcode::FADD_D: wf(in.rd, boxF64(asF64(rf(in.rs1)) + asF64(rf(in.rs2)))); break;
      case Opcode::FSUB_D: wf(in.rd, boxF64(asF64(rf(in.rs1)) - asF64(rf(in.rs2)))); break;
      case Opcode::FMUL_D: wf(in.rd, boxF64(asF64(rf(in.rs1)) * asF64(rf(in.rs2)))); break;
      case Opcode::FDIV_D: wf(in.rd, boxF64(asF64(rf(in.rs1)) / asF64(rf(in.rs2)))); break;
      case Opcode::FSQRT_D: wf(in.rd, boxF64(std::sqrt(asF64(rf(in.rs1))))); break;
      case Opcode::FMADD_D:
        wf(in.rd, boxF64(std::fma(asF64(rf(in.rs1)), asF64(rf(in.rs2)),
                                  asF64(rf(in.rs3)))));
        break;
      case Opcode::FMIN_D: wf(in.rd, boxF64(fminRv(asF64(rf(in.rs1)), asF64(rf(in.rs2))))); break;
      case Opcode::FMAX_D: wf(in.rd, boxF64(fmaxRv(asF64(rf(in.rs1)), asF64(rf(in.rs2))))); break;
      case Opcode::FMV_S: case Opcode::FMV_D: wf(in.rd, rf(in.rs1)); break;
      case Opcode::FMV_X_W:
        wx(in.rd, static_cast<std::uint64_t>(
                      signExtend(rf(in.rs1) & 0xFFFFFFFFull, 32)));
        break;
      case Opcode::FMV_W_X: wf(in.rd, kNanBoxHigh | (rx(in.rs1) & 0xFFFFFFFFull)); break;
      case Opcode::FMV_X_D: wx(in.rd, rf(in.rs1)); break;
      case Opcode::FMV_D_X: wf(in.rd, rx(in.rs1)); break;
      case Opcode::FCVT_S_W:
        wf(in.rd, boxF32(static_cast<float>(
                      static_cast<std::int32_t>(rx(in.rs1)))));
        break;
      case Opcode::FCVT_S_L:
        wf(in.rd, boxF32(static_cast<float>(
                      static_cast<std::int64_t>(rx(in.rs1)))));
        break;
      case Opcode::FCVT_D_W:
        wf(in.rd, boxF64(static_cast<double>(
                      static_cast<std::int32_t>(rx(in.rs1)))));
        break;
      case Opcode::FCVT_D_L:
        wf(in.rd, boxF64(static_cast<double>(
                      static_cast<std::int64_t>(rx(in.rs1)))));
        break;
      case Opcode::FCVT_W_S: wx(in.rd, fcvtToInt<std::int32_t>(asF32(rf(in.rs1)))); break;
      case Opcode::FCVT_L_S: wx(in.rd, fcvtToInt<std::int64_t>(asF32(rf(in.rs1)))); break;
      case Opcode::FCVT_W_D: wx(in.rd, fcvtToInt<std::int32_t>(asF64(rf(in.rs1)))); break;
      case Opcode::FCVT_L_D: wx(in.rd, fcvtToInt<std::int64_t>(asF64(rf(in.rs1)))); break;
      case Opcode::FCVT_D_S: wf(in.rd, boxF64(asF32(rf(in.rs1)))); break;
      case Opcode::FCVT_S_D: wf(in.rd, boxF32(static_cast<float>(asF64(rf(in.rs1))))); break;
      case Opcode::FEQ_S: wx(in.rd, asF32(rf(in.rs1)) == asF32(rf(in.rs2)) ? 1 : 0); break;
      case Opcode::FEQ_D: wx(in.rd, asF64(rf(in.rs1)) == asF64(rf(in.rs2)) ? 1 : 0); break;
      case Opcode::FLT_S: wx(in.rd, asF32(rf(in.rs1)) < asF32(rf(in.rs2)) ? 1 : 0); break;
      case Opcode::FLT_D: wx(in.rd, asF64(rf(in.rs1)) < asF64(rf(in.rs2)) ? 1 : 0); break;
      case Opcode::FLE_S: wx(in.rd, asF32(rf(in.rs1)) <= asF32(rf(in.rs2)) ? 1 : 0); break;
      case Opcode::FLE_D: wx(in.rd, asF64(rf(in.rs1)) <= asF64(rf(in.rs2)) ? 1 : 0); break;

      // ---------------------------------------------------- vector config
      case Opcode::VSETVLI: {
        ctx.sew = in.sew;
        unsigned vlmax = kVlenBytes / in.sew;
        std::uint64_t avl = in.rs1 == 0 ? vlmax : rx(in.rs1);
        ctx.vl = static_cast<std::uint32_t>(std::min<std::uint64_t>(avl, vlmax));
        wx(in.rd, ctx.vl);
        break;
      }

      // ---------------------------------------------------- vector memory
      case Opcode::VLE8: case Opcode::VLE16: case Opcode::VLE32:
      case Opcode::VLE64:
        vloadUnit(in.mem_width);
        break;
      case Opcode::VSE8: case Opcode::VSE16: case Opcode::VSE32:
      case Opcode::VSE64:
        vstoreUnit(in.mem_width);
        break;
      case Opcode::VLSE32: case Opcode::VLSE64:
        vloadStrided(in.mem_width);
        break;
      case Opcode::VLUXEI32: case Opcode::VLUXEI64:
        vgather(in.mem_width);
        break;
      case Opcode::VSUXEI32: case Opcode::VSUXEI64:
        vscatter(in.mem_width);
        break;

      // ------------------------------------------------------- vector int
      case Opcode::VADD_VV: case Opcode::VADD_VX: case Opcode::VADD_VI:
        vBinop([](std::uint64_t a, std::uint64_t b) { return a + b; });
        break;
      case Opcode::VSUB_VV: case Opcode::VSUB_VX:
        vBinop([](std::uint64_t a, std::uint64_t b) { return a - b; });
        break;
      case Opcode::VMUL_VV: case Opcode::VMUL_VX:
        vBinop([](std::uint64_t a, std::uint64_t b) { return a * b; });
        break;
      case Opcode::VAND_VV: case Opcode::VAND_VX: case Opcode::VAND_VI:
        vBinop([](std::uint64_t a, std::uint64_t b) { return a & b; });
        break;
      case Opcode::VOR_VV: case Opcode::VOR_VX: case Opcode::VOR_VI:
        vBinop([](std::uint64_t a, std::uint64_t b) { return a | b; });
        break;
      case Opcode::VXOR_VV: case Opcode::VXOR_VX: case Opcode::VXOR_VI:
        vBinop([](std::uint64_t a, std::uint64_t b) { return a ^ b; });
        break;
      // Shifts use the low log2(SEW) bits of the amount.
      case Opcode::VSLL_VI: case Opcode::VSLL_VX:
        vBinop([](std::uint64_t a, std::uint64_t b) { return a << b; },
               8 * sew - 1);
        break;
      case Opcode::VSRL_VI: case Opcode::VSRL_VX:
        vBinop([](std::uint64_t a, std::uint64_t b) { return a >> b; },
               8 * sew - 1);
        break;
      case Opcode::VSRA_VI:
        vBinop([&](std::uint64_t a, std::uint64_t b) {
                   return static_cast<std::uint64_t>(sx(a) >> b);
               },
               8 * sew - 1);
        break;
      case Opcode::VMIN_VV:
        vBinop([&](std::uint64_t a, std::uint64_t b) {
            return static_cast<std::uint64_t>(std::min(sx(a), sx(b)));
        });
        break;
      case Opcode::VMAX_VV:
        vBinop([&](std::uint64_t a, std::uint64_t b) {
            return static_cast<std::uint64_t>(std::max(sx(a), sx(b)));
        });
        break;
      case Opcode::VMINU_VV:
        vBinop([](std::uint64_t a, std::uint64_t b) { return std::min(a, b); });
        break;
      case Opcode::VMAXU_VV:
        vBinop([](std::uint64_t a, std::uint64_t b) { return std::max(a, b); });
        break;
      case Opcode::VID_V: {
        checkV(in.rd);
        for (unsigned i = 0; i < vl; ++i) {
            if (!active(i))
                continue;
            vset(ctx.v[in.rd], sew, i, i);
        }
        break;
      }
      case Opcode::VMV_V_V: case Opcode::VMV_V_X: case Opcode::VMV_V_I:
        // vd[i] = src[i] (unmasked; elements past vl are tail).
        checkV(in.rd);
        withIntSrc([&](auto src) {
            for (unsigned i = 0; i < vl; ++i)
                vset(ctx.v[in.rd], sew, i, src(i));
        });
        break;
      case Opcode::VMV_X_S:
        checkV(in.rs2);
        wx(in.rd, static_cast<std::uint64_t>(vgetS(ctx.v[in.rs2], sew, 0)));
        break;
      case Opcode::VMV_S_X:
        checkV(in.rd);
        vset(ctx.v[in.rd], sew, 0, rx(in.rs1));
        break;

      // ------------------------------------------------------ vector float
      case Opcode::VFADD_VV: case Opcode::VFADD_VF:
        vfBinop([](double a, double b, unsigned) { return a + b; });
        break;
      case Opcode::VFSUB_VV: case Opcode::VFSUB_VF:
        vfBinop([](double a, double b, unsigned) { return a - b; });
        break;
      case Opcode::VFMUL_VV: case Opcode::VFMUL_VF:
        vfBinop([](double a, double b, unsigned) { return a * b; });
        break;
      case Opcode::VFDIV_VV: case Opcode::VFDIV_VF:
        vfBinop([](double a, double b, unsigned) { return a / b; });
        break;
      case Opcode::VFMACC_VV: case Opcode::VFMACC_VF:
        // vd[i] += src[i] * vs2[i], rounded once.
        vfBinop([&](double a, double b, unsigned i) {
            return fmaAt(sew, b, a, vgetF(ctx.v[in.rd], sew, i));
        });
        break;
      case Opcode::VFMIN_VV:
        vfBinop([](double a, double b, unsigned) { return fminRv(a, b); });
        break;
      case Opcode::VFMAX_VV:
        vfBinop([](double a, double b, unsigned) { return fmaxRv(a, b); });
        break;
      case Opcode::VFMV_V_F:
        checkV(in.rd);
        withFpSrc([&](auto src) {
            for (unsigned i = 0; i < vl; ++i)
                vsetF(ctx.v[in.rd], sew, i, src(i));
        });
        break;
      case Opcode::VFMV_F_S:
        checkV(in.rs2);
        wf(in.rd, sew == 4
                      ? boxF32(static_cast<float>(vgetF(ctx.v[in.rs2], sew, 0)))
                      : boxF64(vgetF(ctx.v[in.rs2], sew, 0)));
        break;
      case Opcode::VFMV_S_F:
        checkV(in.rd);
        withFpSrc([&](auto src) { vsetF(ctx.v[in.rd], sew, 0, src(0)); });
        break;

      // ------------------------------------------------------- reductions
      case Opcode::VREDSUM_VS: case Opcode::VREDMAX_VS:
      case Opcode::VREDMIN_VS: case Opcode::VREDAND_VS:
      case Opcode::VREDOR_VS: {
        // vd[0] = reduce(vs1[0], vs2[*])
        checkV(in.rd); checkV(in.rs1); checkV(in.rs2);
        std::int64_t acc = vgetS(ctx.v[in.rs1], sew, 0);
        for (unsigned i = 0; i < vl; ++i) {
            if (!active(i))
                continue;
            std::int64_t e = vgetS(ctx.v[in.rs2], sew, i);
            switch (in.op) {
              case Opcode::VREDSUM_VS: acc += e; break;
              case Opcode::VREDMAX_VS: acc = std::max(acc, e); break;
              case Opcode::VREDMIN_VS: acc = std::min(acc, e); break;
              case Opcode::VREDAND_VS: acc &= e; break;
              case Opcode::VREDOR_VS: acc |= e; break;
              default: break;
            }
        }
        vset(ctx.v[in.rd], sew, 0, static_cast<std::uint64_t>(acc));
        break;
      }
      case Opcode::VFREDUSUM_VS: case Opcode::VFREDMAX_VS:
      case Opcode::VFREDMIN_VS: {
        checkV(in.rd); checkV(in.rs1); checkV(in.rs2);
        double acc = vgetF(ctx.v[in.rs1], sew, 0);
        for (unsigned i = 0; i < vl; ++i) {
            if (!active(i))
                continue;
            double e = vgetF(ctx.v[in.rs2], sew, i);
            switch (in.op) {
              case Opcode::VFREDUSUM_VS: acc += e; break;
              case Opcode::VFREDMAX_VS: acc = fmaxRv(acc, e); break;
              case Opcode::VFREDMIN_VS: acc = fminRv(acc, e); break;
              default: break;
            }
        }
        vsetF(ctx.v[in.rd], sew, 0, acc);
        break;
      }

      // ---------------------------------------------------------- compares
      case Opcode::VMSEQ_VV: case Opcode::VMSEQ_VX: case Opcode::VMSEQ_VI:
        vCompare([](std::int64_t a, std::int64_t b) { return a == b; }, sx);
        break;
      case Opcode::VMSNE_VV: case Opcode::VMSNE_VX: case Opcode::VMSNE_VI:
        vCompare([](std::int64_t a, std::int64_t b) { return a != b; }, sx);
        break;
      case Opcode::VMSLT_VV: case Opcode::VMSLT_VX:
        vCompare([](std::int64_t a, std::int64_t b) { return a < b; }, sx);
        break;
      case Opcode::VMSLE_VV: case Opcode::VMSLE_VX: case Opcode::VMSLE_VI:
        vCompare([](std::int64_t a, std::int64_t b) { return a <= b; }, sx);
        break;
      case Opcode::VMSGT_VX: case Opcode::VMSGT_VI:
        vCompare([](std::int64_t a, std::int64_t b) { return a > b; }, sx);
        break;
      case Opcode::VMSGE_VX:
        vCompare([](std::int64_t a, std::int64_t b) { return a >= b; }, sx);
        break;
      // Unsigned: both sides are zero-extended, so compare as unsigned.
      case Opcode::VMSLTU_VV: case Opcode::VMSLTU_VX:
        vCompare([](std::int64_t a, std::int64_t b) {
            return static_cast<std::uint64_t>(a) < static_cast<std::uint64_t>(b);
        }, zx);
        break;
      case Opcode::VMSGTU_VX:
        vCompare([](std::int64_t a, std::int64_t b) {
            return static_cast<std::uint64_t>(a) > static_cast<std::uint64_t>(b);
        }, zx);
        break;
      case Opcode::VMFLT_VF:
        vfCompare([](double a, double b) { return a < b; });
        break;
      case Opcode::VMFLE_VF:
        vfCompare([](double a, double b) { return a <= b; });
        break;
      case Opcode::VMFGT_VF:
        vfCompare([](double a, double b) { return a > b; });
        break;
      case Opcode::VMFGE_VF:
        vfCompare([](double a, double b) { return a >= b; });
        break;
      case Opcode::VMFEQ_VF:
        vfCompare([](double a, double b) { return a == b; });
        break;
      case Opcode::VMFNE_VF:
        vfCompare([](double a, double b) { return a != b; });
        break;

      // ----------------------------------------------------- mask ops
      case Opcode::VMAND_MM: case Opcode::VMOR_MM: case Opcode::VMXOR_MM:
      case Opcode::VMNAND_MM: {
        checkV(in.rd); checkV(in.rs1); checkV(in.rs2);
        for (unsigned i = 0; i < vl; ++i) {
            bool a = ctx.v[in.rs2].maskBit(i);
            bool b = ctx.v[in.rs1].maskBit(i);
            bool r = false;
            switch (in.op) {
              case Opcode::VMAND_MM: r = a && b; break;
              case Opcode::VMOR_MM: r = a || b; break;
              case Opcode::VMXOR_MM: r = a != b; break;
              case Opcode::VMNAND_MM: r = !(a && b); break;
              default: break;
            }
            ctx.v[in.rd].setMaskBit(i, r);
        }
        break;
      }
      case Opcode::VMNOT_M: {
        checkV(in.rd); checkV(in.rs2);
        for (unsigned i = 0; i < vl; ++i)
            ctx.v[in.rd].setMaskBit(i, !ctx.v[in.rs2].maskBit(i));
        break;
      }
      case Opcode::VCPOP_M: {
        checkV(in.rs2);
        std::uint64_t count = 0;
        for (unsigned i = 0; i < vl; ++i) {
            if (ctx.v[in.rs2].maskBit(i))
                ++count;
        }
        wx(in.rd, count);
        break;
      }
      case Opcode::VFIRST_M: {
        checkV(in.rs2);
        std::int64_t first = -1;
        for (unsigned i = 0; i < vl; ++i) {
            if (ctx.v[in.rs2].maskBit(i)) {
                first = i;
                break;
            }
        }
        wx(in.rd, static_cast<std::uint64_t>(first));
        break;
      }
      case Opcode::VMERGE_VVM: case Opcode::VMERGE_VXM:
      case Opcode::VMERGE_VIM:
        // vd[i] = v0.mask[i] ? src[i] : vs2[i]
        checkV(in.rd);
        checkV(in.rs2);
        withIntSrc([&](auto src) {
            for (unsigned i = 0; i < vl; ++i)
                vset(ctx.v[in.rd], sew, i,
                     ctx.v[0].maskBit(i) ? src(i) : vget(ctx.v[in.rs2], sew, i));
        });
        break;

      case Opcode::EXIT:
        res.done = true;
        break;
    }

    if (!pc_set)
        ++ctx.pc;
    if (ctx.pc >= code_size)
        res.done = true;
    return res;
}

} // namespace

// --------------------------------------------------------------------------
// Execution entry points
// --------------------------------------------------------------------------

StepResult
step(UthreadContext &ctx, const KernelSection &section, MemoryIf &mem)
{
    const auto size = static_cast<std::uint32_t>(section.code.size());
    M2_ASSERT(ctx.pc < size, "PC out of range: ", ctx.pc, " of ", size);
    return execute(ctx, section.code[ctx.pc], size, mem);
}

std::uint64_t
runToCompletion(UthreadContext &ctx, const KernelSection &section,
                MemoryIf &mem, std::uint64_t max_instructions)
{
    std::uint64_t executed = 0;
    if (section.code.empty())
        return 0;
    while (executed < max_instructions) {
        StepResult r = step(ctx, section, mem);
        ++executed;
        if (r.done)
            return executed;
    }
    M2_PANIC("uthread exceeded instruction budget (", max_instructions,
             "): infinite loop in kernel?");
}

} // namespace m2ndp::isa
