/**
 * @file
 * Tests for the RISC-V assembler and functional executor: parsing,
 * scalar/vector/atomic semantics, masks, reductions, register
 * provisioning enforcement, and memory-reference coalescing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <set>

#include "common/error.hh"
#include "isa/assembler.hh"
#include "isa/executor.hh"
#include "mem/sparse_memory.hh"

namespace m2ndp::isa {
namespace {

/** Flat functional memory with no translation, for executor tests. */
class FlatMemory : public MemoryIf
{
  public:
    void
    read(Addr va, void *out, unsigned size) override
    {
        mem.read(va, out, size);
    }

    void
    write(Addr va, const void *in, unsigned size) override
    {
        mem.write(va, in, size);
    }

    std::uint64_t
    amo(AmoOp op, Addr va, std::uint64_t operand, unsigned width) override
    {
        return amoExecute(mem, op, va, operand, width);
    }

    SparseMemory mem;
};

/** Assemble @p text with @p as; a diagnostic fails the calling test. */
AssembledKernel
assembleOk(const Assembler &as, const std::string &text)
{
    std::string error;
    AssembledKernel k = as.assemble(text, error);
    EXPECT_EQ(error, "");
    return k;
}

/** Assemble a single-section kernel. */
KernelSection
assembleOne(const std::string &text)
{
    AssembledKernel k = assembleOk(Assembler(), text);
    EXPECT_EQ(k.sections.size(), 1u);
    return k.sections.empty() ? KernelSection{} : k.sections[0];
}

/** Assemble a single-body kernel and run one uthread to completion. */
std::uint64_t
run(const std::string &text, UthreadContext &ctx, FlatMemory &mem)
{
    return runToCompletion(ctx, assembleOne(text), mem);
}

TEST(Assembler, ParsesSectionsAndName)
{
    Assembler as;
    auto k = assembleOk(as, R"(
        .name reduction
        .init
            li x3, 0x1000
            sd x0, (x3)
        .body
            vsetvli x0, x0, e64, m1
            vle64.v v2, (x1)
        .fini
            ld x4, (x3)
    )");
    EXPECT_EQ(k.name, "reduction");
    ASSERT_EQ(k.sections.size(), 3u);
    EXPECT_EQ(k.sections[0].kind, SectionKind::Initializer);
    EXPECT_EQ(k.sections[1].kind, SectionKind::Body);
    EXPECT_EQ(k.sections[2].kind, SectionKind::Finalizer);
    EXPECT_EQ(k.sections[0].code.size(), 2u);
    EXPECT_EQ(k.sections[1].code.size(), 2u);
    EXPECT_EQ(k.sections[2].code.size(), 1u);
}

/** Fold the eight little-endian bytes of @p v into 64-bit FNV-1a @p h. */
void
fnvFold(std::uint64_t &h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001b3ull;
    }
}

TEST(Assembler, OpcodeTraitsGolden)
{
    // Every mnemonic of the assembler once, grouped by operand format:
    // {operands, mnemonics}. The hash pins the opcode-derived traits of
    // every µop the units run.
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        groups = {
        {"", {"nop", "fence", "exit"}},
        {"x1, x2, x3",
         {"add", "addw", "sub", "subw", "and", "or", "xor", "sll", "srl",
          "sra", "slt", "sltu", "mul", "mulw", "mulh", "div", "divu", "rem",
          "remu"}},
        {"x1, x2, 3",
         {"addi", "addiw", "andi", "ori", "xori", "slli", "srli", "srai",
          "slti", "sltiu"}},
        {"x1, 5", {"lui", "li"}},
        {"x1, x2", {"mv"}},
        {"x1, 8(x2)", {"lb", "lbu", "lh", "lhu", "lw", "lwu", "ld"}},
        {"f1, 8(x2)", {"flw", "fld"}},
        {"x1, 8(x2)", {"sb", "sh", "sw", "sd"}},
        {"f1, 8(x2)", {"fsw", "fsd"}},
        {"x1, x2, top", {"beq", "bne", "blt", "bge", "bltu", "bgeu"}},
        {"top", {"j"}},
        {"x1, x2, (x3)",
         {"amoadd.w", "amoadd.d", "amoswap.w", "amoswap.d", "amomin.w",
          "amomin.d", "amomax.w", "amomax.d", "amominu.w", "amominu.d",
          "amomaxu.w", "amomaxu.d", "amoand.w", "amoand.d", "amoor.w",
          "amoor.d", "amoxor.w", "amoxor.d"}},
        {"f1, f2, f3",
         {"fadd.s", "fadd.d", "fsub.s", "fsub.d", "fmul.s", "fmul.d",
          "fdiv.s", "fdiv.d", "fmin.s", "fmin.d", "fmax.s", "fmax.d"}},
        {"f1, f2, f3, f4", {"fmadd.s", "fmadd.d"}},
        {"f1, f2",
         {"fsqrt.s", "fsqrt.d", "fmv.s", "fmv.d", "fcvt.d.s", "fcvt.s.d"}},
        {"x1, f2",
         {"fmv.x.w", "fmv.x.d", "fcvt.w.s", "fcvt.l.s", "fcvt.w.d",
          "fcvt.l.d"}},
        {"f1, x2",
         {"fmv.w.x", "fmv.d.x", "fcvt.s.w", "fcvt.s.l", "fcvt.d.w",
          "fcvt.d.l"}},
        {"x1, f2, f3", {"feq.s", "feq.d", "flt.s", "flt.d", "fle.s", "fle.d"}},
        {"x0, x0, e32, m1", {"vsetvli"}},
        {"v1, (x2)", {"vle8.v", "vle16.v", "vle32.v", "vle64.v"}},
        {"v1, (x2), x3", {"vlse32.v", "vlse64.v"}},
        {"v1, (x2), v3", {"vluxei32.v", "vluxei64.v"}},
        {"v1, (x2)", {"vse8.v", "vse16.v", "vse32.v", "vse64.v"}},
        {"v1, (x2), v3", {"vsuxei32.v", "vsuxei64.v"}},
        {"v1, v2, v3",
         {"vadd.vv", "vsub.vv", "vmul.vv", "vand.vv", "vor.vv", "vxor.vv",
          "vmin.vv", "vmax.vv", "vminu.vv", "vmaxu.vv", "vfadd.vv",
          "vfsub.vv", "vfmul.vv", "vfdiv.vv", "vfmacc.vv", "vfmin.vv",
          "vfmax.vv", "vredsum.vs", "vredmax.vs", "vredmin.vs", "vredand.vs",
          "vredor.vs", "vfredusum.vs", "vfredsum.vs", "vfredmax.vs",
          "vfredmin.vs", "vmseq.vv", "vmsne.vv", "vmslt.vv", "vmsle.vv",
          "vmsltu.vv", "vmand.mm", "vmor.mm", "vmxor.mm", "vmnand.mm"}},
        {"v1, v2, x3",
         {"vadd.vx", "vsub.vx", "vmul.vx", "vand.vx", "vor.vx", "vxor.vx",
          "vsll.vx", "vsrl.vx", "vmseq.vx", "vmsne.vx", "vmslt.vx",
          "vmsle.vx", "vmsgt.vx", "vmsge.vx", "vmsltu.vx", "vmsgtu.vx"}},
        {"v1, v2, 3",
         {"vadd.vi", "vand.vi", "vor.vi", "vxor.vi", "vsll.vi", "vsrl.vi",
          "vsra.vi", "vmseq.vi", "vmsne.vi", "vmsle.vi", "vmsgt.vi"}},
        {"v1, v2, f3",
         {"vfadd.vf", "vfsub.vf", "vfmul.vf", "vfdiv.vf", "vfmacc.vf",
          "vmflt.vf", "vmfle.vf", "vmfgt.vf", "vmfge.vf", "vmfeq.vf",
          "vmfne.vf"}},
        {"v1, v2", {"vmv.v.v", "vmnot.m"}},
        {"v1, x2", {"vmv.v.x", "vmv.s.x"}},
        {"v1, 3", {"vmv.v.i"}},
        {"x1, v2", {"vmv.x.s", "vcpop.m", "vfirst.m"}},
        {"f1, v2", {"vfmv.f.s"}},
        {"v1, f2", {"vfmv.v.f", "vfmv.s.f"}},
        {"v1", {"vid.v"}},
        {"v1, v2, v3, v0", {"vmerge.vvm"}},
        {"v1, v2, x3, v0", {"vmerge.vxm"}},
        {"v1, v2, 3, v0", {"vmerge.vim"}},
    };
    std::string text = "top:\n";
    for (const auto &[operands, mnemonics] : groups) {
        for (const std::string &mnemonic : mnemonics)
            text += mnemonic + " " + operands + "\n";
    }

    auto k = assembleOk(Assembler(), text);
    ASSERT_EQ(k.sections.size(), 1u);
    const auto &code = k.sections[0].code;
    ASSERT_EQ(code.size(), 216u);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &u : code) {
        fnvFold(h, static_cast<std::uint64_t>(u.op));
        fnvFold(h, static_cast<std::uint64_t>(u.fu));
        fnvFold(h, u.latency);
        fnvFold(h, u.mem_width);
        fnvFold(h, u.mem_sign);
        fnvFold(h, u.mem_fp);
        fnvFold(h, static_cast<std::uint64_t>(u.amo_op));
        fnvFold(h, u.is_vector);
        fnvFold(h, u.touches_mem);
        fnvFold(h, u.sew);
        fnvFold(h, static_cast<std::uint64_t>(std::int64_t{u.target}));
    }
    EXPECT_EQ(h, 0x208e89d5bbdaca2dull);
}

TEST(Assembler, DefaultBodySection)
{
    Assembler as;
    auto k = assembleOk(as, "li x1, 5\nexit\n");
    ASSERT_EQ(k.sections.size(), 1u);
    EXPECT_EQ(k.sections[0].kind, SectionKind::Body);
}

TEST(Assembler, LabelsAndBranches)
{
    Assembler as;
    auto k = assembleOk(as, R"(
        li x3, 3
    loop:
        addi x3, x3, -1
        bne x3, x0, loop
    )");
    const auto &code = k.sections[0].code;
    ASSERT_EQ(code.size(), 3u);
    EXPECT_EQ(code[2].op, Opcode::BNE);
    EXPECT_EQ(code[2].target, 1);
}

TEST(Assembler, ConstantsAndExpressions)
{
    Assembler as;
    as.setConstant("mybase", 0x1000);
    auto k = assembleOk(as, "li x3, %mybase+16\nli x4, %spad\n");
    EXPECT_EQ(k.sections[0].code[0].imm, 0x1010);
    EXPECT_EQ(k.sections[0].code[1].imm,
              static_cast<std::int64_t>(0x10000000));
}

TEST(Assembler, ErrorsAreReported)
{
    Assembler as;
    for (const char *bad : {
             "bogus x1, x2\n",
             "li q1, 5\n",
             "bne x1, x2, nowhere\n",
             "vsetvli x0, x0, e32, m2\n", // LMUL=1 only
             ".fini\nnop\n",              // no body
             "li x1, %nosuch\n",
         }) {
        std::string error;
        AssembledKernel k = as.assemble(bad, error);
        EXPECT_TRUE(k.sections.empty()) << bad;
        EXPECT_NE(error, "") << bad;
    }
    // A later good kernel clears the previous diagnostic.
    std::string error = "stale";
    EXPECT_EQ(as.assemble("li x1, 5\n", error).sections.size(), 1u);
    EXPECT_EQ(error, "");
}

TEST(Assembler, MaskSuffix)
{
    Assembler as;
    auto k = assembleOk(as, "vadd.vv v3, v2, v1, v0.t\n"
                            "vadd.vv v3, v2, v1\n");
    EXPECT_TRUE(k.sections[0].code[0].masked);
    EXPECT_FALSE(k.sections[0].code[1].masked);
}

TEST(Executor, ScalarArithmetic)
{
    FlatMemory mem;
    UthreadContext ctx;
    run(R"(
        li x3, 10
        li x4, -3
        add x5, x3, x4
        sub x6, x3, x4
        mul x7, x3, x4
        div x8, x3, x4
        rem x9, x3, x4
        slli x10, x3, 4
        srai x11, x4, 1
        slt x12, x4, x3
        sltu x13, x4, x3
    )",
        ctx, mem);
    EXPECT_EQ(ctx.x[5], 7u);
    EXPECT_EQ(ctx.x[6], 13u);
    EXPECT_EQ(static_cast<std::int64_t>(ctx.x[7]), -30);
    EXPECT_EQ(static_cast<std::int64_t>(ctx.x[8]), -3); // trunc toward zero
    EXPECT_EQ(static_cast<std::int64_t>(ctx.x[9]), 1);
    EXPECT_EQ(ctx.x[10], 160u);
    EXPECT_EQ(static_cast<std::int64_t>(ctx.x[11]), -2);
    EXPECT_EQ(ctx.x[12], 1u);
    EXPECT_EQ(ctx.x[13], 0u); // -3 as unsigned is huge
}

TEST(Executor, X0IsAlwaysZero)
{
    FlatMemory mem;
    UthreadContext ctx;
    run("li x0, 99\nadd x3, x0, x0\n", ctx, mem);
    EXPECT_EQ(ctx.x[0], 0u);
    EXPECT_EQ(ctx.x[3], 0u);
}

TEST(Executor, LoadsAndStores)
{
    FlatMemory mem;
    mem.mem.write<std::uint64_t>(0x1000, 0xDEADBEEFCAFEF00Dull);
    UthreadContext ctx;
    run(R"(
        li x3, 0x1000
        ld x4, 0(x3)
        lw x5, 0(x3)
        lwu x6, 0(x3)
        lb x7, 3(x3)
        lbu x8, 3(x3)
        sw x4, 16(x3)
        sd x4, 24(x3)
    )",
        ctx, mem);
    EXPECT_EQ(ctx.x[4], 0xDEADBEEFCAFEF00Dull);
    EXPECT_EQ(ctx.x[5], 0xFFFFFFFFCAFEF00Dull); // sign-extended
    EXPECT_EQ(ctx.x[6], 0x00000000CAFEF00Dull); // zero-extended
    EXPECT_EQ(static_cast<std::int64_t>(ctx.x[7]),
              static_cast<std::int8_t>(0xCA));
    EXPECT_EQ(ctx.x[8], 0xCAu);
    EXPECT_EQ(mem.mem.read<std::uint32_t>(0x1010), 0xCAFEF00Du);
    EXPECT_EQ(mem.mem.read<std::uint64_t>(0x1018), 0xDEADBEEFCAFEF00Dull);
}

TEST(Executor, BranchLoop)
{
    FlatMemory mem;
    UthreadContext ctx;
    std::uint64_t icount = run(R"(
        li x3, 5
        li x4, 0
    loop:
        add x4, x4, x3
        addi x3, x3, -1
        bne x3, x0, loop
    )",
        ctx, mem);
    EXPECT_EQ(ctx.x[4], 15u); // 5+4+3+2+1
    EXPECT_EQ(icount, 2u + 3u * 5u);
}

TEST(Executor, Atomics)
{
    FlatMemory mem;
    mem.mem.write<std::uint64_t>(0x2000, 100);
    mem.mem.write<std::uint32_t>(0x2010, 7);
    UthreadContext ctx;
    run(R"(
        li x3, 0x2000
        li x4, 5
        amoadd.d x5, x4, (x3)
        li x6, 0x2010
        li x7, 3
        amomin.w x8, x7, (x6)
    )",
        ctx, mem);
    EXPECT_EQ(ctx.x[5], 100u); // returns old value
    EXPECT_EQ(mem.mem.read<std::uint64_t>(0x2000), 105u);
    EXPECT_EQ(ctx.x[8], 7u);
    EXPECT_EQ(mem.mem.read<std::uint32_t>(0x2010), 3u);
}

TEST(Executor, FloatScalar)
{
    FlatMemory mem;
    mem.mem.write<float>(0x3000, 1.5f);
    mem.mem.write<float>(0x3004, 2.5f);
    UthreadContext ctx;
    run(R"(
        li x3, 0x3000
        flw f1, 0(x3)
        flw f2, 4(x3)
        fadd.s f3, f1, f2
        fmul.s f4, f1, f2
        fsw f3, 8(x3)
        fcvt.w.s x5, f4
        flt.s x6, f1, f2
    )",
        ctx, mem);
    EXPECT_FLOAT_EQ(mem.mem.read<float>(0x3008), 4.0f);
    EXPECT_EQ(ctx.x[5], 4u); // 3.75 rounds to nearest: 4
    EXPECT_EQ(ctx.x[6], 1u);
}

TEST(Executor, VsetvliAndVectorAdd)
{
    FlatMemory mem;
    for (int i = 0; i < 8; ++i) {
        mem.mem.write<std::uint32_t>(0x4000 + 4 * i, i);
        mem.mem.write<std::uint32_t>(0x4020 + 4 * i, 10 * i);
    }
    UthreadContext ctx;
    run(R"(
        vsetvli x3, x0, e32, m1
        li x4, 0x4000
        li x5, 0x4020
        vle32.v v1, (x4)
        vle32.v v2, (x5)
        vadd.vv v3, v1, v2
        li x6, 0x4040
        vse32.v v3, (x6)
    )",
        ctx, mem);
    EXPECT_EQ(ctx.x[3], 8u); // VLMAX for e32 with VLEN=256
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(mem.mem.read<std::uint32_t>(0x4040 + 4 * i), 11 * i);
}

TEST(Executor, VsetvliBoundsAvl)
{
    FlatMemory mem;
    UthreadContext ctx;
    run("li x3, 5\nvsetvli x4, x3, e32, m1\n", ctx, mem);
    EXPECT_EQ(ctx.x[4], 5u);
    EXPECT_EQ(ctx.vl, 5u);
    ctx.pc = 0;
    run("li x3, 100\nvsetvli x4, x3, e64, m1\n", ctx, mem);
    EXPECT_EQ(ctx.x[4], 4u); // VLMAX for e64 = 32/8
}

TEST(Executor, VectorReduction)
{
    FlatMemory mem;
    for (int i = 0; i < 8; ++i)
        mem.mem.write<std::uint32_t>(0x5000 + 4 * i, i + 1);
    UthreadContext ctx;
    run(R"(
        vsetvli x0, x0, e32, m1
        li x3, 0x5000
        vle32.v v2, (x3)
        vmv.v.i v1, 0
        vredsum.vs v3, v2, v1
        vmv.x.s x4, v3
    )",
        ctx, mem);
    EXPECT_EQ(ctx.x[4], 36u); // 1+..+8
}

TEST(Executor, VectorFloatDotProduct)
{
    FlatMemory mem;
    for (int i = 0; i < 8; ++i) {
        mem.mem.write<float>(0x6000 + 4 * i, static_cast<float>(i));
        mem.mem.write<float>(0x6020 + 4 * i, 2.0f);
    }
    UthreadContext ctx;
    run(R"(
        vsetvli x0, x0, e32, m1
        li x3, 0x6000
        li x4, 0x6020
        vle32.v v1, (x3)
        vle32.v v2, (x4)
        vmv.v.i v3, 0
        vfmacc.vv v3, v1, v2
        vmv.v.i v4, 0
        vfredusum.vs v5, v3, v4
        vfmv.f.s f1, v5
        fcvt.w.s x5, f1
    )",
        ctx, mem);
    EXPECT_EQ(ctx.x[5], 56u); // 2*(0+..+7)
}

TEST(Executor, MaskedCompareAndMerge)
{
    FlatMemory mem;
    for (int i = 0; i < 8; ++i)
        mem.mem.write<std::uint32_t>(0x7000 + 4 * i, i);
    UthreadContext ctx;
    run(R"(
        vsetvli x0, x0, e32, m1
        li x3, 0x7000
        vle32.v v1, (x3)
        li x4, 4
        vmslt.vx v0, v1, x4      # mask: elements < 4
        vcpop.m x5, v0
        vfirst.m x6, v0
        vmv.v.i v2, 0
        vmerge.vim v3, v2, 1, v0 # 1 where mask, else 0
        li x7, 0x7040
        vse32.v v3, (x7)
    )",
        ctx, mem);
    EXPECT_EQ(ctx.x[5], 4u);
    EXPECT_EQ(ctx.x[6], 0u);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(mem.mem.read<std::uint32_t>(0x7040 + 4 * i),
                  i < 4 ? 1u : 0u);
}

TEST(Executor, MaskedVectorStore)
{
    FlatMemory mem;
    for (int i = 0; i < 8; ++i)
        mem.mem.write<std::uint32_t>(0x8000 + 4 * i, 100 + i);
    UthreadContext ctx;
    run(R"(
        vsetvli x0, x0, e32, m1
        li x3, 0x8000
        vle32.v v1, (x3)
        li x4, 104
        vmsge.vx v0, v1, x4
        vmv.v.i v2, 0
        li x5, 0x8000
        vse32.v v2, (x5), v0.t   # zero elements >= 104 only
    )",
        ctx, mem);
    for (unsigned i = 0; i < 8; ++i) {
        EXPECT_EQ(mem.mem.read<std::uint32_t>(0x8000 + 4 * i),
                  i < 4 ? 100 + i : 0u);
    }
}

TEST(Executor, GatherIndexed)
{
    FlatMemory mem;
    // Table of values at 0x9000, indices select backwards.
    for (int i = 0; i < 8; ++i) {
        mem.mem.write<std::uint32_t>(0x9000 + 4 * i, 1000 + i);
        mem.mem.write<std::uint32_t>(0x9100 + 4 * i,
                                     static_cast<std::uint32_t>((7 - i) * 4));
    }
    UthreadContext ctx;
    run(R"(
        vsetvli x0, x0, e32, m1
        li x3, 0x9100
        vle32.v v2, (x3)         # byte offsets
        li x4, 0x9000
        vluxei32.v v1, (x4), v2  # gather
        li x5, 0x9200
        vse32.v v1, (x5)
    )",
        ctx, mem);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(mem.mem.read<std::uint32_t>(0x9200 + 4 * i), 1007 - i);
}

TEST(Executor, MemRefCoalescing)
{
    FlatMemory mem;
    // Unit-stride aligned 32 B load -> exactly one 32 B sector ref.
    KernelSection code = assembleOne("vsetvli x0, x0, e32, m1\n"
                                     "li x3, 0x4000\nvle32.v v1, (x3)\n");
    UthreadContext ctx;
    step(ctx, code, mem); // vsetvli
    step(ctx, code, mem); // li
    auto r = step(ctx, code, mem);
    ASSERT_EQ(r.mem.size(), 1u);
    EXPECT_EQ(r.mem[0].va, 0x4000u);
    EXPECT_EQ(r.mem[0].size, 32u);
    EXPECT_FALSE(r.mem[0].is_store);
    EXPECT_TRUE(r.blocking_mem);

    // Misaligned crosses two sectors.
    KernelSection code2 = assembleOne("vsetvli x0, x0, e32, m1\n"
                                      "li x3, 0x4010\nvle32.v v1, (x3)\n");
    UthreadContext ctx2;
    step(ctx2, code2, mem);
    step(ctx2, code2, mem);
    auto r2 = step(ctx2, code2, mem);
    EXPECT_EQ(r2.mem.size(), 2u);

    // Gather of 8 x 4 B spread over 8 distinct sectors -> 8 refs.
    for (int i = 0; i < 8; ++i)
        mem.mem.write<std::uint32_t>(0x100 + 4 * i,
                                     static_cast<std::uint32_t>(i * 64));
    KernelSection code3 = assembleOne(
        "vsetvli x0, x0, e32, m1\nli x3, 0x100\nvle32.v v2, (x3)\n"
        "li x4, 0x8000\nvluxei32.v v1, (x4), v2\n");
    UthreadContext ctx3;
    for (int i = 0; i < 4; ++i)
        step(ctx3, code3, mem);
    auto r3 = step(ctx3, code3, mem);
    EXPECT_EQ(r3.mem.size(), 8u);
}

TEST(Executor, RegisterProvisioningEnforced)
{
    FlatMemory mem;
    UthreadContext ctx;
    ctx.num_x = 4; // x0..x3 only
    EXPECT_NO_THROW(run("li x3, 7\n", ctx, mem));
    UthreadContext ctx2;
    ctx2.num_x = 4;
    EXPECT_THROW(run("li x5, 7\n", ctx2, mem), std::logic_error);

    UthreadContext ctx3;
    ctx3.num_v = 2;
    EXPECT_THROW(run("vsetvli x0, x0, e32, m1\nvmv.v.i v3, 0\n", ctx3, mem),
                 std::logic_error);
}

TEST(Executor, IndexedAccessPastOneRegisterTraps)
{
    // An index register holds kVlenBytes: vl x index EEW beyond that
    // would need a register group (LMUL = 1 only here), so the gather
    // or scatter traps instead of reading the next registers.
    struct Case
    {
        const char *text;
        std::uint8_t sew;
        std::uint32_t vl;
        bool traps;
    };
    const Case cases[] = {
        {"vluxei64.v v3, (x1), v2", 4, 8, true},  // 64 B of indices
        {"vsuxei64.v v3, (x1), v2", 4, 8, true},
        {"vluxei32.v v3, (x1), v2", 1, 32, true}, // 128 B of indices
        {"vluxei32.v v3, (x1), v2", 1, 8, false}, // 32 B: fits
        {"vluxei64.v v3, (x1), v2", 4, 4, false},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.text) + " sew=" + std::to_string(c.sew) +
                     " vl=" + std::to_string(c.vl));
        FlatMemory mem;
        KernelSection sec = assembleOne(std::string(c.text) + "\nnop\n");
        UthreadContext ctx;
        ctx.sew = c.sew;
        ctx.vl = c.vl;
        ctx.x[1] = 0x1000;
        ctx.v[2] = VecReg{}; // every index 0
        if (c.traps) {
            NdpError code = NdpError::Ok;
            try {
                step(ctx, sec, mem);
            } catch (const KernelTrap &trap) {
                code = trap.code;
            }
            EXPECT_EQ(code, NdpError::IllegalInstruction);
        } else {
            EXPECT_NO_THROW(step(ctx, sec, mem));
        }
    }
}

TEST(Executor, InfiniteLoopCaught)
{
    FlatMemory mem;
    UthreadContext ctx;
    EXPECT_THROW(
        runToCompletion(ctx, assembleOne("loop:\nj loop\n"), mem, 1000),
        std::logic_error);
}

TEST(Executor, FuTypesAndLatencies)
{
    auto sec = assembleOne("add x1, x2, x3\n"
                           "div x1, x2, x3\n"
                           "ld x1, (x2)\n"
                           "amoadd.d x1, x2, (x3)\n"
                           "vle32.v v1, (x2)\n"
                           "vadd.vv v1, v2, v3\n"
                           "vfdiv.vv v1, v2, v3\n"
                           "vfmacc.vv v1, v2, v3\n"
                           "vluxei32.v v1, (x2), v3\n"
                           "vsetvli x0, x0, e32, m1\n");
    ASSERT_EQ(sec.code.size(), 10u);
    const auto &add = sec.code[0], &div = sec.code[1], &ld = sec.code[2],
               &amo = sec.code[3], &vle = sec.code[4], &vadd = sec.code[5],
               &vfdiv = sec.code[6], &vfmacc = sec.code[7],
               &vlux = sec.code[8], &vset = sec.code[9];
    EXPECT_EQ(add.fu, FuType::ScalarAlu);
    EXPECT_EQ(div.fu, FuType::ScalarSfu);
    EXPECT_EQ(ld.fu, FuType::ScalarLsu);
    EXPECT_EQ(amo.fu, FuType::ScalarLsu);
    EXPECT_EQ(vle.fu, FuType::VectorLsu);
    EXPECT_EQ(vadd.fu, FuType::VectorAlu);
    EXPECT_EQ(vfdiv.fu, FuType::VectorSfu);
    EXPECT_EQ(vfmacc.fu, FuType::VectorAlu);
    EXPECT_GT(div.latency, add.latency);
    EXPECT_GT(vfmacc.latency, vadd.latency);
    EXPECT_TRUE(vlux.touches_mem);
    EXPECT_FALSE(vadd.touches_mem);
    EXPECT_TRUE(vset.is_vector);
    EXPECT_FALSE(add.is_vector);
}

TEST(Executor, MultiBodyKernelSections)
{
    Assembler as;
    auto k = assembleOk(as, R"(
        .body
            li x3, 1
        .body
            li x3, 2
    )");
    ASSERT_EQ(k.sections.size(), 2u);
    EXPECT_EQ(k.sections[0].kind, SectionKind::Body);
    EXPECT_EQ(k.sections[1].kind, SectionKind::Body);
    EXPECT_EQ(k.sections[0].code[0].imm, 1);
    EXPECT_EQ(k.sections[1].code[0].imm, 2);
}


// ------------------------------------------------------- opcode semantics

using Elems = std::vector<std::uint64_t>;

/** One architectural value a semantic row sets before its instruction
 *  runs, or checks after it ran. */
struct Val
{
    enum Kind : std::uint8_t { X, F, V, Mask, Mem, Pc, Vl, Sew, Done };
    Kind kind;
    std::uint64_t idx = 0; ///< register number, or memory address
    Elems elems;           ///< see the constructors below
    unsigned width = 0;    ///< Mem: element width in bytes
};

/** x[r] = v. */
Val xreg(unsigned r, std::uint64_t v) { return {Val::X, r, {v}}; }
/** f[r] = raw bits. */
Val freg(unsigned r, std::uint64_t bits) { return {Val::F, r, {bits}}; }
/** v[r] elements 0..n-1 at the row's SEW. As an output, the bytes past
 *  the n-th element must be unchanged (tail undisturbed). */
Val vreg(unsigned r, Elems e) { return {Val::V, r, std::move(e)}; }
/** Mask bits 0..n-1 of v[r]. */
Val mask(unsigned r, Elems bits) { return {Val::Mask, r, std::move(bits)}; }
/** Elements of @p width bytes from @p addr. */
Val
memAt(Addr addr, unsigned width, Elems e)
{
    return {Val::Mem, addr, std::move(e), width};
}
/** The PC after the step (default: 1, the next instruction). */
Val pcIs(std::uint64_t pc) { return {Val::Pc, 0, {pc}}; }
Val vlIs(std::uint64_t vl) { return {Val::Vl, 0, {vl}}; }
Val sewIs(std::uint64_t sew) { return {Val::Sew, 0, {sew}}; }
/** The step finishes the uthread (default: it does not). */
Val exits() { return {Val::Done, 0, {1}}; }

std::uint64_t
bitsOf(float f)
{
    std::uint32_t b;
    std::memcpy(&b, &f, sizeof(b));
    return b;
}

std::uint64_t
bitsOf(double d)
{
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
}

/** f[r] = @p f, NaN-boxed. */
Val fs(unsigned r, float f) { return freg(r, 0xFFFFFFFF00000000ull | bitsOf(f)); }
Val fd(unsigned r, double d) { return freg(r, bitsOf(d)); }

Elems
f32s(std::initializer_list<float> fs)
{
    Elems e;
    for (float f : fs)
        e.push_back(bitsOf(f));
    return e;
}

float
asF(std::uint64_t bits)
{
    float f;
    auto lo = static_cast<std::uint32_t>(bits);
    std::memcpy(&f, &lo, sizeof(f));
    return f;
}

/** Low 32 bits as a signed value. */
std::int32_t s32(std::uint64_t v) { return static_cast<std::int32_t>(v); }

template <typename Fn>
Elems
mapE(const Elems &a, Fn fn)
{
    Elems r;
    for (std::uint64_t x : a)
        r.push_back(static_cast<std::uint64_t>(fn(x)));
    return r;
}

template <typename Fn>
Elems
zipE(const Elems &a, const Elems &b, Fn fn)
{
    Elems r;
    for (std::size_t i = 0; i < a.size(); ++i)
        r.push_back(static_cast<std::uint64_t>(fn(a[i], b[i])));
    return r;
}

/** Element i of @p res where @p m is set, else of @p old (mask undisturbed). */
Elems
underMask(const Elems &res, const Elems &old, const Elems &m)
{
    Elems r;
    for (std::size_t i = 0; i < res.size(); ++i)
        r.push_back(m[i] ? res[i] : old[i]);
    return r;
}

Elems
firstN(const Elems &e, std::size_t n)
{
    return Elems(e.begin(), e.begin() + static_cast<std::ptrdiff_t>(n));
}

/** One instruction, the state it starts from and the state it must leave. */
struct SemRow
{
    std::string text;
    std::vector<Val> in;
    std::vector<Val> out;
    unsigned sew = 4;
    unsigned vl = 8;
};

std::uint64_t
elemMask(unsigned bytes)
{
    return bytes == 8 ? ~0ull : (1ull << (8 * bytes)) - 1;
}

std::uint64_t
getElem(const VecReg &r, unsigned bytes, unsigned i)
{
    std::uint64_t v = 0;
    std::memcpy(&v, r.b.data() + i * bytes, bytes);
    return v;
}

/** Run one row: assemble its line (plus a trailing nop), set its inputs,
 *  step once and check its outputs. Returns the opcode it ran. */
Opcode
runRow(const SemRow &row)
{
    SCOPED_TRACE(row.text);
    KernelSection sec = assembleOne(row.text + "\nnop\n");
    EXPECT_EQ(sec.code.size(), 2u);
    if (sec.code.size() != 2u)
        return Opcode::NOP;

    FlatMemory mem;
    UthreadContext ctx;
    ctx.sew = static_cast<std::uint8_t>(row.sew);
    ctx.vl = row.vl;
    // A distinct byte pattern in every vector register, so that an
    // element written where it must not be shows.
    for (unsigned r = 0; r < UthreadContext::kRegsPerFile; ++r) {
        for (unsigned j = 0; j < kVlenBytes; ++j)
            ctx.v[r].b[j] = static_cast<std::uint8_t>(0x5A ^ (r * 32 + j));
    }
    for (const Val &v : row.in) {
        switch (v.kind) {
          case Val::X: ctx.x[v.idx] = v.elems[0]; break;
          case Val::F: ctx.f[v.idx] = v.elems[0]; break;
          case Val::V:
            for (unsigned i = 0; i < v.elems.size(); ++i)
                std::memcpy(ctx.v[v.idx].b.data() + i * row.sew, &v.elems[i],
                            row.sew);
            break;
          case Val::Mask:
            for (unsigned i = 0; i < v.elems.size(); ++i)
                ctx.v[v.idx].setMaskBit(i, v.elems[i] != 0);
            break;
          case Val::Mem:
            for (unsigned i = 0; i < v.elems.size(); ++i)
                mem.mem.write(v.idx + i * v.width, &v.elems[i], v.width);
            break;
          default:
            ADD_FAILURE() << "not an input kind";
        }
    }

    const UthreadContext before = ctx;
    StepResult res = step(ctx, sec, mem);

    std::uint64_t pc = 1;
    bool done = false;
    for (const Val &v : row.out) {
        switch (v.kind) {
          case Val::X: EXPECT_EQ(ctx.x[v.idx], v.elems[0]) << "x" << v.idx; break;
          case Val::F: EXPECT_EQ(ctx.f[v.idx], v.elems[0]) << "f" << v.idx; break;
          case Val::V: {
            const unsigned n = static_cast<unsigned>(v.elems.size());
            for (unsigned i = 0; i < n; ++i) {
                EXPECT_EQ(getElem(ctx.v[v.idx], row.sew, i),
                          v.elems[i] & elemMask(row.sew))
                    << "v" << v.idx << "[" << i << "]";
            }
            for (unsigned j = n * row.sew; j < kVlenBytes; ++j) {
                EXPECT_EQ(ctx.v[v.idx].b[j], before.v[v.idx].b[j])
                    << "v" << v.idx << " tail byte " << j;
            }
            break;
          }
          case Val::Mask:
            for (unsigned i = 0; i < v.elems.size(); ++i) {
                EXPECT_EQ(ctx.v[v.idx].maskBit(i), v.elems[i] != 0)
                    << "v" << v.idx << " mask bit " << i;
            }
            break;
          case Val::Mem:
            for (unsigned i = 0; i < v.elems.size(); ++i) {
                std::uint64_t got = 0;
                mem.mem.read(v.idx + i * v.width, &got, v.width);
                EXPECT_EQ(got, v.elems[i] & elemMask(v.width))
                    << "mem[0x" << std::hex << v.idx + i * v.width << "]";
            }
            break;
          case Val::Pc: pc = v.elems[0]; break;
          case Val::Vl: EXPECT_EQ(ctx.vl, v.elems[0]) << "vl"; break;
          case Val::Sew: EXPECT_EQ(ctx.sew, v.elems[0]) << "sew"; break;
          case Val::Done: done = true; break;
        }
    }
    EXPECT_EQ(ctx.pc, pc) << "pc";
    EXPECT_EQ(res.done, done) << "done";
    return sec.code[0].op;
}

std::uint64_t u(std::int64_t v) { return static_cast<std::uint64_t>(v); }

TEST(Executor, OpcodeSemantics)
{
    // Inputs: e32 integer vectors, a mask and an old destination.
    const Elems A = {0, 1, 0xFFFFFFFF, 7, 0x80000000, 0x7FFFFFFF, 100,
                     0xFFFFFF9C};
    const Elems B = {5, 0xFFFFFFFF, 0xFFFFFFFF, 3, 1, 0xFFFFFFFF, 100, 50};
    const Elems K = {1, 0, 1, 1, 0, 0, 1, 0};
    const Elems OLD = {0xA0, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7};
    const Elems OLDM = {0, 1, 1, 0, 1, 0, 0, 1}; // an old mask
    const Elems M2 = {1, 0, 0, 1, 1, 0, 1, 1};
    const Elems IOTA = {0, 1, 2, 3, 4, 5, 6, 7};
    const Elems REV = {28, 24, 20, 16, 12, 8, 4, 0}; // byte offsets
    const Elems ARev(A.rbegin(), A.rend());
    const Elems D = {0x8000000000000001, 0x0123456789ABCDEF, 7,
                     0xFFFFFFFFFFFFFFFF}; // e64
    const Elems DRev(D.rbegin(), D.rend());
    Elems BYTES, HALVES;
    for (unsigned i = 0; i < 32; ++i)
        BYTES.push_back((i * 37 + 0x81) & 0xFF);
    for (unsigned i = 0; i < 16; ++i)
        HALVES.push_back((i * 0x1357 + 0x8001) & 0xFFFF);
    const Elems FILL(8, 0xEEEEEEEE);
    // x1 for .vx forms: bits above SEW must not matter.
    const std::uint64_t X1 = 0x100000003;

    // e32 float vectors and a scalar.
    const Elems FA = f32s({1.5f, -2.0f, 0.25f, 3.0f, 8.0f, 100.0f, -1.0f,
                           0.5f});
    const Elems FB = f32s({2.0f, 0.5f, -4.0f, 3.0f, 0.125f, -100.0f, 1.0f,
                           4.0f});
    const Elems FC = f32s({1.0f, 1.0f, -1.0f, 0.5f, 2.0f, 0.0f, 3.0f,
                           -2.0f});
    const float F1 = 0.5f;
    const float kNan = std::numeric_limits<float>::quiet_NaN();
    const float kInf = std::numeric_limits<float>::infinity();
    const Elems FZ = f32s({1.0f, -0.0f, 0.0f, kNan, -1.0f, 2.0f, 0.0f,
                           kInf});

    auto fop = [](auto fn) {
        return [fn](std::uint64_t a, std::uint64_t b) {
            return bitsOf(static_cast<float>(fn(asF(a), asF(b))));
        };
    };
    auto fadd = fop([](float a, float b) { return a + b; });
    auto fsub = fop([](float a, float b) { return a - b; });
    auto fmul = fop([](float a, float b) { return a * b; });
    auto fdiv = fop([](float a, float b) { return a / b; });
    auto fmn = fop([](float a, float b) { return a < b ? a : b; });
    auto fmx = fop([](float a, float b) { return a > b ? a : b; });
    const Elems F1s(8, bitsOf(F1));
    // vd[i] = a[i] * b[i] + c[i], rounded once.
    auto fmaE = [](const Elems &a, const Elems &b, const Elems &c) {
        Elems r;
        for (std::size_t i = 0; i < a.size(); ++i)
            r.push_back(bitsOf(std::fma(asF(a[i]), asF(b[i]), asF(c[i]))));
        return r;
    };

    // Integer and float ops over one vector and a broadcast scalar.
    auto bcast = [](std::uint64_t s) { return Elems(8, s); };
    auto addE = [](std::uint64_t a, std::uint64_t b) { return a + b; };

    // AMO inputs: the old memory word and x2, whose bits above the access
    // width must not matter.
    const std::uint32_t oW = 0x80000005, rW = 7;
    const std::uint64_t oD = 0x8000000000000005, rD = 7;
    auto amoW = [&](const std::string &mn, std::uint32_t result) {
        return SemRow{mn + ".w x3, x2, (x1)",
                      {xreg(1, 0x2000), xreg(2, 0xFFFFFFFF00000000 | rW),
                       memAt(0x2000, 4, {oW, 0xDEADBEEF})},
                      {xreg(3, u(s32(oW))), memAt(0x2000, 4, {result, 0xDEADBEEF})}};
    };
    auto amoD = [&](const std::string &mn, std::uint64_t result) {
        return SemRow{mn + ".d x3, x2, (x1)",
                      {xreg(1, 0x2000), xreg(2, rD), memAt(0x2000, 8, {oD})},
                      {xreg(3, oD), memAt(0x2000, 8, {result})}};
    };
    auto smin32 = [](std::uint32_t a, std::uint32_t b) { return s32(a) < s32(b) ? a : b; };
    auto smax32 = [](std::uint32_t a, std::uint32_t b) { return s32(a) > s32(b) ? a : b; };
    auto smin64 = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b) ? a : b;
    };
    auto smax64 = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<std::int64_t>(a) > static_cast<std::int64_t>(b) ? a : b;
    };

    const std::uint64_t W = 0xF1E2D3C4B5A69788; // memory word for loads
    const std::uint64_t S = 0x1122334455667788; // register for stores
    const Val word = memAt(0x1008, 8, {W});
    const Val zeros = memAt(0x1008, 8, {0});
    const Val base = xreg(1, 0x1000);

    auto sreduce = [&](std::int64_t init, const Elems &m, auto fn) {
        std::int64_t acc = init;
        for (unsigned i = 0; i < 8; ++i) {
            if (m[i])
                acc = fn(acc, std::int64_t{s32(A[i])});
        }
        return u(acc);
    };
    auto freduce = [&](float init, auto fn) {
        float acc = init;
        for (std::uint64_t a : FA)
            acc = fn(acc, asF(a));
        return bitsOf(acc);
    };
    const Elems ALL(8, 1);
    auto i128hi = [](std::int64_t a, std::int64_t b) {
        return u(static_cast<std::int64_t>(
            (static_cast<__int128>(a) * static_cast<__int128>(b)) >> 64));
    };

    const std::vector<SemRow> rows = {
        // ---- scalar integer
        {"nop", {}, {}},
        {"lui x3, 0x12345", {}, {xreg(3, 0x12345000)}},
        {"lui x3, 0x80000", {}, {xreg(3, u(s32(0x80000000)))}},
        {"li x3, -5", {}, {xreg(3, u(-5))}},
        {"mv x3, x1", {xreg(1, 0x123456789)}, {xreg(3, 0x123456789)}},
        {"add x3, x1, x2", {xreg(1, u(INT64_MAX)), xreg(2, 1)},
         {xreg(3, u(INT64_MAX) + 1)}},
        {"addi x3, x1, -3", {xreg(1, 2)}, {xreg(3, u(-1))}},
        {"addw x3, x1, x2", {xreg(1, 0x17FFFFFFF), xreg(2, 1)},
         {xreg(3, u(s32(0x17FFFFFFF + 1)))}},
        {"addiw x3, x1, 1", {xreg(1, 0x7FFFFFFF)}, {xreg(3, u(s32(0x80000000)))}},
        {"sub x3, x1, x2", {xreg(1, 0), xreg(2, 1)}, {xreg(3, ~0ull)}},
        {"subw x3, x1, x2", {xreg(1, 0x100000000), xreg(2, 1)},
         {xreg(3, u(s32(0xFFFFFFFF)))}},
        {"and x3, x1, x2", {xreg(1, 0xF0F0), xreg(2, 0xFF00)}, {xreg(3, 0xF000)}},
        {"andi x3, x1, -16", {xreg(1, 0x1234567F)}, {xreg(3, 0x1234567F & u(-16))}},
        {"or x3, x1, x2", {xreg(1, 0xF0F0), xreg(2, 0xFF00)}, {xreg(3, 0xFFF0)}},
        {"ori x3, x1, -256", {xreg(1, 0x12)}, {xreg(3, 0x12 | u(-256))}},
        {"xor x3, x1, x2", {xreg(1, 0xF0F0), xreg(2, 0xFF00)}, {xreg(3, 0x0FF0)}},
        {"xori x3, x1, -1", {xreg(1, 0x12)}, {xreg(3, ~0x12ull)}},
        // Shift amounts use the low six bits of the register.
        {"sll x3, x1, x2", {xreg(1, 0x8000000000000001), xreg(2, 65)},
         {xreg(3, 0x8000000000000001ull << 1)}},
        {"slli x3, x1, 63", {xreg(1, 3)}, {xreg(3, 3ull << 63)}},
        {"srl x3, x1, x2", {xreg(1, 0x8000000000000000), xreg(2, 68)},
         {xreg(3, 0x8000000000000000ull >> 4)}},
        {"srli x3, x1, 60", {xreg(1, 0xF000000000000000)}, {xreg(3, 0xF)}},
        {"sra x3, x1, x2", {xreg(1, 0x8000000000000000), xreg(2, 68)},
         {xreg(3, u(INT64_MIN >> 4))}},
        {"srai x3, x1, 63", {xreg(1, 0x8000000000000000)}, {xreg(3, ~0ull)}},
        {"slt x3, x1, x2", {xreg(1, u(-1)), xreg(2, 1)}, {xreg(3, 1)}},
        {"slti x3, x1, -1", {xreg(1, u(-2))}, {xreg(3, 1)}},
        {"sltu x3, x1, x2", {xreg(1, u(-1)), xreg(2, 1)}, {xreg(3, 0)}},
        // The immediate is sign-extended, then compared unsigned.
        {"sltiu x3, x1, -1", {xreg(1, 5)}, {xreg(3, 1)}},
        {"mul x3, x1, x2", {xreg(1, u(-3)), xreg(2, 7)}, {xreg(3, u(-21))}},
        {"mulw x3, x1, x2", {xreg(1, 0x8000), xreg(2, 0x10000)},
         {xreg(3, u(s32(0x80000000)))}},
        {"mulh x3, x1, x2", {xreg(1, u(-2)), xreg(2, u(INT64_MIN))},
         {xreg(3, i128hi(-2, INT64_MIN))}},
        {"mulh x3, x1, x2", {xreg(1, u(-3)), xreg(2, 5)}, {xreg(3, i128hi(-3, 5))}},
        {"div x3, x1, x2", {xreg(1, u(-7)), xreg(2, 2)}, {xreg(3, u(-7 / 2))}},
        {"div x3, x1, x0", {xreg(1, 5)}, {xreg(3, ~0ull)}},
        {"divu x3, x1, x2", {xreg(1, u(-7)), xreg(2, 2)}, {xreg(3, u(-7) / 2)}},
        {"divu x3, x1, x0", {xreg(1, 5)}, {xreg(3, ~0ull)}},
        {"rem x3, x1, x2", {xreg(1, u(-7)), xreg(2, 2)}, {xreg(3, u(-7 % 2))}},
        {"rem x3, x1, x0", {xreg(1, u(-7))}, {xreg(3, u(-7))}},
        // The one signed overflow: INT64_MIN / -1.
        {"div x3, x1, x2", {xreg(1, u(INT64_MIN)), xreg(2, u(-1))},
         {xreg(3, u(INT64_MIN))}},
        {"div x3, x1, x2", {xreg(1, 7), xreg(2, u(-1))}, {xreg(3, u(-7))}},
        {"rem x3, x1, x2", {xreg(1, u(INT64_MIN)), xreg(2, u(-1))}, {xreg(3, 0)}},
        {"remu x3, x1, x2", {xreg(1, u(-7)), xreg(2, 2)}, {xreg(3, u(-7) % 2)}},
        {"remu x3, x1, x0", {xreg(1, u(-7))}, {xreg(3, u(-7))}},

        // ---- control flow (t: is the branch itself, PC 0)
        {"t: beq x1, x2, t", {xreg(1, 4), xreg(2, 4)}, {pcIs(0)}},
        {"t: bne x1, x2, t", {xreg(1, 4), xreg(2, 4)}, {}},
        {"t: blt x1, x2, t", {xreg(1, u(-1)), xreg(2, 1)}, {pcIs(0)}},
        {"t: bge x1, x2, t", {xreg(1, u(-1)), xreg(2, 1)}, {}},
        {"t: bltu x1, x2, t", {xreg(1, u(-1)), xreg(2, 1)}, {}},
        {"t: bgeu x1, x2, t", {xreg(1, u(-1)), xreg(2, 1)}, {pcIs(0)}},
        {"t: j t", {}, {pcIs(0)}},

        // ---- scalar memory: width, extension and register file
        {"lb x3, 8(x1)", {base, word}, {xreg(3, u(static_cast<std::int8_t>(W)))}},
        {"lbu x3, 8(x1)", {base, word}, {xreg(3, static_cast<std::uint8_t>(W))}},
        {"lh x3, 8(x1)", {base, word}, {xreg(3, u(static_cast<std::int16_t>(W)))}},
        {"lhu x3, 8(x1)", {base, word}, {xreg(3, static_cast<std::uint16_t>(W))}},
        {"lw x3, 8(x1)", {base, word}, {xreg(3, u(s32(W)))}},
        {"lwu x3, 8(x1)", {base, word}, {xreg(3, static_cast<std::uint32_t>(W))}},
        {"ld x3, 8(x1)", {base, word}, {xreg(3, W)}},
        {"ld x3, -8(x1)", {xreg(1, 0x1010), word}, {xreg(3, W)}},
        {"flw f3, 8(x1)", {base, memAt(0x1008, 4, {bitsOf(1.5f)})}, {fs(3, 1.5f)}},
        {"fld f3, 8(x1)", {base, memAt(0x1008, 8, {bitsOf(-2.25)})}, {fd(3, -2.25)}},
        {"sb x2, 8(x1)", {base, xreg(2, S), zeros}, {memAt(0x1008, 8, {0x88})}},
        {"sh x2, 8(x1)", {base, xreg(2, S), zeros}, {memAt(0x1008, 8, {0x7788})}},
        {"sw x2, 8(x1)", {base, xreg(2, S), zeros}, {memAt(0x1008, 8, {0x55667788})}},
        {"sd x2, 8(x1)", {base, xreg(2, S), zeros}, {memAt(0x1008, 8, {S})}},
        {"fsw f2, 8(x1)", {base, fs(2, 1.5f), zeros},
         {memAt(0x1008, 8, {bitsOf(1.5f)})}},
        {"fsd f2, 8(x1)", {base, fd(2, -2.25), zeros},
         {memAt(0x1008, 8, {bitsOf(-2.25)})}},

        // ---- atomics: rd gets the old value (sign-extended for .w)
        amoW("amoadd", oW + rW),
        amoD("amoadd", oD + rD),
        amoW("amoswap", rW),
        amoD("amoswap", rD),
        amoW("amomin", smin32(oW, rW)),
        amoD("amomin", smin64(oD, rD)),
        amoW("amomax", smax32(oW, rW)),
        amoD("amomax", smax64(oD, rD)),
        amoW("amominu", std::min(oW, rW)),
        amoD("amominu", std::min(oD, rD)),
        amoW("amomaxu", std::max(oW, rW)),
        amoD("amomaxu", std::max(oD, rD)),
        amoW("amoand", oW & rW),
        amoD("amoand", oD & rD),
        amoW("amoor", oW | rW),
        amoD("amoor", oD | rD),
        amoW("amoxor", oW ^ rW),
        amoD("amoxor", oD ^ rD),
        {"fence", {}, {}},

        // ---- scalar float
        {"fadd.s f3, f1, f2", {fs(1, 1.5f), fs(2, -0.25f)}, {fs(3, 1.5f + -0.25f)}},
        {"fadd.d f3, f1, f2", {fd(1, 1.5), fd(2, -0.25)}, {fd(3, 1.5 + -0.25)}},
        {"fsub.s f3, f1, f2", {fs(1, 1.5f), fs(2, -0.25f)}, {fs(3, 1.5f - -0.25f)}},
        {"fsub.d f3, f1, f2", {fd(1, 1.5), fd(2, -0.25)}, {fd(3, 1.5 - -0.25)}},
        {"fmul.s f3, f1, f2", {fs(1, 1.5f), fs(2, -0.25f)}, {fs(3, 1.5f * -0.25f)}},
        {"fmul.d f3, f1, f2", {fd(1, 1.5), fd(2, -0.25)}, {fd(3, 1.5 * -0.25)}},
        {"fdiv.s f3, f1, f2", {fs(1, 1.0f), fs(2, 3.0f)}, {fs(3, 1.0f / 3.0f)}},
        {"fdiv.d f3, f1, f2", {fd(1, 1.0), fd(2, 3.0)}, {fd(3, 1.0 / 3.0)}},
        {"fsqrt.s f3, f1", {fs(1, 2.0f)}, {fs(3, std::sqrt(2.0f))}},
        {"fsqrt.d f3, f1", {fd(1, 2.0)}, {fd(3, std::sqrt(2.0))}},
        {"fmadd.s f3, f1, f2, f4", {fs(1, 1.5f), fs(2, -0.25f), fs(4, 2.0f)},
         {fs(3, std::fma(1.5f, -0.25f, 2.0f))}},
        {"fmadd.d f3, f1, f2, f4", {fd(1, 1.5), fd(2, -0.25), fd(4, 2.0)},
         {fd(3, std::fma(1.5, -0.25, 2.0))}},
        // Fused: (1 + 2^-12)^2 - (1 + 2^-11) is 2^-24 rounded once, and 0
        // if the product is rounded first.
        {"fmadd.s f3, f1, f2, f4",
         {fs(1, 1.0f + 0x1p-12f), fs(2, 1.0f + 0x1p-12f), fs(4, -(1.0f + 0x1p-11f))},
         {fs(3, 0x1p-24f)}},
        {"fmadd.d f3, f1, f2, f4",
         {fd(1, 1.0 + 0x1p-30), fd(2, 1.0 + 0x1p-30), fd(4, -(1.0 + 0x1p-29))},
         {fd(3, 0x1p-60)}},
        {"fmin.s f3, f1, f2", {fs(1, 1.5f), fs(2, -0.25f)}, {fs(3, -0.25f)}},
        {"fmin.d f3, f1, f2", {fd(1, 1.5), fd(2, -0.25)}, {fd(3, -0.25)}},
        {"fmax.s f3, f1, f2", {fs(1, 1.5f), fs(2, -0.25f)}, {fs(3, 1.5f)}},
        {"fmax.d f3, f1, f2", {fd(1, 1.5), fd(2, -0.25)}, {fd(3, 1.5)}},
        // A NaN operand yields the other operand.
        {"fmin.s f3, f1, f2", {fs(1, kNan), fs(2, 1.0f)}, {fs(3, 1.0f)}},
        {"fmax.d f3, f1, f2", {fd(1, 2.0), fd(2, double(kNan))}, {fd(3, 2.0)}},
        // -0.0 orders below +0.0, in either operand order.
        {"fmin.s f3, f1, f2", {fs(1, 0.0f), fs(2, -0.0f)}, {fs(3, -0.0f)}},
        {"fmin.s f3, f1, f2", {fs(1, -0.0f), fs(2, 0.0f)}, {fs(3, -0.0f)}},
        {"fmax.s f3, f1, f2", {fs(1, 0.0f), fs(2, -0.0f)}, {fs(3, 0.0f)}},
        {"fmax.s f3, f1, f2", {fs(1, -0.0f), fs(2, 0.0f)}, {fs(3, 0.0f)}},
        {"fmin.d f3, f1, f2", {fd(1, 0.0), fd(2, -0.0)}, {fd(3, -0.0)}},
        {"fmin.d f3, f1, f2", {fd(1, -0.0), fd(2, 0.0)}, {fd(3, -0.0)}},
        {"fmax.d f3, f1, f2", {fd(1, 0.0), fd(2, -0.0)}, {fd(3, 0.0)}},
        {"fmax.d f3, f1, f2", {fd(1, -0.0), fd(2, 0.0)}, {fd(3, 0.0)}},
        {"fmv.s f3, f1", {fs(1, -1.0f)}, {fs(3, -1.0f)}},
        {"fmv.d f3, f1", {fd(1, -1.0)}, {fd(3, -1.0)}},
        {"fmv.x.w x3, f1", {fs(1, -1.0f)}, {xreg(3, u(s32(bitsOf(-1.0f))))}},
        {"fmv.w.x f3, x1", {xreg(1, 0x123456783FC00000)}, {fs(3, 1.5f)}},
        {"fmv.x.d x3, f1", {fd(1, -2.25)}, {xreg(3, bitsOf(-2.25))}},
        {"fmv.d.x f3, x1", {xreg(1, bitsOf(-2.25))}, {fd(3, -2.25)}},
        {"fcvt.s.w f3, x1", {xreg(1, 0x1FFFFFFFD)}, {fs(3, -3.0f)}},
        {"fcvt.s.l f3, x1", {xreg(1, u(-3000000000))},
         {fs(3, static_cast<float>(-3000000000LL))}},
        {"fcvt.d.w f3, x1", {xreg(1, 0x1FFFFFFFD)}, {fd(3, -3.0)}},
        {"fcvt.d.l f3, x1", {xreg(1, u(-3000000000))}, {fd(3, -3e9)}},
        // Conversions to integer round to nearest, ties to even (the
        // default frm), and saturate: NaN and positive overflow give the
        // largest value, negative overflow the smallest.
        {"fcvt.w.s x3, f1", {fs(1, -3.75f)}, {xreg(3, u(-4))}},
        {"fcvt.w.s x3, f1", {fs(1, 2.5f)}, {xreg(3, 2)}},
        {"fcvt.w.s x3, f1", {fs(1, -1.5f)}, {xreg(3, u(-2))}},
        {"fcvt.w.s x3, f1", {fs(1, kNan)}, {xreg(3, 0x7FFFFFFF)}},
        {"fcvt.w.s x3, f1", {fs(1, 3e9f)}, {xreg(3, 0x7FFFFFFF)}},
        {"fcvt.w.s x3, f1", {fs(1, -3e9f)}, {xreg(3, u(INT32_MIN))}},
        {"fcvt.w.s x3, f1", {fs(1, -kInf)}, {xreg(3, u(INT32_MIN))}},
        {"fcvt.l.s x3, f1", {fs(1, 1e10f)},
         {xreg(3, u(static_cast<std::int64_t>(1e10f)))}},
        {"fcvt.l.s x3, f1", {fs(1, 0.5f)}, {xreg(3, 0)}},
        {"fcvt.l.s x3, f1", {fs(1, kNan)}, {xreg(3, u(INT64_MAX))}},
        {"fcvt.l.s x3, f1", {fs(1, 1e19f)}, {xreg(3, u(INT64_MAX))}},
        {"fcvt.l.s x3, f1", {fs(1, -kInf)}, {xreg(3, u(INT64_MIN))}},
        {"fcvt.w.d x3, f1", {fd(1, 3.75)}, {xreg(3, 4)}},
        {"fcvt.w.d x3, f1", {fd(1, -2.5)}, {xreg(3, u(-2))}},
        {"fcvt.w.d x3, f1", {fd(1, 2147483647.4)}, {xreg(3, 0x7FFFFFFF)}},
        {"fcvt.w.d x3, f1", {fd(1, 2147483647.5)}, {xreg(3, 0x7FFFFFFF)}},
        {"fcvt.w.d x3, f1", {fd(1, -2147483648.5)}, {xreg(3, u(INT32_MIN))}},
        {"fcvt.w.d x3, f1", {fd(1, -2147483649.0)}, {xreg(3, u(INT32_MIN))}},
        {"fcvt.w.d x3, f1", {fd(1, double(kNan))}, {xreg(3, 0x7FFFFFFF)}},
        {"fcvt.l.d x3, f1", {fd(1, -1e12 - 0.5)}, {xreg(3, u(-1000000000000))}},
        {"fcvt.l.d x3, f1", {fd(1, 3.5)}, {xreg(3, 4)}},
        {"fcvt.l.d x3, f1", {fd(1, double(kNan))}, {xreg(3, u(INT64_MAX))}},
        {"fcvt.l.d x3, f1", {fd(1, 1e19)}, {xreg(3, u(INT64_MAX))}},
        {"fcvt.l.d x3, f1", {fd(1, -1e19)}, {xreg(3, u(INT64_MIN))}},
        {"fcvt.l.d x3, f1", {fd(1, -0x1p63)}, {xreg(3, u(INT64_MIN))}},
        {"fcvt.d.s f3, f1", {fs(1, 0.1f)}, {fd(3, static_cast<double>(0.1f))}},
        {"fcvt.s.d f3, f1", {fd(1, 0.1)}, {fs(3, static_cast<float>(0.1))}},
        {"feq.s x3, f1, f2", {fs(1, 0.0f), fs(2, -0.0f)}, {xreg(3, 1)}},
        {"feq.s x3, f1, f2", {fs(1, kNan), fs(2, kNan)}, {xreg(3, 0)}},
        {"feq.d x3, f1, f2", {fd(1, 2.0), fd(2, 2.0)}, {xreg(3, 1)}},
        {"flt.s x3, f1, f2", {fs(1, -0.0f), fs(2, 0.0f)}, {xreg(3, 0)}},
        {"flt.d x3, f1, f2", {fd(1, -1.0), fd(2, 2.0)}, {xreg(3, 1)}},
        {"fle.s x3, f1, f2", {fs(1, -0.0f), fs(2, 0.0f)}, {xreg(3, 1)}},
        {"fle.d x3, f1, f2", {fd(1, double(kNan)), fd(2, 1.0)}, {xreg(3, 0)}},

        // ---- vector configuration
        {"vsetvli x3, x1, e16, m1", {xreg(1, 100)}, {xreg(3, 16), vlIs(16), sewIs(2)}},
        {"vsetvli x3, x1, e64, m1", {xreg(1, 3)}, {xreg(3, 3), vlIs(3), sewIs(8)}},
        {"vsetvli x3, x0, e8, m1", {}, {xreg(3, 32), vlIs(32), sewIs(1)}},

        // ---- vector memory
        {"vle8.v v3, (x1)", {base, memAt(0x1000, 1, BYTES)}, {vreg(3, BYTES)}, 1, 32},
        {"vle16.v v3, (x1)", {base, memAt(0x1000, 2, HALVES)}, {vreg(3, HALVES)}, 2, 16},
        {"vle32.v v3, (x1)", {base, memAt(0x1000, 4, A)}, {vreg(3, A)}},
        {"vle32.v v3, (x1)", {base, memAt(0x1000, 4, A)}, {vreg(3, firstN(A, 5))}, 4, 5},
        {"vle32.v v3, (x1), v0.t", {base, memAt(0x1000, 4, A), vreg(3, OLD), mask(0, K)},
         {vreg(3, underMask(A, OLD, K))}},
        {"vle64.v v3, (x1)", {base, memAt(0x1000, 8, D)}, {vreg(3, D)}, 8, 4},
        {"vse8.v v3, (x1)", {base, vreg(3, BYTES)}, {memAt(0x1000, 1, BYTES)}, 1, 32},
        {"vse16.v v3, (x1)", {base, vreg(3, HALVES)}, {memAt(0x1000, 2, HALVES)}, 2, 16},
        {"vse32.v v3, (x1)", {base, vreg(3, A), memAt(0x1000, 4, FILL)},
         {memAt(0x1000, 4, A)}},
        {"vse32.v v3, (x1)", {base, vreg(3, A), memAt(0x1000, 4, FILL)},
         {memAt(0x1000, 4, {A[0], A[1], A[2], A[3], A[4], FILL[5], FILL[6], FILL[7]})},
         4, 5},
        {"vse32.v v3, (x1), v0.t", {base, vreg(3, A), memAt(0x1000, 4, FILL), mask(0, K)},
         {memAt(0x1000, 4, underMask(A, FILL, K))}},
        {"vse64.v v3, (x1)", {base, vreg(3, D)}, {memAt(0x1000, 8, D)}, 8, 4},
        {"vlse32.v v3, (x1), x2", {base, xreg(2, 8), memAt(0x1000, 8, A)}, {vreg(3, A)}},
        {"vlse64.v v3, (x1), x2",
         {base, xreg(2, 16), memAt(0x1000, 8, {D[0], 0, D[1], 0, D[2], 0, D[3], 0})},
         {vreg(3, D)}, 8, 4},
        {"vluxei32.v v3, (x1), v2", {base, vreg(2, REV), memAt(0x1000, 4, A)},
         {vreg(3, ARev)}},
        {"vluxei64.v v3, (x1), v2", {base, vreg(2, {24, 16, 8, 0}), memAt(0x1000, 8, D)},
         {vreg(3, DRev)}, 8, 4},
        {"vsuxei32.v v3, (x1), v2", {base, vreg(2, REV), vreg(3, A)},
         {memAt(0x1000, 4, ARev)}},
        {"vsuxei64.v v3, (x1), v2", {base, vreg(2, {24, 16, 8, 0}), vreg(3, D)},
         {memAt(0x1000, 8, DRev)}, 8, 4},

        // ---- vector integer (vd, vs2, vs1|x1|imm: v1 is vs2)
        {"vadd.vv v3, v1, v2", {vreg(1, A), vreg(2, B)}, {vreg(3, zipE(A, B, addE))}},
        {"vadd.vv v3, v1, v2", {vreg(1, A), vreg(2, B)},
         {vreg(3, firstN(zipE(A, B, addE), 5))}, 4, 5},
        {"vadd.vv v3, v1, v2, v0.t", {vreg(1, A), vreg(2, B), vreg(3, OLD), mask(0, K)},
         {vreg(3, underMask(zipE(A, B, addE), OLD, K))}},
        {"vadd.vx v3, v1, x1", {vreg(1, A), xreg(1, X1)}, {vreg(3, zipE(A, bcast(X1), addE))}},
        // .vi immediates are sign-extended.
        {"vadd.vi v3, v1, -3", {vreg(1, A)}, {vreg(3, zipE(A, bcast(u(-3)), addE))}},
        {"vsub.vv v3, v1, v2", {vreg(1, A), vreg(2, B)},
         {vreg(3, zipE(A, B, [](std::uint64_t a, std::uint64_t b) { return a - b; }))}},
        {"vsub.vx v3, v1, x1", {vreg(1, A), xreg(1, X1)},
         {vreg(3, mapE(A, [&](std::uint64_t a) { return a - X1; }))}},
        {"vmul.vv v3, v1, v2", {vreg(1, A), vreg(2, B)},
         {vreg(3, zipE(A, B, [](std::uint64_t a, std::uint64_t b) { return a * b; }))}},
        {"vmul.vx v3, v1, x1", {vreg(1, A), xreg(1, X1)},
         {vreg(3, mapE(A, [&](std::uint64_t a) { return a * X1; }))}},
        {"vand.vv v3, v1, v2", {vreg(1, A), vreg(2, B)},
         {vreg(3, zipE(A, B, [](std::uint64_t a, std::uint64_t b) { return a & b; }))}},
        {"vand.vx v3, v1, x1", {vreg(1, A), xreg(1, X1)},
         {vreg(3, mapE(A, [&](std::uint64_t a) { return a & X1; }))}},
        {"vand.vi v3, v1, -2", {vreg(1, A)},
         {vreg(3, mapE(A, [](std::uint64_t a) { return a & u(-2); }))}},
        {"vor.vv v3, v1, v2", {vreg(1, A), vreg(2, B)},
         {vreg(3, zipE(A, B, [](std::uint64_t a, std::uint64_t b) { return a | b; }))}},
        {"vor.vx v3, v1, x1", {vreg(1, A), xreg(1, X1)},
         {vreg(3, mapE(A, [&](std::uint64_t a) { return a | X1; }))}},
        {"vor.vi v3, v1, -16", {vreg(1, A)},
         {vreg(3, mapE(A, [](std::uint64_t a) { return a | u(-16); }))}},
        {"vxor.vv v3, v1, v2", {vreg(1, A), vreg(2, B)},
         {vreg(3, zipE(A, B, [](std::uint64_t a, std::uint64_t b) { return a ^ b; }))}},
        {"vxor.vx v3, v1, x1", {vreg(1, A), xreg(1, X1)},
         {vreg(3, mapE(A, [&](std::uint64_t a) { return a ^ X1; }))}},
        {"vxor.vi v3, v1, -1", {vreg(1, A)},
         {vreg(3, mapE(A, [](std::uint64_t a) { return ~a; }))}},
        {"vsll.vi v3, v1, 5", {vreg(1, A)},
         {vreg(3, mapE(A, [](std::uint64_t a) { return a << 5; }))}},
        {"vsll.vx v3, v1, x1", {vreg(1, A), xreg(1, 3)},
         {vreg(3, mapE(A, [](std::uint64_t a) { return a << 3; }))}},
        {"vsrl.vi v3, v1, 5", {vreg(1, A)},
         {vreg(3, mapE(A, [](std::uint64_t a) { return std::uint32_t(a) >> 5; }))}},
        {"vsrl.vx v3, v1, x1", {vreg(1, A), xreg(1, 3)},
         {vreg(3, mapE(A, [](std::uint64_t a) { return std::uint32_t(a) >> 3; }))}},
        {"vsra.vi v3, v1, 3", {vreg(1, A)},
         {vreg(3, mapE(A, [](std::uint64_t a) { return u(s32(a) >> 3); }))}},
        // Shift amounts use the low log2(SEW) bits: 35 is 3 at e32, 9 is 1
        // at e8.
        {"vsll.vx v3, v1, x1", {vreg(1, A), xreg(1, 35)},
         {vreg(3, mapE(A, [](std::uint64_t a) { return a << 3; }))}},
        {"vsrl.vx v3, v1, x1", {vreg(1, A), xreg(1, 35)},
         {vreg(3, mapE(A, [](std::uint64_t a) { return std::uint32_t(a) >> 3; }))}},
        {"vsll.vi v3, v1, 9", {vreg(1, BYTES)},
         {vreg(3, mapE(BYTES, [](std::uint64_t a) { return a << 1; }))}, 1, 32},
        {"vsrl.vi v3, v1, 9", {vreg(1, BYTES)},
         {vreg(3, mapE(BYTES, [](std::uint64_t a) { return a >> 1; }))}, 1, 32},
        {"vsra.vi v3, v1, 9", {vreg(1, BYTES)},
         {vreg(3, mapE(BYTES, [](std::uint64_t a) { return u(std::int8_t(a) >> 1); }))},
         1, 32},
        {"vmin.vv v3, v1, v2", {vreg(1, A), vreg(2, B)},
         {vreg(3, zipE(A, B, [](std::uint64_t a, std::uint64_t b) {
              return u(std::min(s32(a), s32(b))); }))}},
        {"vmax.vv v3, v1, v2", {vreg(1, A), vreg(2, B)},
         {vreg(3, zipE(A, B, [](std::uint64_t a, std::uint64_t b) {
              return u(std::max(s32(a), s32(b))); }))}},
        {"vminu.vv v3, v1, v2", {vreg(1, A), vreg(2, B)},
         {vreg(3, zipE(A, B, [](std::uint64_t a, std::uint64_t b) { return std::min(a, b); }))}},
        {"vmaxu.vv v3, v1, v2", {vreg(1, A), vreg(2, B)},
         {vreg(3, zipE(A, B, [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); }))}},
        {"vid.v v3", {}, {vreg(3, IOTA)}},
        {"vid.v v3, v0.t", {vreg(3, OLD), mask(0, K)}, {vreg(3, underMask(IOTA, OLD, K))}},
        {"vmv.v.i v3, -3", {}, {vreg(3, bcast(u(-3)))}},
        {"vmv.v.i v3, 9", {}, {vreg(3, Elems(5, 9))}, 4, 5},
        {"vmv.v.x v3, x1", {xreg(1, X1)}, {vreg(3, bcast(X1))}},
        {"vmv.v.v v3, v1", {vreg(1, A)}, {vreg(3, A)}},
        {"vmv.v.v v3, v1", {vreg(1, A)}, {vreg(3, firstN(A, 5))}, 4, 5},
        {"vmv.x.s x3, v1", {vreg(1, {0xFFFFFFF0})}, {xreg(3, u(-16))}},
        {"vmv.s.x v3, x1", {xreg(1, X1)}, {vreg(3, {X1})}},

        // ---- vector float (e32 unless stated)
        {"vfadd.vv v3, v1, v2", {vreg(1, FA), vreg(2, FB)}, {vreg(3, zipE(FA, FB, fadd))}},
        {"vfadd.vv v3, v1, v2",
         {vreg(1, {bitsOf(1.5), bitsOf(-2.0), bitsOf(0.1), bitsOf(1e300)}),
          vreg(2, {bitsOf(0.25), bitsOf(8.0), bitsOf(0.2), bitsOf(1e300)})},
         {vreg(3, {bitsOf(1.75), bitsOf(6.0), bitsOf(0.1 + 0.2), bitsOf(1e300 + 1e300)})},
         8, 4},
        {"vfadd.vf v3, v1, f1", {vreg(1, FA), fs(1, F1)}, {vreg(3, zipE(FA, F1s, fadd))}},
        {"vfadd.vf v3, v1, f1", {vreg(1, FA), fs(1, F1)},
         {vreg(3, firstN(zipE(FA, F1s, fadd), 5))}, 4, 5},
        {"vfsub.vv v3, v1, v2", {vreg(1, FA), vreg(2, FB)}, {vreg(3, zipE(FA, FB, fsub))}},
        {"vfsub.vf v3, v1, f1", {vreg(1, FA), fs(1, F1)}, {vreg(3, zipE(FA, F1s, fsub))}},
        {"vfmul.vv v3, v1, v2", {vreg(1, FA), vreg(2, FB)}, {vreg(3, zipE(FA, FB, fmul))}},
        {"vfmul.vf v3, v1, f1", {vreg(1, FA), fs(1, F1)}, {vreg(3, zipE(FA, F1s, fmul))}},
        {"vfdiv.vv v3, v1, v2", {vreg(1, FA), vreg(2, FB)}, {vreg(3, zipE(FA, FB, fdiv))}},
        {"vfdiv.vf v3, v1, f1", {vreg(1, FA), fs(1, F1)}, {vreg(3, zipE(FA, F1s, fdiv))}},
        {"vfmacc.vv v3, v1, v2", {vreg(1, FA), vreg(2, FB), vreg(3, FC)},
         {vreg(3, fmaE(FA, FB, FC))}},
        {"vfmacc.vf v3, v1, f1", {vreg(1, FA), fs(1, F1), vreg(3, FC)},
         {vreg(3, fmaE(FA, F1s, FC))}},
        {"vfmacc.vv v3, v1, v2, v0.t", {vreg(1, FA), vreg(2, FB), vreg(3, FC), mask(0, K)},
         {vreg(3, underMask(fmaE(FA, FB, FC), FC, K))}},
        // Fused at e32 too: (1 + 2^-12)^2 + 2^-80 lies just above a float
        // midpoint, which rounding to double first would lose.
        {"vfmacc.vv v3, v1, v2",
         {vreg(1, f32s({1.0f + 0x1p-12f})), vreg(2, f32s({1.0f + 0x1p-12f})),
          vreg(3, f32s({0x1p-80f}))},
         {vreg(3, f32s({1.0f + 0x1p-11f + 0x1p-23f}))}, 4, 1},
        {"vfmacc.vv v3, v1, v2",
         {vreg(1, {bitsOf(1.0 + 0x1p-30)}), vreg(2, {bitsOf(1.0 + 0x1p-30)}),
          vreg(3, {bitsOf(-(1.0 + 0x1p-29))})},
         {vreg(3, {bitsOf(0x1p-60)})}, 8, 1},
        {"vfmin.vv v3, v1, v2", {vreg(1, FA), vreg(2, FB)}, {vreg(3, zipE(FA, FB, fmn))}},
        {"vfmax.vv v3, v1, v2", {vreg(1, FA), vreg(2, FB)}, {vreg(3, zipE(FA, FB, fmx))}},
        {"vfmin.vv v3, v1, v2", {vreg(1, f32s({0.0f, -0.0f})), vreg(2, f32s({-0.0f, 0.0f}))},
         {vreg(3, f32s({-0.0f, -0.0f}))}, 4, 2},
        {"vfmax.vv v3, v1, v2", {vreg(1, f32s({0.0f, -0.0f})), vreg(2, f32s({-0.0f, 0.0f}))},
         {vreg(3, f32s({0.0f, 0.0f}))}, 4, 2},
        {"vfmv.v.f v3, f1", {fs(1, F1)}, {vreg(3, F1s)}},
        {"vfmv.f.s f3, v1", {vreg(1, FA)}, {freg(3, 0xFFFFFFFF00000000 | FA[0])}},
        {"vfmv.s.f v3, f1", {fs(1, F1)}, {vreg(3, {bitsOf(F1)})}},

        // ---- reductions: vd[0] = vs1[0] (v2) op all active vs2 (v1)
        {"vredsum.vs v3, v1, v2", {vreg(1, A), vreg(2, B)},
         {vreg(3, {sreduce(s32(B[0]), ALL, std::plus<std::int64_t>())})}},
        {"vredsum.vs v3, v1, v2, v0.t", {vreg(1, A), vreg(2, B), mask(0, K)},
         {vreg(3, {sreduce(s32(B[0]), K, std::plus<std::int64_t>())})}},
        {"vredmax.vs v3, v1, v2", {vreg(1, A), vreg(2, B)},
         {vreg(3, {sreduce(s32(B[0]), ALL, [](std::int64_t a, std::int64_t b) {
              return std::max(a, b); })})}},
        {"vredmin.vs v3, v1, v2", {vreg(1, A), vreg(2, B)},
         {vreg(3, {sreduce(s32(B[0]), ALL, [](std::int64_t a, std::int64_t b) {
              return std::min(a, b); })})}},
        {"vredand.vs v3, v1, v2", {vreg(1, A), vreg(2, {0xFFFFFFFF})},
         {vreg(3, {sreduce(-1, ALL, std::bit_and<std::int64_t>())})}},
        {"vredor.vs v3, v1, v2", {vreg(1, A), vreg(2, {0x100})},
         {vreg(3, {sreduce(0x100, ALL, std::bit_or<std::int64_t>())})}},
        {"vfredusum.vs v3, v1, v2", {vreg(1, FA), vreg(2, FB)},
         {vreg(3, {freduce(asF(FB[0]), std::plus<float>())})}},
        {"vfredsum.vs v3, v1, v2", {vreg(1, FA), vreg(2, FB)},
         {vreg(3, {freduce(asF(FB[0]), std::plus<float>())})}},
        {"vfredmax.vs v3, v1, v2", {vreg(1, FA), vreg(2, FB)},
         {vreg(3, {freduce(asF(FB[0]), [](float a, float b) { return a > b ? a : b; })})}},
        {"vfredmin.vs v3, v1, v2", {vreg(1, FA), vreg(2, FB)},
         {vreg(3, {freduce(asF(FB[0]), [](float a, float b) { return a < b ? a : b; })})}},
        {"vfredmax.vs v3, v1, v2", {vreg(1, f32s({-0.0f, -1.0f})), vreg(2, f32s({0.0f}))},
         {vreg(3, f32s({0.0f}))}, 4, 2},
        {"vfredmin.vs v3, v1, v2", {vreg(1, f32s({0.0f, 1.0f})), vreg(2, f32s({-0.0f}))},
         {vreg(3, f32s({-0.0f}))}, 4, 2},

        // ---- integer compares into a mask (e32, signed unless ...u)
        {"vmseq.vv v3, v1, v2", {vreg(1, A), vreg(2, B)},
         {mask(3, zipE(A, B, [](std::uint64_t a, std::uint64_t b) { return a == b; }))}},
        {"vmseq.vx v3, v1, x1", {vreg(1, A), xreg(1, u(-1))},
         {mask(3, mapE(A, [](std::uint64_t a) { return s32(a) == -1; }))}},
        {"vmseq.vi v3, v1, -1", {vreg(1, A)},
         {mask(3, mapE(A, [](std::uint64_t a) { return s32(a) == -1; }))}},
        {"vmsne.vv v3, v1, v2", {vreg(1, A), vreg(2, B)},
         {mask(3, zipE(A, B, [](std::uint64_t a, std::uint64_t b) { return a != b; }))}},
        {"vmsne.vx v3, v1, x1", {vreg(1, A), xreg(1, 7)},
         {mask(3, mapE(A, [](std::uint64_t a) { return s32(a) != 7; }))}},
        {"vmsne.vi v3, v1, -1", {vreg(1, A)},
         {mask(3, mapE(A, [](std::uint64_t a) { return s32(a) != -1; }))}},
        {"vmslt.vv v3, v1, v2", {vreg(1, A), vreg(2, B)},
         {mask(3, zipE(A, B, [](std::uint64_t a, std::uint64_t b) { return s32(a) < s32(b); }))}},
        {"vmslt.vx v3, v1, x1", {vreg(1, A), xreg(1, u(-1))},
         {mask(3, mapE(A, [](std::uint64_t a) { return s32(a) < -1; }))}},
        {"vmslt.vx v3, v1, x1, v0.t", {vreg(1, A), xreg(1, 7), mask(3, OLDM), mask(0, K)},
         {mask(3, underMask(mapE(A, [](std::uint64_t a) { return s32(a) < 7; }),
                            OLDM, K))}},
        {"vmsle.vv v3, v1, v2", {vreg(1, A), vreg(2, B)},
         {mask(3, zipE(A, B, [](std::uint64_t a, std::uint64_t b) { return s32(a) <= s32(b); }))}},
        {"vmsle.vx v3, v1, x1", {vreg(1, A), xreg(1, 7)},
         {mask(3, mapE(A, [](std::uint64_t a) { return s32(a) <= 7; }))}},
        {"vmsle.vi v3, v1, -1", {vreg(1, A)},
         {mask(3, mapE(A, [](std::uint64_t a) { return s32(a) <= -1; }))}},
        {"vmsgt.vx v3, v1, x1", {vreg(1, A), xreg(1, u(-1))},
         {mask(3, mapE(A, [](std::uint64_t a) { return s32(a) > -1; }))}},
        {"vmsgt.vi v3, v1, -1", {vreg(1, A)},
         {mask(3, mapE(A, [](std::uint64_t a) { return s32(a) > -1; }))}},
        {"vmsge.vx v3, v1, x1", {vreg(1, A), xreg(1, 7)},
         {mask(3, mapE(A, [](std::uint64_t a) { return s32(a) >= 7; }))}},
        {"vmsltu.vv v3, v1, v2", {vreg(1, A), vreg(2, B)},
         {mask(3, zipE(A, B, [](std::uint64_t a, std::uint64_t b) { return a < b; }))}},
        {"vmsltu.vx v3, v1, x1", {vreg(1, A), xreg(1, 7)},
         {mask(3, mapE(A, [](std::uint64_t a) { return a < 7; }))}},
        {"vmsgtu.vx v3, v1, x1", {vreg(1, A), xreg(1, 7)},
         {mask(3, mapE(A, [](std::uint64_t a) { return a > 7; }))}},
        // A .vx operand is cut to SEW bits: 0xffffffff is -1 at e32, and
        // bit 32 does not count.
        {"vmslt.vx v3, v1, x1", {vreg(1, A), xreg(1, 0xFFFFFFFF)},
         {mask(3, mapE(A, [](std::uint64_t a) { return s32(a) < -1; }))}},
        {"vmsge.vx v3, v1, x1", {vreg(1, A), xreg(1, 0x80000000)},
         {mask(3, Elems(8, 1))}},
        {"vmseq.vx v3, v1, x1", {vreg(1, A), xreg(1, 0x100000007)},
         {mask(3, mapE(A, [](std::uint64_t a) { return a == 7; }))}},
        {"vmsltu.vx v3, v1, x1", {vreg(1, A), xreg(1, 0x100000007)},
         {mask(3, mapE(A, [](std::uint64_t a) { return a < 7; }))}},
        {"vmsgtu.vx v3, v1, x1", {vreg(1, A), xreg(1, u(-1))}, {mask(3, Elems(8, 0))}},

        // ---- float compares against f1 = +0.0: -0.0 equals it, NaN is
        // unordered
        {"vmflt.vf v3, v1, f1", {vreg(1, FZ), fs(1, 0.0f)},
         {mask(3, mapE(FZ, [](std::uint64_t a) { return asF(a) < 0.0f; }))}},
        {"vmfle.vf v3, v1, f1", {vreg(1, FZ), fs(1, 0.0f)},
         {mask(3, mapE(FZ, [](std::uint64_t a) { return asF(a) <= 0.0f; }))}},
        {"vmfgt.vf v3, v1, f1", {vreg(1, FZ), fs(1, 0.0f)},
         {mask(3, mapE(FZ, [](std::uint64_t a) { return asF(a) > 0.0f; }))}},
        {"vmfge.vf v3, v1, f1", {vreg(1, FZ), fs(1, 0.0f)},
         {mask(3, mapE(FZ, [](std::uint64_t a) { return asF(a) >= 0.0f; }))}},
        {"vmfeq.vf v3, v1, f1", {vreg(1, FZ), fs(1, 0.0f)},
         {mask(3, mapE(FZ, [](std::uint64_t a) { return asF(a) == 0.0f; }))}},
        {"vmfne.vf v3, v1, f1", {vreg(1, FZ), fs(1, 0.0f)},
         {mask(3, mapE(FZ, [](std::uint64_t a) { return asF(a) != 0.0f; }))}},

        // ---- mask logic
        {"vmand.mm v3, v1, v2", {mask(1, K), mask(2, M2)},
         {mask(3, zipE(K, M2, [](std::uint64_t a, std::uint64_t b) { return a && b; }))}},
        {"vmor.mm v3, v1, v2", {mask(1, K), mask(2, M2)},
         {mask(3, zipE(K, M2, [](std::uint64_t a, std::uint64_t b) { return a || b; }))}},
        {"vmxor.mm v3, v1, v2", {mask(1, K), mask(2, M2)},
         {mask(3, zipE(K, M2, [](std::uint64_t a, std::uint64_t b) { return a != b; }))}},
        {"vmnand.mm v3, v1, v2", {mask(1, K), mask(2, M2)},
         {mask(3, zipE(K, M2, [](std::uint64_t a, std::uint64_t b) { return !(a && b); }))}},
        {"vmnot.m v3, v1", {mask(1, K)}, {mask(3, mapE(K, [](std::uint64_t a) { return !a; }))}},
        {"vcpop.m x3, v1", {mask(1, K)}, {xreg(3, 4)}},
        {"vcpop.m x3, v1", {mask(1, K)}, {xreg(3, 2)}, 4, 3},
        {"vfirst.m x3, v1", {mask(1, {0, 0, 0, 1, 1, 0, 0, 0})}, {xreg(3, 3)}},
        {"vfirst.m x3, v1", {mask(1, Elems(8, 0))}, {xreg(3, u(-1))}},
        {"vmerge.vvm v3, v1, v2, v0", {vreg(1, A), vreg(2, B), mask(0, K)},
         {vreg(3, underMask(B, A, K))}},
        {"vmerge.vxm v3, v1, x1, v0", {vreg(1, A), xreg(1, X1), mask(0, K)},
         {vreg(3, underMask(bcast(X1), A, K))}},
        {"vmerge.vim v3, v1, -3, v0", {vreg(1, A), mask(0, K)},
         {vreg(3, underMask(bcast(u(-3)), A, K))}},

        {"exit", {}, {exits()}},
    };

    std::set<Opcode> covered;
    for (const SemRow &row : rows)
        covered.insert(runRow(row));
    // Every opcode in the opcode table has a row.
    for (std::size_t op = 0; op < std::size(kOpcodes); ++op) {
        EXPECT_EQ(covered.count(static_cast<Opcode>(op)), 1u)
            << kOpcodes[op].mnemonic << " has no semantic row";
    }
}

} // namespace
} // namespace m2ndp::isa
