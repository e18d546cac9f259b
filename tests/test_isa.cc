/**
 * @file
 * Tests for the RISC-V assembler and functional executor: parsing,
 * scalar/vector/atomic semantics, masks, reductions, register
 * provisioning enforcement, and memory-reference coalescing.
 */

#include <gtest/gtest.h>

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
    EXPECT_EQ(h, 0x188a92ce7e675da3ull);
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
    EXPECT_EQ(ctx.x[5], 3u); // 3.75 truncates to 3
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

} // namespace
} // namespace m2ndp::isa
