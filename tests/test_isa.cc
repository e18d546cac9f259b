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

/** Assemble and decode a single-section kernel. */
DecodedSection
decodeOne(const std::string &text)
{
    DecodedKernel k = DecodedKernel::decode(assembleOk(Assembler(), text));
    EXPECT_EQ(k.sections.size(), 1u);
    return k.sections.empty() ? DecodedSection{} : k.sections[0];
}

/** Assemble a single-body kernel and run one uthread to completion. */
std::uint64_t
run(const std::string &text, UthreadContext &ctx, FlatMemory &mem)
{
    return runToCompletion(ctx, decodeOne(text), mem);
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
    EXPECT_TRUE(k.hasInitializer());
    EXPECT_TRUE(k.hasFinalizer());
    EXPECT_EQ(k.bodySections().size(), 1u);
    EXPECT_EQ(k.staticInstructionCount(), 5u);
}

TEST(Assembler, DefaultBodySection)
{
    Assembler as;
    auto k = assembleOk(as, "li x1, 5\nexit\n");
    ASSERT_EQ(k.sections.size(), 1u);
    EXPECT_EQ(k.sections[0].kind, SectionKind::Body);
    EXPECT_FALSE(k.hasInitializer());
    EXPECT_FALSE(k.hasFinalizer());
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
    DecodedSection code = decodeOne("vsetvli x0, x0, e32, m1\n"
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
    DecodedSection code2 = decodeOne("vsetvli x0, x0, e32, m1\n"
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
    DecodedSection code3 = decodeOne(
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
    EXPECT_THROW(runToCompletion(ctx, decodeOne("loop:\nj loop\n"), mem, 1000),
                 std::logic_error);
}

TEST(Executor, FuTypesAndLatencies)
{
    EXPECT_EQ(fuTypeOf(Opcode::ADD), FuType::ScalarAlu);
    EXPECT_EQ(fuTypeOf(Opcode::DIV), FuType::ScalarSfu);
    EXPECT_EQ(fuTypeOf(Opcode::LD), FuType::ScalarLsu);
    EXPECT_EQ(fuTypeOf(Opcode::AMOADD_D), FuType::ScalarLsu);
    EXPECT_EQ(fuTypeOf(Opcode::VLE32), FuType::VectorLsu);
    EXPECT_EQ(fuTypeOf(Opcode::VADD_VV), FuType::VectorAlu);
    EXPECT_EQ(fuTypeOf(Opcode::VFDIV_VV), FuType::VectorSfu);
    EXPECT_EQ(fuTypeOf(Opcode::VFMACC_VV), FuType::VectorAlu);
    EXPECT_GT(latencyOf(Opcode::DIV), latencyOf(Opcode::ADD));
    EXPECT_GT(latencyOf(Opcode::VFMACC_VV), latencyOf(Opcode::VADD_VV));
    EXPECT_TRUE(isMemory(Opcode::VLUXEI32));
    EXPECT_FALSE(isMemory(Opcode::VADD_VV));
    EXPECT_TRUE(isVector(Opcode::VSETVLI));
    EXPECT_FALSE(isVector(Opcode::ADD));
}

TEST(Executor, OpcodeNames)
{
    EXPECT_STREQ(opcodeName(Opcode::ADD), "add");
    EXPECT_STREQ(opcodeName(Opcode::VFMACC_VV), "vfmacc.vv");
    EXPECT_STREQ(opcodeName(Opcode::AMOADD_D), "amoadd.d");
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
    auto bodies = k.bodySections();
    ASSERT_EQ(bodies.size(), 2u);
    EXPECT_EQ(k.sections[bodies[0]].code[0].imm, 1);
    EXPECT_EQ(k.sections[bodies[1]].code[0].imm, 2);
}

} // namespace
} // namespace m2ndp::isa
