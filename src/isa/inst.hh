/**
 * @file
 * Instruction set definition for M2NDP kernels.
 *
 * The NDP units execute a modified RISC-V RV64IMAFD + Vector (RVV 1.0
 * subset) ISA (Section III-D). Kernels are written in assembly (Section
 * IV-B: "the kernels were implemented with assembly"); our assembler parses
 * the textual form directly into the µops the units run — binary encoding
 * adds nothing for a simulator and is omitted. Each opcode is declared
 * once, in M2NDP_OPCODES: its mnemonic, operand format and everything the
 * executor needs to know about it (functional-unit class, result latency,
 * memory width and extension, AMO op, second-operand kind). The assembler
 * copies that row into each instruction it parses, so `isa::step()` never
 * re-derives it per issue.
 *
 * Restrictions (documented, asserted by the assembler):
 *  - VLEN = 256 bits (one 32 B vector register, matching the 32 B uthread
 *    mapping granularity, advantage A4).
 *  - LMUL = 1 only.
 *  - No OS-dependent instructions (ECALL etc.), per Section III-G.
 */

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mem/sparse_memory.hh" // AmoOp

namespace m2ndp::isa {

/** Vector register length in bytes (VLEN = 256 bits). */
inline constexpr unsigned kVlenBytes = 32;

/** Functional unit classes inside an NDP sub-core (Fig. 7). */
enum class FuType : std::uint8_t {
    ScalarAlu,  ///< 2 per sub-core
    ScalarSfu,  ///< div/sqrt/transcendental, 1 per sub-core
    ScalarLsu,  ///< 1 per sub-core
    VectorAlu,  ///< 256-bit, 1 per sub-core
    VectorSfu,  ///< 1 per sub-core
    VectorLsu,  ///< 1 per sub-core
    None,       ///< NOP/EXIT/VSETVLI (configuration only)
};

/** What an operation's second source operand is: a vector register
 *  (.vv), an x register (.vx and scalar register forms), an immediate
 *  (.vi and scalar immediate forms) or an f register (.vf). */
enum class Src : std::uint8_t { None, V, X, I, F };

/** Operand layout of a mnemonic in kernel text. */
enum class Fmt : std::uint8_t {
    N0,     // no operands
    R3,     // rd, rs1, rs2        (int)
    I2,     // rd, rs1, imm
    RI,     // rd, imm             (lui/li)
    R2,     // rd, rs1             (mv)
    LOAD,   // rd, imm(rs1)        (x or f rd by the memory FP flag)
    STORE,  // rs2, imm(rs1)
    BR,     // rs1, rs2, label
    JL,     // label               (j)
    AMO,    // rd, rs2, (rs1)
    F3,     // fd, fs1, fs2
    F4,     // fd, fs1, fs2, fs3
    F2,     // fd, fs1
    FX,     // rd(x), fs1
    XF,     // fd, rs1(x)
    FCMP,   // rd(x), fs1, fs2
    VSET,   // rd, rs1, eN, mN
    VL,     // vd, (rs1)
    VLS,    // vd, (rs1), rs2
    VLX,    // vd, (rs1), vs2
    VS,     // vs3, (rs1)
    VSX,    // vs3, (rs1), vs2
    VBIN,   // vd, vs2, src        (src by the row's Src)
    VSRC,   // vd, src
    VV2,    // vd, vs2
    XV,     // rd(x), vs2
    FV,     // fd, vs2
    V1,     // vd
    VMRG,   // vd, vs2, src, v0
};

/** The opcode-derived fields of an Instruction: one row of the table. */
struct OpTraits
{
    FuType fu = FuType::None;
    std::uint8_t latency = 1;    ///< result latency (sub-core cycles)
    std::uint8_t mem_width = 0;  ///< access width / vector EEW / index EEW
    bool mem_sign = false;       ///< sign-extend scalar load result
    bool mem_fp = false;         ///< scalar load/store targets the FP file
    AmoOp amo_op = AmoOp::Add;   ///< atomic op (AMO* only)
    bool is_vector = false;      ///< vector-unit opcode (stat bucketing)
    Src src = Src::None;         ///< second source operand kind
};

/** Row builders for the opcode list. */
namespace row {
/** A row without a memory access. */
constexpr OpTraits
op(FuType fu, std::uint8_t latency, Src src, bool is_vector)
{
    OpTraits t;
    t.fu = fu;
    t.latency = latency;
    t.src = src;
    t.is_vector = is_vector;
    return t;
}
constexpr OpTraits
alu(Src src = Src::None, std::uint8_t latency = 1)
{
    return op(FuType::ScalarAlu, latency, src, false);
}
constexpr OpTraits alu(std::uint8_t latency) { return alu(Src::None, latency); }
constexpr OpTraits
sfu(Src src, std::uint8_t latency)
{
    return op(FuType::ScalarSfu, latency, src, false);
}
constexpr OpTraits sfu(std::uint8_t latency) { return sfu(Src::None, latency); }
/** Vector ALU ops take 2 cycles unless stated. */
constexpr OpTraits
valu(Src src = Src::None, std::uint8_t latency = 2)
{
    return op(FuType::VectorAlu, latency, src, true);
}
constexpr OpTraits
vsfu(Src src, std::uint8_t latency)
{
    return op(FuType::VectorSfu, latency, src, true);
}
constexpr OpTraits vconfig() { return op(FuType::None, 2, Src::None, true); }
constexpr OpTraits none() { return {}; }
constexpr OpTraits lsu() { return op(FuType::ScalarLsu, 1, Src::None, false); }
/** A memory row: LSU-timed (latency 1), @p width bytes per access or
 *  element (the index EEW for indexed vector forms). */
constexpr OpTraits
mem(std::uint8_t width, bool sign, bool fp, bool is_vector,
    AmoOp amo_op = AmoOp::Add)
{
    OpTraits t = op(is_vector ? FuType::VectorLsu : FuType::ScalarLsu, 1,
                    Src::None, is_vector);
    t.mem_width = width;
    t.mem_sign = sign;
    t.mem_fp = fp;
    t.amo_op = amo_op;
    return t;
}
constexpr OpTraits
load(std::uint8_t width, bool sign)
{
    return mem(width, sign, false, false);
}
constexpr OpTraits store(std::uint8_t width) { return load(width, false); }
constexpr OpTraits
fload(std::uint8_t width)
{
    return mem(width, false, true, false);
}
constexpr OpTraits fstore(std::uint8_t width) { return fload(width); }
constexpr OpTraits
amo(AmoOp amo_op, std::uint8_t width)
{
    return mem(width, false, false, false, amo_op);
}
constexpr OpTraits
vmem(std::uint8_t width)
{
    return mem(width, false, false, true);
}
} // namespace row

/**
 * Every operation, once: OP(enum name, mnemonic, operand format, traits).
 * It expands to the Opcode enum and to kOpcodes, the table indexed by
 * opcode. Suffix conventions: _VV/_VX/_VI/_VF operand forms; _S/_D
 * scalar float width; _W/_D integer width for AMOs.
 */
#define M2NDP_OPCODES(OP)                                                   \
    /* ---- scalar integer */                                               \
    OP(LUI,          "lui",          RI,    alu())                          \
    OP(LI,           "li",           RI,    alu())                          \
    OP(MV,           "mv",           R2,    alu())                          \
    OP(NOP,          "nop",          N0,    alu())                          \
    OP(ADD,          "add",          R3,    alu(Src::X))                    \
    OP(ADDI,         "addi",         I2,    alu(Src::I))                    \
    OP(ADDW,         "addw",         R3,    alu(Src::X))                    \
    OP(ADDIW,        "addiw",        I2,    alu(Src::I))                    \
    OP(SUB,          "sub",          R3,    alu(Src::X))                    \
    OP(SUBW,         "subw",         R3,    alu(Src::X))                    \
    OP(AND,          "and",          R3,    alu(Src::X))                    \
    OP(ANDI,         "andi",         I2,    alu(Src::I))                    \
    OP(OR,           "or",           R3,    alu(Src::X))                    \
    OP(ORI,          "ori",          I2,    alu(Src::I))                    \
    OP(XOR,          "xor",          R3,    alu(Src::X))                    \
    OP(XORI,         "xori",         I2,    alu(Src::I))                    \
    OP(SLL,          "sll",          R3,    alu(Src::X))                    \
    OP(SLLI,         "slli",         I2,    alu(Src::I))                    \
    OP(SRL,          "srl",          R3,    alu(Src::X))                    \
    OP(SRLI,         "srli",         I2,    alu(Src::I))                    \
    OP(SRA,          "sra",          R3,    alu(Src::X))                    \
    OP(SRAI,         "srai",         I2,    alu(Src::I))                    \
    OP(SLT,          "slt",          R3,    alu(Src::X))                    \
    OP(SLTI,         "slti",         I2,    alu(Src::I))                    \
    OP(SLTU,         "sltu",         R3,    alu(Src::X))                    \
    OP(SLTIU,        "sltiu",        I2,    alu(Src::I))                    \
    OP(MUL,          "mul",          R3,    alu(Src::X, 3))                 \
    OP(MULW,         "mulw",         R3,    alu(Src::X, 3))                 \
    OP(MULH,         "mulh",         R3,    alu(Src::X, 3))                 \
    OP(DIV,          "div",          R3,    sfu(Src::X, 16))                \
    OP(DIVU,         "divu",         R3,    sfu(Src::X, 16))                \
    OP(REM,          "rem",          R3,    sfu(Src::X, 16))                \
    OP(REMU,         "remu",         R3,    sfu(Src::X, 16))                \
    /* ---- control flow */                                                 \
    OP(BEQ,          "beq",          BR,    alu())                          \
    OP(BNE,          "bne",          BR,    alu())                          \
    OP(BLT,          "blt",          BR,    alu())                          \
    OP(BGE,          "bge",          BR,    alu())                          \
    OP(BLTU,         "bltu",         BR,    alu())                          \
    OP(BGEU,         "bgeu",         BR,    alu())                          \
    OP(J,            "j",            JL,    alu())                          \
    /* ---- scalar memory */                                                \
    OP(LB,           "lb",           LOAD,  load(1, true))                  \
    OP(LBU,          "lbu",          LOAD,  load(1, false))                 \
    OP(LH,           "lh",           LOAD,  load(2, true))                  \
    OP(LHU,          "lhu",          LOAD,  load(2, false))                 \
    OP(LW,           "lw",           LOAD,  load(4, true))                  \
    OP(LWU,          "lwu",          LOAD,  load(4, false))                 \
    OP(LD,           "ld",           LOAD,  load(8, false))                 \
    OP(SB,           "sb",           STORE, store(1))                       \
    OP(SH,           "sh",           STORE, store(2))                       \
    OP(SW,           "sw",           STORE, store(4))                       \
    OP(SD,           "sd",           STORE, store(8))                       \
    OP(FLW,          "flw",          LOAD,  fload(4))                       \
    OP(FLD,          "fld",          LOAD,  fload(8))                       \
    OP(FSW,          "fsw",          STORE, fstore(4))                      \
    OP(FSD,          "fsd",          STORE, fstore(8))                      \
    /* ---- atomics (executed at the memory-side L2 / scratchpad LSU) */    \
    OP(AMOADD_W,     "amoadd.w",     AMO,   amo(AmoOp::Add, 4))             \
    OP(AMOADD_D,     "amoadd.d",     AMO,   amo(AmoOp::Add, 8))             \
    OP(AMOSWAP_W,    "amoswap.w",    AMO,   amo(AmoOp::Swap, 4))            \
    OP(AMOSWAP_D,    "amoswap.d",    AMO,   amo(AmoOp::Swap, 8))            \
    OP(AMOMIN_W,     "amomin.w",     AMO,   amo(AmoOp::Min, 4))             \
    OP(AMOMIN_D,     "amomin.d",     AMO,   amo(AmoOp::Min, 8))             \
    OP(AMOMAX_W,     "amomax.w",     AMO,   amo(AmoOp::Max, 4))             \
    OP(AMOMAX_D,     "amomax.d",     AMO,   amo(AmoOp::Max, 8))             \
    OP(AMOMINU_W,    "amominu.w",    AMO,   amo(AmoOp::MinU, 4))            \
    OP(AMOMINU_D,    "amominu.d",    AMO,   amo(AmoOp::MinU, 8))            \
    OP(AMOMAXU_W,    "amomaxu.w",    AMO,   amo(AmoOp::MaxU, 4))            \
    OP(AMOMAXU_D,    "amomaxu.d",    AMO,   amo(AmoOp::MaxU, 8))            \
    OP(AMOAND_W,     "amoand.w",     AMO,   amo(AmoOp::And, 4))             \
    OP(AMOAND_D,     "amoand.d",     AMO,   amo(AmoOp::And, 8))             \
    OP(AMOOR_W,      "amoor.w",      AMO,   amo(AmoOp::Or, 4))              \
    OP(AMOOR_D,      "amoor.d",      AMO,   amo(AmoOp::Or, 8))              \
    OP(AMOXOR_W,     "amoxor.w",     AMO,   amo(AmoOp::Xor, 4))             \
    OP(AMOXOR_D,     "amoxor.d",     AMO,   amo(AmoOp::Xor, 8))             \
    OP(FENCE,        "fence",        N0,    lsu())                          \
    /* ---- scalar float */                                                 \
    OP(FADD_S,       "fadd.s",       F3,    alu(4))                         \
    OP(FADD_D,       "fadd.d",       F3,    alu(4))                         \
    OP(FSUB_S,       "fsub.s",       F3,    alu(4))                         \
    OP(FSUB_D,       "fsub.d",       F3,    alu(4))                         \
    OP(FMUL_S,       "fmul.s",       F3,    alu(4))                         \
    OP(FMUL_D,       "fmul.d",       F3,    alu(4))                         \
    OP(FDIV_S,       "fdiv.s",       F3,    sfu(16))                        \
    OP(FDIV_D,       "fdiv.d",       F3,    sfu(16))                        \
    OP(FSQRT_S,      "fsqrt.s",      F2,    sfu(16))                        \
    OP(FSQRT_D,      "fsqrt.d",      F2,    sfu(16))                        \
    OP(FMADD_S,      "fmadd.s",      F4,    alu(4))                         \
    OP(FMADD_D,      "fmadd.d",      F4,    alu(4))                         \
    OP(FMIN_S,       "fmin.s",       F3,    alu())                          \
    OP(FMIN_D,       "fmin.d",       F3,    alu())                          \
    OP(FMAX_S,       "fmax.s",       F3,    alu())                          \
    OP(FMAX_D,       "fmax.d",       F3,    alu())                          \
    OP(FMV_S,        "fmv.s",        F2,    alu())                          \
    OP(FMV_D,        "fmv.d",        F2,    alu())                          \
    OP(FMV_X_W,      "fmv.x.w",      FX,    alu())                          \
    OP(FMV_W_X,      "fmv.w.x",      XF,    alu())                          \
    OP(FMV_X_D,      "fmv.x.d",      FX,    alu())                          \
    OP(FMV_D_X,      "fmv.d.x",      XF,    alu())                          \
    OP(FCVT_S_W,     "fcvt.s.w",     XF,    alu())                          \
    OP(FCVT_S_L,     "fcvt.s.l",     XF,    alu())                          \
    OP(FCVT_D_W,     "fcvt.d.w",     XF,    alu())                          \
    OP(FCVT_D_L,     "fcvt.d.l",     XF,    alu())                          \
    OP(FCVT_W_S,     "fcvt.w.s",     FX,    alu())                          \
    OP(FCVT_L_S,     "fcvt.l.s",     FX,    alu())                          \
    OP(FCVT_W_D,     "fcvt.w.d",     FX,    alu())                          \
    OP(FCVT_L_D,     "fcvt.l.d",     FX,    alu())                          \
    OP(FCVT_D_S,     "fcvt.d.s",     F2,    alu())                          \
    OP(FCVT_S_D,     "fcvt.s.d",     F2,    alu())                          \
    OP(FEQ_S,        "feq.s",        FCMP,  alu())                          \
    OP(FEQ_D,        "feq.d",        FCMP,  alu())                          \
    OP(FLT_S,        "flt.s",        FCMP,  alu())                          \
    OP(FLT_D,        "flt.d",        FCMP,  alu())                          \
    OP(FLE_S,        "fle.s",        FCMP,  alu())                          \
    OP(FLE_D,        "fle.d",        FCMP,  alu())                          \
    /* ---- vector configuration */                                         \
    OP(VSETVLI,      "vsetvli",      VSET,  vconfig())                      \
    /* ---- vector memory */                                                \
    OP(VLE8,         "vle8.v",       VL,    vmem(1))                        \
    OP(VLE16,        "vle16.v",      VL,    vmem(2))                        \
    OP(VLE32,        "vle32.v",      VL,    vmem(4))                        \
    OP(VLE64,        "vle64.v",      VL,    vmem(8))                        \
    OP(VSE8,         "vse8.v",       VS,    vmem(1))                        \
    OP(VSE16,        "vse16.v",      VS,    vmem(2))                        \
    OP(VSE32,        "vse32.v",      VS,    vmem(4))                        \
    OP(VSE64,        "vse64.v",      VS,    vmem(8))                        \
    OP(VLSE32,       "vlse32.v",     VLS,   vmem(4))                        \
    OP(VLSE64,       "vlse64.v",     VLS,   vmem(8))                        \
    OP(VLUXEI32,     "vluxei32.v",   VLX,   vmem(4))                        \
    OP(VLUXEI64,     "vluxei64.v",   VLX,   vmem(8))                        \
    OP(VSUXEI32,     "vsuxei32.v",   VSX,   vmem(4))                        \
    OP(VSUXEI64,     "vsuxei64.v",   VSX,   vmem(8))                        \
    /* ---- vector integer */                                               \
    OP(VADD_VV,      "vadd.vv",      VBIN,  valu(Src::V))                   \
    OP(VADD_VX,      "vadd.vx",      VBIN,  valu(Src::X))                   \
    OP(VADD_VI,      "vadd.vi",      VBIN,  valu(Src::I))                   \
    OP(VSUB_VV,      "vsub.vv",      VBIN,  valu(Src::V))                   \
    OP(VSUB_VX,      "vsub.vx",      VBIN,  valu(Src::X))                   \
    OP(VMUL_VV,      "vmul.vv",      VBIN,  valu(Src::V, 3))                \
    OP(VMUL_VX,      "vmul.vx",      VBIN,  valu(Src::X, 3))                \
    OP(VAND_VV,      "vand.vv",      VBIN,  valu(Src::V))                   \
    OP(VAND_VX,      "vand.vx",      VBIN,  valu(Src::X))                   \
    OP(VAND_VI,      "vand.vi",      VBIN,  valu(Src::I))                   \
    OP(VOR_VV,       "vor.vv",       VBIN,  valu(Src::V))                   \
    OP(VOR_VX,       "vor.vx",       VBIN,  valu(Src::X))                   \
    OP(VOR_VI,       "vor.vi",       VBIN,  valu(Src::I))                   \
    OP(VXOR_VV,      "vxor.vv",      VBIN,  valu(Src::V))                   \
    OP(VXOR_VX,      "vxor.vx",      VBIN,  valu(Src::X))                   \
    OP(VXOR_VI,      "vxor.vi",      VBIN,  valu(Src::I))                   \
    OP(VSLL_VI,      "vsll.vi",      VBIN,  valu(Src::I))                   \
    OP(VSLL_VX,      "vsll.vx",      VBIN,  valu(Src::X))                   \
    OP(VSRL_VI,      "vsrl.vi",      VBIN,  valu(Src::I))                   \
    OP(VSRL_VX,      "vsrl.vx",      VBIN,  valu(Src::X))                   \
    OP(VSRA_VI,      "vsra.vi",      VBIN,  valu(Src::I))                   \
    OP(VMIN_VV,      "vmin.vv",      VBIN,  valu(Src::V))                   \
    OP(VMAX_VV,      "vmax.vv",      VBIN,  valu(Src::V))                   \
    OP(VMINU_VV,     "vminu.vv",     VBIN,  valu(Src::V))                   \
    OP(VMAXU_VV,     "vmaxu.vv",     VBIN,  valu(Src::V))                   \
    OP(VID_V,        "vid.v",        V1,    valu())                         \
    OP(VMV_V_I,      "vmv.v.i",      VSRC,  valu(Src::I))                   \
    OP(VMV_V_X,      "vmv.v.x",      VSRC,  valu(Src::X))                   \
    OP(VMV_V_V,      "vmv.v.v",      VSRC,  valu(Src::V))                   \
    OP(VMV_X_S,      "vmv.x.s",      XV,    valu())                         \
    OP(VMV_S_X,      "vmv.s.x",      VSRC,  valu(Src::X))                   \
    /* ---- vector float */                                                 \
    OP(VFADD_VV,     "vfadd.vv",     VBIN,  valu(Src::V, 4))                \
    OP(VFADD_VF,     "vfadd.vf",     VBIN,  valu(Src::F, 4))                \
    OP(VFSUB_VV,     "vfsub.vv",     VBIN,  valu(Src::V, 4))                \
    OP(VFSUB_VF,     "vfsub.vf",     VBIN,  valu(Src::F, 4))                \
    OP(VFMUL_VV,     "vfmul.vv",     VBIN,  valu(Src::V, 4))                \
    OP(VFMUL_VF,     "vfmul.vf",     VBIN,  valu(Src::F, 4))                \
    OP(VFDIV_VV,     "vfdiv.vv",     VBIN,  vsfu(Src::V, 16))               \
    OP(VFDIV_VF,     "vfdiv.vf",     VBIN,  vsfu(Src::F, 16))               \
    OP(VFMACC_VV,    "vfmacc.vv",    VBIN,  valu(Src::V, 4))                \
    OP(VFMACC_VF,    "vfmacc.vf",    VBIN,  valu(Src::F, 4))                \
    OP(VFMIN_VV,     "vfmin.vv",     VBIN,  valu(Src::V, 4))                \
    OP(VFMAX_VV,     "vfmax.vv",     VBIN,  valu(Src::V, 4))                \
    OP(VFMV_V_F,     "vfmv.v.f",     VSRC,  valu(Src::F))                   \
    OP(VFMV_F_S,     "vfmv.f.s",     FV,    valu())                         \
    OP(VFMV_S_F,     "vfmv.s.f",     VSRC,  valu(Src::F))                   \
    /* ---- reductions */                                                   \
    OP(VREDSUM_VS,   "vredsum.vs",   VBIN,  valu(Src::V, 4))                \
    OP(VREDMAX_VS,   "vredmax.vs",   VBIN,  valu(Src::V, 4))                \
    OP(VREDMIN_VS,   "vredmin.vs",   VBIN,  valu(Src::V, 4))                \
    OP(VREDAND_VS,   "vredand.vs",   VBIN,  valu(Src::V, 4))                \
    OP(VREDOR_VS,    "vredor.vs",    VBIN,  valu(Src::V, 4))                \
    OP(VFREDUSUM_VS, "vfredusum.vs", VBIN,  valu(Src::V, 4))                \
    OP(VFREDMAX_VS,  "vfredmax.vs",  VBIN,  valu(Src::V, 4))                \
    OP(VFREDMIN_VS,  "vfredmin.vs",  VBIN,  valu(Src::V, 4))                \
    /* ---- mask-producing compares */                                      \
    OP(VMSEQ_VV,     "vmseq.vv",     VBIN,  valu(Src::V))                   \
    OP(VMSEQ_VX,     "vmseq.vx",     VBIN,  valu(Src::X))                   \
    OP(VMSEQ_VI,     "vmseq.vi",     VBIN,  valu(Src::I))                   \
    OP(VMSNE_VV,     "vmsne.vv",     VBIN,  valu(Src::V))                   \
    OP(VMSNE_VX,     "vmsne.vx",     VBIN,  valu(Src::X))                   \
    OP(VMSNE_VI,     "vmsne.vi",     VBIN,  valu(Src::I))                   \
    OP(VMSLT_VV,     "vmslt.vv",     VBIN,  valu(Src::V))                   \
    OP(VMSLT_VX,     "vmslt.vx",     VBIN,  valu(Src::X))                   \
    OP(VMSLE_VV,     "vmsle.vv",     VBIN,  valu(Src::V))                   \
    OP(VMSLE_VX,     "vmsle.vx",     VBIN,  valu(Src::X))                   \
    OP(VMSLE_VI,     "vmsle.vi",     VBIN,  valu(Src::I))                   \
    OP(VMSGT_VX,     "vmsgt.vx",     VBIN,  valu(Src::X))                   \
    OP(VMSGT_VI,     "vmsgt.vi",     VBIN,  valu(Src::I))                   \
    OP(VMSGE_VX,     "vmsge.vx",     VBIN,  valu(Src::X))                   \
    OP(VMSLTU_VV,    "vmsltu.vv",    VBIN,  valu(Src::V))                   \
    OP(VMSLTU_VX,    "vmsltu.vx",    VBIN,  valu(Src::X))                   \
    OP(VMSGTU_VX,    "vmsgtu.vx",    VBIN,  valu(Src::X))                   \
    OP(VMFLT_VF,     "vmflt.vf",     VBIN,  valu(Src::F))                   \
    OP(VMFLE_VF,     "vmfle.vf",     VBIN,  valu(Src::F))                   \
    OP(VMFGT_VF,     "vmfgt.vf",     VBIN,  valu(Src::F))                   \
    OP(VMFGE_VF,     "vmfge.vf",     VBIN,  valu(Src::F))                   \
    OP(VMFEQ_VF,     "vmfeq.vf",     VBIN,  valu(Src::F))                   \
    OP(VMFNE_VF,     "vmfne.vf",     VBIN,  valu(Src::F))                   \
    /* ---- mask manipulation */                                            \
    OP(VMAND_MM,     "vmand.mm",     VBIN,  valu(Src::V))                   \
    OP(VMOR_MM,      "vmor.mm",      VBIN,  valu(Src::V))                   \
    OP(VMXOR_MM,     "vmxor.mm",     VBIN,  valu(Src::V))                   \
    OP(VMNAND_MM,    "vmnand.mm",    VBIN,  valu(Src::V))                   \
    OP(VMNOT_M,      "vmnot.m",      VV2,   valu())                         \
    OP(VCPOP_M,      "vcpop.m",      XV,    valu())                         \
    OP(VFIRST_M,     "vfirst.m",     XV,    valu())                         \
    OP(VMERGE_VVM,   "vmerge.vvm",   VMRG,  valu(Src::V))                   \
    OP(VMERGE_VXM,   "vmerge.vxm",   VMRG,  valu(Src::X))                   \
    OP(VMERGE_VIM,   "vmerge.vim",   VMRG,  valu(Src::I))                   \
    /* ---- uthread termination */                                          \
    OP(EXIT,         "exit",         N0,    none())                         \

enum class Opcode : std::uint16_t {
#define M2NDP_OPCODE_ENUM(name, mnemonic, fmt, traits) name,
    M2NDP_OPCODES(M2NDP_OPCODE_ENUM)
#undef M2NDP_OPCODE_ENUM
};

/** One row of the opcode table. */
struct OpcodeInfo
{
    std::string_view mnemonic;
    Fmt fmt;
    OpTraits traits;
};

/** The opcode table, indexed by Opcode. */
inline constexpr OpcodeInfo kOpcodes[] = {
#define M2NDP_OPCODE_ROW(name, mnemonic, fmt, traits)                       \
    {mnemonic, Fmt::fmt, row::traits},
    M2NDP_OPCODES(M2NDP_OPCODE_ROW)
#undef M2NDP_OPCODE_ROW
};

constexpr const OpcodeInfo &
opcodeInfo(Opcode op)
{
    return kOpcodes[static_cast<std::size_t>(op)];
}

/** One instruction as the units run it: its operands plus the traits
 *  copied from its opcode's table row (see fillOpcodeTraits). */
struct Instruction
{
    Opcode op = Opcode::NOP;
    FuType fu = FuType::None;
    std::uint8_t latency = 1;    ///< result latency (sub-core cycles)
    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;
    std::uint8_t rs3 = 0;
    std::uint8_t mem_width = 0;  ///< access width / vector EEW / index EEW
    bool mem_sign = false;       ///< sign-extend scalar load result
    bool mem_fp = false;         ///< scalar load/store targets the FP file
    bool masked = false;         ///< ", v0.t" suffix: execute under mask v0
    bool is_vector = false;      ///< vector-unit opcode (stat bucketing)
    /** Can emit MemRefs (loads/stores/AMOs/vector memory). Lets the issue
     *  stage skip memory-ref handling without inspecting the StepResult:
     *  an instruction without this tag never populates StepResult::mem. */
    bool touches_mem = false;
    std::uint8_t sew = 0;        ///< VSETVLI: selected element width (bytes)
    AmoOp amo_op = AmoOp::Add;   ///< resolved atomic op (AMO* only)
    Src src = Src::None;         ///< second source operand kind
    std::int32_t target = -1;    ///< resolved branch/jump target (inst index)
    std::int64_t imm = 0;
    std::uint32_t line = 0;      ///< source line for diagnostics
};
// The operand kind fills padding: sections stay 40 B per instruction.
static_assert(sizeof(Instruction) == 40);

/** A kernel section: initializer, one of possibly several bodies, finalizer
 *  (Section III-G). */
enum class SectionKind : std::uint8_t { Initializer, Body, Finalizer };

struct KernelSection
{
    SectionKind kind = SectionKind::Body;
    std::vector<Instruction> code;
};

/** A fully assembled NDP kernel. */
struct AssembledKernel
{
    std::string name;
    std::vector<KernelSection> sections;
};

/** Copy the opcode's table row into @p inst's opcode-derived fields. */
inline void
fillOpcodeTraits(Instruction &inst)
{
    const OpTraits &t = opcodeInfo(inst.op).traits;
    inst.fu = t.fu;
    inst.latency = t.latency;
    inst.mem_width = t.mem_width;
    inst.mem_sign = t.mem_sign;
    inst.mem_fp = t.mem_fp;
    inst.amo_op = t.amo_op;
    inst.is_vector = t.is_vector;
    inst.src = t.src;
    // Exactly the memory opcodes (each has a width) can push MemRefs.
    inst.touches_mem = t.mem_width != 0;
}

} // namespace m2ndp::isa
