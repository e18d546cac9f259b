/**
 * @file
 * Instruction set definition for M2NDP kernels.
 *
 * The NDP units execute a modified RISC-V RV64IMAFD + Vector (RVV 1.0
 * subset) ISA (Section III-D). Kernels are written in assembly (Section
 * IV-B: "the kernels were implemented with assembly"); our assembler parses
 * the textual form directly into the µops the units run — binary encoding
 * adds nothing for a simulator and is omitted. Everything the executor
 * needs to know about an opcode (functional-unit class, result latency,
 * memory width and extension, AMO op) is filled in once, as each
 * instruction is parsed, so `isa::step()` never re-derives it per issue.
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
#include <vector>

#include "mem/sparse_memory.hh" // AmoOp

namespace m2ndp::isa {

/** Vector register length in bytes (VLEN = 256 bits). */
inline constexpr unsigned kVlenBytes = 32;

/** All supported operations. Suffix conventions: _VV/_VX/_VI/_VF operand
 *  forms; _S/_D scalar float width; _W/_D integer width for AMOs. */
enum class Opcode : std::uint16_t {
    // ---- scalar integer ----
    LUI, LI, MV, NOP,
    ADD, ADDI, ADDW, ADDIW, SUB, SUBW,
    AND, ANDI, OR, ORI, XOR, XORI,
    SLL, SLLI, SRL, SRLI, SRA, SRAI,
    SLT, SLTI, SLTU, SLTIU,
    MUL, MULW, MULH, DIV, DIVU, REM, REMU,
    // ---- control flow ----
    BEQ, BNE, BLT, BGE, BLTU, BGEU, J, JAL,
    // ---- scalar memory ----
    LB, LBU, LH, LHU, LW, LWU, LD,
    SB, SH, SW, SD,
    FLW, FLD, FSW, FSD,
    // ---- atomics (executed at memory-side L2 / scratchpad LSU) ----
    AMOADD_W, AMOADD_D, AMOSWAP_W, AMOSWAP_D,
    AMOMIN_W, AMOMIN_D, AMOMAX_W, AMOMAX_D,
    AMOMINU_W, AMOMINU_D, AMOMAXU_W, AMOMAXU_D,
    AMOAND_W, AMOAND_D, AMOOR_W, AMOOR_D, AMOXOR_W, AMOXOR_D,
    FENCE,
    // ---- scalar float ----
    FADD_S, FADD_D, FSUB_S, FSUB_D, FMUL_S, FMUL_D, FDIV_S, FDIV_D,
    FSQRT_S, FSQRT_D, FMADD_S, FMADD_D, FMIN_S, FMIN_D, FMAX_S, FMAX_D,
    FMV_S, FMV_D,                    // fmv.s/fmv.d pseudo (fsgnj)
    FMV_X_W, FMV_W_X, FMV_X_D, FMV_D_X,
    FCVT_S_W, FCVT_S_L, FCVT_D_W, FCVT_D_L,
    FCVT_W_S, FCVT_L_S, FCVT_W_D, FCVT_L_D,
    FCVT_D_S, FCVT_S_D,
    FEQ_S, FEQ_D, FLT_S, FLT_D, FLE_S, FLE_D,
    // ---- vector configuration ----
    VSETVLI,
    // ---- vector memory ----
    VLE8, VLE16, VLE32, VLE64,
    VSE8, VSE16, VSE32, VSE64,
    VLSE32, VLSE64,                  // strided loads
    VLUXEI32, VLUXEI64,              // indexed gather
    VSUXEI32, VSUXEI64,              // indexed scatter
    // ---- vector integer ----
    VADD_VV, VADD_VX, VADD_VI, VSUB_VV, VSUB_VX,
    VMUL_VV, VMUL_VX,
    VAND_VV, VAND_VX, VAND_VI, VOR_VV, VOR_VX, VOR_VI,
    VXOR_VV, VXOR_VX, VXOR_VI,
    VSLL_VI, VSLL_VX, VSRL_VI, VSRL_VX, VSRA_VI,
    VMIN_VV, VMAX_VV, VMINU_VV, VMAXU_VV,
    VID_V,
    VMV_V_I, VMV_V_X, VMV_V_V, VMV_X_S, VMV_S_X,
    // ---- vector float ----
    VFADD_VV, VFADD_VF, VFSUB_VV, VFSUB_VF,
    VFMUL_VV, VFMUL_VF, VFDIV_VV, VFDIV_VF,
    VFMACC_VV, VFMACC_VF,
    VFMIN_VV, VFMAX_VV,
    VFMV_V_F, VFMV_F_S, VFMV_S_F,
    // ---- reductions ----
    VREDSUM_VS, VREDMAX_VS, VREDMIN_VS, VREDAND_VS, VREDOR_VS,
    VFREDUSUM_VS, VFREDMAX_VS, VFREDMIN_VS,
    // ---- mask-producing compares ----
    VMSEQ_VV, VMSEQ_VX, VMSEQ_VI, VMSNE_VV, VMSNE_VX, VMSNE_VI,
    VMSLT_VV, VMSLT_VX, VMSLE_VV, VMSLE_VX, VMSLE_VI,
    VMSGT_VX, VMSGT_VI, VMSGE_VX,
    VMSLTU_VV, VMSLTU_VX, VMSGTU_VX,
    VMFLT_VF, VMFLE_VF, VMFGT_VF, VMFGE_VF, VMFEQ_VF, VMFNE_VF,
    // ---- mask manipulation ----
    VMAND_MM, VMOR_MM, VMXOR_MM, VMNAND_MM, VMNOT_M,
    VCPOP_M, VFIRST_M,
    VMERGE_VVM, VMERGE_VXM, VMERGE_VIM,
    // ---- uthread termination ----
    EXIT,
};

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

/** One instruction as the units run it: its operands plus the traits
 *  derived from its opcode (see fillOpcodeTraits). */
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
    std::int32_t target = -1;    ///< resolved branch/jump target (inst index)
    std::int64_t imm = 0;
    std::uint32_t line = 0;      ///< source line for diagnostics
};

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

/** Fill every field of @p inst derived from inst.op: FU class, latency,
 *  memory width / sign / FP file, AMO op, and the vector and memory tags. */
void fillOpcodeTraits(Instruction &inst);

} // namespace m2ndp::isa
