#include "isa/inst.hh"

namespace m2ndp::isa {

namespace {

/** Functional-unit class. Reads the memory width and vector tag: every
 *  memory opcode runs on its scalar or vector LSU. */
FuType
fuTypeOf(const Instruction &inst)
{
    if (inst.mem_width != 0)
        return inst.is_vector ? FuType::VectorLsu : FuType::ScalarLsu;
    switch (inst.op) {
      // Scalar integer ALU and control flow.
      case Opcode::LUI: case Opcode::LI: case Opcode::MV: case Opcode::NOP:
      case Opcode::ADD: case Opcode::ADDI: case Opcode::ADDW:
      case Opcode::ADDIW: case Opcode::SUB: case Opcode::SUBW:
      case Opcode::AND: case Opcode::ANDI: case Opcode::OR: case Opcode::ORI:
      case Opcode::XOR: case Opcode::XORI:
      case Opcode::SLL: case Opcode::SLLI: case Opcode::SRL:
      case Opcode::SRLI: case Opcode::SRA: case Opcode::SRAI:
      case Opcode::SLT: case Opcode::SLTI: case Opcode::SLTU:
      case Opcode::SLTIU:
      case Opcode::MUL: case Opcode::MULW: case Opcode::MULH:
      case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT: case Opcode::BGE:
      case Opcode::BLTU: case Opcode::BGEU: case Opcode::J: case Opcode::JAL:
      // Scalar FP (simple ops share the scalar ALU pipes).
      case Opcode::FADD_S: case Opcode::FADD_D: case Opcode::FSUB_S:
      case Opcode::FSUB_D: case Opcode::FMUL_S: case Opcode::FMUL_D:
      case Opcode::FMADD_S: case Opcode::FMADD_D:
      case Opcode::FMIN_S: case Opcode::FMIN_D:
      case Opcode::FMAX_S: case Opcode::FMAX_D:
      case Opcode::FMV_S: case Opcode::FMV_D:
      case Opcode::FMV_X_W: case Opcode::FMV_W_X:
      case Opcode::FMV_X_D: case Opcode::FMV_D_X:
      case Opcode::FCVT_S_W: case Opcode::FCVT_S_L: case Opcode::FCVT_D_W:
      case Opcode::FCVT_D_L: case Opcode::FCVT_W_S: case Opcode::FCVT_L_S:
      case Opcode::FCVT_W_D: case Opcode::FCVT_L_D:
      case Opcode::FCVT_D_S: case Opcode::FCVT_S_D:
      case Opcode::FEQ_S: case Opcode::FEQ_D: case Opcode::FLT_S:
      case Opcode::FLT_D: case Opcode::FLE_S: case Opcode::FLE_D:
        return FuType::ScalarAlu;

      // Scalar SFU: division, sqrt.
      case Opcode::DIV: case Opcode::DIVU: case Opcode::REM:
      case Opcode::REMU:
      case Opcode::FDIV_S: case Opcode::FDIV_D:
      case Opcode::FSQRT_S: case Opcode::FSQRT_D:
        return FuType::ScalarSfu;

      // Scalar LSU.
      case Opcode::FENCE:
        return FuType::ScalarLsu;

      // Vector SFU.
      case Opcode::VFDIV_VV: case Opcode::VFDIV_VF:
        return FuType::VectorSfu;

      // Configuration / termination.
      case Opcode::VSETVLI: case Opcode::EXIT:
        return FuType::None;

      // Everything else vector runs on the vector ALU.
      default:
        return FuType::VectorAlu;
    }
}

/** Result latency in sub-core cycles (memory ops: 1, they are LSU-timed).
 *  Reads the memory width and vector tag, so those are filled first. */
std::uint8_t
latencyOf(const Instruction &inst)
{
    switch (inst.op) {
      case Opcode::MUL: case Opcode::MULW: case Opcode::MULH:
        return 3;
      case Opcode::DIV: case Opcode::DIVU: case Opcode::REM:
      case Opcode::REMU:
        return 16;
      case Opcode::FADD_S: case Opcode::FADD_D: case Opcode::FSUB_S:
      case Opcode::FSUB_D: case Opcode::FMUL_S: case Opcode::FMUL_D:
      case Opcode::FMADD_S: case Opcode::FMADD_D:
        return 4;
      case Opcode::FDIV_S: case Opcode::FDIV_D: case Opcode::FSQRT_S:
      case Opcode::FSQRT_D:
        return 16;
      case Opcode::VFDIV_VV: case Opcode::VFDIV_VF:
        return 16;
      case Opcode::VFADD_VV: case Opcode::VFADD_VF: case Opcode::VFSUB_VV:
      case Opcode::VFSUB_VF: case Opcode::VFMUL_VV: case Opcode::VFMUL_VF:
      case Opcode::VFMACC_VV: case Opcode::VFMACC_VF:
      case Opcode::VFMIN_VV: case Opcode::VFMAX_VV:
        return 4;
      case Opcode::VREDSUM_VS: case Opcode::VREDMAX_VS:
      case Opcode::VREDMIN_VS: case Opcode::VREDAND_VS:
      case Opcode::VREDOR_VS: case Opcode::VFREDUSUM_VS:
      case Opcode::VFREDMAX_VS: case Opcode::VFREDMIN_VS:
        return 4;
      case Opcode::VMUL_VV: case Opcode::VMUL_VX:
        return 3;
      default:
        return inst.is_vector && inst.mem_width == 0 ? 2 : 1;
    }
}

bool
isVector(Opcode op)
{
    return op >= Opcode::VSETVLI && op <= Opcode::VMERGE_VIM;
}

} // namespace

void
fillOpcodeTraits(Instruction &inst)
{
    auto amo = [&](AmoOp op, std::uint8_t width) {
        inst.amo_op = op;
        inst.mem_width = width;
    };
    switch (inst.op) {
      // Scalar loads: width, extension, destination file.
      case Opcode::LB: inst.mem_width = 1; inst.mem_sign = true; break;
      case Opcode::LBU: inst.mem_width = 1; break;
      case Opcode::LH: inst.mem_width = 2; inst.mem_sign = true; break;
      case Opcode::LHU: inst.mem_width = 2; break;
      case Opcode::LW: inst.mem_width = 4; inst.mem_sign = true; break;
      case Opcode::LWU: inst.mem_width = 4; break;
      case Opcode::LD: inst.mem_width = 8; break;
      case Opcode::FLW: inst.mem_width = 4; inst.mem_fp = true; break;
      case Opcode::FLD: inst.mem_width = 8; inst.mem_fp = true; break;
      // Scalar stores.
      case Opcode::SB: inst.mem_width = 1; break;
      case Opcode::SH: inst.mem_width = 2; break;
      case Opcode::SW: inst.mem_width = 4; break;
      case Opcode::SD: inst.mem_width = 8; break;
      case Opcode::FSW: inst.mem_width = 4; inst.mem_fp = true; break;
      case Opcode::FSD: inst.mem_width = 8; inst.mem_fp = true; break;
      // Atomics: op + width.
      case Opcode::AMOADD_W: amo(AmoOp::Add, 4); break;
      case Opcode::AMOADD_D: amo(AmoOp::Add, 8); break;
      case Opcode::AMOSWAP_W: amo(AmoOp::Swap, 4); break;
      case Opcode::AMOSWAP_D: amo(AmoOp::Swap, 8); break;
      case Opcode::AMOMIN_W: amo(AmoOp::Min, 4); break;
      case Opcode::AMOMIN_D: amo(AmoOp::Min, 8); break;
      case Opcode::AMOMAX_W: amo(AmoOp::Max, 4); break;
      case Opcode::AMOMAX_D: amo(AmoOp::Max, 8); break;
      case Opcode::AMOMINU_W: amo(AmoOp::MinU, 4); break;
      case Opcode::AMOMINU_D: amo(AmoOp::MinU, 8); break;
      case Opcode::AMOMAXU_W: amo(AmoOp::MaxU, 4); break;
      case Opcode::AMOMAXU_D: amo(AmoOp::MaxU, 8); break;
      case Opcode::AMOAND_W: amo(AmoOp::And, 4); break;
      case Opcode::AMOAND_D: amo(AmoOp::And, 8); break;
      case Opcode::AMOOR_W: amo(AmoOp::Or, 4); break;
      case Opcode::AMOOR_D: amo(AmoOp::Or, 8); break;
      case Opcode::AMOXOR_W: amo(AmoOp::Xor, 4); break;
      case Opcode::AMOXOR_D: amo(AmoOp::Xor, 8); break;
      // Vector memory: EEW (or index EEW for indexed forms).
      case Opcode::VLE8: case Opcode::VSE8: inst.mem_width = 1; break;
      case Opcode::VLE16: case Opcode::VSE16: inst.mem_width = 2; break;
      case Opcode::VLE32: case Opcode::VSE32: case Opcode::VLSE32:
      case Opcode::VLUXEI32: case Opcode::VSUXEI32:
        inst.mem_width = 4;
        break;
      case Opcode::VLE64: case Opcode::VSE64: case Opcode::VLSE64:
      case Opcode::VLUXEI64: case Opcode::VSUXEI64:
        inst.mem_width = 8;
        break;
      default:
        break;
    }
    // Exactly the opcodes above (each sets mem_width) can push MemRefs;
    // every other opcode is mem-free.
    inst.touches_mem = inst.mem_width != 0;
    inst.is_vector = isVector(inst.op);
    inst.fu = fuTypeOf(inst);
    inst.latency = latencyOf(inst);
}

} // namespace m2ndp::isa
