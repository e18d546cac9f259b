#include "isa/assembler.hh"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <vector>

#include "mem/page_table.hh"

namespace m2ndp::isa {

namespace {

/**
 * Internal parse-failure signal: thrown by Parser, caught by assemble()
 * and reported through its out-parameter. Never escapes this TU.
 */
struct AsmError
{
    std::string message;
};

/** Operand layout of a mnemonic. */
enum class Fmt : std::uint8_t {
    N0,     // no operands
    R3,     // rd, rs1, rs2        (int)
    I2,     // rd, rs1, imm
    RI,     // rd, imm             (lui/li)
    R2,     // rd, rs1             (mv)
    LOAD,   // rd, imm(rs1)        (int or fp rd by opcode)
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
    VVV,    // vd, vs2, vs1
    VVX,    // vd, vs2, rs1
    VVI,    // vd, vs2, imm
    VVF,    // vd, vs2, fs1
    VV2,    // vd, vs2
    VX1,    // vd, rs1
    VI1,    // vd, imm
    XV,     // rd(x), vs2
    FV,     // fd, vs2
    VF1,    // vd, fs1
    V1,     // vd
    VMRG,   // vd, vs2, (vs1|rs1|imm), v0
};

struct OpInfo
{
    Opcode op;
    Fmt fmt;
};

const std::unordered_map<std::string, OpInfo> &
mnemonicTable()
{
    static const std::unordered_map<std::string, OpInfo> table = {
        {"nop", {Opcode::NOP, Fmt::N0}},
        {"lui", {Opcode::LUI, Fmt::RI}},
        {"li", {Opcode::LI, Fmt::RI}},
        {"mv", {Opcode::MV, Fmt::R2}},
        {"add", {Opcode::ADD, Fmt::R3}},
        {"addi", {Opcode::ADDI, Fmt::I2}},
        {"addw", {Opcode::ADDW, Fmt::R3}},
        {"addiw", {Opcode::ADDIW, Fmt::I2}},
        {"sub", {Opcode::SUB, Fmt::R3}},
        {"subw", {Opcode::SUBW, Fmt::R3}},
        {"and", {Opcode::AND, Fmt::R3}},
        {"andi", {Opcode::ANDI, Fmt::I2}},
        {"or", {Opcode::OR, Fmt::R3}},
        {"ori", {Opcode::ORI, Fmt::I2}},
        {"xor", {Opcode::XOR, Fmt::R3}},
        {"xori", {Opcode::XORI, Fmt::I2}},
        {"sll", {Opcode::SLL, Fmt::R3}},
        {"slli", {Opcode::SLLI, Fmt::I2}},
        {"srl", {Opcode::SRL, Fmt::R3}},
        {"srli", {Opcode::SRLI, Fmt::I2}},
        {"sra", {Opcode::SRA, Fmt::R3}},
        {"srai", {Opcode::SRAI, Fmt::I2}},
        {"slt", {Opcode::SLT, Fmt::R3}},
        {"slti", {Opcode::SLTI, Fmt::I2}},
        {"sltu", {Opcode::SLTU, Fmt::R3}},
        {"sltiu", {Opcode::SLTIU, Fmt::I2}},
        {"mul", {Opcode::MUL, Fmt::R3}},
        {"mulw", {Opcode::MULW, Fmt::R3}},
        {"mulh", {Opcode::MULH, Fmt::R3}},
        {"div", {Opcode::DIV, Fmt::R3}},
        {"divu", {Opcode::DIVU, Fmt::R3}},
        {"rem", {Opcode::REM, Fmt::R3}},
        {"remu", {Opcode::REMU, Fmt::R3}},
        {"beq", {Opcode::BEQ, Fmt::BR}},
        {"bne", {Opcode::BNE, Fmt::BR}},
        {"blt", {Opcode::BLT, Fmt::BR}},
        {"bge", {Opcode::BGE, Fmt::BR}},
        {"bltu", {Opcode::BLTU, Fmt::BR}},
        {"bgeu", {Opcode::BGEU, Fmt::BR}},
        {"j", {Opcode::J, Fmt::JL}},
        {"lb", {Opcode::LB, Fmt::LOAD}},
        {"lbu", {Opcode::LBU, Fmt::LOAD}},
        {"lh", {Opcode::LH, Fmt::LOAD}},
        {"lhu", {Opcode::LHU, Fmt::LOAD}},
        {"lw", {Opcode::LW, Fmt::LOAD}},
        {"lwu", {Opcode::LWU, Fmt::LOAD}},
        {"ld", {Opcode::LD, Fmt::LOAD}},
        {"sb", {Opcode::SB, Fmt::STORE}},
        {"sh", {Opcode::SH, Fmt::STORE}},
        {"sw", {Opcode::SW, Fmt::STORE}},
        {"sd", {Opcode::SD, Fmt::STORE}},
        {"flw", {Opcode::FLW, Fmt::LOAD}},
        {"fld", {Opcode::FLD, Fmt::LOAD}},
        {"fsw", {Opcode::FSW, Fmt::STORE}},
        {"fsd", {Opcode::FSD, Fmt::STORE}},
        {"amoadd.w", {Opcode::AMOADD_W, Fmt::AMO}},
        {"amoadd.d", {Opcode::AMOADD_D, Fmt::AMO}},
        {"amoswap.w", {Opcode::AMOSWAP_W, Fmt::AMO}},
        {"amoswap.d", {Opcode::AMOSWAP_D, Fmt::AMO}},
        {"amomin.w", {Opcode::AMOMIN_W, Fmt::AMO}},
        {"amomin.d", {Opcode::AMOMIN_D, Fmt::AMO}},
        {"amomax.w", {Opcode::AMOMAX_W, Fmt::AMO}},
        {"amomax.d", {Opcode::AMOMAX_D, Fmt::AMO}},
        {"amominu.w", {Opcode::AMOMINU_W, Fmt::AMO}},
        {"amominu.d", {Opcode::AMOMINU_D, Fmt::AMO}},
        {"amomaxu.w", {Opcode::AMOMAXU_W, Fmt::AMO}},
        {"amomaxu.d", {Opcode::AMOMAXU_D, Fmt::AMO}},
        {"amoand.w", {Opcode::AMOAND_W, Fmt::AMO}},
        {"amoand.d", {Opcode::AMOAND_D, Fmt::AMO}},
        {"amoor.w", {Opcode::AMOOR_W, Fmt::AMO}},
        {"amoor.d", {Opcode::AMOOR_D, Fmt::AMO}},
        {"amoxor.w", {Opcode::AMOXOR_W, Fmt::AMO}},
        {"amoxor.d", {Opcode::AMOXOR_D, Fmt::AMO}},
        {"fence", {Opcode::FENCE, Fmt::N0}},
        {"fadd.s", {Opcode::FADD_S, Fmt::F3}},
        {"fadd.d", {Opcode::FADD_D, Fmt::F3}},
        {"fsub.s", {Opcode::FSUB_S, Fmt::F3}},
        {"fsub.d", {Opcode::FSUB_D, Fmt::F3}},
        {"fmul.s", {Opcode::FMUL_S, Fmt::F3}},
        {"fmul.d", {Opcode::FMUL_D, Fmt::F3}},
        {"fdiv.s", {Opcode::FDIV_S, Fmt::F3}},
        {"fdiv.d", {Opcode::FDIV_D, Fmt::F3}},
        {"fsqrt.s", {Opcode::FSQRT_S, Fmt::F2}},
        {"fsqrt.d", {Opcode::FSQRT_D, Fmt::F2}},
        {"fmadd.s", {Opcode::FMADD_S, Fmt::F4}},
        {"fmadd.d", {Opcode::FMADD_D, Fmt::F4}},
        {"fmin.s", {Opcode::FMIN_S, Fmt::F3}},
        {"fmin.d", {Opcode::FMIN_D, Fmt::F3}},
        {"fmax.s", {Opcode::FMAX_S, Fmt::F3}},
        {"fmax.d", {Opcode::FMAX_D, Fmt::F3}},
        {"fmv.s", {Opcode::FMV_S, Fmt::F2}},
        {"fmv.d", {Opcode::FMV_D, Fmt::F2}},
        {"fmv.x.w", {Opcode::FMV_X_W, Fmt::FX}},
        {"fmv.w.x", {Opcode::FMV_W_X, Fmt::XF}},
        {"fmv.x.d", {Opcode::FMV_X_D, Fmt::FX}},
        {"fmv.d.x", {Opcode::FMV_D_X, Fmt::XF}},
        {"fcvt.s.w", {Opcode::FCVT_S_W, Fmt::XF}},
        {"fcvt.s.l", {Opcode::FCVT_S_L, Fmt::XF}},
        {"fcvt.d.w", {Opcode::FCVT_D_W, Fmt::XF}},
        {"fcvt.d.l", {Opcode::FCVT_D_L, Fmt::XF}},
        {"fcvt.w.s", {Opcode::FCVT_W_S, Fmt::FX}},
        {"fcvt.l.s", {Opcode::FCVT_L_S, Fmt::FX}},
        {"fcvt.w.d", {Opcode::FCVT_W_D, Fmt::FX}},
        {"fcvt.l.d", {Opcode::FCVT_L_D, Fmt::FX}},
        {"fcvt.d.s", {Opcode::FCVT_D_S, Fmt::F2}},
        {"fcvt.s.d", {Opcode::FCVT_S_D, Fmt::F2}},
        {"feq.s", {Opcode::FEQ_S, Fmt::FCMP}},
        {"feq.d", {Opcode::FEQ_D, Fmt::FCMP}},
        {"flt.s", {Opcode::FLT_S, Fmt::FCMP}},
        {"flt.d", {Opcode::FLT_D, Fmt::FCMP}},
        {"fle.s", {Opcode::FLE_S, Fmt::FCMP}},
        {"fle.d", {Opcode::FLE_D, Fmt::FCMP}},
        {"vsetvli", {Opcode::VSETVLI, Fmt::VSET}},
        {"vle8.v", {Opcode::VLE8, Fmt::VL}},
        {"vle16.v", {Opcode::VLE16, Fmt::VL}},
        {"vle32.v", {Opcode::VLE32, Fmt::VL}},
        {"vle64.v", {Opcode::VLE64, Fmt::VL}},
        {"vse8.v", {Opcode::VSE8, Fmt::VS}},
        {"vse16.v", {Opcode::VSE16, Fmt::VS}},
        {"vse32.v", {Opcode::VSE32, Fmt::VS}},
        {"vse64.v", {Opcode::VSE64, Fmt::VS}},
        {"vlse32.v", {Opcode::VLSE32, Fmt::VLS}},
        {"vlse64.v", {Opcode::VLSE64, Fmt::VLS}},
        {"vluxei32.v", {Opcode::VLUXEI32, Fmt::VLX}},
        {"vluxei64.v", {Opcode::VLUXEI64, Fmt::VLX}},
        {"vsuxei32.v", {Opcode::VSUXEI32, Fmt::VSX}},
        {"vsuxei64.v", {Opcode::VSUXEI64, Fmt::VSX}},
        {"vadd.vv", {Opcode::VADD_VV, Fmt::VVV}},
        {"vadd.vx", {Opcode::VADD_VX, Fmt::VVX}},
        {"vadd.vi", {Opcode::VADD_VI, Fmt::VVI}},
        {"vsub.vv", {Opcode::VSUB_VV, Fmt::VVV}},
        {"vsub.vx", {Opcode::VSUB_VX, Fmt::VVX}},
        {"vmul.vv", {Opcode::VMUL_VV, Fmt::VVV}},
        {"vmul.vx", {Opcode::VMUL_VX, Fmt::VVX}},
        {"vand.vv", {Opcode::VAND_VV, Fmt::VVV}},
        {"vand.vx", {Opcode::VAND_VX, Fmt::VVX}},
        {"vand.vi", {Opcode::VAND_VI, Fmt::VVI}},
        {"vor.vv", {Opcode::VOR_VV, Fmt::VVV}},
        {"vor.vx", {Opcode::VOR_VX, Fmt::VVX}},
        {"vor.vi", {Opcode::VOR_VI, Fmt::VVI}},
        {"vxor.vv", {Opcode::VXOR_VV, Fmt::VVV}},
        {"vxor.vx", {Opcode::VXOR_VX, Fmt::VVX}},
        {"vxor.vi", {Opcode::VXOR_VI, Fmt::VVI}},
        {"vsll.vi", {Opcode::VSLL_VI, Fmt::VVI}},
        {"vsll.vx", {Opcode::VSLL_VX, Fmt::VVX}},
        {"vsrl.vi", {Opcode::VSRL_VI, Fmt::VVI}},
        {"vsrl.vx", {Opcode::VSRL_VX, Fmt::VVX}},
        {"vsra.vi", {Opcode::VSRA_VI, Fmt::VVI}},
        {"vmin.vv", {Opcode::VMIN_VV, Fmt::VVV}},
        {"vmax.vv", {Opcode::VMAX_VV, Fmt::VVV}},
        {"vminu.vv", {Opcode::VMINU_VV, Fmt::VVV}},
        {"vmaxu.vv", {Opcode::VMAXU_VV, Fmt::VVV}},
        {"vid.v", {Opcode::VID_V, Fmt::V1}},
        {"vmv.v.i", {Opcode::VMV_V_I, Fmt::VI1}},
        {"vmv.v.x", {Opcode::VMV_V_X, Fmt::VX1}},
        {"vmv.v.v", {Opcode::VMV_V_V, Fmt::VV2}},
        {"vmv.x.s", {Opcode::VMV_X_S, Fmt::XV}},
        {"vmv.s.x", {Opcode::VMV_S_X, Fmt::VX1}},
        {"vfadd.vv", {Opcode::VFADD_VV, Fmt::VVV}},
        {"vfadd.vf", {Opcode::VFADD_VF, Fmt::VVF}},
        {"vfsub.vv", {Opcode::VFSUB_VV, Fmt::VVV}},
        {"vfsub.vf", {Opcode::VFSUB_VF, Fmt::VVF}},
        {"vfmul.vv", {Opcode::VFMUL_VV, Fmt::VVV}},
        {"vfmul.vf", {Opcode::VFMUL_VF, Fmt::VVF}},
        {"vfdiv.vv", {Opcode::VFDIV_VV, Fmt::VVV}},
        {"vfdiv.vf", {Opcode::VFDIV_VF, Fmt::VVF}},
        {"vfmacc.vv", {Opcode::VFMACC_VV, Fmt::VVV}},
        {"vfmacc.vf", {Opcode::VFMACC_VF, Fmt::VVF}},
        {"vfmin.vv", {Opcode::VFMIN_VV, Fmt::VVV}},
        {"vfmax.vv", {Opcode::VFMAX_VV, Fmt::VVV}},
        {"vfmv.v.f", {Opcode::VFMV_V_F, Fmt::VF1}},
        {"vfmv.f.s", {Opcode::VFMV_F_S, Fmt::FV}},
        {"vfmv.s.f", {Opcode::VFMV_S_F, Fmt::VF1}},
        {"vredsum.vs", {Opcode::VREDSUM_VS, Fmt::VVV}},
        {"vredmax.vs", {Opcode::VREDMAX_VS, Fmt::VVV}},
        {"vredmin.vs", {Opcode::VREDMIN_VS, Fmt::VVV}},
        {"vredand.vs", {Opcode::VREDAND_VS, Fmt::VVV}},
        {"vredor.vs", {Opcode::VREDOR_VS, Fmt::VVV}},
        {"vfredusum.vs", {Opcode::VFREDUSUM_VS, Fmt::VVV}},
        {"vfredsum.vs", {Opcode::VFREDUSUM_VS, Fmt::VVV}}, // legacy spelling
        {"vfredmax.vs", {Opcode::VFREDMAX_VS, Fmt::VVV}},
        {"vfredmin.vs", {Opcode::VFREDMIN_VS, Fmt::VVV}},
        {"vmseq.vv", {Opcode::VMSEQ_VV, Fmt::VVV}},
        {"vmseq.vx", {Opcode::VMSEQ_VX, Fmt::VVX}},
        {"vmseq.vi", {Opcode::VMSEQ_VI, Fmt::VVI}},
        {"vmsne.vv", {Opcode::VMSNE_VV, Fmt::VVV}},
        {"vmsne.vx", {Opcode::VMSNE_VX, Fmt::VVX}},
        {"vmsne.vi", {Opcode::VMSNE_VI, Fmt::VVI}},
        {"vmslt.vv", {Opcode::VMSLT_VV, Fmt::VVV}},
        {"vmslt.vx", {Opcode::VMSLT_VX, Fmt::VVX}},
        {"vmsle.vv", {Opcode::VMSLE_VV, Fmt::VVV}},
        {"vmsle.vx", {Opcode::VMSLE_VX, Fmt::VVX}},
        {"vmsle.vi", {Opcode::VMSLE_VI, Fmt::VVI}},
        {"vmsgt.vx", {Opcode::VMSGT_VX, Fmt::VVX}},
        {"vmsgt.vi", {Opcode::VMSGT_VI, Fmt::VVI}},
        {"vmsge.vx", {Opcode::VMSGE_VX, Fmt::VVX}},
        {"vmsltu.vv", {Opcode::VMSLTU_VV, Fmt::VVV}},
        {"vmsltu.vx", {Opcode::VMSLTU_VX, Fmt::VVX}},
        {"vmsgtu.vx", {Opcode::VMSGTU_VX, Fmt::VVX}},
        {"vmflt.vf", {Opcode::VMFLT_VF, Fmt::VVF}},
        {"vmfle.vf", {Opcode::VMFLE_VF, Fmt::VVF}},
        {"vmfgt.vf", {Opcode::VMFGT_VF, Fmt::VVF}},
        {"vmfge.vf", {Opcode::VMFGE_VF, Fmt::VVF}},
        {"vmfeq.vf", {Opcode::VMFEQ_VF, Fmt::VVF}},
        {"vmfne.vf", {Opcode::VMFNE_VF, Fmt::VVF}},
        {"vmand.mm", {Opcode::VMAND_MM, Fmt::VVV}},
        {"vmor.mm", {Opcode::VMOR_MM, Fmt::VVV}},
        {"vmxor.mm", {Opcode::VMXOR_MM, Fmt::VVV}},
        {"vmnand.mm", {Opcode::VMNAND_MM, Fmt::VVV}},
        {"vmnot.m", {Opcode::VMNOT_M, Fmt::VV2}},
        {"vcpop.m", {Opcode::VCPOP_M, Fmt::XV}},
        {"vfirst.m", {Opcode::VFIRST_M, Fmt::XV}},
        {"vmerge.vvm", {Opcode::VMERGE_VVM, Fmt::VMRG}},
        {"vmerge.vxm", {Opcode::VMERGE_VXM, Fmt::VMRG}},
        {"vmerge.vim", {Opcode::VMERGE_VIM, Fmt::VMRG}},
        {"exit", {Opcode::EXIT, Fmt::N0}},
    };
    return table;
}

std::string
toLower(std::string_view s)
{
    std::string out(s);
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return out;
}

std::string_view
trim(std::string_view s)
{
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
        s.remove_prefix(1);
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
        s.remove_suffix(1);
    return s;
}

/** Split a string on commas, trimming each piece. */
std::vector<std::string>
splitOperands(std::string_view s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t comma = s.find(',', start);
        std::string_view piece = comma == std::string_view::npos
                                     ? s.substr(start)
                                     : s.substr(start, comma - start);
        piece = trim(piece);
        if (!piece.empty())
            out.emplace_back(piece);
        if (comma == std::string_view::npos)
            break;
        start = comma + 1;
    }
    return out;
}

} // namespace

Assembler::Assembler()
{
    // Standard runtime constants: the scratchpad VA window (Fig. 8) and the
    // kernel-argument window at its top (Section III-G).
    setConstant("spad", static_cast<std::int64_t>(layout::kScratchpadVaBase));
    setConstant("spadsize", static_cast<std::int64_t>(layout::kScratchpadSize));
    setConstant("args", static_cast<std::int64_t>(layout::kKernelArgVa));
}

void
Assembler::setConstant(const std::string &name, std::int64_t value)
{
    constants_[name] = value;
}

namespace {

class Parser
{
  public:
    Parser(const std::unordered_map<std::string, std::int64_t> &constants)
        : constants_(constants)
    {
    }

    AssembledKernel parse(const std::string &text);

  private:
    [[noreturn]] void
    error(const std::string &msg) const
    {
        throw AsmError{"asm line " + std::to_string(line_no_) + ": " + msg};
    }

    unsigned parseReg(const std::string &tok, char cls) const;
    std::int64_t parseImm(const std::string &tok) const;
    /** Parse "imm(xN)" or "(xN)"; returns {imm, reg}. */
    std::pair<std::int64_t, unsigned> parseMemOperand(const std::string &tok) const;

    void finishSection();
    void parseLine(std::string_view line);
    Instruction buildInstruction(const OpInfo &info,
                                 std::vector<std::string> ops);

    const std::unordered_map<std::string, std::int64_t> &constants_;
    AssembledKernel kernel_;
    KernelSection current_{SectionKind::Body, {}};
    bool section_open_ = false;
    bool explicit_sections_ = false;
    std::unordered_map<std::string, std::int32_t> labels_;
    std::vector<std::pair<std::size_t, std::string>> fixups_;
    std::uint32_t line_no_ = 0;
};

unsigned
Parser::parseReg(const std::string &tok, char cls) const
{
    std::string t = toLower(tok);
    if (t == "zero" && cls == 'x')
        return 0;
    if (t.size() < 2 || t[0] != cls)
        error("expected " + std::string(1, cls) + "-register, got '" + tok + "'");
    char *end = nullptr;
    long n = std::strtol(t.c_str() + 1, &end, 10);
    if (end == nullptr || *end != '\0' || n < 0 || n > 31)
        error("bad register '" + tok + "'");
    return static_cast<unsigned>(n);
}

std::int64_t
Parser::parseImm(const std::string &tok) const
{
    std::string t(trim(tok));
    if (t.empty())
        error("empty immediate");
    // %symbol[+/-offset]
    if (t[0] == '%') {
        std::size_t op_pos = t.find_first_of("+-", 1);
        std::string sym = t.substr(1, op_pos == std::string::npos
                                          ? std::string::npos
                                          : op_pos - 1);
        auto it = constants_.find(sym);
        if (it == constants_.end())
            error("unknown constant '%" + sym + "'");
        std::int64_t base = it->second;
        if (op_pos == std::string::npos)
            return base;
        std::int64_t off = parseImm(t.substr(op_pos + 1));
        return t[op_pos] == '+' ? base + off : base - off;
    }
    bool neg = false;
    std::size_t pos = 0;
    if (t[0] == '-') {
        neg = true;
        pos = 1;
    } else if (t[0] == '+') {
        pos = 1;
    }
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(t.c_str() + pos, &end, 0);
    if (end == nullptr || *end != '\0' || errno != 0)
        error("bad immediate '" + tok + "'");
    auto sv = static_cast<std::int64_t>(v);
    return neg ? -sv : sv;
}

std::pair<std::int64_t, unsigned>
Parser::parseMemOperand(const std::string &tok) const
{
    std::size_t open = tok.find('(');
    std::size_t close = tok.rfind(')');
    if (open == std::string::npos || close == std::string::npos ||
        close < open) {
        error("expected mem operand 'imm(xN)', got '" + tok + "'");
    }
    std::string imm_str(trim(std::string_view(tok).substr(0, open)));
    std::string reg_str(
        trim(std::string_view(tok).substr(open + 1, close - open - 1)));
    std::int64_t imm = imm_str.empty() ? 0 : parseImm(imm_str);
    return {imm, parseReg(reg_str, 'x')};
}

void
Parser::finishSection()
{
    if (!section_open_)
        return;
    // Resolve label fixups within the section.
    for (const auto &[inst_idx, label] : fixups_) {
        auto it = labels_.find(label);
        if (it == labels_.end())
            throw AsmError{"asm: undefined label '" + label + "'"};
        current_.code[inst_idx].target = it->second;
    }
    fixups_.clear();
    labels_.clear();
    // The section is what the units run for the kernel's lifetime: drop
    // the push_back growth slack once, here.
    current_.code.shrink_to_fit();
    kernel_.sections.push_back(std::move(current_));
    current_ = KernelSection{SectionKind::Body, {}};
    section_open_ = false;
}

Instruction
Parser::buildInstruction(const OpInfo &info, std::vector<std::string> ops)
{
    Instruction inst;
    inst.op = info.op;
    inst.line = line_no_;
    fillOpcodeTraits(inst);

    // Peel a trailing ", v0.t" mask suffix for vector forms.
    if (!ops.empty() && toLower(ops.back()) == "v0.t") {
        inst.masked = true;
        ops.pop_back();
    }

    auto need = [&](std::size_t n) {
        if (ops.size() != n)
            error("expected " + std::to_string(n) + " operands, got " +
                  std::to_string(ops.size()));
    };

    switch (info.fmt) {
      case Fmt::N0:
        need(0);
        break;
      case Fmt::R3:
        need(3);
        inst.rd = parseReg(ops[0], 'x');
        inst.rs1 = parseReg(ops[1], 'x');
        inst.rs2 = parseReg(ops[2], 'x');
        break;
      case Fmt::I2:
        need(3);
        inst.rd = parseReg(ops[0], 'x');
        inst.rs1 = parseReg(ops[1], 'x');
        inst.imm = parseImm(ops[2]);
        break;
      case Fmt::RI:
        need(2);
        inst.rd = parseReg(ops[0], 'x');
        inst.imm = parseImm(ops[1]);
        break;
      case Fmt::R2:
        need(2);
        inst.rd = parseReg(ops[0], 'x');
        inst.rs1 = parseReg(ops[1], 'x');
        break;
      case Fmt::LOAD: {
        need(2);
        char cls = (info.op == Opcode::FLW || info.op == Opcode::FLD) ? 'f' : 'x';
        inst.rd = parseReg(ops[0], cls);
        auto [imm, base] = parseMemOperand(ops[1]);
        inst.imm = imm;
        inst.rs1 = base;
        break;
      }
      case Fmt::STORE: {
        need(2);
        char cls = (info.op == Opcode::FSW || info.op == Opcode::FSD) ? 'f' : 'x';
        inst.rs2 = parseReg(ops[0], cls);
        auto [imm, base] = parseMemOperand(ops[1]);
        inst.imm = imm;
        inst.rs1 = base;
        break;
      }
      case Fmt::BR:
        need(3);
        inst.rs1 = parseReg(ops[0], 'x');
        inst.rs2 = parseReg(ops[1], 'x');
        fixups_.emplace_back(current_.code.size(), ops[2]);
        break;
      case Fmt::JL:
        need(1);
        fixups_.emplace_back(current_.code.size(), ops[0]);
        break;
      case Fmt::AMO: {
        need(3);
        inst.rd = parseReg(ops[0], 'x');
        inst.rs2 = parseReg(ops[1], 'x');
        auto [imm, base] = parseMemOperand(ops[2]);
        if (imm != 0)
            error("AMO address operand must have no offset");
        inst.rs1 = base;
        break;
      }
      case Fmt::F3:
        need(3);
        inst.rd = parseReg(ops[0], 'f');
        inst.rs1 = parseReg(ops[1], 'f');
        inst.rs2 = parseReg(ops[2], 'f');
        break;
      case Fmt::F4:
        need(4);
        inst.rd = parseReg(ops[0], 'f');
        inst.rs1 = parseReg(ops[1], 'f');
        inst.rs2 = parseReg(ops[2], 'f');
        inst.rs3 = parseReg(ops[3], 'f');
        break;
      case Fmt::F2:
        need(2);
        inst.rd = parseReg(ops[0], 'f');
        inst.rs1 = parseReg(ops[1], 'f');
        break;
      case Fmt::FX:
        need(2);
        inst.rd = parseReg(ops[0], 'x');
        inst.rs1 = parseReg(ops[1], 'f');
        break;
      case Fmt::XF:
        need(2);
        inst.rd = parseReg(ops[0], 'f');
        inst.rs1 = parseReg(ops[1], 'x');
        break;
      case Fmt::FCMP:
        need(3);
        inst.rd = parseReg(ops[0], 'x');
        inst.rs1 = parseReg(ops[1], 'f');
        inst.rs2 = parseReg(ops[2], 'f');
        break;
      case Fmt::VSET: {
        need(4);
        inst.rd = parseReg(ops[0], 'x');
        inst.rs1 = parseReg(ops[1], 'x');
        std::string sew = toLower(ops[2]);
        if (sew == "e8")
            inst.sew = 1;
        else if (sew == "e16")
            inst.sew = 2;
        else if (sew == "e32")
            inst.sew = 4;
        else if (sew == "e64")
            inst.sew = 8;
        else
            error("bad SEW '" + ops[2] + "'");
        if (toLower(ops[3]) != "m1")
            error("only LMUL=1 is supported (got '" + ops[3] + "')");
        break;
      }
      case Fmt::VL: {
        need(2);
        inst.rd = parseReg(ops[0], 'v');
        auto [imm, base] = parseMemOperand(ops[1]);
        inst.imm = imm;
        inst.rs1 = base;
        break;
      }
      case Fmt::VLS: {
        need(3);
        inst.rd = parseReg(ops[0], 'v');
        auto [imm, base] = parseMemOperand(ops[1]);
        inst.imm = imm;
        inst.rs1 = base;
        inst.rs2 = parseReg(ops[2], 'x');
        break;
      }
      case Fmt::VLX: {
        need(3);
        inst.rd = parseReg(ops[0], 'v');
        auto [imm, base] = parseMemOperand(ops[1]);
        inst.imm = imm;
        inst.rs1 = base;
        inst.rs2 = parseReg(ops[2], 'v');
        break;
      }
      case Fmt::VS: {
        need(2);
        inst.rs3 = parseReg(ops[0], 'v');
        auto [imm, base] = parseMemOperand(ops[1]);
        inst.imm = imm;
        inst.rs1 = base;
        break;
      }
      case Fmt::VSX: {
        need(3);
        inst.rs3 = parseReg(ops[0], 'v');
        auto [imm, base] = parseMemOperand(ops[1]);
        inst.imm = imm;
        inst.rs1 = base;
        inst.rs2 = parseReg(ops[2], 'v');
        break;
      }
      case Fmt::VVV:
        need(3);
        inst.rd = parseReg(ops[0], 'v');
        inst.rs2 = parseReg(ops[1], 'v');
        inst.rs1 = parseReg(ops[2], 'v');
        break;
      case Fmt::VVX:
        need(3);
        inst.rd = parseReg(ops[0], 'v');
        inst.rs2 = parseReg(ops[1], 'v');
        inst.rs1 = parseReg(ops[2], 'x');
        break;
      case Fmt::VVI:
        need(3);
        inst.rd = parseReg(ops[0], 'v');
        inst.rs2 = parseReg(ops[1], 'v');
        inst.imm = parseImm(ops[2]);
        break;
      case Fmt::VVF:
        need(3);
        inst.rd = parseReg(ops[0], 'v');
        inst.rs2 = parseReg(ops[1], 'v');
        inst.rs1 = parseReg(ops[2], 'f');
        break;
      case Fmt::VV2:
        need(2);
        inst.rd = parseReg(ops[0], 'v');
        inst.rs2 = parseReg(ops[1], 'v');
        break;
      case Fmt::VX1:
        need(2);
        inst.rd = parseReg(ops[0], 'v');
        inst.rs1 = parseReg(ops[1], 'x');
        break;
      case Fmt::VI1:
        need(2);
        inst.rd = parseReg(ops[0], 'v');
        inst.imm = parseImm(ops[1]);
        break;
      case Fmt::XV:
        need(2);
        inst.rd = parseReg(ops[0], 'x');
        inst.rs2 = parseReg(ops[1], 'v');
        break;
      case Fmt::FV:
        need(2);
        inst.rd = parseReg(ops[0], 'f');
        inst.rs2 = parseReg(ops[1], 'v');
        break;
      case Fmt::VF1:
        need(2);
        inst.rd = parseReg(ops[0], 'v');
        inst.rs1 = parseReg(ops[1], 'f');
        break;
      case Fmt::V1:
        need(1);
        inst.rd = parseReg(ops[0], 'v');
        break;
      case Fmt::VMRG: {
        need(4);
        if (toLower(ops[3]) != "v0")
            error("vmerge mask operand must be v0");
        inst.rd = parseReg(ops[0], 'v');
        inst.rs2 = parseReg(ops[1], 'v');
        inst.masked = true;
        if (info.op == Opcode::VMERGE_VVM)
            inst.rs1 = parseReg(ops[2], 'v');
        else if (info.op == Opcode::VMERGE_VXM)
            inst.rs1 = parseReg(ops[2], 'x');
        else
            inst.imm = parseImm(ops[2]);
        break;
      }
    }
    return inst;
}

void
Parser::parseLine(std::string_view raw)
{
    // Strip comments.
    std::size_t hash = raw.find('#');
    if (hash != std::string_view::npos)
        raw = raw.substr(0, hash);
    std::size_t slashes = raw.find("//");
    if (slashes != std::string_view::npos)
        raw = raw.substr(0, slashes);
    std::string_view line = trim(raw);
    if (line.empty())
        return;

    // Directives.
    if (line[0] == '.') {
        std::string dir = toLower(line.substr(0, line.find(' ')));
        if (dir == ".name") {
            kernel_.name = std::string(trim(line.substr(5)));
            return;
        }
        explicit_sections_ = true;
        finishSection();
        if (dir == ".init")
            current_.kind = SectionKind::Initializer;
        else if (dir == ".body")
            current_.kind = SectionKind::Body;
        else if (dir == ".fini")
            current_.kind = SectionKind::Finalizer;
        else
            error("unknown directive '" + dir + "'");
        section_open_ = true;
        return;
    }

    if (!section_open_) {
        // Implicit single body section when no directives are used.
        current_.kind = SectionKind::Body;
        section_open_ = true;
    }

    // Labels (possibly followed by an instruction on the same line).
    std::size_t colon = line.find(':');
    if (colon != std::string_view::npos &&
        line.find_first_of(" \t") > colon) {
        std::string label(trim(line.substr(0, colon)));
        if (label.empty())
            error("empty label");
        if (labels_.count(label))
            error("duplicate label '" + label + "'");
        labels_[label] = static_cast<std::int32_t>(current_.code.size());
        line = trim(line.substr(colon + 1));
        if (line.empty())
            return;
    }

    // Mnemonic + operands.
    std::size_t sp = line.find_first_of(" \t");
    std::string mnemonic =
        toLower(sp == std::string_view::npos ? line : line.substr(0, sp));
    std::string_view rest =
        sp == std::string_view::npos ? std::string_view{} : line.substr(sp + 1);

    auto it = mnemonicTable().find(mnemonic);
    if (it == mnemonicTable().end())
        error("unknown mnemonic '" + mnemonic + "'");

    current_.code.push_back(
        buildInstruction(it->second, splitOperands(rest)));
}

AssembledKernel
Parser::parse(const std::string &text)
{
    std::istringstream stream(text);
    std::string line;
    while (std::getline(stream, line)) {
        ++line_no_;
        parseLine(line);
    }
    finishSection();

    // Validate section ordering: [init] body+ [fini].
    bool seen_body = false, seen_fini = false;
    for (std::size_t i = 0; i < kernel_.sections.size(); ++i) {
        const auto &sec = kernel_.sections[i];
        switch (sec.kind) {
          case SectionKind::Initializer:
            if (i != 0)
                throw AsmError{"asm: .init must be the first section"};
            break;
          case SectionKind::Body:
            if (seen_fini)
                throw AsmError{"asm: .body after .fini"};
            seen_body = true;
            break;
          case SectionKind::Finalizer:
            if (seen_fini)
                throw AsmError{"asm: multiple .fini sections"};
            seen_fini = true;
            break;
        }
    }
    if (!seen_body)
        throw AsmError{"asm: kernel has no body section"};
    return std::move(kernel_);
}

} // namespace

AssembledKernel
Assembler::assemble(const std::string &text, std::string &error) const
{
    Parser parser(constants_);
    try {
        AssembledKernel k = parser.parse(text);
        error.clear();
        return k;
    } catch (const AsmError &e) {
        error = e.message;
        return {};
    }
}

} // namespace m2ndp::isa
