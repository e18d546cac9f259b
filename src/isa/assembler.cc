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

/** Mnemonic -> opcode, built once from the opcode table. */
const std::unordered_map<std::string, Opcode> &
mnemonicIndex()
{
    static const auto index = [] {
        std::unordered_map<std::string, Opcode> m;
        for (std::size_t i = 0; i < std::size(kOpcodes); ++i)
            m.emplace(std::string(kOpcodes[i].mnemonic), static_cast<Opcode>(i));
        m.emplace("vfredsum.vs", Opcode::VFREDUSUM_VS); // legacy spelling
        return m;
    }();
    return index;
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
    Instruction buildInstruction(Opcode op, std::vector<std::string> ops);
    /** Parse @p tok as the second source operand of kind inst.src. */
    void parseSrc(Instruction &inst, const std::string &tok) const;

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

void
Parser::parseSrc(Instruction &inst, const std::string &tok) const
{
    switch (inst.src) {
      case Src::V: inst.rs1 = parseReg(tok, 'v'); break;
      case Src::X: inst.rs1 = parseReg(tok, 'x'); break;
      case Src::F: inst.rs1 = parseReg(tok, 'f'); break;
      case Src::I: inst.imm = parseImm(tok); break;
      case Src::None: error("operation takes no source operand");
    }
}

Instruction
Parser::buildInstruction(Opcode op, std::vector<std::string> ops)
{
    Instruction inst;
    inst.op = op;
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

    switch (opcodeInfo(op).fmt) {
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
        inst.rd = parseReg(ops[0], inst.mem_fp ? 'f' : 'x');
        auto [imm, base] = parseMemOperand(ops[1]);
        inst.imm = imm;
        inst.rs1 = base;
        break;
      }
      case Fmt::STORE: {
        need(2);
        inst.rs2 = parseReg(ops[0], inst.mem_fp ? 'f' : 'x');
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
      case Fmt::VBIN:
        need(3);
        inst.rd = parseReg(ops[0], 'v');
        inst.rs2 = parseReg(ops[1], 'v');
        parseSrc(inst, ops[2]);
        break;
      case Fmt::VSRC:
        need(2);
        inst.rd = parseReg(ops[0], 'v');
        parseSrc(inst, ops[1]);
        break;
      case Fmt::VV2:
        need(2);
        inst.rd = parseReg(ops[0], 'v');
        inst.rs2 = parseReg(ops[1], 'v');
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
      case Fmt::V1:
        need(1);
        inst.rd = parseReg(ops[0], 'v');
        break;
      case Fmt::VMRG:
        need(4);
        if (toLower(ops[3]) != "v0")
            error("vmerge mask operand must be v0");
        inst.rd = parseReg(ops[0], 'v');
        inst.rs2 = parseReg(ops[1], 'v');
        parseSrc(inst, ops[2]);
        inst.masked = true;
        break;
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

    auto it = mnemonicIndex().find(mnemonic);
    if (it == mnemonicIndex().end())
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
