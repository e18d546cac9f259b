/**
 * @file
 * Pre-decoded µop form of the M2NDP ISA.
 *
 * Everything the executor needs to know about an instruction — functional-
 * unit class, result latency, memory width / extension behaviour, AMO
 * opcode — is derived once, when `DecodedKernel::decode` turns an
 * assembled kernel into flat arrays of `DecodedInst` µops at registration.
 * With millions of µthreads in a sweep, `isa::step()` then dispatches on
 * the decoded form only; there is no raw-instruction execution path.
 * Decoding is pure bookkeeping — architectural semantics are unchanged.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "isa/inst.hh"
#include "mem/sparse_memory.hh" // AmoOp

namespace m2ndp::isa {

/** One pre-decoded µop. */
struct DecodedInst
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
     *  a µop without this tag never populates StepResult::mem. */
    bool touches_mem = false;
    std::uint8_t sew = 0;        ///< VSETVLI: selected element width (bytes)
    AmoOp amo_op = AmoOp::Add;   ///< resolved atomic op (AMO* only)
    std::int32_t target = -1;    ///< resolved branch/jump target (µop index)
    std::int64_t imm = 0;
    std::uint32_t line = 0;      ///< source line for diagnostics
};

/** One kernel section decoded to µops (same indexing as the source). */
struct DecodedSection
{
    SectionKind kind = SectionKind::Body;
    std::vector<DecodedInst> code;
};

/** A fully decoded kernel, parallel to its AssembledKernel. */
struct DecodedKernel
{
    std::vector<DecodedSection> sections;

    /** Decode every section of @p kernel (once per registration). */
    static DecodedKernel decode(const AssembledKernel &kernel);
};

} // namespace m2ndp::isa
