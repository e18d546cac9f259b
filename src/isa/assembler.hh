/**
 * @file
 * Two-pass textual assembler for M2NDP kernels.
 *
 * Syntax (one instruction per line; '#' or '//' comments):
 *
 *     .name histo256            # optional kernel name
 *     .init                     # initializer section (Section III-G)
 *         li   x3, %spad
 *         sw   x0, 0(x3)
 *     .body                     # kernel body (repeatable for multi-phase)
 *     loop:
 *         vle32.v v2, (x1)
 *         bne  x4, x0, loop
 *     .fini                     # finalizer section
 *         amoadd.d x4, x4, (x3)
 *
 * Registers: x0..x31 (zero == x0), f0..f31, v0..v31.
 * Immediates: decimal, 0x-hex, and %symbol[+/-offset] constants
 * (%spad, %args, ... installed by the runtime; see setConstant()).
 * Masked vector forms take a trailing ", v0.t".
 *
 * Errors include line numbers and are reported through an out-parameter,
 * so callers — the NDP controller's kernel registration in particular —
 * can reject bad kernel text with a typed error rather than terminating
 * the process.
 */

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

#include "isa/inst.hh"

namespace m2ndp::isa {

class Assembler
{
  public:
    Assembler();

    /** Define or redefine a %symbol usable in immediate fields. */
    void setConstant(const std::string &name, std::int64_t value);

    /**
     * Assemble full kernel text into sections. On malformed text, stores
     * the diagnostic in @p error and returns an empty kernel (no
     * sections). On success @p error is cleared.
     */
    AssembledKernel assemble(const std::string &text,
                             std::string &error) const;

  private:
    std::unordered_map<std::string, std::int64_t> constants_;
};

} // namespace m2ndp::isa
