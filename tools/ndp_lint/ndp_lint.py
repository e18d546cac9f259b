#!/usr/bin/env python3
"""ndp-lint — project-specific static analysis for the m2ndp simulator.

Enforces, at build time, the three invariants the runtime nets (the
counting-new test, the engine checksums, the SimDomain lookahead asserts)
only catch after a violation executes. Three rule families
(docs/static_analysis.md):

  hotpath-alloc     no heap allocation / std::function / std::shared_ptr /
                    container growth inside regions annotated
                    M2NDP_HOT_PATH / M2NDP_HOT_PATH_FILE()
  nondeterminism    no rand()/std::random_device/wall-clock reads/TSC, no
                    pointer-keyed ordered containers, no iteration over
                    std::unordered_{map,set} (iteration order feeding
                    scheduleAt/mailbox posts is exactly the PR 6 bug class)
  partition-safety  cross-partition effects must flow through the SimDomain
                    mailbox API; scheduling directly onto a foreign
                    partition's EventQueue is rejected

The 48 B InlineCallback capture budget is not a lint rule: the compiler
enforces it exactly (a static_assert in src/common/callback.hh).

Driven by compile_commands.json (all TUs under src/ plus every header they
pull in under src/). Two analysis modes:

  token (canonical)  a comment/string-aware token-level pass. Deterministic
                     across machines and toolchains; this is what the
                     `lint` ctest gates on.
  clang (assist)     if the libclang python bindings are importable, the
                     hot-path function extents are computed from the AST
                     instead of brace matching. Optional; the runner image
                     does not ship the bindings, so `--mode=auto` (default)
                     degrades to token mode with identical rule semantics.

Suppressions: `// ndp-lint: allow(<rule>[, <rule>...])` on the offending
line or the line above it; `// ndp-lint: allow-file(<rule>)` anywhere in a
file suppresses the rule file-wide. Every suppression must name its rule;
the summary tallies suppressed findings per rule so exceptions stay
auditable.

Exit status: 0 when no unsuppressed findings, 1 otherwise, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import re
import sys
from dataclasses import dataclass, field

RULES = (
    "hotpath-alloc",
    "nondeterminism",
    "partition-safety",
)

# ---------------------------------------------------------------------------
# Source preprocessing: blank comments and literals, collect suppressions
# ---------------------------------------------------------------------------

_SUPPRESS_RE = re.compile(r"ndp-lint:\s*allow\(([\w\-, ]+)\)")
_SUPPRESS_FILE_RE = re.compile(r"ndp-lint:\s*allow-file\(([\w\-, ]+)\)")


def blank_source(text):
    """Return (code, comments) where `code` is `text` with comment bodies
    and string/char literal contents replaced by spaces (newlines and
    therefore line/column positions preserved), and `comments` is a list of
    (line_number, comment_text)."""
    out = []
    comments = []  # (line, text)
    i, n = 0, len(text)
    line = 1
    state = "code"
    comment_start_line = 0
    comment_buf = []
    raw_delim = None

    def emit(ch):
        out.append(ch)

    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "\n":
            line += 1
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                comment_start_line = line
                comment_buf = []
                emit(" ")
                emit(" ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                comment_start_line = line
                comment_buf = []
                emit(" ")
                emit(" ")
                i += 2
                continue
            if ch == '"':
                # Raw string literal: R"delim( ... )delim"
                prev = text[i - 1] if i > 0 else ""
                if prev == "R" and (i < 2 or not (text[i - 2].isalnum() or
                                                  text[i - 2] == "_")):
                    m = re.match(r'"([^()\\ \n]*)\(', text[i:])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        state = "raw_string"
                        emit('"')
                        i += 1
                        continue
                state = "string"
                emit('"')
                i += 1
                continue
            if ch == "'":
                # Only a char literal if not a digit separator (1'000).
                prev = text[i - 1] if i > 0 else ""
                if not (prev.isalnum() or prev == "_"):
                    state = "char"
                emit("'")
                i += 1
                continue
            emit(ch)
            i += 1
            continue
        if state == "line_comment":
            if ch == "\n":
                comments.append((comment_start_line, "".join(comment_buf)))
                state = "code"
                emit("\n")
            else:
                comment_buf.append(ch)
                emit(" ")
            i += 1
            continue
        if state == "block_comment":
            if ch == "*" and nxt == "/":
                comments.append((comment_start_line, "".join(comment_buf)))
                state = "code"
                emit(" ")
                emit(" ")
                i += 2
                continue
            comment_buf.append(ch)
            emit("\n" if ch == "\n" else " ")
            i += 1
            continue
        if state == "string":
            if ch == "\\":
                emit(" ")
                emit(" ")
                i += 2
                if nxt == "\n":
                    line += 1
                continue
            if ch == '"':
                state = "code"
                emit('"')
            else:
                emit("\n" if ch == "\n" else " ")
            i += 1
            continue
        if state == "raw_string":
            if text.startswith(raw_delim, i):
                for _ in raw_delim:
                    emit(" ")
                out[-1] = '"'
                i += len(raw_delim)
                state = "code"
                continue
            emit("\n" if ch == "\n" else " ")
            i += 1
            continue
        if state == "char":
            if ch == "\\":
                emit(" ")
                emit(" ")
                i += 2
                continue
            if ch == "'":
                state = "code"
                emit("'")
            else:
                emit(" ")
            i += 1
            continue
    if state in ("line_comment", "block_comment") and comment_buf:
        comments.append((comment_start_line, "".join(comment_buf)))
    return "".join(out), comments


@dataclass
class Finding:
    path: str
    line: int
    col: int
    rule: str
    message: str
    suppressed: bool = False


@dataclass
class SourceFile:
    path: str                      # absolute
    rel: str                       # project-relative (for reports)
    code: str = ""                 # comment/literal-blanked text
    lines: list = field(default_factory=list)        # blanked, per line
    line_starts: list = field(default_factory=list)  # offset of each line
    line_suppress: dict = field(default_factory=dict)  # line -> set(rules)
    file_suppress: set = field(default_factory=set)
    includes: list = field(default_factory=list)     # resolved abs paths
    unordered_names: set = field(default_factory=set)
    unordered_fns: set = field(default_factory=set)


_UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set)\s*<[^;{}()]*?>\s*&?\s*(\w+)\s*(?:[;={]|$)")
_UNORDERED_FN_RE = re.compile(
    r"std::unordered_(?:map|set)\s*<[^;{}()]*?>\s*&?\s*(\w+)\s*\(")

_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)


def load_file(path, root):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    sf = SourceFile(path=os.path.abspath(path),
                    rel=os.path.relpath(path, root))
    sf.code, comments = blank_source(text)
    sf.lines = sf.code.split("\n")
    off = 0
    for ln in sf.lines:
        sf.line_starts.append(off)
        off += len(ln) + 1

    # Suppressions. A comment on a code-free line applies to the next line
    # that carries code (within a short window).
    for cline, ctext in comments:
        m = _SUPPRESS_FILE_RE.search(ctext)
        if m:
            sf.file_suppress |= {r.strip() for r in m.group(1).split(",")}
            continue
        m = _SUPPRESS_RE.search(ctext)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",")}
        target = cline
        if cline - 1 < len(sf.lines) and not sf.lines[cline - 1].strip():
            for cand in range(cline + 1, min(cline + 6, len(sf.lines) + 1)):
                if sf.lines[cand - 1].strip():
                    target = cand
                    break
        sf.line_suppress.setdefault(target, set()).update(rules)

    # Includes (project-local only).
    here = os.path.dirname(path)
    for inc in _INCLUDE_RE.findall(text):
        for base in (os.path.join(root, "src"), here):
            cand = os.path.normpath(os.path.join(base, inc))
            if os.path.isfile(cand):
                sf.includes.append(cand)
                break

    # Declared symbol tables used by the iteration rule.
    for m in _UNORDERED_DECL_RE.finditer(sf.code):
        sf.unordered_names.add(m.group(1))
    for m in _UNORDERED_FN_RE.finditer(sf.code):
        sf.unordered_fns.add(m.group(1))
    return sf


# ---------------------------------------------------------------------------
# Region helpers
# ---------------------------------------------------------------------------

def match_brace(code, open_idx):
    """Index just past the brace matching code[open_idx] == '{'."""
    depth = 0
    for i in range(open_idx, len(code)):
        c = code[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def annotation_regions(sf, marker):
    """(start, end) offsets of the function body following each `marker`
    annotation (the next top-level brace pair after the marker)."""
    regions = []
    for m in re.finditer(r"\b%s\b" % marker, sf.code):
        # Skip the macro definition itself and mentions in macro bodies.
        ls = sf.line_starts[offset_line(sf, m.start()) - 1]
        if sf.code[ls:m.start()].lstrip().startswith("#"):
            continue
        open_idx = sf.code.find("{", m.end())
        if open_idx < 0:
            continue
        regions.append((m.start(), match_brace(sf.code, open_idx)))
    return regions


def hot_regions(sf):
    regions = annotation_regions(sf, "M2NDP_HOT_PATH(?!_FILE)")
    for m in re.finditer(r"\bM2NDP_HOT_PATH_FILE\b", sf.code):
        ls = sf.line_starts[offset_line(sf, m.start()) - 1]
        if sf.code[ls:m.start()].lstrip().startswith("#"):
            continue
        regions.append((m.start(), len(sf.code)))
    cold = annotation_regions(sf, "M2NDP_COLD_PATH")
    return regions, cold


def in_regions(offset, regions, cold):
    for s, e in cold:
        if s <= offset < e:
            return False
    return any(s <= offset < e for s, e in regions)


def offset_line(sf, offset):
    return bisect.bisect_right(sf.line_starts, offset)


def offset_col(sf, offset):
    return offset - sf.line_starts[offset_line(sf, offset) - 1] + 1


# ---------------------------------------------------------------------------
# Rule 1: hot-path purity
# ---------------------------------------------------------------------------

_HOTPATH_PATTERNS = (
    (re.compile(r"\bnew\b(?!\s*\()"),
     "operator new on a hot path (use a slab pool; placement new is exempt)"),
    (re.compile(r"\b(?:malloc|calloc|realloc|strdup)\s*\("),
     "C heap allocation on a hot path"),
    (re.compile(r"\bstd::function\b"),
     "std::function on a hot path (use InlineCallback)"),
    (re.compile(r"\bstd::shared_ptr\b|\bstd::make_shared\b"),
     "shared_ptr on a hot path (refcount + control-block allocation)"),
    (re.compile(r"\bstd::make_unique\b"),
     "make_unique allocates on a hot path"),
    (re.compile(r"(?:\.|->)(?:push_back|emplace_back|emplace|insert|resize|"
                r"reserve)\s*\("),
     "container growth on a hot path (pre-size in setup code)"),
)


def rule_hotpath(sf, extra_regions=()):
    regions, cold = hot_regions(sf)
    regions = list(regions) + list(extra_regions)
    if not regions:
        return []
    findings = []
    for rx, msg in _HOTPATH_PATTERNS:
        for m in rx.finditer(sf.code):
            if not in_regions(m.start(), regions, cold):
                continue
            findings.append(Finding(sf.rel, offset_line(sf, m.start()),
                                    offset_col(sf, m.start()),
                                    "hotpath-alloc", msg))
    return findings


# ---------------------------------------------------------------------------
# Rule 2: determinism
# ---------------------------------------------------------------------------

_NONDET_PATTERNS = (
    (re.compile(r"\b(?:std::)?s?rand\s*\("),
     "rand()/srand() is nondeterministic across libcs (use common/rng.hh)"),
    (re.compile(r"\bstd::random_device\b"),
     "std::random_device breaks same-seed reproducibility"),
    (re.compile(r"\bstd::chrono::(?:system_clock|steady_clock|"
                r"high_resolution_clock)\b"),
     "wall-clock read in simulation code (sim time must come from "
     "EventQueue::now())"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime|localtime|gmtime)\s*\("),
     "wall-clock read in simulation code"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time() read in simulation code"),
    (re.compile(r"\b_+rdtscp?\b"),
     "TSC read in simulation code"),
    (re.compile(r"\bstd::(?:map|set|multimap|multiset)\s*<\s*[\w:<> ]*?\*"),
     "pointer-keyed ordered container: iteration order depends on "
     "allocation addresses (key by a stable id instead)"),
)

_RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^;()]*?:\s*([\w.>\-]+(?:\(\))?)\s*\)")
_BEGIN_ITER_RE = re.compile(r"\b([\w.>\-]+)\.c?begin\s*\(\)")


def _trailing_component(expr):
    expr = expr.strip()
    call = expr.endswith("()")
    if call:
        expr = expr[:-2]
    for sep in (".", "->"):
        if sep in expr:
            expr = expr.rsplit(sep, 1)[1]
    return expr, call


def rule_nondeterminism(sf, symtab):
    findings = []
    for rx, msg in _NONDET_PATTERNS:
        for m in rx.finditer(sf.code):
            findings.append(Finding(sf.rel, offset_line(sf, m.start()),
                                    offset_col(sf, m.start()),
                                    "nondeterminism", msg))
    names, fns = symtab
    for m in _RANGE_FOR_RE.finditer(sf.code):
        comp, call = _trailing_component(m.group(1))
        hit = (comp in fns) if call else (comp in names)
        if hit:
            findings.append(Finding(
                sf.rel, offset_line(sf, m.start()),
                offset_col(sf, m.start()), "nondeterminism",
                f"iteration over std::unordered container '{comp}': "
                "unseeded hash order is sim-visible (walk a sorted or "
                "slot-indexed structure instead)"))
    for m in _BEGIN_ITER_RE.finditer(sf.code):
        comp, _ = _trailing_component(m.group(1))
        if comp in names:
            findings.append(Finding(
                sf.rel, offset_line(sf, m.start()),
                offset_col(sf, m.start()), "nondeterminism",
                f"iterator walk over std::unordered container '{comp}'"))
    return findings


# ---------------------------------------------------------------------------
# Rule 3: partition safety
# ---------------------------------------------------------------------------

_PARTITION_PATTERNS = (
    (re.compile(r"\bdeviceQueue\s*\(\)\s*\.\s*(?:schedule|scheduleAfter|"
                r"scheduleAt)\s*\("),
     "scheduling directly onto a device partition's queue from the host "
     "side; cross-partition effects must use postToDeviceAt/SimDomain::post"),
    (re.compile(r"\bhostQueue\s*\(\)\s*\.\s*(?:schedule|scheduleAfter|"
                r"scheduleAt)\s*\("),
     "scheduling directly onto the host partition's queue from a device; "
     "use postToHostAt/SimDomain::post"),
    (re.compile(r"\bdevice_queues_\s*\[[^\]]*\]\s*(?:->|\.)\s*"
                r"(?:schedule|scheduleAfter|scheduleAt)\s*\("),
     "scheduling onto another partition's EventQueue bypasses the mailbox "
     "lookahead protocol (post via SimDomain)"),
    (re.compile(r"\bpartitionQueue\s*\([^)]*\)\s*(?:->|\.)\s*"
                r"(?:schedule|scheduleAfter|scheduleAt)\s*\("),
     "scheduling onto a partition queue handle bypasses the mailbox "
     "lookahead protocol (post via SimDomain)"),
)


def rule_partition(sf):
    findings = []
    for rx, msg in _PARTITION_PATTERNS:
        for m in rx.finditer(sf.code):
            findings.append(Finding(sf.rel, offset_line(sf, m.start()),
                                    offset_col(sf, m.start()),
                                    "partition-safety", msg))
    return findings


# ---------------------------------------------------------------------------
# Optional libclang assist
# ---------------------------------------------------------------------------

def try_clang_index():
    """Import the libclang python bindings if present. Returns the cindex
    module or None. Token mode is canonical either way; the AST, when
    available, only refines hot-function extents."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        cindex.Index.create()
    except Exception:
        return None
    return cindex


def clang_hot_extents(cindex, sf, compile_args):
    """AST-based replacement for annotation_regions(): functions whose
    definition line (or the line above) carries M2NDP_HOT_PATH."""
    idx = cindex.Index.create()
    tu = idx.parse(sf.path, args=compile_args,
                   options=cindex.TranslationUnit.PARSE_SKIP_FUNCTION_BODIES)
    regions = []
    marked = {
        offset_line(sf, m.start())
        for m in re.finditer(r"\bM2NDP_HOT_PATH\b(?!_FILE)", sf.code)
    }
    for cur in tu.cursor.walk_preorder():
        if not cur.is_definition():
            continue
        if cur.kind.name not in ("FUNCTION_DECL", "CXX_METHOD",
                                 "FUNCTION_TEMPLATE"):
            continue
        if cur.location.file is None or \
                os.path.abspath(cur.location.file.name) != sf.path:
            continue
        if cur.extent.start.line in marked or \
                cur.extent.start.line - 1 in marked:
            s = sf.line_starts[cur.extent.start.line - 1]
            e = sf.line_starts[min(cur.extent.end.line,
                                   len(sf.line_starts)) - 1]
            regions.append((s, e))
    return regions


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def gather_files(args, root):
    if args.files:
        return [os.path.abspath(f) for f in args.files]
    files = set()
    cc_path = args.compile_commands
    if not cc_path:
        for cand in (os.path.join(root, "build", "compile_commands.json"),
                     os.path.join(root, "compile_commands.json")):
            if os.path.isfile(cand):
                cc_path = cand
                break
    if not cc_path or not os.path.isfile(cc_path):
        print("ndp-lint: no compile_commands.json (configure with "
              "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON) and no files given",
              file=sys.stderr)
        sys.exit(2)
    src_root = os.path.join(root, "src")
    with open(cc_path) as f:
        for entry in json.load(f):
            path = os.path.abspath(
                os.path.join(entry.get("directory", "."), entry["file"]))
            if path.startswith(src_root + os.sep) and os.path.isfile(path):
                files.add(path)
    for dirpath, _, names in os.walk(src_root):
        for name in names:
            if name.endswith(".hh") or name.endswith(".h"):
                files.add(os.path.join(dirpath, name))
    return sorted(files)


def build_symtabs(sources):
    """Per-file symbol tables merged over the project-local include
    closure, so a header's container declarations are visible in every TU
    that includes it."""
    by_path = {sf.path: sf for sf in sources}

    def closure(sf):
        seen, work = set(), [sf.path]
        while work:
            p = work.pop()
            if p in seen:
                continue
            seen.add(p)
            cur = by_path.get(p)
            if cur:
                work.extend(cur.includes)
        return seen

    tabs = {}
    for sf in sources:
        names, fns = set(), set()
        for p in closure(sf):
            other = by_path.get(p)
            if not other:
                continue
            names |= other.unordered_names
            fns |= other.unordered_fns
        tabs[sf.path] = (names, fns)
    return tabs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--compile-commands", default=None)
    ap.add_argument("--root", default=None,
                    help="project root (default: two levels above this file)")
    ap.add_argument("--mode", choices=("auto", "token", "clang"),
                    default="auto")
    ap.add_argument("--rules", default=",".join(RULES),
                    help="comma-separated rule subset to run")
    ap.add_argument("--json", action="store_true",
                    help="emit findings as JSON")
    ap.add_argument("files", nargs="*",
                    help="explicit files (fixtures); default: all of src/ "
                         "reached from compile_commands.json")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root) if args.root else os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", ".."))
    enabled = [r.strip() for r in args.rules.split(",") if r.strip()]
    for r in enabled:
        if r not in RULES:
            print(f"ndp-lint: unknown rule '{r}'", file=sys.stderr)
            return 2

    cindex = None
    if args.mode in ("clang", "auto"):
        cindex = try_clang_index()
        if args.mode == "clang" and cindex is None:
            print("ndp-lint: --mode=clang requested but the libclang "
                  "python bindings are unavailable", file=sys.stderr)
            return 2

    paths = gather_files(args, root)
    sources = [load_file(p, root) for p in paths]
    symtabs = build_symtabs(sources)

    findings = []
    for sf in sources:
        names, fns = symtabs[sf.path]
        if "hotpath-alloc" in enabled:
            extra = ()
            if cindex is not None:
                # AST-refined extents catch annotated definitions whose
                # body brace the token matcher would mispair (e.g. inside
                # heavy preprocessor blocks). Degrade silently: token
                # regions remain the baseline either way.
                try:
                    extra = clang_hot_extents(cindex, sf, ["-std=c++20"])
                except Exception:
                    extra = ()
            findings += rule_hotpath(sf, extra)
        if "nondeterminism" in enabled:
            findings += rule_nondeterminism(sf, (names, fns))
        if "partition-safety" in enabled:
            findings += rule_partition(sf)

    # Apply suppressions and tally them per rule.
    by_path = {sf.path: sf for sf in sources}
    sf_by_rel = {sf.rel: sf for sf in sources}
    suppressed_counts = {r: 0 for r in RULES}
    open_counts = {r: 0 for r in RULES}
    for f in findings:
        sf = sf_by_rel[f.path]
        if f.rule in sf.file_suppress or \
                f.rule in sf.line_suppress.get(f.line, ()):
            f.suppressed = True
            suppressed_counts[f.rule] += 1
        else:
            open_counts[f.rule] += 1

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    unsuppressed = [f for f in findings if not f.suppressed]

    if args.json:
        print(json.dumps({
            "mode": "clang-assist" if cindex else "token",
            "files": len(sources),
            "findings": [vars(f) for f in findings],
            "unsuppressed": {r: open_counts[r] for r in RULES},
            "suppressed": {r: suppressed_counts[r] for r in RULES},
        }, indent=2))
    else:
        for f in unsuppressed:
            print(f"{f.path}:{f.line}:{f.col}: {f.rule}: {f.message}")
        mode = "clang-assist" if cindex else "token"
        print(f"ndp-lint[{mode}]: {len(unsuppressed)} unsuppressed finding"
              f"{'s' if len(unsuppressed) != 1 else ''} across "
              f"{len(sources)} files")
        supp_total = sum(suppressed_counts.values())
        tally = " ".join(f"{r}={suppressed_counts[r]}" for r in RULES
                         if suppressed_counts[r])
        print(f"ndp-lint: {supp_total} audited suppression"
              f"{'s' if supp_total != 1 else ''}"
              + (f" ({tally})" if tally else ""))
    return 1 if unsuppressed else 0


if __name__ == "__main__":
    sys.exit(main())
