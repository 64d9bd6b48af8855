#!/usr/bin/env python3
"""nvlint — project-invariant linter for the N-variant codebase.

Compile-time tools (clang -Wthread-safety, clang-tidy) catch generic bug
classes; nvlint enforces the invariants that are specific to THIS project and
invisible to a generic checker. Rules (glossary with rationale in
docs/STATIC_ANALYSIS.md):

  NV-RAW-CLOCK     No std::chrono::*_clock::now() / sleep_for / sleep_until
                   in src/ outside the blessed ClockFn implementations.
                   Determinism rests on injected clocks; a raw clock read is
                   a hidden source of run-to-run divergence. Enforced on
                   src/ only — tests and benches measure real time by design.
  NV-RAW-RANDOM    No rand()/srand()/std::random_device in src/ outside the
                   SessionFactory seed plumbing. All randomness must flow
                   from the seeded util::Rng so runs are reproducible.
  NV-MEMORY-ORDER  Every atomic load/store/RMW spells std::memory_order
                   explicitly (including ++/--/+= on atomics, which are
                   hidden seq_cst RMWs). Defaulted seq_cst hides the cost and
                   the intent; the codebase's convention is relaxed counters
                   with mutex-serialized writers, so every site must say so.
  NV-MUTEX-GUARD   Every std::mutex / util::Mutex member must be consumed by
                   at least one NV_GUARDED_BY / NV_PT_GUARDED_BY /
                   NV_REQUIRES / NV_ACQUIRE / NV_EXCLUDES annotation naming
                   it. A mutex no annotation mentions protects nothing the
                   analysis can check — either annotate what it guards or
                   allowlist it with a reason (e.g. ordering-only mutexes).

Analysis engine: libclang when importable (AST-accurate call resolution for
the clock/random rules, driven by the compilation database), with a
token-level fallback that works on a bare python3 — comments and string
literals are stripped before matching, call argument spans are extracted with
balanced-paren scanning, so the fallback is far stricter than a grep. The
remaining rules are inherently lexical and always run token-level.

Allowlist: tools/nvlint_allowlist.txt. Each non-comment line is
    RULE-ID <path> [line-substring]
A finding is suppressed when its rule and repo-relative path match and, if a
substring is given, the substring occurs in the flagged line. Entries without
a substring suppress the whole file for that rule. Keep entries commented
with WHY. Unused entries are reported as warnings so the list stays tight.

Usage:
    tools/nvlint.py [--root DIR] [--compdb build/compile_commands.json]
                    [--allowlist tools/nvlint_allowlist.txt] [paths...]
Exit 0 when clean, 1 with one finding per line otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
from dataclasses import dataclass

RULE_IDS = (
    "NV-RAW-CLOCK",
    "NV-RAW-RANDOM",
    "NV-MEMORY-ORDER",
    "NV-MUTEX-GUARD",
)

SOURCE_SUFFIXES = {".h", ".hpp", ".cpp", ".cc"}
DEFAULT_ROOTS = ("src", "tests", "bench", "examples")
# NV-RAW-CLOCK / NV-RAW-RANDOM only police production code: tests, benches
# and demos measure wall time and shuffle inputs by design.
DETERMINISM_DIRS = ("src",)


@dataclass
class Finding:
    rule: str
    path: pathlib.Path  # repo-relative
    line: int  # 1-based
    message: str
    line_text: str


# --------------------------------------------------------------------------
# Lexing helpers
# --------------------------------------------------------------------------

def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving offsets.

    Every replaced character becomes a space (newlines survive), so byte
    offsets and line numbers in the stripped text match the original.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                if i + 1 < n:
                    out[i + 1] = " "
                i += 2
        elif c == '"' or c == "'":
            quote = c
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def line_text(raw_lines: list[str], line: int) -> str:
    if 1 <= line <= len(raw_lines):
        return raw_lines[line - 1].strip()
    return ""


def call_span(text: str, open_paren: int) -> int:
    """Return the offset one past the ')' matching text[open_paren] == '('."""
    depth = 0
    for i in range(open_paren, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


# --------------------------------------------------------------------------
# NV-RAW-CLOCK / NV-RAW-RANDOM (token-level)
# --------------------------------------------------------------------------

CLOCK_RE = re.compile(
    r"(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\("
    r"|std\s*::\s*this_thread\s*::\s*sleep_(?:for|until)\s*\("
)
RANDOM_RE = re.compile(r"\bstd\s*::\s*random_device\b|(?<![\w:])s?rand\s*\(")


def check_pattern_rule(rule: str, pattern: re.Pattern, message: str,
                       path: pathlib.Path, stripped: str,
                       raw_lines: list[str]) -> list[Finding]:
    findings = []
    for m in pattern.finditer(stripped):
        line = line_of(stripped, m.start())
        findings.append(Finding(rule, path, line, message, line_text(raw_lines, line)))
    return findings


# --------------------------------------------------------------------------
# NV-MEMORY-ORDER
# --------------------------------------------------------------------------

# Atomic member ops whose receiver we do not need to type-resolve: these
# method names are atomic-specific in this codebase.
ATOMIC_CALL_RE = re.compile(
    r"\.\s*(load|store|fetch_add|fetch_sub|fetch_or|fetch_and|fetch_xor"
    r"|compare_exchange_weak|compare_exchange_strong)\s*\("
)
# exchange() also names SyscallRendezvous::exchange(); only flag it when the
# receiver is a known atomic variable from this file or its paired header.
EXCHANGE_CALL_RE = re.compile(r"(\w+)\s*\.\s*exchange\s*\(")
ATOMIC_DECL_RE = re.compile(r"\bstd\s*::\s*atomic(?:_bool|_int|_uint)?\s*(?:<[^;{}()]*?>)?\s+(\w+)")


def atomic_names_in(stripped: str) -> set:
    return {m.group(1) for m in ATOMIC_DECL_RE.finditer(stripped)}


def check_memory_order(path: pathlib.Path, stripped: str, raw_lines: list[str],
                       paired_stripped: str) -> list[Finding]:
    findings = []
    names = atomic_names_in(stripped) | atomic_names_in(paired_stripped)

    def flag_call(match_start: int, open_paren: int, what: str):
        args = stripped[open_paren:call_span(stripped, open_paren)]
        if "memory_order" not in args:
            line = line_of(stripped, match_start)
            findings.append(Finding(
                "NV-MEMORY-ORDER", path, line,
                f"atomic {what} without an explicit std::memory_order",
                line_text(raw_lines, line)))

    for m in ATOMIC_CALL_RE.finditer(stripped):
        flag_call(m.start(), m.end() - 1, f"{m.group(1)}()")
    for m in EXCHANGE_CALL_RE.finditer(stripped):
        if m.group(1) in names:
            flag_call(m.start(), m.end() - 1, "exchange()")

    # ++x / x++ / --x / x-- / x op= on declared atomics: hidden seq_cst RMWs.
    for name in names:
        implicit = re.compile(
            r"(?:\+\+|--)\s*" + re.escape(name) + r"\b"
            r"|\b" + re.escape(name) + r"\s*(?:\+\+|--|[-+|&^]=)"
        )
        for m in implicit.finditer(stripped):
            line = line_of(stripped, m.start())
            findings.append(Finding(
                "NV-MEMORY-ORDER", path, line,
                f"implicit seq_cst read-modify-write on atomic '{name}' "
                "(use fetch_add/fetch_sub with an explicit order)",
                line_text(raw_lines, line)))
    return findings


# --------------------------------------------------------------------------
# NV-MUTEX-GUARD
# --------------------------------------------------------------------------

MUTEX_DECL_RE = re.compile(
    r"(?:mutable\s+)?(?:std\s*::\s*mutex|(?:nv\s*::\s*)?util\s*::\s*Mutex|\bMutex)\s+(\w+)\s*;"
)
CONSUMER_MACROS = ("NV_GUARDED_BY", "NV_PT_GUARDED_BY", "NV_REQUIRES",
                   "NV_ACQUIRE", "NV_RELEASE", "NV_EXCLUDES", "NV_TRY_ACQUIRE")


def check_mutex_guard(path: pathlib.Path, stripped: str,
                      raw_lines: list[str], paired_stripped: str) -> list[Finding]:
    findings = []
    both = stripped + "\n" + paired_stripped
    for m in MUTEX_DECL_RE.finditer(stripped):
        name = m.group(1)
        consumed = any(
            re.search(re.escape(macro) + r"\s*\(\s*[\w.>*-]*" + re.escape(name) + r"\b", both)
            for macro in CONSUMER_MACROS)
        if not consumed:
            line = line_of(stripped, m.start())
            findings.append(Finding(
                "NV-MUTEX-GUARD", path, line,
                f"mutex member '{name}' has no NV_GUARDED_BY/NV_REQUIRES consumer "
                "— annotate what it guards or allowlist it with a reason",
                line_text(raw_lines, line)))
    return findings


# --------------------------------------------------------------------------
# Optional libclang refinement (clock/random rules only)
# --------------------------------------------------------------------------

def libclang_clock_random(root: pathlib.Path, compdb_path: pathlib.Path,
                          files: list[pathlib.Path]):
    """AST-accurate NV-RAW-CLOCK / NV-RAW-RANDOM findings, or None on any
    failure (missing libclang, unparsable TU) — caller falls back to tokens."""
    try:
        from clang import cindex  # type: ignore
    except Exception:
        return None
    try:
        compdb = cindex.CompilationDatabase.fromDirectory(str(compdb_path.parent))
        index = cindex.Index.create()
        wanted = {str((root / f).resolve()) for f in files}
        findings: list[Finding] = []
        seen = set()
        for cmd in compdb.getAllCompileCommands():
            src = str(pathlib.Path(cmd.directory, cmd.filename).resolve())
            if src in seen:
                continue
            seen.add(src)
            args = [a for a in list(cmd.arguments)[1:] if a != cmd.filename]
            tu = index.parse(src, args=args)
            for cursor in tu.cursor.walk_preorder():
                loc = cursor.location
                if loc.file is None or str(pathlib.Path(str(loc.file)).resolve()) not in wanted:
                    continue
                if cursor.kind != cindex.CursorKind.CALL_EXPR:
                    continue
                ref = cursor.referenced
                if ref is None:
                    continue
                qual = ref.spelling
                parent = ref.semantic_parent.spelling if ref.semantic_parent else ""
                rel = pathlib.Path(str(loc.file)).resolve().relative_to(root.resolve())
                if qual == "now" and parent.endswith("_clock"):
                    findings.append(Finding("NV-RAW-CLOCK", rel, loc.line,
                                            f"raw {parent}::now() call", ""))
                elif qual in ("sleep_for", "sleep_until"):
                    findings.append(Finding("NV-RAW-CLOCK", rel, loc.line,
                                            f"raw std::this_thread::{qual}() call", ""))
                elif qual in ("rand", "srand") or parent == "random_device":
                    findings.append(Finding("NV-RAW-RANDOM", rel, loc.line,
                                            f"unseeded randomness via {qual}()", ""))
        return findings
    except Exception:
        return None


# --------------------------------------------------------------------------
# Allowlist
# --------------------------------------------------------------------------

def load_allowlist(path: pathlib.Path):
    entries = []  # (rule, path-str, substring-or-None, lineno)
    if not path.exists():
        return entries
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 2)
        if len(parts) < 2 or parts[0] not in RULE_IDS:
            print(f"{path}:{lineno}: malformed allowlist entry: {raw.strip()}",
                  file=sys.stderr)
            sys.exit(2)
        entries.append([parts[0], parts[1],
                        parts[2].strip() if len(parts) > 2 else None, lineno, False])
    return entries


def allowlisted(finding: Finding, entries) -> bool:
    for entry in entries:
        rule, epath, substring, _, _ = entry
        if rule != finding.rule or epath != finding.path.as_posix():
            continue
        if substring is None or substring in finding.line_text:
            entry[4] = True
            return True
    return False


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def collect_files(root: pathlib.Path, paths: list) -> list:
    files = []
    candidates = [root / p for p in paths] if paths else [root / d for d in DEFAULT_ROOTS]
    for candidate in candidates:
        if candidate.is_file():
            files.append(candidate)
        elif candidate.is_dir():
            # lint_fixtures are deliberate violations for the fixture runner;
            # they only lint when named explicitly.
            files.extend(p for p in sorted(candidate.rglob("*"))
                         if p.suffix in SOURCE_SUFFIXES
                         and "lint_fixtures" not in p.parts)
    return [f.relative_to(root) for f in files]


def paired_header_text(root: pathlib.Path, rel: pathlib.Path) -> str:
    if rel.suffix not in (".cpp", ".cc"):
        return ""
    for suffix in (".h", ".hpp"):
        pair = root / rel.with_suffix(suffix)
        if pair.exists():
            return strip_comments_and_strings(pair.read_text(encoding="utf-8"))
    return ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="files/dirs relative to --root (default: "
                             + " ".join(DEFAULT_ROOTS) + ")")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--compdb", default=None,
                        help="compile_commands.json for the libclang path "
                             "(default: <root>/build/compile_commands.json)")
    parser.add_argument("--allowlist", default=None,
                        help="allowlist file (default: tools/nvlint_allowlist.txt; "
                             "'none' disables)")
    parser.add_argument("--no-libclang", action="store_true",
                        help="force the token-level engine even if libclang imports")
    args = parser.parse_args()

    root = pathlib.Path(args.root) if args.root else pathlib.Path(__file__).resolve().parent.parent
    compdb = pathlib.Path(args.compdb) if args.compdb else root / "build" / "compile_commands.json"
    if args.allowlist == "none":
        allowlist_path = None
    else:
        allowlist_path = pathlib.Path(args.allowlist) if args.allowlist \
            else root / "tools" / "nvlint_allowlist.txt"
    entries = load_allowlist(allowlist_path) if allowlist_path else []

    files = collect_files(root, args.paths)
    determinism_files = [f for f in files
                        if any(f.as_posix().startswith(d + "/") for d in DETERMINISM_DIRS)
                        or (len(f.parts) == 1 and not args.paths)]
    if args.paths:
        # Explicit paths (fixture mode): determinism rules apply to everything
        # the caller named — the caller opted in.
        determinism_files = files

    findings: list[Finding] = []

    clock_random = None
    if not args.no_libclang and compdb.exists():
        clock_random = libclang_clock_random(root, compdb, determinism_files)
    if clock_random is not None:
        findings.extend(clock_random)

    for rel in files:
        raw = (root / rel).read_text(encoding="utf-8", errors="replace")
        raw_lines = raw.splitlines()
        stripped = strip_comments_and_strings(raw)
        paired = paired_header_text(root, rel)
        if clock_random is None and rel in determinism_files:
            findings.extend(check_pattern_rule(
                "NV-RAW-CLOCK", CLOCK_RE,
                "raw clock read / sleep — route time through the injected ClockFn",
                rel, stripped, raw_lines))
            findings.extend(check_pattern_rule(
                "NV-RAW-RANDOM", RANDOM_RE,
                "unseeded randomness — draw from the seeded util::Rng",
                rel, stripped, raw_lines))
        findings.extend(check_memory_order(rel, stripped, raw_lines, paired))
        findings.extend(check_mutex_guard(rel, stripped, raw_lines, paired))

    kept = [f for f in findings if not allowlisted(f, entries)]
    for f in sorted(kept, key=lambda f: (f.path.as_posix(), f.line, f.rule)):
        snippet = f" [{f.line_text}]" if f.line_text else ""
        print(f"{f.path.as_posix()}:{f.line}: {f.rule}: {f.message}{snippet}")

    for rule, epath, substring, lineno, used in entries:
        if not used and not args.paths:
            print(f"warning: unused allowlist entry at "
                  f"{allowlist_path}:{lineno} ({rule} {epath})", file=sys.stderr)

    if kept:
        print(f"nvlint: {len(kept)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
