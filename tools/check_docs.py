#!/usr/bin/env python3
"""Documentation consistency checks, run by ctest as `check_docs`.

1. Markdown link check: every relative link in README.md and docs/*.md must
   point at a file (or directory) that exists in the repo. External links
   (http/https/mailto) are not fetched.
2. Telemetry coverage, both ways: every field of fleet::FleetSnapshot
   declared in src/fleet/telemetry.h — and of cluster::ClusterSnapshot
   declared in src/cluster/telemetry.h — must appear (as `backtick-quoted`
   code) in docs/TELEMETRY.md, and every glossary table row there
   (| `name` | ...) must name a field one of those structs declares. A
   counter without documented semantics fails, and so does a row that
   outlived its field.
3. Trace coverage, both ways: every obs::TraceEventKind enumerator declared
   in src/obs/trace.h must have a `backtick-quoted` entry in docs/TRACING.md
   under its stable lower_snake name (kSessionDraw -> `session_draw`), and
   every table row under TRACING.md's "Event glossary" heading must name a
   declared kind. An undocumented kind fails, and so does a row whose kind
   is gone.
4. Lint-rule coverage: every rule id tools/nvlint.py enforces (its RULE_IDS
   tuple) must have a `backtick-quoted` glossary entry in
   docs/STATIC_ANALYSIS.md — a lint failure whose rule has no documented
   rationale is not actionable.

Usage: check_docs.py [repo_root]     (default: the tools/ parent)
Exit code 0 on success, 1 with messages on any violation.
"""
import pathlib
import re
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Field declarations inside the FleetSnapshot struct, e.g.
#   std::uint64_t jobs_submitted = 0;   double latency_mean_us = 0.0;
#   std::array<std::uint64_t, obs::kHistogramBounds.size() + 1> latency_buckets{};
FIELD_RE = re.compile(
    r"^\s*(?:std::uint64_t|std::size_t|double|std::array<[^>]*>)\s+(\w+)\s*[={]", re.MULTILINE)
# A glossary table row, keyed by its first cell: | `jobs_submitted` | jobs | ...
ROW_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|")


def check_links(root: pathlib.Path, errors: list) -> int:
    checked = 0
    for md in [root / "README.md", *sorted((root / "docs").glob("*.md"))]:
        if not md.exists():
            errors.append(f"{md}: expected markdown file is missing")
            continue
        in_code_block = False
        for lineno, line in enumerate(md.read_text(encoding="utf-8").splitlines(), 1):
            if line.lstrip().startswith("```"):
                in_code_block = not in_code_block
            if in_code_block:
                continue
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                path = target.split("#", 1)[0]
                if not path:
                    continue
                checked += 1
                if not (md.parent / path).exists():
                    errors.append(f"{md.relative_to(root)}:{lineno}: broken link -> {target}")
    return checked


SNAPSHOT_STRUCTS = [
    (("src", "fleet", "telemetry.h"), "FleetSnapshot"),
    (("src", "cluster", "telemetry.h"), "ClusterSnapshot"),
]


def glossary_rows(numbered_lines) -> list:
    """(line number, first-cell name) of every | `name` | table row among
    (line number, line) pairs."""
    rows = []
    for lineno, line in numbered_lines:
        match = ROW_RE.match(line)
        if match:
            rows.append((lineno, match.group(1)))
    return rows


def check_telemetry_coverage(root: pathlib.Path, errors: list) -> int:
    glossary = root / "docs" / "TELEMETRY.md"
    documented = glossary.read_text(encoding="utf-8") if glossary.exists() else ""
    declared = set()
    total = 0
    for parts, struct in SNAPSHOT_STRUCTS:
        header = root.joinpath(*parts)
        text = header.read_text(encoding="utf-8")
        match = re.search(rf"struct {struct} \{{(.*?)\n\}};", text, re.DOTALL)
        if not match:
            errors.append(f"{header}: cannot locate struct {struct}")
            continue
        fields = FIELD_RE.findall(match.group(1))
        if not fields:
            errors.append(f"{header}: found no {struct} fields to check")
        for field in fields:
            if f"`{field}`" not in documented:
                errors.append(
                    f"{struct} field '{field}' has no entry in docs/TELEMETRY.md")
        declared.update(fields)
        total += len(fields)
    for lineno, name in glossary_rows(enumerate(documented.splitlines(), 1)):
        if name not in declared:
            errors.append(f"docs/TELEMETRY.md:{lineno}: row `{name}` names no "
                          "FleetSnapshot or ClusterSnapshot field")
    return total


# Enumerators inside the TraceEventKind enum, e.g. "kSessionDraw," — the
# trailing comment is ignored.
ENUMERATOR_RE = re.compile(r"^\s*k(\w+)\s*,", re.MULTILINE)


def snake_case(camel: str) -> str:
    """kSessionDraw's payload 'SessionDraw' -> 'session_draw'."""
    return re.sub(r"(?<!^)([A-Z])", r"_\1", camel).lower()


def check_trace_coverage(root: pathlib.Path, errors: list) -> int:
    header = root / "src" / "obs" / "trace.h"
    glossary = root / "docs" / "TRACING.md"
    documented = glossary.read_text(encoding="utf-8") if glossary.exists() else ""
    text = header.read_text(encoding="utf-8")
    match = re.search(r"enum class TraceEventKind[^{]*\{(.*?)\n\};", text, re.DOTALL)
    if not match:
        errors.append(f"{header}: cannot locate enum TraceEventKind")
        return 0
    kinds = ENUMERATOR_RE.findall(match.group(1))
    if not kinds:
        errors.append(f"{header}: found no TraceEventKind enumerators to check")
    for kind in kinds:
        name = snake_case(kind)
        if f"`{name}`" not in documented:
            errors.append(
                f"TraceEventKind::k{kind} ('{name}') has no entry in docs/TRACING.md")
    # The event glossary runs from its heading to the next level-2 heading.
    section = []
    in_glossary = False
    for lineno, line in enumerate(documented.splitlines(), 1):
        if line.startswith("## "):
            in_glossary = line.strip() == "## Event glossary"
        elif in_glossary:
            section.append((lineno, line))
    if not section:
        errors.append(f"{glossary}: cannot locate the \"Event glossary\" section")
    declared = {snake_case(kind) for kind in kinds}
    for lineno, name in glossary_rows(section):
        if name not in declared:
            errors.append(f"docs/TRACING.md:{lineno}: event glossary row `{name}` "
                          "names no TraceEventKind")
    return len(kinds)


NVLINT_RULE_RE = re.compile(r'RULE_IDS\s*=\s*\(([^)]*)\)', re.DOTALL)


def check_nvlint_rule_coverage(root: pathlib.Path, errors: list) -> int:
    linter = root / "tools" / "nvlint.py"
    glossary = root / "docs" / "STATIC_ANALYSIS.md"
    documented = glossary.read_text(encoding="utf-8") if glossary.exists() else ""
    match = NVLINT_RULE_RE.search(linter.read_text(encoding="utf-8"))
    if not match:
        errors.append(f"{linter}: cannot locate the RULE_IDS tuple")
        return 0
    rules = re.findall(r'"(NV-[A-Z-]+)"', match.group(1))
    if not rules:
        errors.append(f"{linter}: found no rule ids to check")
    for rule in rules:
        if f"`{rule}`" not in documented:
            errors.append(
                f"nvlint rule '{rule}' has no glossary entry in docs/STATIC_ANALYSIS.md")
    return len(rules)


def main() -> None:
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else \
        pathlib.Path(__file__).resolve().parent.parent
    errors: list = []
    links = check_links(root, errors)
    fields = check_telemetry_coverage(root, errors)
    kinds = check_trace_coverage(root, errors)
    rules = check_nvlint_rule_coverage(root, errors)
    if errors:
        for error in errors:
            print(f"check_docs: FAIL: {error}", file=sys.stderr)
        sys.exit(1)
    print(f"check_docs: OK ({links} relative links, "
          f"{fields} telemetry fields documented, "
          f"{kinds} trace event kinds documented, "
          f"{rules} nvlint rules documented)")


if __name__ == "__main__":
    main()
