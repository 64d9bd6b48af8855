#!/usr/bin/env python3
"""Self-test for tools/nvlint.py, wired into ctest as `nvlint_fixtures`.

Asserts that every one-violation-per-file fixture in this directory produces
exactly the finding it stages, that the clean fixture and the real tree
produce nothing, and that the allowlist machinery suppresses what it claims
to. A linter nobody tests rots into either noise or silence; this keeps both
failure modes loud.

Usage: run_lint_fixtures.py [repo_root]   (default: two levels up)
"""
import pathlib
import subprocess
import sys

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else FIXTURE_DIR.parent.parent
NVLINT = ROOT / "tools" / "nvlint.py"

failures = []


def run(*args):
    return subprocess.run([sys.executable, str(NVLINT), *args],
                          capture_output=True, text=True)


def expect(label, proc, exit_code, must_contain=(), must_not_contain=()):
    out = proc.stdout + proc.stderr
    if proc.returncode != exit_code:
        failures.append(f"{label}: expected exit {exit_code}, got {proc.returncode}\n{out}")
        return
    for needle in must_contain:
        if needle not in out:
            failures.append(f"{label}: output lacks {needle!r}\n{out}")
    for needle in must_not_contain:
        if needle in out:
            failures.append(f"{label}: output unexpectedly contains {needle!r}\n{out}")


def fixture(name):
    return (pathlib.Path("tests") / "lint_fixtures" / name).as_posix()


# Each staged violation is detected, attributed to the right rule and line.
expect("raw_clock",
       run("--allowlist", "none", fixture("raw_clock.cpp")),
       1, must_contain=["raw_clock.cpp:6: NV-RAW-CLOCK"])
expect("raw_random",
       run("--allowlist", "none", fixture("raw_random.cpp")),
       1, must_contain=["raw_random.cpp:6: NV-RAW-RANDOM"])
expect("implicit_memory_order",
       run("--allowlist", "none", fixture("implicit_memory_order.cpp")),
       1, must_contain=["implicit_memory_order.cpp:9: NV-MEMORY-ORDER",
                        "implicit_memory_order.cpp:10: NV-MEMORY-ORDER"])
expect("unguarded_mutex",
       run("--allowlist", "none", fixture("unguarded_mutex.h")),
       1, must_contain=["unguarded_mutex.h:17: NV-MUTEX-GUARD"])

# One fixture must not trip the other rules (one-violation-per-file contract).
expect("raw_clock is single-rule",
       run("--allowlist", "none", fixture("raw_clock.cpp")),
       1, must_not_contain=["NV-RAW-RANDOM", "NV-MEMORY-ORDER", "NV-MUTEX-GUARD"])

# The clean fixture yields nothing even with no allowlist.
expect("clean",
       run("--allowlist", "none", fixture("clean.cpp")),
       0, must_not_contain=["NV-"])

# Allowlisting by substring suppresses the finding (and only then).
allow = FIXTURE_DIR / "allow_raw_clock.tmp"
allow.write_text("NV-RAW-CLOCK tests/lint_fixtures/raw_clock.cpp "
                 "steady_clock::now\n")
try:
    expect("allowlisted raw_clock",
           run("--allowlist", str(allow), fixture("raw_clock.cpp")),
           0, must_not_contain=["NV-RAW-CLOCK"])
finally:
    allow.unlink()

# The real tree is clean under the checked-in allowlist.
expect("real tree", run(), 0)

if failures:
    print("\n\n".join(failures))
    print(f"run_lint_fixtures: {len(failures)} failure(s)")
    sys.exit(1)
print("run_lint_fixtures: all fixture checks passed")
