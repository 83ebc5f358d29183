"""Check that every test named in a floor list is collected and passes.

Usage: python scripts/check_floor.py [floor_file] [pytest options ...]

The floor file names one test per line in dotted form,
``tests.test_x.TestY::test_z`` (or ``tests.test_x::test_z``), and may
cut long ids at 100 characters (trailing blanks dropped). Each line maps
to the pytest node id ``tests/test_x.py::TestY::test_z``; a line that is
not collected exactly matches every collected id it prefixes.
The script lists each line that matches nothing, then runs the matched
ids in one pytest session. The exit code is non-zero when a line is
missing, a matched test fails, or the floor file does not exist. The
default floor file is ``TESTS_AT_FLOOR.txt`` in the parent of the
repository root.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def node_id(line: str) -> str:
    """``tests.test_x.TestY::test_z`` → ``tests/test_x.py::TestY::test_z``."""
    module, _, name = line.partition("::")
    parts = module.split(".")
    return "::".join(["/".join(parts[:2]) + ".py", *parts[2:], name])


def collected() -> list[str]:
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "tests/"],
        cwd=ROOT, capture_output=True, text=True,
    ).stdout
    return [ln.strip() for ln in out.splitlines() if "::" in ln]


def main(argv: list[str]) -> int:
    default = os.path.join(os.path.dirname(ROOT), "TESTS_AT_FLOOR.txt")
    floor = argv.pop(0) if argv and not argv[0].startswith("-") else default
    if not os.path.exists(floor):
        print(f"NO FLOOR LIST at {floor}: nothing checked")
        return 2
    with open(floor) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    ids = collected()
    have = set(ids)
    run, missing = [], []
    for line in lines:
        want = node_id(line)
        hits = [want] if want in have else [i for i in ids if i.startswith(want)]
        run += hits
        if not hits:
            missing.append(line)
    for line in missing:
        print(f"MISSING {line}")
    print(f"{len(lines) - len(missing)} of {len(lines)} floor ids collected ({len(set(run))} tests)")
    if not run:
        return 1
    rc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *argv, *dict.fromkeys(run)],
        cwd=ROOT,
    ).returncode
    return 1 if missing or rc else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
