#!/usr/bin/env python3
"""Fixture tests for tools/dfsim_lint.py, run as a CTest.

Three assertions, in order of what they protect:

1. The *bad* fixture tree fires exactly the expected (file, line, rule)
   triples — no more (false positives would poison the real gate), no fewer
   (a regressed rule would silently stop protecting the invariant).
2. The *good* fixture tree — compliant idioms, comments/strings naming banned
   tokens, and real banned constructs under inline allows — is clean.
3. The real repository tree is clean, so CI failures always mean new code,
   never stale fixtures.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
LINT = REPO / "tools" / "dfsim_lint.py"

FINDING_RE = re.compile(r"^error: (?P<file>[^:]+):(?P<line>\d+): (?P<rule>[\w\-]+): ")

# Every finding the bad tree must produce, and nothing else.
EXPECTED_BAD = {
    ("src/sim/churn.hpp", 13, "alloc-churn"),   # std::function
    ("src/sim/churn.hpp", 14, "alloc-churn"),   # std::unordered_map
    ("src/sim/churn.hpp", 15, "alloc-churn"),   # std::deque
    ("src/sim/churn.hpp", 16, "alloc-churn"),   # std::shared_ptr
    ("src/core/entropy.cpp", 8, "det-rand"),    # std::random_device
    ("src/core/entropy.cpp", 9, "det-clock"),   # system_clock::now
    ("src/core/entropy.cpp", 11, "det-rand"),   # std::rand
    ("src/core/entropy.cpp", 16, "det-env"),    # std::getenv
    ("src/core/entropy.cpp", 17, "det-env"),    # secure_getenv
    ("src/mpi/frame_cache.cpp", 7, "det-tls"),  # namespace-scope thread_local
    ("src/mpi/frame_cache.cpp", 10, "det-tls"),  # function-local static thread_local
    ("src/core/pointer_key.hpp", 12, "det-pointer-key"),  # map<Node*, ...>
    ("src/core/pointer_key.hpp", 13, "det-pointer-key"),  # unordered_set<const Node*>
    ("src/core/pointer_key.hpp", 14, "det-pointer-key"),  # std::hash<Node*>
    ("src/core/unordered_iter.cpp", 10, "det-unordered-iter"),
    ("src/routing/policy.hpp", 21, "routing-state"),      # LeakyPolicy::drift_
}


def run_lint(root: Path) -> tuple[int, set[tuple[str, int, str]]]:
    proc = subprocess.run(
        [sys.executable, str(LINT), "--root", str(root)],
        capture_output=True,
        text=True,
        check=False,
    )
    findings = set()
    for line in proc.stderr.splitlines():
        m = FINDING_RE.match(line)
        if m:
            findings.add((m.group("file"), int(m.group("line")), m.group("rule")))
    return proc.returncode, findings


def main() -> int:
    failures = []

    rc, found = run_lint(HERE / "fixtures" / "bad")
    if rc != 1:
        failures.append(f"bad tree: expected exit 1, got {rc}")
    for missing in sorted(EXPECTED_BAD - found):
        failures.append(f"bad tree: rule did not fire: {missing}")
    for extra in sorted(found - EXPECTED_BAD):
        failures.append(f"bad tree: unexpected finding (false positive): {extra}")

    rc, found = run_lint(HERE / "fixtures" / "good")
    if rc != 0:
        failures.append(f"good tree: expected exit 0, got {rc}")
    for extra in sorted(found):
        failures.append(f"good tree: unexpected finding: {extra}")

    rc, found = run_lint(REPO)
    if rc != 0:
        failures.append(f"real tree: dfsim-lint must stay clean, got exit {rc}")
    for extra in sorted(found):
        failures.append(f"real tree: {extra}")

    if failures:
        print("\n".join(failures), file=sys.stderr)
        print(f"FAIL: {len(failures)} assertion(s)", file=sys.stderr)
        return 1
    print(f"PASS: bad tree fires all {len(EXPECTED_BAD)} expected findings; "
          "good tree and real tree are clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
