#!/usr/bin/env python3
"""dfsim-lint: repo-invariant linter for the dfsim codebase.

The repo's correctness contract has two machine-checkable halves that no
general-purpose tool enforces:

 * **Zero steady-state allocation** (PR 2-6, docs/MEMORY.md): the hot
   directories ``src/{sim,net,mpi,routing}`` must not reintroduce
   allocation-churn types — ``std::function`` (heap per capture),
   ``std::unordered_map``/``set`` (node per insert), ``std::deque`` (slab
   oscillation), ``std::shared_ptr`` (control block) — outside files that
   only touch them in the setup phase (per-rule allowlists below).

 * **Byte-identical determinism** (ROADMAP north star, docs/ARCHITECTURE.md):
   nothing under ``src/`` may consult ambient entropy (``std::rand``,
   ``random_device``), read environment variables outside the worker-count
   default, read wall clocks outside the watchdog, keep ``thread_local``
   state outside the two worker bindings, key ordered or hashed containers
   by pointer value (addresses differ run to run), or iterate an unordered
   container in a way that can reach simulation output.

 * **Routing const/mutable split** (core/blueprint.hpp): a routing policy's
   data members are either immutable parameterisation (``const``, set from
   the cell's StudyConfig parameters such as ``ugal`` and ``qadp``) or
   per-cell state that must be explicitly registered in ROUTING_STATE below,
   so a new member cannot silently become neither-parameter-nor-reset state.

Usage:
    tools/dfsim_lint.py [--root DIR] [--list-rules]

Exit status 0 when clean, 1 with one ``file:line: rule-id: message`` line per
finding. Suppress a deliberate single-line exception with an inline marker on
the same line or the line above::

    // dfsim-lint: allow(det-clock) build-time metadata, never in output

Whole-file exceptions live in the per-rule allowlists below; every entry
carries its justification. See docs/STATIC_ANALYSIS.md for how this layer
relates to the Clang thread-safety annotations and the clang-tidy gate.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# Per-rule allowlists. Keys are repo-relative paths; values are the reason the
# exception is sound. Adding an entry is a reviewed decision: the reason must
# say why the invariant still holds (setup-phase only, watchdog, metadata...).
# --------------------------------------------------------------------------

ALLOW_ALLOC_CHURN: dict[str, str] = {}

ALLOW_DET_CLOCK = {
    "src/sim/engine.hpp": "the cooperative wall-clock watchdog is the one sanctioned "
    "steady_clock consumer; it aborts runs, it never feeds output bytes",
    "src/core/study.cpp": "arms the engine watchdog from StudyConfig::wall_limit_s",
}

ALLOW_DET_TLS = {
    "src/core/arena.cpp": "the worker's SimArena binding; ScopedArenaBinding restores the "
    "previous value on scope exit, and every reuse path restores fresh observable state",
    "src/core/blueprint.cpp": "the worker's BlueprintCache binding; the cache hands out "
    "immutable blueprints, so no cell can change what the next one reads",
}

ALLOW_DET_ENV = {
    "src/core/parallel.cpp": "reads DFSIM_JOBS, the default worker count; output is "
    "byte-identical for any worker count, so the variable can never change results",
}

# Routing policies: per-cell mutable state, rebuilt for every cell.
# Everything else must be const (immutable parameterisation from the cell's
# StudyConfig) or mutable (scratch).
ROUTING_STATE = {
    "QAdaptiveRouting": {
        "engine_": "event-loop handle for feedback events (per cell)",
        "rng_": "per-cell exploration stream, seeded from StudyConfig::seed",
        "tables_": "one flat per-cell array of router-port estimates, filled in closed form, "
        "that trains online",
        "feedback_signals_": "per-run counter surfaced by benches",
    },
    "AppAwareUgalRouting": {
        "window_end_": "classifier window cursor (per-cell, clock-driven)",
        "window_capacity_bytes_": "derived at first route() from live NetConfig",
        "window_bytes_": "per-app bytes of the current window",
        "ewma_bytes_": "smoothed per-app intensity (trains during the run)",
        "bias_": "per-app routing bias recomputed every window",
    },
    "FlowAwareRouting": {
        "flows_": "per-flow pinned-path table, rebuilt every cell",
        "refreshes_": "per-run counter surfaced by benches",
    },
}

HOT_DIRS = ("src/sim", "src/net", "src/mpi", "src/routing")
ALLOC_CHURN_TYPES = ("function", "unordered_map", "unordered_set", "deque", "shared_ptr")

SUPPRESS_RE = re.compile(r"dfsim-lint:\s*allow\(([\w\-, ]+)\)")

# --------------------------------------------------------------------------
# Source model: per-line code text with comments and string literals blanked,
# plus the raw text so suppression markers (which live in comments) survive.
# --------------------------------------------------------------------------


class SourceFile:
    def __init__(self, path: Path, rel: str) -> None:
        self.path = path
        self.rel = rel
        self.raw_lines = path.read_text(encoding="utf-8").splitlines()
        self.code_lines = _strip_comments_and_strings(self.raw_lines)

    def suppressed(self, line_no: int, rule: str) -> bool:
        """True when line `line_no` (1-based) carries or follows an inline
        ``dfsim-lint: allow(rule)`` marker."""
        for candidate in (line_no, line_no - 1):
            if 1 <= candidate <= len(self.raw_lines):
                m = SUPPRESS_RE.search(self.raw_lines[candidate - 1])
                if m and rule in [r.strip() for r in m.group(1).split(",")]:
                    return True
        return False


def _strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Blank out //, /* */ comments and "..."/'...' literals, preserving line
    structure so findings keep real line numbers."""
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        n = len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            two = line[i : i + 2]
            if two == "//":
                break
            if two == "/*":
                in_block = True
                i += 2
                continue
            ch = line[i]
            if ch in "\"'":
                j = i + 1
                while j < n:
                    if line[j] == "\\":
                        j += 2
                        continue
                    if line[j] == ch:
                        break
                    j += 1
                result.append(ch)  # keep the quote so regexes see a token edge
                i = j + 1
                continue
            result.append(ch)
            i += 1
        out.append("".join(result))
    return out


class Finding:
    def __init__(self, rel: str, line: int, rule: str, message: str) -> None:
        self.rel = rel
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.rel}:{self.line}: {self.rule}: {self.message}"


# --------------------------------------------------------------------------
# Rules. Each is a function (SourceFile) -> list[Finding]; registration at the
# bottom maps rule ids to implementations and the docs they enforce.
# --------------------------------------------------------------------------

ALLOC_RE = re.compile(r"\bstd::(" + "|".join(ALLOC_CHURN_TYPES) + r")\b")


def rule_alloc_churn(src: SourceFile) -> list[Finding]:
    """alloc-churn: allocation-churn std:: types in the hot directories."""
    if not src.rel.startswith(HOT_DIRS):
        return []
    if src.rel in ALLOW_ALLOC_CHURN:
        return []
    findings = []
    for no, code in enumerate(src.code_lines, 1):
        m = ALLOC_RE.search(code)
        if m and not src.suppressed(no, "alloc-churn"):
            findings.append(
                Finding(
                    src.rel,
                    no,
                    "alloc-churn",
                    f"std::{m.group(1)} in a hot directory breaks the "
                    "zero-steady-state-allocation invariant (docs/MEMORY.md); use the "
                    "arena-backed containers (FlatMap, RingQueue), a typed engine event "
                    "instead of a callback, or add a justified allowlist entry in "
                    "tools/dfsim_lint.py",
                )
            )
    return findings


RAND_RE = re.compile(r"\bstd::rand\b|\bsrand\s*\(|\brandom_device\b")


def rule_det_rand(src: SourceFile) -> list[Finding]:
    """det-rand: ambient entropy sources anywhere under src/."""
    findings = []
    for no, code in enumerate(src.code_lines, 1):
        if RAND_RE.search(code) and not src.suppressed(no, "det-rand"):
            findings.append(
                Finding(
                    src.rel,
                    no,
                    "det-rand",
                    "ambient entropy is banned: every random stream must come from "
                    "sim/rng.hpp seeded by StudyConfig::seed so reruns are "
                    "byte-identical",
                )
            )
    return findings


CLOCK_RE = re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\b")


def rule_det_clock(src: SourceFile) -> list[Finding]:
    """det-clock: wall-clock reads outside the watchdog allowlist."""
    if src.rel in ALLOW_DET_CLOCK:
        return []
    findings = []
    for no, code in enumerate(src.code_lines, 1):
        if CLOCK_RE.search(code) and not src.suppressed(no, "det-clock"):
            findings.append(
                Finding(
                    src.rel,
                    no,
                    "det-clock",
                    "wall clocks are reserved for the Engine watchdog; simulation "
                    "logic must use SimTime (sim/time.hpp). Timing *metadata* that "
                    "never reaches simulated output may carry an inline allow "
                    "with justification",
                )
            )
    return findings


ENV_RE = re.compile(r"\b(?:secure_)?getenv\s*\(")


def rule_det_env(src: SourceFile) -> list[Finding]:
    """det-env: environment-variable reads outside the allowlist."""
    if src.rel in ALLOW_DET_ENV:
        return []
    findings = []
    for no, code in enumerate(src.code_lines, 1):
        if ENV_RE.search(code) and not src.suppressed(no, "det-env"):
            findings.append(
                Finding(
                    src.rel,
                    no,
                    "det-env",
                    "the environment is an ambient input: a variable read here can "
                    "switch behaviour that no flag, config key or report shows. Take "
                    "the value through StudyConfig, ExperimentPlan or a CLI flag "
                    "instead, or add a justified allowlist entry in "
                    "tools/dfsim_lint.py",
                )
            )
    return findings


TLS_RE = re.compile(r"\bthread_local\b")


def rule_det_tls(src: SourceFile) -> list[Finding]:
    """det-tls: thread_local state under src/ outside the worker-binding allowlist."""
    if src.rel in ALLOW_DET_TLS:
        return []
    findings = []
    for no, code in enumerate(src.code_lines, 1):
        if TLS_RE.search(code) and not src.suppressed(no, "det-tls"):
            findings.append(
                Finding(
                    src.rel,
                    no,
                    "det-tls",
                    "hidden per-thread state outlives the cell that set it, so one "
                    "cell's state can reach the next cell on the same worker. Pass "
                    "the state explicitly through the Study, or add a justified "
                    "allowlist entry in tools/dfsim_lint.py",
                )
            )
    return findings


# A pointer type as the KEY of an ordered/hashed container, or std::hash over
# a pointer: iteration/compare order then depends on allocation addresses.
PTR_KEY_RE = re.compile(
    r"\bstd::(map|set|unordered_map|unordered_set|multimap|multiset)\s*<\s*([^<>,]*?\*[^<>,]*?)\s*[,>]"
)
PTR_HASH_RE = re.compile(r"\bstd::hash\s*<[^<>]*\*[^<>]*>")


def rule_det_pointer_key(src: SourceFile) -> list[Finding]:
    """det-pointer-key: pointer-keyed ordering or hashing."""
    findings = []
    for no, code in enumerate(src.code_lines, 1):
        if (PTR_KEY_RE.search(code) or PTR_HASH_RE.search(code)) and not src.suppressed(
            no, "det-pointer-key"
        ):
            findings.append(
                Finding(
                    src.rel,
                    no,
                    "det-pointer-key",
                    "container keyed (or hashed) by pointer value: addresses change "
                    "between runs, so any order derived from them is "
                    "non-deterministic. Key by a stable id instead",
                )
            )
    return findings


UNORDERED_DECL_RE = re.compile(r"\bstd::unordered_(?:map|set)\s*<[^;]*>\s+(\w+)\s*[;{]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(.*?:\s*(.+?)\)\s*(?:\{|$)")


def rule_det_unordered_iter(src: SourceFile) -> list[Finding]:
    """det-unordered-iter: range-for over an unordered container declared in
    the same file. Bucket order is implementation- and history-dependent, so
    anything accumulated across such a loop must be order-independent — which
    the linter cannot prove, so the loop needs an inline allow stating why."""
    unordered_names = set()
    for code in src.code_lines:
        for m in UNORDERED_DECL_RE.finditer(code):
            unordered_names.add(m.group(1))
    if not unordered_names:
        return []
    findings = []
    for no, code in enumerate(src.code_lines, 1):
        m = RANGE_FOR_RE.search(code)
        if not m:
            continue
        target = m.group(1).strip()
        leaf = target.split(".")[-1].split("->")[-1].strip("() ")
        if leaf in unordered_names and not src.suppressed(no, "det-unordered-iter"):
            findings.append(
                Finding(
                    src.rel,
                    no,
                    "det-unordered-iter",
                    f"iterating unordered container '{leaf}': bucket order is not "
                    "deterministic. Sort first, or add an inline allow stating why "
                    "the accumulation is order-independent",
                )
            )
    return findings


CLASS_RE = re.compile(r"\bclass\s+(\w+)[^;{]*?:\s*([^{]*?)\{")
MEMBER_RE = re.compile(
    r"^\s*(?!return\b|using\b|typedef\b|friend\b|explicit\b|if\b|for\b|while\b|throw\b)"
    r"(?P<quals>(?:(?:const|mutable|static|constexpr|inline)\s+)*)"
    r"(?P<type>[A-Za-z_][\w:]*(?:\s*<[^;=]*>)?(?:\s*[&*])*)\s+"
    r"(?P<name>\w+_)\s*(?:\{[^;]*\})?\s*;"
)


def rule_routing_state(src: SourceFile) -> list[Finding]:
    """routing-state: the const/mutable split of routing policy classes.

    In src/routing/*.hpp, every data member of a class deriving from
    RoutingAlgorithm must be `const` (immutable parameterisation — the
    StudyConfig parameters the policy is built from), `mutable`/`static`
    (scratch), or registered as per-cell state in ROUTING_STATE with a
    justification."""
    if not src.rel.startswith("src/routing/") or not src.rel.endswith(".hpp"):
        return []
    text = "\n".join(src.code_lines)
    findings = []
    for cm in CLASS_RE.finditer(text):
        name, bases = cm.group(1), cm.group(2)
        if "RoutingAlgorithm" not in bases:
            continue
        allow = ROUTING_STATE.get(name, {})
        # Class body: brace-match from the opening '{'.
        depth = 0
        start = cm.end() - 1
        end = start
        for i in range(start, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        body = text[start:end]
        body_start_line = text.count("\n", 0, start) + 1
        for offset, line in enumerate(body.splitlines()):
            mm = MEMBER_RE.match(line)
            if not mm:
                continue
            quals = mm.group("quals")
            member = mm.group("name")
            if "const" in quals or "mutable" in quals or "static" in quals:
                continue
            line_no = body_start_line + offset
            if member in allow:
                continue
            if src.suppressed(line_no, "routing-state"):
                continue
            findings.append(
                Finding(
                    src.rel,
                    line_no,
                    "routing-state",
                    f"{name}::{member} is neither const (StudyConfig "
                    "parameterisation) nor mutable scratch nor registered per-cell "
                    "state — make it a const member set from the policy's params "
                    "struct in StudyConfig, or add it to ROUTING_STATE in "
                    "tools/dfsim_lint.py with a justification",
                )
            )
    return findings


RULES = {
    "alloc-churn": rule_alloc_churn,
    "det-rand": rule_det_rand,
    "det-clock": rule_det_clock,
    "det-env": rule_det_env,
    "det-tls": rule_det_tls,
    "det-pointer-key": rule_det_pointer_key,
    "det-unordered-iter": rule_det_unordered_iter,
    "routing-state": rule_routing_state,
}

SCAN_SUFFIXES = (".hpp", ".cpp", ".h", ".cc")


def scan(root: Path) -> list[Finding]:
    findings = []
    src = root / "src"
    if not src.is_dir():
        raise SystemExit(f"dfsim-lint: no src/ under '{root}'")
    for path in sorted(src.rglob("*")):
        if path.suffix not in SCAN_SUFFIXES or not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        sf = SourceFile(path, rel)
        for rule in RULES.values():
            findings.extend(rule(sf))
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parents[1],
        help="tree to scan (default: the repo root); rules key off paths "
        "relative to this root, so fixture trees mirror src/ layout",
    )
    parser.add_argument("--list-rules", action="store_true", help="print rule ids and exit")
    args = parser.parse_args()
    if args.list_rules:
        for fn in RULES.values():
            print(fn.__doc__.splitlines()[0])
        return 0
    findings = scan(args.root.resolve())
    for f in findings:
        print(f"error: {f}", file=sys.stderr)
    print(f"dfsim-lint: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
