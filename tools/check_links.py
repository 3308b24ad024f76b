#!/usr/bin/env python3
"""Fail on broken intra-repo links in the project's Markdown docs.

Scans every root-level *.md and docs/*.md for Markdown links and image
references whose
target is a relative path, and verifies the target exists in the working
tree. Heading anchors (``file.md#section`` or ``#section``) are checked
against the target file's ATX headings using GitHub's anchor rules
(lowercase, spaces to dashes, punctuation dropped).

External links (http/https/mailto) and generated paths (``build/...``) are
skipped — CI has no business probing the network, and build outputs don't
exist in a fresh checkout.

README.md and docs/*.md are also scanned for inline code spans that name a
plain repo path (under src/, tools/, bench/, tests/, examples/ or docs/, with
no whitespace, no ``*`` or ``{`` pattern and no ``…`` or ``<name>``
placeholder), e.g. ``src/sim/engine.hpp`` or
``tools/dflysim_cli.cpp:42``; each must exist. ROADMAP.md and CHANGES.md are
not scanned this way: they name files still to be written and files already
deleted.

Usage: tools/check_links.py [root]   (root defaults to the repo root)
Exit status: 0 when every link resolves, 1 otherwise (each break printed).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
SKIP_PREFIXES = ("http://", "https://", "mailto:", "build/")
# A code span holding nothing but a repo path, with an optional :line or
# :first-last suffix or #anchor, which the existence check ignores.
CODE_PATH_RE = re.compile(
    r"`((?:src|tools|bench|tests|examples|docs)/[^`\s*{:#…<]*)(?::\d+(?:-\d+)?|#[^`\s]*)?`")


def anchor_of(heading: str) -> str:
    """GitHub-style anchor: strip markup, lowercase, spaces->dashes."""
    text = re.sub(r"[`*_]", "", heading.strip())
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # unwrap links
    text = text.lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_in(path: Path) -> set[str]:
    text = CODE_FENCE_RE.sub("", path.read_text(encoding="utf-8"))
    return {anchor_of(m.group(1)) for m in HEADING_RE.finditer(text)}


def check_file(doc: Path, root: Path) -> list[str]:
    errors = []
    text = CODE_FENCE_RE.sub("", doc.read_text(encoding="utf-8"))
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(SKIP_PREFIXES) or target.startswith("../../"):
            continue  # external, generated, or forge-relative (CI badge)
        path_part, _, fragment = target.partition("#")
        if not path_part:  # same-file anchor
            if fragment and anchor_of(fragment) not in anchors_in(doc):
                errors.append(f"{doc.relative_to(root)}: broken anchor '#{fragment}'")
            continue
        resolved = (doc.parent / path_part).resolve()
        if not resolved.exists():
            errors.append(f"{doc.relative_to(root)}: broken link '{target}'")
            continue
        if fragment and resolved.suffix == ".md":
            if anchor_of(fragment) not in anchors_in(resolved):
                errors.append(
                    f"{doc.relative_to(root)}: broken anchor '{target}' "
                    f"(no such heading in {path_part})")
    return errors


def check_code_paths(doc: Path, root: Path) -> list[str]:
    text = CODE_FENCE_RE.sub("", doc.read_text(encoding="utf-8"))
    return [f"{doc.relative_to(root)}: no such path '{m.group(1)}'"
            for m in CODE_PATH_RE.finditer(text) if not (root / m.group(1)).exists()]


def main() -> int:
    root = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    # Glob, not a hardcoded list: a new doc is covered the moment it exists.
    docs = sorted((root).glob("*.md")) + sorted((root / "docs").glob("*.md"))
    errors = []
    checked = 0
    for doc in docs:
        if not doc.exists():
            continue
        checked += 1
        errors.extend(check_file(doc, root))
        if doc == root / "README.md" or doc.parent == root / "docs":
            errors.extend(check_code_paths(doc, root))
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    print(f"check_links: {checked} files, {len(errors)} broken links")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
