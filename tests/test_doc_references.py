"""Every Markdown document the code points at must exist.

Docstrings and comments cite the repository's documents by file name
(``README.md``, ``ROADMAP.md``, ...).  A pointer to a document that does not
exist sends the reader nowhere and usually means the reasoning it stood for
was lost, so every such reference must name a file at the repository root.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "examples", "benchmarks")
REFERENCE = re.compile(r"(\w[\w./-]*\.md)\b")


def markdown_references() -> dict[str, list[str]]:
    """``{referenced name: ["path:line", ...]}`` over the scanned trees."""
    found: dict[str, list[str]] = {}
    for top in SCANNED:
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            for number, line in enumerate(text.splitlines(), start=1):
                for name in REFERENCE.findall(line):
                    where = f"{path.relative_to(REPO_ROOT)}:{number}"
                    found.setdefault(name, []).append(where)
    return found


def test_reference_pattern():
    assert REFERENCE.findall("see README.md, then ./ROADMAP.md.") == [
        "README.md",
        "ROADMAP.md",
    ]
    assert REFERENCE.findall("a.mdx or mdfile") == []


def test_markdown_references_exist():
    missing = {
        name: places
        for name, places in markdown_references().items()
        if not (REPO_ROOT / name).is_file()
    }
    assert not missing, f"dangling document references: {missing}"
