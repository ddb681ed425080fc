"""Every document, name and knob the code and docs point at must exist.

Docstrings and comments cite the repository's documents by file name
(``README.md``, ``ROADMAP.md``, ...).  A pointer to a document that does not
exist sends the reader nowhere and usually means the reasoning it stood for
was lost, so every such reference must name a file at the repository root.

The same holds for dotted ``repro.…`` names (a module, class or function
that was deleted or renamed) and for ``REPRO_*`` environment knobs named
in the user-facing docs and CI (a knob no code reads any more silently
does nothing).
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "examples", "benchmarks")
REFERENCE = re.compile(r"(\w[\w./-]*\.md)\b")
DOTTED_NAME = re.compile(r"\brepro(?:\.\w+)+")
KNOB = re.compile(r"REPRO_[A-Z_]+")


def scanned_sources() -> list[Path]:
    """Every ``.py`` file of the scanned trees, in a stable order."""
    return [
        path
        for top in SCANNED
        for path in sorted((REPO_ROOT / top).rglob("*.py"))
    ]


def knob_docs() -> list[Path]:
    """Files outside ``src/`` that tell users which knobs to set: the
    README, the CI workflow and the verification recipes kept under a
    dot-directory ``skills/`` tree."""
    return [
        REPO_ROOT / "README.md",
        REPO_ROOT / ".github" / "workflows" / "ci.yml",
        *sorted(REPO_ROOT.glob(".*/skills/*/*.md")),
    ]


def markdown_references() -> dict[str, list[str]]:
    """``{referenced name: ["path:line", ...]}`` over the scanned trees."""
    found: dict[str, list[str]] = {}
    for path in scanned_sources():
        text = path.read_text(encoding="utf-8")
        for number, line in enumerate(text.splitlines(), start=1):
            for name in REFERENCE.findall(line):
                where = f"{path.relative_to(REPO_ROOT)}:{number}"
                found.setdefault(name, []).append(where)
    return found


def dotted_names() -> dict[str, str]:
    """``{repro.… name: first file citing it}`` over README and sources."""
    found: dict[str, str] = {}
    for path in [REPO_ROOT / "README.md", *scanned_sources()]:
        for name in DOTTED_NAME.findall(path.read_text(encoding="utf-8")):
            found.setdefault(name, str(path.relative_to(REPO_ROOT)))
    return found


def resolve(name: str):
    """Import the longest module prefix of ``name``, then ``getattr`` the
    rest; raises when any part is missing."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            target = getattr(target, attr)
        return target
    raise ModuleNotFoundError(name)


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


def test_dotted_name_pattern():
    assert DOTTED_NAME.findall(
        "see repro.obs.journal, not repro. or myrepro.x"
    ) == ["repro.obs.journal"]


def test_dotted_names_resolve():
    names = dotted_names()
    assert len(names) > 100  # the scan itself still finds the names
    dangling = {}
    for name, where in sorted(names.items()):
        try:
            resolve(name)
        except (ImportError, AttributeError) as exc:
            dangling[name] = f"{where}: {exc}"
    assert not dangling, f"dangling repro names: {dangling}"


def test_documented_knobs_are_read_by_src():
    read = set()
    for path in (REPO_ROOT / "src").rglob("*.py"):
        read.update(KNOB.findall(path.read_text(encoding="utf-8")))
    stale = {}
    for doc in knob_docs():
        named = set(KNOB.findall(doc.read_text(encoding="utf-8")))
        if named - read:
            stale[str(doc.relative_to(REPO_ROOT))] = sorted(named - read)
    assert not stale, f"knobs no code reads: {stale}"
