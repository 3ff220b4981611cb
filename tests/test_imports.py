"""Every name imported in src/weakkam, tests/ and demos/ is used.

An import that nothing reads is a stale dependency: it outlives the code
that needed it and hides which module really uses what.  The scan parses
each file with `ast` and compares the names its imports bind (`import a.b`
binds `a`; `from m import f as g` binds `g`) with the names the file reads
anywhere, nested scopes included.  `from __future__` imports are
directives, not names.  src/weakkam/__init__.py is left out: its imports
are the package's re-exports, which its `__all__` lists.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/weakkam", "tests", "demos")
REEXPORTS = ROOT / "src" / "weakkam" / "__init__.py"


def _unused_imports(path: Path) -> list:
    """'path:line name' for each imported name that the file never reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def _scanned_files() -> list:
    return [path for sub in SCANNED for path in sorted((ROOT / sub).glob("*.py"))
            if path != REEXPORTS]


def test_every_imported_name_is_used():
    files = _scanned_files()
    assert len(files) > 20, "the scan found too few files"
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert not unused, f"imported but never used: {', '.join(unused)}"
