"""Every function, class and method in src/weakkam is reachable from the
command line, a demo or the benchmark.

Code that only tests call belongs under tests/ (tests/oracles.py holds the
independent routes the suite checks the package against).  The scan starts
from `cli.main`, from every script in demos/ and from every module in
perfbench/, whose string constants count too: the benchmark's tracer names
the methods it wraps by string.  A definition is reached when a reached body
names it, as `f`, `obj.f` or an imported name; matching is by name only, so
a method shares its reach with every other definition of that name.  The
body of a reached definition is scanned in turn: a function with its nested
functions, default values and decorators; a class with its bases, class
body and dunder methods, which the interpreter calls without naming them; a
module-level assignment with its value.  Module-level imports name nothing:
importing a function does not run it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weakkam"

# name -> why it stays in src although no root reaches it
ALLOWED = {
    "translate": "EnvRealization.translate: the stationarity tests of the "
                 "growing-box pipeline (ROADMAP item 6) are built on it",
}


def _names(nodes, strings: bool = False) -> set:
    """Names that the nodes refer to: identifiers, attributes, imported
    names and, with strings, each dotted part of a string constant."""
    out = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.split(".")[-1])
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.update(node.value.split("."))
    return out


def _definitions() -> tuple:
    """(checked, bodies): checked lists (module.qualname, name) of every
    module-level function and class and every method; bodies maps a name
    to the AST nodes scanned once that name is reached."""
    checked, bodies = [], {}

    def add(name, nodes):
        bodies.setdefault(name, []).extend(nodes)

    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                checked.append((f"{path.stem}.{node.name}", node.name))
                add(node.name, [node])
            elif isinstance(node, ast.ClassDef):
                checked.append((f"{path.stem}.{node.name}", node.name))
                own = [*node.bases, *node.keywords, *node.decorator_list]
                for item in node.body:
                    if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        own.append(item)
                    elif item.name.startswith("__") and item.name.endswith("__"):
                        own.append(item)
                    else:
                        checked.append((f"{path.stem}.{node.name}.{item.name}", item.name))
                        add(item.name, [item])
                add(node.name, own)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        add(target.id, [node.value] if node.value is not None else [])
    return checked, bodies


def _roots() -> set:
    cli = ast.parse((PACKAGE / "cli.py").read_text())
    main = [n for n in cli.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    assert main, "cli.main not found"
    names = _names(main) | {"main"}
    for path in sorted((ROOT / "demos").glob("*.py")):
        names |= _names([ast.parse(path.read_text())])
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        names |= _names([ast.parse(path.read_text())], strings=True)
    return names


def reached_names() -> set:
    _, bodies = _definitions()
    reached, todo = set(), list(_roots())
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo.extend(_names(bodies.get(name, ())) - reached)
    return reached


def test_every_definition_in_src_is_reachable_from_a_product_root():
    checked, _ = _definitions()
    assert len(checked) > 100, "the scan found too few definitions in src/weakkam"
    reached = reached_names()
    unreached = [qual for qual, name in checked
                 if name not in reached and name not in ALLOWED]
    assert not unreached, ("defined in src/weakkam but reached from no CLI command, "
                           f"demo or benchmark module: {', '.join(unreached)}")


def test_the_allowlist_names_only_unreached_definitions():
    """An allowlisted name that a root reaches is a stale entry."""
    checked, _ = _definitions()
    names = {name for _, name in checked}
    reached = reached_names()
    assert set(ALLOWED) <= names
    assert not set(ALLOWED) & reached
