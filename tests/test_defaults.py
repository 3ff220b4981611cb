"""Every defaulted parameter in src/weakkam is set by some product call.

A default that no call in the package, a demo or the benchmark overrides is
a setting, or a guarded branch, that only tests vary, if anything does; it
belongs in the body as a literal.  Test calls do not count.  The
scan matches calls by the callee's name, `f(...)` or `obj.f(...)`: a call
sets a parameter when it passes it by keyword, passes enough positional
arguments to reach it (a method's `self` is not counted), or unpacks `*args`
or `**kwargs`.  Constructors (`__init__`) are left out: they are called
through their class name, and their keyword fields (an exception's witness,
a field view's stored values) are data that a caller may leave unset.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "demos", "perfbench")


def _defaulted_parameters() -> list:
    """(module.function.param, function, param, positional index or None)."""
    out = []
    for path in sorted((ROOT / "src" / "weakkam").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or node.name == "__init__":
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                out.append((f"{path.stem}.{node.name}.{arg.arg}", node.name, arg.arg, i - bound))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out.append((f"{path.stem}.{node.name}.{arg.arg}", node.name, arg.arg, None))
    return out


def _calls_by_name() -> dict:
    """callee name -> [(positional count, unpacks *args, keyword names)]."""
    calls = defaultdict(list)
    for sub in CALLER_DIRS:
        for path in sorted((ROOT / sub).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls[name].append((len(node.args), starred, {k.arg for k in node.keywords}))
    return calls


def _is_set(call, param: str, index) -> bool:
    n_positional, starred, keywords = call
    if param in keywords or None in keywords:    # None: a **kwargs unpacking
        return True
    return index is not None and (starred or n_positional > index)


def test_every_defaulted_parameter_is_set_by_some_call():
    params = _defaulted_parameters()
    assert params, "the scan found no defaulted parameters in src/weakkam"
    calls = _calls_by_name()
    unset = [qual for qual, fn, param, index in params
             if not any(_is_set(c, param, index) for c in calls.get(fn, ()))]
    assert not unset, ("defaulted parameters that no call in "
                       f"{', '.join(CALLER_DIRS)} sets: {', '.join(unset)}")
