"""A folded kernel carries its level, model and environment.

semigroup.refold_kernel sets ActionKernel.shift, the level every check on
the kernel works at, and the kernel keeps the model and environment it was
built from.  A function that takes a kernel and also a level `a`, a `model`
or an `env` holds the same data twice, and a caller can pass a level the
kernel does not hold.  The scan parses src/weakkam with `ast` and names
every `def` with a parameter annotated `ActionKernel` next to a parameter
named `a`, `model` or `env`.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weakkam"
HELD_BY_THE_KERNEL = {"a", "model", "env"}


def _annotation_name(arg: ast.arg) -> str:
    ann = arg.annotation
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return ann.value
    return ast.unparse(ann) if ann is not None else ""


def _doubled_signatures() -> tuple:
    """('module.function(param, ...)' for each def that takes a kernel and
    one of the names the kernel holds, the number of defs that take a
    kernel)."""
    out, n_kernel_defs = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            if not any(_annotation_name(arg).split(".")[-1] == "ActionKernel" for arg in params):
                continue
            n_kernel_defs += 1
            doubled = [arg.arg for arg in params if arg.arg in HELD_BY_THE_KERNEL]
            if doubled:
                out.append(f"{path.stem}.{node.name}({', '.join(doubled)})")
    return out, n_kernel_defs


def test_no_function_takes_a_kernel_and_its_level_model_or_env():
    doubled, n_kernel_defs = _doubled_signatures()
    assert n_kernel_defs >= 10, "the scan found too few functions that take a kernel"
    assert not doubled, ("take an ActionKernel and also what it holds (read "
                         f"kernel.shift, kernel.model, kernel.env): {', '.join(doubled)}")
