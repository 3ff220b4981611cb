"""Shared fixtures: one small pendulum pipeline reused across module tests.

The session-scoped pipeline keeps the suite fast: most module tests only
need *some* folded kernel with a verified subsolution mix and a detected
mask, and the n=64 pendulum provides all of it in well under a second.

Acceptance tests register one scoreboard line each; the terminal summary
hook prints them as a block so a bare ``pytest`` run ends with one
PASS/FAIL line per criterion.

The dense all-pairs oracle lives here too: the package walks the stencil
and never builds an N x N table, so the tests that check it against whole
tables build their own.
"""

import tracemalloc

import numpy as np
import pytest

import weakkam as wk
from weakkam.aubry import build_library, build_w, detect_aubry
from weakkam.config import parse_config_text
from weakkam.hamiltonian import kappa
from weakkam.semigroup import build_kernel, discrete_critical_value, refold_kernel

ACCEPTANCE_LINES = {}

SMALL_OBJECTS = 64 * 1024    # Python objects and numpy bookkeeping


def peak_bytes(fn, *args) -> int:
    """tracemalloc peak of one call fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def one_step_table(stencil) -> np.ndarray:
    """Dense table[y, x] of the cheapest edge y -> x (+inf: none), from the
    stencil's predecessors and weights."""
    nodes = np.arange(stencil.size)
    preds = stencil.predecessors(nodes)
    on = preds >= 0
    table = np.full((stencil.size,) * 2, np.inf)
    np.minimum.at(table, (preds[on], np.broadcast_to(nodes, preds.shape)[on]),
                  stencil.weights[on])
    return table


def minplus_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """C[i, j] = min_z A[i, z] + B[z, j], one row of A at a time."""
    return np.stack([np.min(row[:, None] + B, axis=0) for row in A])


def walk_table(stencil, steps: int) -> np.ndarray:
    """All-pairs least cost of steps-edge walks: the one-step table times
    itself on the right, the order in which a walk adds its edge costs."""
    one = table = one_step_table(stencil)
    for _ in range(steps - 1):
        table = minplus_product(table, one)
    return table


class CountingField:
    """A realization that records the shape of each evaluate call and of
    each call of its bound gradient (the tuple of coordinates), the shapes
    of each cover read for values (the cover's points, then the block
    valued), the shape of each batch streamed with its whole-batch values
    (batches), and that of each evaluation of the blocks alone
    (streamed)."""

    def __init__(self, env):
        self.env = env
        self.evaluated, self.gradients, self.batches = [], [], []
        self.cover_values, self.streamed = [], []

    def evaluate(self, x):
        self.evaluated.append(np.shape(x))
        return self.env.evaluate(x)

    def _cover_values(self, points, index):
        self.cover_values.append((np.shape(points), np.shape(points[index])))
        return self.env._cover_values(points, index)

    def _evaluate_blocks(self, shape, covers, reduce):
        self.batches.append(shape)
        return self.env._evaluate_blocks(shape, covers, reduce)

    def _block_values(self, shape, covers):
        self.streamed.append(shape)
        return self.env._block_values(shape, covers)

    def gradient(self):
        bound = self.env.gradient()

        def counted(*x):
            self.gradients.append(np.shape(x))
            return bound(*x)
        return counted


# The three configs of the benchmark's verify1d workload, without their grid.
VERIFY_CONFIGS = {
    "mechanical": "[environment]\nkind = periodic\ndimension = 1\n",
    "nonstrict": "[environment]\nkind = periodic\ndimension = 1\n"
                 "[hamiltonian]\nmodel = nonstrict\n",
    "random": "[environment]\nkind = random_fourier\ndimension = 1\nseed = 3\n",
}


def verify_config(label: str):
    """A verify1d config on its 1D n=512 grid."""
    return parse_config_text(VERIFY_CONFIGS[label] + "[grid]\ndim = 1\nn = 512\n",
                             source=label)


def record_criterion(num: int, name: str, passed: bool, detail: str) -> None:
    ACCEPTANCE_LINES[num] = (name, bool(passed), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_LINES):
        name, passed, detail = ACCEPTANCE_LINES[num]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num:02d} {name}: {verdict} ({detail})")


@pytest.fixture(scope="session")
def pend64():
    """Folded pendulum ladder at n=64 with library, mix, and mask."""
    spec = wk.EnvSpec(kind="periodic", dimension=1, seed=0,
                      params={"amplitudes": (1.0,)})
    env = wk.sample_realization(spec, 0)
    model = wk.mechanical_model(dim=1, field_bound=1.0)
    grid = wk.GridSpec(dim=1, n=64)
    dt = 1.0 / 64.0
    raw = build_kernel(model, env, grid, dt=dt,
                       theta=kappa(model, 1.02, env) + 1.0)
    c = discrete_critical_value(raw)
    kern = refold_kernel(raw, c)
    lib = build_library(kern, n_seeds=4)
    w = build_w(lib)
    mask = detect_aubry(w, kern, 4.0)
    return {
        "spec": spec, "env": env, "model": model, "grid": grid, "dt": dt,
        "raw_kernel": raw, "kernel": kern, "c": c, "lib": lib, "w": w,
        "mask": mask,
    }


@pytest.fixture(scope="session")
def flat64():
    """Zero-field ladder at n=64: every cell is critical."""
    spec = wk.EnvSpec(kind="periodic", dimension=1, seed=0,
                      params={"amplitudes": (0.0,)})
    env = wk.sample_realization(spec, 0)
    model = wk.mechanical_model(dim=1, field_bound=0.0)
    grid = wk.GridSpec(dim=1, n=64)
    raw = build_kernel(model, env, grid, dt=1.0 / 64.0,
                       theta=kappa(model, 0.02, env) + 1.0)
    c = discrete_critical_value(raw)
    kern = refold_kernel(raw, c)
    return {"spec": spec, "env": env, "model": model, "grid": grid,
            "kernel": kern, "c": c}


@pytest.fixture()
def pendulum_corrector():
    """Closed form for the cosine-well critical solution on [0, 1).

    With the field cos(2*pi*x) and level 1, the one-sided momenta are
    +-2 sin(pi x) and the normalized solution is
    (2/pi)(1 - cos(pi * min(x, 1-x))), concave kink at x = 1/2.
    """
    def u(x):
        x = np.asarray(x, dtype=float) % 1.0
        folded = np.minimum(x, 1.0 - x)
        return (2.0 / np.pi) * (1.0 - np.cos(np.pi * folded))
    return u
