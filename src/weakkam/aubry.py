"""Aubry sets from fixed points of the folded semigroup.

After folding the exact discrete critical value into the kernel, every
verified subsolution w satisfies T_t w >= w entrywise, with equality
propagating from the cost-free closed orbits.  The Aubry mask is the set
where equality holds along a tail of the time ladder; because the fold is
the kernel's own critical value (Karp), the residual field is sign-definite
and its zero set is resolved to single cells instead of bisection blur.

The working subsolution w is a weighted mix sum 2^-n v_n over a verified
library (shortest-path cones and their reversals); the geometric weights
keep every member's fixed-point constraint active in w, so the
intersection over the ladder approximates the intersection over the whole
library.

The level is the kernel's: every function here reads the critical value
folded into it (ActionKernel.shift), and the model and environment it was
built from, off the kernel.  A caller that wants another level folds it
with semigroup.refold_kernel first; lax_extension reads its cost graph's.

Cones, anticones and the Lax extension from a mask are grid.relax runs on
the folded kernel, on it turned once and on a sigma_a cost graph, one
stencil type, so a level below critical is refused alike: by a negative cycle.

The closed-orbit mask (classical_aubry) is the second route to the same
set: the nodes on minimal-mean cycles of the one-step graph, read off the
critical graph of a policy-iteration bias (grid.policy_iteration) without
w, the ladder or a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EmptyAubryMaskError, NotASubsolutionError
from .grid import GridFn, GridSpec, geometric_mix, policy_iteration, relax
from .metric import CostGraph
from .semigroup import ActionKernel, lax_minus_images

__all__ = [
    "SubsolutionLibrary",
    "build_library",
    "verify_member",
    "build_w",
    "AubryMask",
    "detect_aubry",
    "classical_aubry",
    "lax_extension",
]

DISCRETE_TOL = 1e-9


def verify_member(v: GridFn, kernel: ActionKernel) -> tuple:
    """Discrete subsolution test against every kernel edge.

    v passes iff v(x) - v(y) <= h_dt(y, x) + a dt on all one-step edges, a
    the level folded into the kernel, which by the exact semigroup law
    extends to the whole ladder.  Returns (passed, worst_violation).
    """
    worst = kernel.edge_gap(v.values)
    return worst <= DISCRETE_TOL, worst


def _worst_point(v: GridFn, kernel: ActionKernel) -> np.ndarray:
    """Coordinates of the node where v's worst edge violation ends: the
    witness a refusal names.  Searched only once verify_member failed."""
    return v.grid.points()[kernel.worst_gap_node(v.values)]


@dataclass
class SubsolutionLibrary:
    """Verified critical subsolutions, each normalized to vanish at node 0."""

    grid: GridSpec
    members: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    verified: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    worst_points: list = field(default_factory=list)    # None for verified members

    def add(self, v: GridFn, kernel: ActionKernel, label: str) -> bool:
        v = v.normalized_at_origin()
        ok, worst = verify_member(v, kernel)
        self.members.append(v)
        self.labels.append(label)
        self.verified.append(bool(ok))
        self.violations.append(worst)
        self.worst_points.append(None if ok else _worst_point(v, kernel))
        return bool(ok)


def build_library(kernel: ActionKernel, n_seeds: int = 4) -> SubsolutionLibrary:
    """Shortest-path cones from a seed lattice and their reversals.

    Cones are shortest-path distances on the kernel's own one-step edge
    graph with the level folded in, so every cone satisfies the discrete
    edge inequality exactly (the shortest-path triangle inequality IS the
    edge inequality).  This stays feasible at the ladder's exact discrete
    critical value even when the level-set graph of the Hamiltonian is
    empty at off-grid midpoints.  Anticones relax the kernel turned once.
    """
    grid = kernel.grid
    lib = SubsolutionLibrary(grid=grid)
    # n_seeds points on the axis in 1D, the nearest square lattice in 2D
    per = n_seeds if grid.dim == 1 else max(int(round(np.sqrt(n_seeds))), 1)
    if not 1 <= per <= grid.n:
        raise ConfigError(f"n_seeds={n_seeds} asks for {per} seeds per axis; "
                          f"the grid has n={grid.n} nodes per axis")
    axis = [i * (grid.n // per) for i in range(per)]
    seeds = axis if grid.dim == 1 else [i * grid.n + j for i in axis for j in axis]
    turned = kernel.reversed()
    for s in seeds:
        source = np.where(np.arange(grid.size) == s, 0.0, np.inf)
        cone = relax(kernel, source)
        anti = relax(turned, source)
        lib.add(GridFn(grid, cone), kernel, f"cone[{s}]")
        lib.add(GridFn(grid, -anti), kernel, f"anticone[{s}]")
    return lib


def build_w(library: SubsolutionLibrary) -> GridFn:
    """Geometric mix w = sum_{n<=M} 2^-n v_n over all M members,
    renormalized by 1/(1 - 2^-M).

    Refuses unverified members: the mix of a non-subsolution poisons every
    residual downstream.  The truncation error against the full geometric
    series is 2^-M times the member sup-range; callers add it to their
    tolerance budgets.
    """
    for i, ok in enumerate(library.verified):
        if not ok:
            raise NotASubsolutionError(
                f"library member {i} ({library.labels[i]}) failed verification "
                f"(violation {library.violations[i]:.3e}); refusing to mix it in",
                worst_point=library.worst_points[i], violation=library.violations[i])
    return geometric_mix(library.grid, [v.values for v in library.members])


@dataclass
class AubryMask:
    """Aubry mask with its residual field and threshold sensitivity.

    residual is the max over the test ladder (the intersection detector).
    The invariant mask == (residual <= eps) holds by construction.
    """

    grid: GridSpec
    a: float
    eps: float
    mask: np.ndarray = field(repr=False)
    residual: np.ndarray = field(repr=False)
    test_times: list = field(default_factory=list)
    thresholds: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def indices(self) -> np.ndarray:
        return np.nonzero(self.mask)[0]


def _tail_times(kernel: ActionKernel, t_max: float) -> tuple:
    ladder = kernel.ladder(t_max)
    if not ladder:
        raise ConfigError(f"t_max={t_max} below one kernel step dt={kernel.dt}")
    tail = [t for t in ladder if t >= 0.49 * ladder[-1]]
    warnings = []
    if ladder[-1] / kernel.dt < 100:
        warnings.append(
            f"time ladder spans {ladder[-1] / kernel.dt:.0f}x dt (< 2 decades); "
            f"liminf surrogate may be premature")
    return ladder, tail, warnings


def default_eps(values: np.ndarray) -> float:
    """Residual threshold: 1e-6 of the data range, floored at 1e-9.

    With the exact Karp fold the residual floor on the Aubry cells is pure
    rounding noise, so the threshold only needs to sit far below the first
    off-cell residual; scaling with the data range keeps it unit-free.
    """
    rng = float(np.max(values) - np.min(values))
    return max(1e-6 * max(rng, 1.0), 1e-9)


def detect_aubry(w: GridFn, kernel: ActionKernel, t_max: float,
                 eps: float | None = None) -> AubryMask:
    """Intersection of fixed-point sets of w over the ladder tail, at the
    kernel's level.

    Emits masks at eps/2, eps, 2 eps so threshold sensitivity is visible;
    with a sharp fold all three coincide away from degenerate landscapes.
    """
    ok, worst = verify_member(w, kernel)
    if not ok:
        raise NotASubsolutionError(
            f"detect_aubry needs a verified subsolution (violation {worst:.3e})",
            worst_point=_worst_point(w, kernel), violation=worst)
    ladder, tail, warns = _tail_times(kernel, t_max)
    res_stack = lax_minus_images(w, kernel, tail) - w.values
    res_max = res_stack.max(axis=0)
    if eps is None:
        eps = default_eps(w.values)
    thresholds = {lab: res_max <= (eps * fac)
                  for lab, fac in (("half", 0.5), ("one", 1.0), ("two", 2.0))}
    return AubryMask(grid=w.grid, a=kernel.shift, eps=float(eps), mask=thresholds["one"],
                     residual=res_max, test_times=tail, thresholds=thresholds, warnings=warns)


def classical_aubry(kernel: ActionKernel) -> np.ndarray:
    """Nodes on the kernel's closed orbits of minimal mean action.

    They are the cycles of the critical graph of the kernel's min-plus
    eigenvector (grid.policy_iteration); the mask does not depend on the
    level folded into the kernel.  No fixed point of w enters, so it checks
    detect_aubry by an independent route.
    """
    return policy_iteration(kernel).mask


def lax_extension(g: GridFn, mask: np.ndarray, graph: CostGraph) -> GridFn:
    """u(x) = min over mask nodes y of g(y) + S_a(y, x), a the graph's level.

    One multi-source label correction over the sigma_a cost graph; an empty
    mask raises, before the graph is read, instead of returning a constant,
    because the infimum over an empty set is a modeling decision the caller
    has to make.
    """
    if not mask.any():
        raise EmptyAubryMaskError(
            "empty source mask: the Lax extension from nothing is undefined")
    return GridFn(graph.grid, relax(graph, np.where(mask, g.values, np.inf)))
