"""Aubry sets from fixed points of the folded semigroup.

After folding the exact discrete critical value into the kernel, every
verified subsolution w satisfies T_t w >= w entrywise, with equality
propagating from the cost-free closed orbits.  The Aubry mask is the set
where equality holds along a tail of the time ladder; because the fold is
the kernel's own critical value (Karp), the residual field is sign-definite
and its zero set is resolved to single cells instead of bisection blur.

The working subsolution w is a weighted mix sum 2^-n v_n over a verified
library (shortest-path cones, their reversals, semigroup images, user
functions); the geometric weights keep every member's fixed-point
constraint active in w, so the intersection over the ladder approximates
the intersection over the whole library.

Cones, anticones and the Lax extension from a mask are grid.relax runs on
the folded kernel and on the sigma_a cost graph, one stencil type, so a
level below critical is refused alike on both: by a negative cycle.

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
from .metric import build_cost_graph, semidistance
from .semigroup import (ActionKernel, lax_minus, lax_minus_images, refold_kernel,
                        semigroup_orbit)

__all__ = [
    "SubsolutionLibrary",
    "build_library",
    "verify_member",
    "build_w",
    "fixed_point_set",
    "AubryMask",
    "detect_aubry",
    "classical_aubry",
    "lax_extension",
    "CalibratedCurve",
    "extract_calibrated_curve",
]

DISCRETE_TOL = 1e-9


def verify_member(v: GridFn, kernel: ActionKernel, a: float) -> tuple:
    """Discrete subsolution test against every kernel edge.

    v passes iff v(x) - v(y) <= h_dt(y, x) + a dt on all one-step edges,
    which by the exact semigroup law extends to the whole ladder.  Returns
    (passed, worst_violation).
    """
    worst = refold_kernel(kernel, a).edge_gap(v.values)
    return worst <= DISCRETE_TOL, worst


@dataclass
class SubsolutionLibrary:
    """Verified critical subsolutions, each normalized to vanish at node 0."""

    grid: GridSpec
    a: float
    members: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    verified: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    def add(self, v: GridFn, kernel: ActionKernel, label: str) -> bool:
        v = v.normalized_at_origin()
        ok, worst = verify_member(v, kernel, self.a)
        self.members.append(v)
        self.labels.append(label)
        self.verified.append(bool(ok))
        self.violations.append(worst)
        return bool(ok)

    def verified_members(self) -> list:
        return [m for m, ok in zip(self.members, self.verified) if ok]


def build_library(model, a: float, env, kernel: ActionKernel,
                  seeds=None, n_seeds: int = 4, image_time: float | None = None,
                  extra=()) -> SubsolutionLibrary:
    """Seed-lattice shortest-path cones, their reversals, semigroup images.

    Cones are shortest-path distances on the kernel's own one-step edge
    graph with the level folded in, so every cone satisfies the discrete
    edge inequality exactly (the shortest-path triangle inequality IS the
    edge inequality).  This stays feasible at the ladder's exact discrete
    critical value even when the level-set graph of the Hamiltonian is
    empty at off-grid midpoints.
    """
    grid = kernel.grid
    lib = SubsolutionLibrary(grid=grid, a=a)
    folded = refold_kernel(kernel, a)
    if seeds is None:
        # n_seeds points on the axis in 1D, the nearest square lattice in 2D
        per = n_seeds if grid.dim == 1 else max(int(round(np.sqrt(n_seeds))), 1)
        if not 1 <= per <= grid.n:
            raise ConfigError(f"n_seeds={n_seeds} asks for {per} seeds per axis; "
                              f"the grid has n={grid.n} nodes per axis")
        axis = [i * (grid.n // per) for i in range(per)]
        seeds = axis if grid.dim == 1 else [i * grid.n + j for i in axis for j in axis]
    for s in seeds:
        source = np.where(np.arange(grid.size) == int(s), 0.0, np.inf)
        cone = relax(folded, source)
        anti = relax(folded, source, forward=True)
        lib.add(GridFn(grid, cone), kernel, f"cone[{s}]")
        lib.add(GridFn(grid, -anti), kernel, f"anticone[{s}]")
    if image_time is not None:
        base_mix = GridFn(grid, np.mean([m.values for m in lib.verified_members()], axis=0))
        img = lax_minus(base_mix, kernel, image_time)
        lib.add(img + (a - kernel.shift) * image_time, kernel, f"image[t={image_time}]")
    for j, v in enumerate(extra):
        lib.add(v, kernel, f"user[{j}]")
    return lib


def build_w(library: SubsolutionLibrary, m_terms: int | None = None) -> GridFn:
    """Geometric mix w = sum_{n<=M} 2^-n v_n, renormalized by 1/(1 - 2^-M).

    Refuses unverified members: the mix of a non-subsolution poisons every
    residual downstream.  The truncation error against the full geometric
    series is 2^-M times the member sup-range; callers add it to their
    tolerance budgets.
    """
    members = library.members
    if m_terms is None:
        m_terms = len(members)
    if m_terms < 1 or m_terms > len(members):
        raise ConfigError(f"m_terms must be in 1..{len(members)}")
    for i in range(m_terms):
        if not library.verified[i]:
            raise NotASubsolutionError(
                f"library member {i} ({library.labels[i]}) failed verification "
                f"(violation {library.violations[i]:.3e}); refusing to mix it in",
                violation=library.violations[i])
    return geometric_mix(library.grid, [v.values for v in members[:m_terms]])


def fixed_point_set(v: GridFn, kernel: ActionKernel, a: float, t: float,
                    eps: float) -> np.ndarray:
    """Boolean mask {x : (T_t v + a t)(x) - v(x) <= eps}.

    v must verify as a discrete subsolution first (or the residual sign is
    meaningless), so a v that fails verify_member is refused.
    """
    ok, worst = verify_member(v, kernel, a)
    if not ok:
        raise NotASubsolutionError(
            f"fixed_point_set needs a verified subsolution "
            f"(edge violation {worst:.3e})", violation=worst)
    img = lax_minus(v, kernel, t)
    residual = img.values + (a - kernel.shift) * t - v.values
    return residual <= eps


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

    def coords(self) -> np.ndarray:
        return self.grid.points()[self.mask]


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


def detect_aubry(w: GridFn, kernel: ActionKernel, a: float, t_max: float,
                 eps: float | None = None) -> AubryMask:
    """Intersection of fixed-point sets of w over the ladder tail.

    Emits masks at eps/2, eps, 2 eps so threshold sensitivity is visible;
    with a sharp fold all three coincide away from degenerate landscapes.
    """
    ok, worst = verify_member(w, kernel, a)
    if not ok:
        raise NotASubsolutionError(
            f"detect_aubry needs a verified subsolution (violation {worst:.3e})",
            violation=worst)
    ladder, tail, warns = _tail_times(kernel, t_max)
    res_stack = (lax_minus_images(w, kernel, tail)
                 + (a - kernel.shift) * np.asarray(tail)[:, None] - w.values)
    res_max = res_stack.max(axis=0)
    if eps is None:
        eps = default_eps(w.values)
    thresholds = {lab: res_max <= (eps * fac)
                  for lab, fac in (("half", 0.5), ("one", 1.0), ("two", 2.0))}
    return AubryMask(grid=w.grid, a=a, eps=float(eps), mask=thresholds["one"],
                     residual=res_max, test_times=tail, thresholds=thresholds, warnings=warns)


def classical_aubry(kernel: ActionKernel) -> np.ndarray:
    """Nodes on the kernel's closed orbits of minimal mean action.

    They are the cycles of the critical graph of the kernel's min-plus
    eigenvector (grid.policy_iteration); the mask does not depend on the
    level folded into the kernel.  No fixed point of w enters, so it checks
    detect_aubry by an independent route.
    """
    return policy_iteration(kernel).mask


def lax_extension(g, mask: np.ndarray, model, a: float, env,
                  kernel: ActionKernel) -> GridFn:
    """u(x) = min over mask nodes y of g(y) + S_a(y, x).

    One multi-source label correction over the sigma_a cost graph on the
    kernel's grid and offsets; an empty mask raises instead of returning a
    constant, because the infimum over an empty set is a modeling decision
    the caller has to make.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.sum() == 0:
        raise EmptyAubryMaskError(
            "empty source mask: the Lax extension from nothing is undefined")
    g_vals = g.values if isinstance(g, GridFn) else np.asarray(g, dtype=float)
    graph = build_cost_graph(model, a, env, kernel.grid, offsets=kernel.offsets)
    return GridFn(kernel.grid, relax(graph, np.where(mask, g_vals, np.inf)))


@dataclass
class CalibratedCurve:
    """Backward optimizer chain with its calibration audit."""

    indices: np.ndarray
    coords: np.ndarray
    step_costs: np.ndarray
    calibration_defect: float    # max |w jump - folded step cost|
    action_vs_semidistance: float
    stays_in_mask: bool | None


def extract_calibrated_curve(x0, w: GridFn, kernel: ActionKernel, a: float,
                             n_steps: int, model=None, env=None,
                             mask: np.ndarray | None = None) -> CalibratedCurve:
    """Backtrack the argmin chain of T_{n dt} w below x0.

    The chain positions z_m realize the dynamic program, so along them the
    folded step costs should reproduce the increments of w (calibration)
    and the total action should dominate the semidistance between the
    endpoints; both defects are reported, not asserted.
    """
    grid = kernel.grid
    x0_idx = x0 if isinstance(x0, (int, np.integer)) else grid.index_of(np.asarray(x0))
    chain, costs = kernel.minimizing_chain(semigroup_orbit(w, kernel, n_steps), x0_idx)
    costs = costs + (a - kernel.shift) * kernel.dt
    w_jumps = w.values[chain[1:]] - w.values[chain[:-1]]
    calib = float(np.max(np.abs(w_jumps - costs))) if len(costs) else 0.0
    act_vs_s = np.nan
    if model is not None:
        sd = semidistance(model, a, [int(chain[0])], env, grid, offsets=kernel.offsets)
        act_vs_s = float(costs.sum() - sd.values[0, chain[-1]])
    in_mask = None
    if mask is not None:
        in_mask = bool(np.all(np.asarray(mask, dtype=bool)[chain]))
    return CalibratedCurve(indices=chain, coords=grid.points()[chain],
                           step_costs=costs, calibration_defect=calib,
                           action_vs_semidistance=act_vs_s, stays_in_mask=in_mask)
