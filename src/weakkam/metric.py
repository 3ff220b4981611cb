"""Metric side of the critical equation.

The sublevel support function sigma_a(x, q) = sup{ <q,p> : H(x,p) <= a }
prices a displacement q at x.  Summing it along lattice edges gives a cost
graph whose shortest paths approximate the semidistance S_a; a negative
cycle (or an empty sublevel) is a certificate that the level a is
subcritical, which turns critical-value estimation into bisection on the
existence of such certificates.  The cost graph is a grid.Stencil, the
offset stencil the action kernels use, and its shortest paths and cycle
witnesses come from the one engine there, grid.relax.

The field is sampled once per lattice and offset set: every level's cost
graph is priced from V stored on the node array and on each offset's array
of edge midpoints, so a bisection costs one field evaluation however many
levels it tries.  The models read x only through V, so the sampler holds
plain value arrays.  The midpoint arrays are row blocks of one batch that
starts with the nodes, and the starting levels of critical_value_free are
read off V over that whole batch.  critical_value_free evaluates the nodes
once (the edge radius is read off them) and the batch once: one cosine
table, with one matrix-vector product per midpoint array and one over the
batch.  The midpoints of offset k at node x are x - k h / 2, the
half-spacing points of the class k mod 2, so the table is built from one
cover per class: the points the class's blocks span, whose cosines are
computed once.  Each block is a slice of its cover, copied where its
coordinates are bit-equal to the cover's and computed otherwise (a
spacing h that is not dyadic rounds them differently).  The products stay separate because the product rounds
a row by its place in the batch, so a point's value in the batch can
differ in the last bits from its value in its own array.  Each route keeps
reading its own values, which keeps every bracket bit for bit what it was
when each level resampled the field.

Edge convention: the edge for offset k ends at node x and starts at
x - k h, costs sigma_a(mid, k h) with mid the (wrapped) segment midpoint.
S(y, x) is the cheapest chain from y to x; subsolutions are exactly the
functions with phi(x) - phi(y) <= S(y, x).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SubcriticalLevelError
from .grid import BoxSpec, GridFn, Stencil, relax
from .hamiltonian import field_values, kappa_at_values

__all__ = [
    "support_sigma",
    "CostGraph",
    "build_cost_graph",
    "default_edge_radius",
    "SemidistanceResult",
    "semidistance",
    "SubsolutionReport",
    "check_subsolution",
    "lippo_scale",
    "CriticalValueResult",
    "critical_value_free",
    "StationaryCriticalResult",
    "critical_value_stationary",
]


def support_sigma(model, V, q, a: float) -> np.ndarray:
    """sigma_a(x, q) at the field values V = V(x), the model's closed form;
    NaN entries mark points with empty sublevel.  q is one row per point
    or one (1, dim) row for all."""
    q = np.atleast_2d(np.asarray(q, dtype=float))
    return np.asarray(model.sigma(V, q, a), dtype=float)


def default_edge_radius(lattice, kappa_hi: float) -> float:
    """Edge reach for the cost graph: max(3h, h ceil(kappa)) capped at 6h."""
    h = lattice.h
    return min(max(3.0 * h, h * float(np.ceil(max(kappa_hi, 1.0)))), 6.0 * h)


@dataclass
class CostGraph(Stencil):
    """Edge costs sigma_a over a lattice: the stencil edge into x from
    x - k h costs sigma_a(mid, k h)."""

    a: float


def build_cost_graph(model, a: float, env, lattice, offsets: np.ndarray) -> CostGraph:
    """Assemble sigma_a edge costs over the offsets (a kernel's, say);
    raises on any empty sublevel sample.

    The emptiness check covers every node and every edge midpoint, so the
    subcritical certificate cannot slip between nodes.
    """
    pts = lattice.points()
    samples = _SamplePoints(env, lattice, offsets, pts, field_values(env, pts), whole=False)
    return _price(model, a, samples)


class _SamplePoints:
    """Where sigma_a is sampled on a lattice and offset set, and the field
    values there: V on the nodes and on each offset's array of edge
    midpoints, so every level reads the same values.

    The midpoint arrays are row blocks of one batch array, which starts
    with a copy of the nodes.  The node values are passed in:
    critical_value_free reads the edge radius off them before the offsets
    are known.  With whole, V over the whole batch is held too, for the
    starting levels of critical_value_free, and the midpoint values come
    with it from one cosine table filled along covers.  Without, each
    midpoint array is evaluated on its own, so a cost graph holds one
    (N, modes) table at a time, not the batch's.
    """

    def __init__(self, env, lattice, offsets: np.ndarray, nodes: np.ndarray,
                 node_values: np.ndarray, whole: bool):
        if len(offsets) == 0:
            raise ConfigError("edge radius below grid spacing: no edges")
        self.lattice = lattice
        self.offsets = np.asarray(offsets)
        self.nodes, self.node_values = nodes, node_values
        n = len(nodes)
        self.batch = np.empty(((len(self.offsets) + 1) * n, lattice.dim))
        self.batch[:n] = nodes
        self.mids = []
        for i, k in enumerate(self.offsets, start=1):
            rows = self.batch[i * n:(i + 1) * n]
            rows[...] = lattice.wrap(nodes - 0.5 * (np.asarray(k, dtype=float) * lattice.h)[None, :])
            self.mids.append(rows)
        if not whole or env is None:
            self.mid_values = [field_values(env, mids) for mids in self.mids]
            self.whole = field_values(env, self.batch) if whole else None
            return
        shaped = self.batch.reshape((len(self.offsets) + 1,) + lattice.shape + (lattice.dim,))
        self.whole, self.mid_values = env._evaluate_blocks(
            shaped, range(n, len(self.batch) + 1, n), self.covers())

    def covers(self):
        """Yield (points, members), one cover per class of the offsets mod
        2: the half-spacing points the class's blocks span, shaped as a
        lattice, and (b, index) for each block b of the batch shaped
        (blocks, *lattice.shape), with the index that reads block b off
        the cover.

        Block b holds the points x - k_b h / 2 over the nodes x (k_0 = 0:
        the nodes themselves).  With k_b = c + 2 d, c = k_b mod 2, the
        point at node I is x_(I - d) - c h / 2, the cover's point at I - d.
        The cover spans I - d over the class's blocks, so a block is a
        slice of it; on a torus the cover's points are wrapped like the
        blocks', so its slices are the cyclic shifts of one period.  The
        cover's coordinates equal the blocks' in exact arithmetic, so on a
        dyadic spacing, where every term is exact, they are bit-equal.
        """
        lat = self.lattice
        n = np.asarray(lat.shape)
        ks = np.vstack([np.zeros((1, lat.dim), dtype=int), self.offsets])
        classes = {}
        for b, k in enumerate(ks):
            classes.setdefault(tuple(k % 2), []).append(b)
        for c, blocks in classes.items():
            d = (ks[blocks] - c) // 2
            lo, hi = -d.max(axis=0), n - d.min(axis=0)
            axes = [lat.axis()[0] + np.arange(start, stop) * lat.h - 0.5 * (ci * lat.h)
                    for start, stop, ci in zip(lo, hi, c)]
            points = lat.wrap(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))
            yield points, [(b, tuple(slice(s, s + m) for s, m in zip(-shift - lo, n)))
                           for b, shift in zip(blocks, d)]


def _price(model, a: float, samples: _SamplePoints) -> CostGraph:
    """The sigma_a cost graph from the sampled field values; raises on the
    first empty sublevel, midpoints offset by offset, then the nodes.  Each
    offset's displacement is priced as one (1, dim) row, which sigma
    broadcasts over the midpoints."""
    lattice, pts = samples.lattice, samples.nodes
    h = lattice.h
    weights = np.empty((len(samples.offsets), lattice.size))
    for idx, (k, mids, V) in enumerate(zip(samples.offsets, samples.mids, samples.mid_values)):
        disp = np.asarray(k, dtype=float) * h
        w = support_sigma(model, V, disp[None, :], a)
        bad = np.isnan(w)
        if np.any(bad):
            j = int(np.argmax(bad))
            raise SubcriticalLevelError(
                f"sublevel {{H <= {a}}} empty at sampled point {mids[j]}",
                empty_at=mids[j].copy())    # a view would pin the whole batch
        weights[idx] = w
    # node-level emptiness: sigma at zero displacement
    w0 = support_sigma(model, samples.node_values, np.zeros((1, lattice.dim)), a)
    if np.any(np.isnan(w0)):
        j = int(np.argmax(np.isnan(w0)))
        raise SubcriticalLevelError(
            f"sublevel {{H <= {a}}} empty at node {pts[j]}", empty_at=pts[j])
    return CostGraph(grid=lattice, a=a, offsets=samples.offsets, weights=weights)


@dataclass
class SemidistanceResult:
    """Shortest-path semidistance from a batch of source nodes."""

    graph: CostGraph
    source_indices: np.ndarray
    values: np.ndarray = field(repr=False)    # (n_sources, size)


def semidistance(model, a: float, sources, env, lattice, offsets: np.ndarray) -> SemidistanceResult:
    """S_a(y_i, .) for each source node index y_i, on the cost graph over
    the offsets.

    Raises SubcriticalLevelError with a cycle certificate whenever the level
    admits a negative cycle; at and above the critical value the values are
    finite with S_a(y, y) = 0.
    """
    graph = build_cost_graph(model, a, env, lattice, offsets)
    src_idx = [int(s) for s in sources]
    vals = np.empty((len(src_idx), graph.size))
    for row, s in enumerate(src_idx):
        vals[row] = relax(graph, np.where(np.arange(graph.size) == s, 0.0, np.inf))
    return SemidistanceResult(graph=graph, source_indices=np.asarray(src_idx), values=vals)


# -- subsolution verification ----------------------------------------------


def lippo_scale(model, a: float, env, lattice) -> float:
    """Momentum Lipschitz scale of H near level a: sup |H| over |p| <= kappa + 2."""
    pts = lattice.points()
    V = field_values(env, pts)
    try:
        kap = kappa_at_values(model, a, V)
    except SubcriticalLevelError:
        kap = 1.0
    radii = np.array([0.0, 0.5 * (kap + 2.0), kap + 2.0])
    dirs = np.array([[1.0]]) if model.dim == 1 else np.array(
        [[1.0, 0.0], [0.0, 1.0], [np.sqrt(0.5), np.sqrt(0.5)]])
    worst = 0.0
    for r in radii:
        for e in dirs:
            p = np.repeat((r * e)[None, :], len(pts), axis=0)
            worst = max(worst, float(np.max(np.abs(model.H(V, p)))))
            worst = max(worst, float(np.max(np.abs(model.H(V, -p)))))
    return worst


@dataclass
class SubsolutionReport:
    max_violation: float
    worst_point: np.ndarray
    tol: float
    passed: bool


def check_subsolution(phi: GridFn, model, a: float, env=None) -> SubsolutionReport:
    """Almost-everywhere test H(x, D_h phi) <= a via central differences.

    Central differences average the two one-sided slopes, so kinks of
    genuine (viscosity) subsolutions stay admissible by convexity; the
    tolerance absorbs the O(h) drift of the sublevels between neighboring
    cells: tol = 4 h Ltilde with Ltilde the sampled momentum Lipschitz
    scale of H near the level.
    """
    grid = phi.grid
    tol = 4.0 * grid.h * lippo_scale(model, a, env, grid)
    grad = phi.central_gradient()
    vals = model.eval_H(grid.points(), grad, env) - a
    j = int(np.argmax(vals))
    worst = float(vals[j])
    return SubsolutionReport(
        max_violation=worst, worst_point=grid.points()[j], tol=float(tol),
        passed=bool(worst <= tol))


# -- critical values ---------------------------------------------------------


@dataclass
class CriticalValueResult:
    value: float
    lo: float
    hi: float
    iterations: int
    certificate: dict = field(default_factory=dict)

    @property
    def bracket_width(self) -> float:
        return self.hi - self.lo


def _level_verdict(model, a: float, samples: _SamplePoints) -> tuple:
    """(feasible?, detail) at level a: empty sublevel or negative cycle
    means subcritical."""
    try:
        graph = _price(model, a, samples)
    except SubcriticalLevelError as err:
        return False, {"reason": "empty_sublevel", "witness": getattr(err, "empty_at", None)}
    try:
        relax(graph, np.zeros(graph.size))
    except SubcriticalLevelError as err:
        return False, {"reason": "negative_cycle", "witness": err.cycle,
                       "cycle_cost": err.cycle_cost}
    return True, {}


# bracket expansions before critical_value_free gives up on a level
_MAX_EXPAND = 60


def critical_value_free(model, env, lattice, tol_bisect: float = 5e-3) -> CriticalValueResult:
    """Free critical value on the lattice by certificate bisection.

    The cost graph reaches default_edge_radius at kappa of the level
    max H(x, 0) over the nodes.  The field is sampled once per call: V at
    the nodes is evaluated once, and V at every offset's edge midpoints
    comes with V over the whole sample batch (nodes, then each offset's
    midpoints) from one cosine table built cover by cover
    (_SamplePoints.covers); every level's cost graph is priced from the
    per-array values.
    hi starts at max H(x, 0) over the batch, where the zero function is a
    subsolution, and lo at its min minus one.  The batch's values come from
    their own matrix-vector product, which rounds a row by its place in
    the batch, so they can differ in the last bits from the per-array
    values the cost graphs read, and the starting hi is feasible only up
    to that rounding: when its graph finds an empty sublevel, hi expands
    like any refused level.  lo expands downward until a subcritical
    certificate appears.  The reported value is the bracket midpoint.
    """
    pts = lattice.points()
    node_values = field_values(env, pts)
    zero_row = np.zeros((1, lattice.dim))
    hzero = float(np.max(model.H(node_values, zero_row)))
    try:
        kap = kappa_at_values(model, hzero, node_values)
    except SubcriticalLevelError:
        kap = 1.0
    radius = default_edge_radius(lattice, kap)
    samples = _SamplePoints(env, lattice, lattice.offsets_within(radius), pts, node_values,
                            whole=True)
    h_zero = model.H(samples.whole, zero_row)
    hi, lo = float(np.max(h_zero)), float(np.min(h_zero)) - 1.0
    del samples.whole, h_zero
    feasible_hi, _ = _level_verdict(model, hi, samples)
    iters = 0
    step = 1.0
    while not feasible_hi:
        hi += step
        step *= 2.0
        iters += 1
        if iters > _MAX_EXPAND:
            raise ConfigError("could not find a feasible upper level")
        feasible_hi, _ = _level_verdict(model, hi, samples)
    step = 1.0
    detail_lo = {}
    while True:
        feas, detail_lo = _level_verdict(model, lo, samples)
        if not feas:
            break
        lo -= step
        step *= 2.0
        iters += 1
        if iters > _MAX_EXPAND:
            # no subcritical level found: critical value is unbounded below
            # on this lattice (flat model); report the feasible floor
            return CriticalValueResult(value=lo, lo=lo, hi=hi, iterations=iters,
                                       certificate={"reason": "no_lower_certificate"})
    while hi - lo > tol_bisect:
        mid = 0.5 * (lo + hi)
        feas, detail = _level_verdict(model, mid, samples)
        if feas:
            hi = mid
        else:
            lo = mid
            detail_lo = detail
        iters += 1
        if iters > 200:
            break
    return CriticalValueResult(value=0.5 * (lo + hi), lo=lo, hi=hi,
                               iterations=iters, certificate=detail_lo)


@dataclass
class StationaryCriticalResult:
    box_radii: np.ndarray
    estimates: np.ndarray          # (n_samples, n_radii)
    means: np.ndarray
    spreads: np.ndarray            # max - min across realizations, per radius


def critical_value_stationary(model, spec, n_samples: int, box_radii,
                              points_per_unit: int = 32,
                              tol_bisect: float = 5e-3) -> StationaryCriticalResult:
    """Per-realization free critical values on growing boxes.

    Boxes are non-periodic lattices centered at the origin; under
    stationarity + ergodicity the per-realization estimates concentrate as
    the radius grows, which shows up as a shrinking cross-realization
    spread.
    """
    from .env import sample_realization

    box_radii = np.asarray(sorted(float(r) for r in box_radii))
    if box_radii.size < 1:
        raise ConfigError("need at least one box radius")
    est = np.zeros((n_samples, box_radii.size))
    for i in range(n_samples):
        omega = sample_realization(spec, i)
        for rj, rad in enumerate(box_radii):
            box = BoxSpec(dim=spec.dimension, radius=rad, points_per_unit=points_per_unit)
            res = critical_value_free(model, omega, box, tol_bisect=tol_bisect)
            est[i, rj] = res.value
    return StationaryCriticalResult(
        box_radii=box_radii, estimates=est,
        means=est.mean(axis=0), spreads=est.max(axis=0) - est.min(axis=0))
