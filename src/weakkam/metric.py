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
levels it tries.  The midpoint arrays are row blocks of one batch that
starts with the nodes, and the starting levels of critical_value_free are
read off V over that whole batch.  critical_value_free evaluates the nodes
once (the edge radius is read off them) and the batch once: one cosine
table, with one matrix-vector product per midpoint array and one over the
batch.  The products stay separate because the product rounds a row by
its place in the batch, so a point's value in the batch can differ in the
last bits from its value in its own array.  Each route keeps reading its
own values, which keeps every bracket bit for bit what it was when each
level resampled the field.

Edge convention: the edge for offset k ends at node x and starts at
x - k h, costs sigma_a(mid, k h) with mid the (wrapped) segment midpoint.
S(y, x) is the cheapest chain from y to x; subsolutions are exactly the
functions with phi(x) - phi(y) <= S(y, x).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SubcriticalLevelError
from .grid import BoxSpec, GridFn, GridSpec, Stencil, relax

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


def support_sigma(model, x, q, a: float, env=None) -> np.ndarray:
    """sigma_a(x, q); NaN entries mark points with empty sublevel.

    Closed form when the model provides one, otherwise a sup over a momentum
    lattice (adequate for smoke tests; catalog models never hit it).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    if model.sigma is not None:
        return np.asarray(model.sigma(x, q, a, env), dtype=float)
    from .hamiltonian import _p_lattice

    lattice = _p_lattice(model.dim, 8.0, 129)
    out = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        h = model.eval_H(np.repeat(x[i : i + 1], len(lattice), axis=0), lattice, env)
        inside = h <= a + 1e-12
        out[i] = np.max(lattice[inside] @ q[i]) if np.any(inside) else np.nan
    return out


def default_edge_radius(lattice, kappa_hi: float) -> float:
    """Edge reach for the cost graph: max(3h, h ceil(kappa)) capped at 6h."""
    h = lattice.h
    return min(max(3.0 * h, h * float(np.ceil(max(kappa_hi, 1.0)))), 6.0 * h)


@dataclass
class CostGraph(Stencil):
    """Edge costs sigma_a over a lattice: the stencil edge into x from
    x - k h costs sigma_a(mid, k h)."""

    a: float


def build_cost_graph(model, a: float, env, lattice, radius: float | None = None,
                     offsets: np.ndarray | None = None) -> CostGraph:
    """Assemble sigma_a edge costs; raises on any empty sublevel sample.

    The emptiness check covers every node and every edge midpoint, so the
    subcritical certificate cannot slip between nodes.
    """
    if offsets is None:
        if radius is None:
            raise ConfigError("build_cost_graph needs a radius or an explicit offset set")
        offsets = lattice.offsets_within(radius)
    return _price(model, a, _SamplePoints(env, lattice, offsets))


class _SampledField:
    """Environment view that evaluates the field on one sample array once
    and hands the stored values back whenever that same array is asked for;
    any other array goes to the realization."""

    def __init__(self, env, points: np.ndarray, values: np.ndarray | None = None):
        self.env = env
        self.points = points
        self._values = None
        if values is not None:
            self.store(values)

    def store(self, values: np.ndarray) -> None:
        self._values = values
        self._values.flags.writeable = False

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        if x is not self.points:
            return self.env.evaluate(x)
        if self._values is None:
            self.store(self.env.evaluate(x))
        return self._values


class _SamplePoints:
    """Where sigma_a is sampled on a lattice and offset set: the node array
    and one array of edge midpoints per offset, each with the environment
    view it is priced through, so every level reads the same field values.

    The midpoint arrays are row blocks of one batch array, which starts
    with a copy of the nodes.  node_field is a view over lattice.points()
    made before the offsets were known (the edge radius is read off the
    node values); passing it keeps the nodes to one evaluation.
    """

    def __init__(self, env, lattice, offsets: np.ndarray, node_field=None):
        if len(offsets) == 0:
            raise ConfigError("edge radius below grid spacing: no edges")
        self.env = env
        self.lattice = lattice
        self.offsets = np.asarray(offsets)
        self.nodes = lattice.points() if node_field is None else node_field.points
        n = len(self.nodes)
        self.batch = np.empty(((len(self.offsets) + 1) * n, lattice.dim))
        self.batch[:n] = self.nodes
        self.mids = []
        for i, k in enumerate(self.offsets, start=1):
            rows = self.batch[i * n:(i + 1) * n]
            rows[...] = lattice.wrap(self.nodes - 0.5 * (np.asarray(k, dtype=float) * lattice.h)[None, :])
            self.mids.append(rows)
        self.fields = [_field_view(env, self.nodes) if node_field is None else node_field,
                       *(_field_view(env, pts) for pts in self.mids)]

    def batch_field(self):
        """Evaluate the field over the batch from one shared table: each
        midpoint view stores its own array's values, and the returned view
        holds the whole batch's (None when env is None).  The node view is
        left as it is."""
        if self.env is None:
            return None
        n = len(self.nodes)
        whole, blocks = self.env._evaluate_blocks(self.batch, range(n, len(self.batch) + 1, n))
        for view, values in zip(self.fields[1:], blocks):
            view.store(values)
        return _SampledField(self.env, self.batch, whole)


def _field_view(env, points: np.ndarray):
    """A _SampledField over points, or None (V = 0) when env is None."""
    return None if env is None else _SampledField(env, points)


def _price(model, a: float, samples: _SamplePoints) -> CostGraph:
    """The sigma_a cost graph on the sample points; raises on the first
    empty sublevel, midpoints offset by offset, then the nodes."""
    lattice, pts = samples.lattice, samples.nodes
    h = lattice.h
    m = len(samples.offsets)
    weights = np.empty((m, lattice.size))
    for idx, (k, mids, view) in enumerate(zip(samples.offsets, samples.mids, samples.fields[1:])):
        disp = np.asarray(k, dtype=float) * h
        w = support_sigma(model, mids, np.repeat(disp[None, :], len(pts), axis=0), a, view)
        bad = np.isnan(w)
        if np.any(bad):
            j = int(np.argmax(bad))
            raise SubcriticalLevelError(
                f"sublevel {{H <= {a}}} empty at sampled point {mids[j]}",
                empty_at=mids[j].copy())    # a view would pin the whole batch
        weights[idx] = w
    # node-level emptiness: sigma at zero displacement
    w0 = support_sigma(model, pts, np.zeros_like(pts), a, samples.fields[0])
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

    def as_gridfn(self, row: int = 0) -> GridFn:
        if not isinstance(self.graph.grid, GridSpec):
            raise ConfigError("only periodic-grid semidistances convert to GridFn")
        return GridFn(self.graph.grid, self.values[row])


def semidistance(model, a: float, sources, env, lattice, radius: float | None = None,
                 offsets: np.ndarray | None = None) -> SemidistanceResult:
    """S_a(y_i, .) for each source node y_i (indices or coordinates).

    Raises SubcriticalLevelError with a cycle certificate whenever the level
    admits a negative cycle; at and above the critical value the values are
    finite with S_a(y, y) = 0.
    """
    if radius is None and offsets is None:
        kap = _kappa_for_radius(model, a, env, lattice.points())
        radius = default_edge_radius(lattice, kap)
    graph = build_cost_graph(model, a, env, lattice, radius=radius, offsets=offsets)
    src_idx = _as_node_indices(lattice, sources)
    vals = np.empty((len(src_idx), graph.size))
    for row, s in enumerate(src_idx):
        vals[row] = relax(graph, np.where(np.arange(graph.size) == s, 0.0, np.inf))
    return SemidistanceResult(graph=graph, source_indices=np.asarray(src_idx), values=vals)


def _kappa_for_radius(model, a, env, points) -> float:
    from .hamiltonian import kappa

    try:
        return kappa(model, a, env, x_samples=points)
    except SubcriticalLevelError:
        return 1.0


def _as_node_indices(lattice, sources) -> list:
    """Sources given as flat node indices (ints) or coordinate rows."""
    out = []
    for s in list(np.atleast_1d(np.asarray(sources, dtype=object))):
        if isinstance(s, (int, np.integer)):
            out.append(int(s))
            continue
        arr = np.asarray(s, dtype=float).reshape(-1)
        if isinstance(lattice, GridSpec):
            out.append(lattice.index_of(arr))
        else:
            pts = lattice.points()
            out.append(int(np.argmin(np.linalg.norm(pts - arr[None, :], axis=1))))
    return out


# -- subsolution verification ----------------------------------------------


def lippo_scale(model, a: float, env, lattice) -> float:
    """Momentum Lipschitz scale of H near level a: sup |H| over |p| <= kappa + 2."""
    from .hamiltonian import kappa

    pts = lattice.points()
    try:
        kap = kappa(model, a, env, x_samples=pts)
    except SubcriticalLevelError:
        kap = 1.0
    radii = np.array([0.0, 0.5 * (kap + 2.0), kap + 2.0])
    dirs = np.array([[1.0]]) if model.dim == 1 else np.array(
        [[1.0, 0.0], [0.0, 1.0], [np.sqrt(0.5), np.sqrt(0.5)]])
    worst = 0.0
    for r in radii:
        for e in dirs:
            p = np.repeat((r * e)[None, :], len(pts), axis=0)
            worst = max(worst, float(np.max(np.abs(model.eval_H(pts, p, env)))))
            worst = max(worst, float(np.max(np.abs(model.eval_H(pts, -p, env)))))
    return worst


@dataclass
class SubsolutionReport:
    max_violation: float
    worst_point: np.ndarray
    tol: float
    passed: bool


def check_subsolution(phi: GridFn, model, a: float, env=None,
                      tol: float | None = None) -> SubsolutionReport:
    """Almost-everywhere test H(x, D_h phi) <= a via central differences.

    Central differences average the two one-sided slopes, so kinks of
    genuine (viscosity) subsolutions stay admissible by convexity; the
    tolerance absorbs the O(h) drift of the sublevels between neighboring
    cells.  Default tol = 4 h Ltilde with Ltilde the sampled momentum
    Lipschitz scale of H near the level.
    """
    grid = phi.grid
    if tol is None:
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
    midpoints) from one cosine table; every level's cost graph is priced
    from the per-array values.
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
    node_field = _field_view(env, pts)
    hzero = float(np.max(model.eval_H(pts, np.zeros_like(pts), node_field)))
    kap = _kappa_for_radius(model, hzero, node_field, pts)
    radius = default_edge_radius(lattice, kap)
    samples = _SamplePoints(env, lattice, lattice.offsets_within(radius), node_field)
    batch_field = samples.batch_field()    # before the zero momenta: its table is the peak
    h_zero = model.eval_H(samples.batch, np.zeros_like(samples.batch), batch_field)
    hi, lo = float(np.max(h_zero)), float(np.min(h_zero)) - 1.0
    del batch_field, h_zero
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
