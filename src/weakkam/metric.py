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
plain value arrays and the offsets, and forms no array's points.  A
sample point's one formula is its index on the half-spacing lattice: the
midpoint of offset k at node j is (2 (first + j) - k) h / 2, rounded once
and wrapped on a torus, and k = 0 gives the nodes.  So every array of the
class k mod 2 is by construction a slice of that class's cover, the points
the class's arrays span, and reads its cosines off the cover's, which are
computed once.

critical_value_free reads the node values (and with them the edge radius)
off the class-0 cover for the longest reach, built first, then streams the
batch of the nodes and every midpoint array, class 0 from that cover, one
array's cosines at a time through one scratch array.  Each array gets its
own matrix-vector product there, and the batch's rows pass on in batch
order through one chunk array, whose products reduce to the starting
levels run by run.  The two routes stay separate because the product
rounds a row by its place in the batch, so a point's value in the batch can
differ in the last bits from its value in its own array.  Each route keeps
reading its own values, which keeps every bracket bit for bit what it was
when each level resampled the field.  build_cost_graph streams no batch:
each array's cosines pass through one scratch array and are priced as they
come.

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


# cells per axis that a cost graph's edges reach at most (default_edge_radius)
_MAX_REACH = 6


def default_edge_radius(lattice, kappa_hi: float) -> float:
    """Edge reach for the cost graph: max(3h, h ceil(kappa)) capped at 6h."""
    h = lattice.h
    return min(max(3.0 * h, h * float(np.ceil(max(kappa_hi, 1.0)))), _MAX_REACH * h)


@dataclass
class CostGraph(Stencil):
    """Edge costs sigma_a over a lattice: the stencil edge into x from
    x - k h costs sigma_a(mid, k h)."""

    a: float


def build_cost_graph(model, a: float, env, lattice, offsets: np.ndarray) -> CostGraph:
    """Assemble sigma_a edge costs over the offsets (a kernel's, say);
    raises on any empty sublevel sample.

    The emptiness check covers every node and every edge midpoint, so the
    subcritical certificate cannot slip between nodes.  Each sample array
    is read off the cover of its class of offsets mod 2 as its own array
    (EnvRealization._block_values) and priced as its values come, so the
    graph holds its weights, one cover and one array's cosines.
    """
    samples = _SamplePoints(lattice, offsets)
    weights = np.empty((len(samples.offsets), lattice.size))
    for b, V in env._block_values(samples.shape, samples.covers()):
        if b:
            weights[b - 1] = samples.sigma(model, V, b, a)
        else:
            w0 = samples.sigma(model, V, 0, a)
    for b, w in [*enumerate(weights, start=1), (0, w0)]:
        point = samples.witness(w, b)
        if point is not None:
            where = "node" if b == 0 else "sampled point"
            raise SubcriticalLevelError(f"sublevel {{H <= {a}}} empty at {where} {point}",
                                        empty_at=point)
    return CostGraph(grid=lattice, a=a, offsets=samples.offsets, weights=weights)


class _SamplePoints:
    """Where sigma_a is sampled on a lattice and offset set: block 0 holds
    the nodes and block b >= 1 the edge midpoints of offset k = offsets[b - 1].
    Block b's point at node j is (2 (first + j) - k) h / 2, wrapped on a
    torus (_cover_points); with k = 0 these are the nodes' bits.

    The sampler holds the offsets: covers() forms one cover per class of
    offsets mod 2, of which every block is a slice, and witness() forms
    only the one point a refusal names.  Blocks of offset -k are the edge
    midpoints x + k h / 2 of offset k by its start x, which is how
    semigroup.build_kernel reads its rows.  head, when given, is the class-0
    cover (head_cover) with its table (None: computed when read), handed to
    the first cover read and dropped there.  The field values,
    one array per block in values, are set by critical_value_free, so
    every level reads the same values.
    """

    def __init__(self, lattice, offsets: np.ndarray, head=None):
        if len(offsets) == 0:
            raise ConfigError("edge radius below grid spacing: no edges")
        self.lattice = lattice
        self.offsets = np.asarray(offsets)
        self.shape = (len(self.offsets) + 1,) + lattice.shape
        self.head = head
        self.values = None

    @staticmethod
    def head_cover(lattice) -> tuple:
        """(points, index) of the cover of class 0 for any offsets within
        default_edge_radius: |k| <= _MAX_REACH per axis, so d = k / 2 spans
        [-_MAX_REACH / 2, _MAX_REACH / 2], and index reads the nodes off it.
        critical_value_free builds it before the offsets are known, to read
        the node values off it."""
        reach = _MAX_REACH // 2
        lo = np.full(lattice.dim, -reach)
        points = _cover_points(lattice, lo, np.asarray(lattice.shape) + reach, lo * 0)
        return points, tuple(slice(reach, reach + m) for m in lattice.shape)

    def covers(self):
        """Yield (points, table, members), one cover per class of the
        offsets mod 2: the half-spacing points the class's blocks span,
        shaped as a lattice, their table or None, and (b, index) for each
        block b, with the index that reads b's points off the cover.

        With k_b = c + 2 d, c = k_b mod 2, block b's point at node j is
        (2 (first + j - d) - c) h / 2, the cover's point at j - d.  The
        cover spans j - d over the class's blocks, so a block is a slice
        of it with the same bits; on a torus the cover's points are
        wrapped like the blocks', so its slices are the cyclic shifts of
        one period.  With head, (points, table) of head_cover, class 0 is
        read off that cover; the sampler drops it once yielded.
        """
        lat = self.lattice
        n = np.asarray(lat.shape)
        ks = np.vstack([np.zeros((1, lat.dim), dtype=int), self.offsets])
        classes = {}
        for b, k in enumerate(ks):
            classes.setdefault(tuple(k % 2), []).append(b)
        for c, blocks in classes.items():
            d = (ks[blocks] - c) // 2
            if self.head is not None and not any(c):
                (points, table), self.head = self.head, None
                lo = np.full(lat.dim, -(_MAX_REACH // 2))
            else:
                lo, table = -d.max(axis=0), None
                points = _cover_points(lat, lo, n - d.min(axis=0), np.asarray(c))
            yield points, table, [(b, tuple(slice(s, s + m) for s, m in zip(-shift - lo, n)))
                                  for b, shift in zip(blocks, d)]

    def sigma(self, model, V, b: int, a: float) -> np.ndarray:
        """sigma_a on block b's values V: at block b's displacement k h,
        one (1, dim) row that sigma broadcasts, or zero on the nodes."""
        k = self.offsets[b - 1] if b else np.zeros(self.lattice.dim)
        return support_sigma(model, V, (np.asarray(k, dtype=float) * self.lattice.h)[None, :], a)

    def witness(self, w: np.ndarray, b: int):
        """The point of the first NaN of block b's prices w, a fresh
        (dim,) array, or None when w has none.  With k_b = c + 2 d,
        c = k_b mod 2, block b's point at node j is class c's at j - d:
        the cover over that one index, with the bits of the whole block."""
        bad = np.isnan(w)
        if not np.any(bad):
            return None
        j = np.array(np.unravel_index(int(np.argmax(bad)), self.lattice.shape))
        k = self.offsets[b - 1] if b else np.zeros(self.lattice.dim, dtype=int)
        return _cover_points(self.lattice, j - k // 2, j - k // 2 + 1, k % 2).flatten()


def _cover_points(lattice, lo: np.ndarray, hi: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The half-spacing points (2 (first + i) - c) h / 2 over the index
    ranges i = lo..hi - 1 per axis, wrapped on a torus, shape
    (*(hi - lo), dim): one rounding per coordinate, so c = 0 gives the
    nodes' bits."""
    axes = [(2 * (lattice.first + np.arange(start, stop)) - ci) * (0.5 * lattice.h)
            for start, stop, ci in zip(lo, hi, c)]
    return lattice.wrap(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))


def _price(model, a: float, samples: _SamplePoints) -> tuple:
    """(graph, None): the sigma_a cost graph from the sampled field
    values, or (None, point) at the first empty sublevel, midpoints offset
    by offset, then the nodes."""
    weights = np.empty((len(samples.offsets), samples.lattice.size))
    for b in (*range(1, len(samples.values)), 0):
        w = samples.sigma(model, samples.values[b], b, a)
        point = samples.witness(w, b)
        if point is not None:
            return None, point
        if b:
            weights[b - 1] = w
    return CostGraph(grid=samples.lattice, a=a, offsets=samples.offsets, weights=weights), None


def semidistance(graph: CostGraph, sources) -> np.ndarray:
    """S_a(y_i, .) for each source node index y_i, one row each, on the
    sigma_a cost graph, which carries its level a.

    Raises SubcriticalLevelError with a cycle certificate whenever the level
    admits a negative cycle; at and above the critical value the values are
    finite with S_a(y, y) = 0.
    """
    rows = np.empty((len(sources), graph.size))
    for row, s in zip(rows, sources):
        row[:] = relax(graph, np.where(np.arange(graph.size) == int(s), 0.0, np.inf))
    return rows


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
    graph, point = _price(model, a, samples)
    if graph is None:
        return False, {"reason": "empty_sublevel", "witness": point}
    try:
        relax(graph, np.zeros(graph.size))
    except SubcriticalLevelError as err:
        return False, {"reason": "negative_cycle", "witness": err.cycle,
                       "cycle_cost": err.cycle_cost}
    return True, {}


# bracket expansions before critical_value_free gives up on a level
_MAX_EXPAND = 60


def _zero_momentum_range(model, zero_row: np.ndarray, slices) -> tuple:
    """(max, min) of H(x, 0), p = 0 given as zero_row, over the field
    values V(x) in an iterable of arrays, read one array at a time."""
    hi, lo = -np.inf, np.inf
    for V in slices:
        h_zero = model.H(V, zero_row)
        hi, lo = np.maximum(hi, np.max(h_zero)), np.minimum(lo, np.min(h_zero))
    return float(hi), float(lo)


def critical_value_free(model, env, lattice, tol_bisect: float = 5e-3) -> CriticalValueResult:
    """Free critical value on the lattice by certificate bisection.

    The cost graph reaches default_edge_radius at kappa of the level
    max H(x, 0) over the nodes.  The field is sampled once per call.  The
    node values are read off the cover of class 0 for the longest reach
    (_SamplePoints.head_cover), built before the offsets are known; then
    the sample batch (nodes, then each offset's midpoints) is streamed
    from the covers' cosines, class 0 from that same cover
    (EnvRealization._evaluate_blocks), and gives V over the whole batch,
    run by run, and V per sample array.  Every level's cost graph is
    priced from the per-array values.  No (M, modes) table of the batch's
    cosines is held: the call holds the covers' cosines, one array's
    cosines and one chunk of rows while it samples.
    hi starts at max H(x, 0) over the batch, where the zero function is a
    subsolution, and lo at its min minus one, both reduced from the
    batch's runs as they come, never stored.
    The batch's values come from the product over the whole batch, which
    rounds a row by its place in the batch, so they can differ in the last
    bits from the per-array values the cost graphs read, and the starting
    hi is feasible only up to that rounding: when its graph finds an empty
    sublevel, hi expands like any refused level.  lo expands downward
    until a subcritical certificate appears.  The reported value is the
    bracket midpoint.
    """
    points, index = _SamplePoints.head_cover(lattice)
    table, node_values = env._cover_values(points, index)
    zero_row = np.zeros((1, lattice.dim))
    hzero = float(np.max(model.H(node_values, zero_row)))
    try:
        kap = kappa_at_values(model, hzero, node_values)
    except SubcriticalLevelError:
        kap = 1.0
    radius = default_edge_radius(lattice, kap)
    samples = _SamplePoints(lattice, lattice.offsets_within(radius), head=(points, table))
    del points, table, node_values    # the sampler holds the cover until it is read
    (hi, lo), samples.values = env._evaluate_blocks(
        samples.shape, samples.covers(),
        lambda runs: _zero_momentum_range(model, zero_row, runs))
    lo -= 1.0
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
    spread.  An ensemble of no realization, or of a box that BoxSpec
    refuses (a radius that is negative, not finite or gives a one-node box,
    points_per_unit below 1), is refused (ConfigError) before any
    realization is sampled.

    Each realization's boxes run in ascending order, one
    critical_value_free call each, so every estimate is that call's value
    bit for bit and the ensemble holds no more than one call does.
    """
    from .env import sample_realization

    if n_samples < 1:
        raise ConfigError(f"critical_value_stationary needs n_samples >= 1, got {n_samples}")
    boxes = sorted((BoxSpec(dim=spec.dimension, radius=float(r), points_per_unit=points_per_unit)
                    for r in box_radii), key=lambda box: box.radius)
    if not boxes:
        raise ConfigError("need at least one box radius")
    box_radii = np.asarray([box.radius for box in boxes])
    est = np.zeros((n_samples, box_radii.size))
    for i in range(n_samples):
        omega = sample_realization(spec, i)
        for rj, box in enumerate(boxes):
            est[i, rj] = critical_value_free(model, omega, box, tol_bisect=tol_bisect).value
    return StationaryCriticalResult(
        box_radii=box_radii, estimates=est,
        means=est.mean(axis=0), spreads=est.max(axis=0) - est.min(axis=0))
