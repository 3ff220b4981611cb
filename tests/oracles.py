"""Independent routes and audits that only the tests run.

The package keeps the code that its command line, demos and benchmark run
(tests/test_reachability.py checks that).  The second routes the suite
checks it against live here: the field gradient by array expressions, a
Legendre transform and a sublevel margin by momentum search, a
Lax-Friedrichs finite-difference scheme for the Cauchy problem, minimizing
chains and calibrated curves of the discrete semigroup, characteristics
shadowing those chains, the paraboloid envelope identity, the invariance
of the lifted Aubry mask, weak strictness against the semidistance, and a
sublinear-growth audit.  So do the torus geometry,
the CSV reader that only they and the tests need, the textbook
per-offset stencil formulas (one shifted copy of the data per offset) that
the stencil's gather plan is checked against, the replay of a walk
from the in-edges it records, the one-step kernel built one offset at
a time, and the product over a batch's whole cosine table as one
single-threaded BLAS call rounds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from weakkam.aubry import _worst_point, verify_member
from weakkam.env import _CHUNK
from weakkam.errors import ConfigError, NotASubsolutionError, SubcriticalLevelError, WeakKamError
from weakkam.grid import GridFn, GridSpec, Stencil, lattice_points, relax
from weakkam.hamiltonian import lipschitz_radius
from weakkam.metric import _cover_points, build_cost_graph, semidistance
from weakkam.semigroup import lax_minus, semigroup_orbit
from weakkam.tonelli import FlowState, _require_tonelli, flow_integrate


def batch_product(table: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """table @ amplitudes for a batch's (M, K) cosine table, rounded as one
    single-threaded BLAS call rounds it: one call per run of _CHUNK rows.
    A test process may run BLAS on several threads, which split one call
    over the batch at rows that round differently;
    tests/test_metric.py checks in one-thread child processes that the
    runs are the one call's bits."""
    return np.concatenate([table[s:s + _CHUNK] @ amplitudes for s in range(0, len(table), _CHUNK)])


class PRadiusError(WeakKamError):
    """A momentum search hit the edge of its lattice or probe radius: either
    the radius is too small or the supremum is infinite (a velocity outside
    the model's cone)."""


# -- torus geometry and grid functions ----------------------------------------


def min_image(d) -> np.ndarray:
    """Minimal periodic representative of a displacement, in [-1/2, 1/2)."""
    return np.mod(np.asarray(d) + 0.5, 1.0) - 0.5


def torus_dist(grid: GridSpec, x, y) -> np.ndarray:
    d = min_image(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    return np.linalg.norm(np.atleast_1d(d).reshape(-1, grid.dim), axis=-1)


def one_sided_slopes(fn: GridFn, axis: int) -> tuple:
    """(backward, forward) difference quotients along an axis."""
    v = fn.shaped()
    h = fn.grid.h
    fwd = (np.roll(v, -1, axis=axis) - v) / h
    bwd = (v - np.roll(v, 1, axis=axis)) / h
    return bwd.ravel(), fwd.ravel()


def load_gridfn_csv(path) -> GridFn:
    """Read back a grid function that weakkam.grid.save_gridfn_csv wrote."""
    with open(path) as fh:
        head = fh.readline().strip()
        fh.readline()  # spacing line, implied by n
        fh.readline()  # column names
        if not head.startswith("# gridfn"):
            raise ConfigError(f"{path} is not a gridfn CSV (bad header {head!r})")
        fields = dict(tok.split("=") for tok in head.split()[2:])
        grid = GridSpec(dim=int(fields["dim"]), n=int(fields["n"]))
        vals = np.zeros(grid.size)
        for line in fh:
            parts = line.strip().split(",")
            vals[int(parts[0])] = float(parts[-1])
    return GridFn(grid, vals)


# -- the stencil, one offset at a time -----------------------------------------


def rolled(grid, values: np.ndarray, k) -> np.ndarray:
    """values at node - k h, flat: np.roll on a torus, +inf where that node
    is past the edge of a box."""
    if grid.periodic:
        shift = tuple(int(c) for c in np.atleast_1d(k))
        return np.roll(values.reshape(grid.shape), shift, axis=tuple(range(grid.dim))).ravel()
    coords = np.stack(np.unravel_index(np.arange(grid.size), grid.shape), axis=1) - k
    inside = np.all((coords >= 0) & (coords < grid.n), axis=1)
    out = np.full(grid.size, np.inf)
    out[inside] = values[np.ravel_multi_index(tuple(coords[inside].T), grid.shape)]
    return out


def pull_by_rolls(stencil, u: np.ndarray) -> np.ndarray:
    """min over the offsets k of u(x - k h) + weights[k, x], row by row of
    a stack."""
    if u.ndim > 1:
        return np.stack([pull_by_rolls(stencil, row) for row in u])
    best = np.full(u.shape, np.inf)
    for k, w in zip(stencil.offsets, stencil.weights):
        np.minimum(best, rolled(stencil.grid, u, k) + w, out=best)
    return best


def pull_argmin_by_rolls(stencil, u: np.ndarray) -> tuple:
    """pull of a vector and the first offset index attaining it (0 where
    the minimum is +inf)."""
    best, arg = np.full(u.shape, np.inf), np.zeros(u.shape, dtype=int)
    for i, (k, w) in enumerate(zip(stencil.offsets, stencil.weights)):
        cand = rolled(stencil.grid, u, k) + w
        took = cand < best
        best[took], arg[took] = cand[took], i
    return best, arg


def take_min_by_argmin(cand: np.ndarray, rows: slice, best: np.ndarray, arg: np.ndarray) -> None:
    """grid._take_min by a full np.argmin over the block's columns: lower
    best to the column minima where they are smaller (a NaN minimum lowers
    nothing) and record the first offset index attaining each."""
    j = np.argmin(cand, axis=0)
    low = np.take_along_axis(cand, j[None], axis=0)[0]
    took = low < best
    best[took] = low[took]
    arg[took] = rows.start + j[took]


def block_points(samples, b: int) -> np.ndarray:
    """Block b's points of a bisection sampler, shape lattice.shape +
    (dim,): with k_b = c + 2 d, c = k_b mod 2, class c's cover over the
    nodes shifted by -d."""
    k = samples.offsets[b - 1] if b else np.zeros(samples.lattice.dim, dtype=int)
    return _cover_points(samples.lattice, -(k // 2), np.asarray(samples.lattice.shape) - k // 2,
                         k % 2)


def replayed_walk(stencil, u: np.ndarray, steps: int):
    """Yield (walked, replayed) for each step of stencil.walk(u, steps): the
    replayed row sums each node's recorded in-edge, set from the nodes and
    offset indices the walk names (no edge, +inf, before the first), against
    the previous walked row."""
    src, cost = np.full(stencil.size, -1), np.full(stencil.size, np.inf)
    for row, nodes, offs in stencil.walk(u, steps):
        src[nodes] = stencil.grid.neighbors(nodes, -stencil.offsets[offs])    # -1 off a box
        cost[nodes] = stencil.weights[offs, nodes]
        yield row, np.append(u, np.inf)[src] + cost
        u = row


def edge_gap_by_rolls(stencil, v: np.ndarray) -> float:
    """max of (v(x) - v(x - k h)) - weights[k, x] over the finite weights;
    +inf when v has a non-finite value."""
    if not np.all(np.isfinite(v)):
        return np.inf
    gap = -np.inf
    for k, w in zip(stencil.offsets, stencil.weights):
        row = (v - rolled(stencil.grid, v, k)) - w
        gap = max(gap, float(np.max(row, where=np.isfinite(w), initial=-np.inf)))
    return gap


def worst_gap_node_by_rolls(stencil, v: np.ndarray) -> int:
    """The node of the first edge, in offset order and then node order,
    that attains edge_gap_by_rolls; v's first non-finite value if any."""
    if not np.all(np.isfinite(v)):
        return int(np.argmin(np.isfinite(v)))
    gap, node = -np.inf, 0
    for k, w in zip(stencil.offsets, stencil.weights):
        row = np.where(np.isfinite(w), (v - rolled(stencil.grid, v, k)) - w, -np.inf)
        j = int(np.argmax(row))
        if row[j] > gap:
            gap, node = row[j], j
    return node


def reversed_by_rolls(stencil) -> tuple:
    """(offsets, weights) of every edge turned around: row k is weights[k]
    read at node + k h, +inf past the edge of a box."""
    turned = np.empty_like(stencil.weights)
    for row, k, w in zip(turned, stencil.offsets, stencil.weights):
        row[:] = rolled(stencil.grid, w, -k)
    return -stencil.offsets, turned


def per_offset_kernel(model, env, grid, dt: float, theta: float, shift: float) -> tuple:
    """(offsets, weights) of the one-step kernel, one offset at a time:
    each offset's edge midpoints formed and wrapped, V evaluated on them,
    L priced by the start of each edge, the rows stacked into a second
    array, turned by Stencil.reversed into a third, and the connectivity
    checked by two relaxes on a float32 hop stencil, the second on its
    reversal.  Raises the ConfigError that build_kernel raises."""
    radius_one = dt * lipschitz_radius(theta, model) + 2.0 * grid.h
    pts = grid.points()
    kept, rows = [], []
    for k in grid.offsets_within(radius_one, include_zero=True):
        disp = np.asarray(k, dtype=float) * grid.h
        q = disp / dt
        mids = grid.wrap(pts + 0.5 * disp[None, :])
        cost = dt * (model.L(env.evaluate(mids), q[None, :]) + shift)
        if np.any(np.isfinite(cost)):
            kept.append(k)
            rows.append(cost)
    kept = np.asarray(kept, dtype=int).reshape(-1, grid.dim)
    weights = np.asarray(rows, dtype=float).reshape(-1, grid.size)    # by start node
    last = {}
    for i, k in enumerate(map(tuple, kept % grid.n)):
        if k in last:
            np.minimum(weights[i], weights[last[k]], out=weights[i])
        last[k] = i
    keep = sorted(last.values())
    offsets, weights = kept[keep], weights[keep]
    weights = Stencil(grid, -offsets, weights).reversed().weights    # by end node
    hops = Stencil(grid, offsets, np.where(np.isfinite(weights), np.float32(0), np.float32(np.inf)))
    start = np.where(np.arange(grid.size) == 0, 0.0, np.inf)
    if not all(np.all(np.isfinite(relax(steps, start))) for steps in (hops, hops.reversed())):
        fastest = float(np.max(np.linalg.norm(offsets, axis=1), initial=0.0)) * grid.h / dt
        raise ConfigError(
            f"the one-step kernel graph is not strongly connected: a one-cell move "
            f"needs speed h/dt = {grid.h / dt:g}, the model's speed cone kept moves "
            f"up to speed {fastest:g}; choose dt and n with h/dt <= its maximal speed")
    return offsets, weights


# -- the field gradient over arrays of points --------------------------------------


def field_gradient(env, x: np.ndarray) -> np.ndarray:
    """DV at the rows of an (m, dim) float array x, by the textbook array
    expressions: a cosine sum takes its sines over an (m, modes) angle
    array and sums the modes by one matrix product, a bump cloud sums its
    centers with numpy.  The second route for EnvRealization.gradient,
    which takes one point in Python floats."""
    if env.centers is not None:
        d = x[:, None, :] - env.centers[None, :, :]
        w = np.clip(1.0 - np.sum(d * d, axis=2) / env.bump_radius**2, 0.0, None)
        return np.sum((-6.0 * w**2 / env.bump_radius**2)[:, :, None] * d, axis=1)
    s = np.sin(2.0 * np.pi * (x @ env.freqs.T) + env.phases[None, :]) * env.amplitudes[None, :]
    return -2.0 * np.pi * (s @ env.freqs)


# -- momentum searches: the closed forms' second route ---------------------------

_LEGENDRE_N_P = 129    # momentum lattice points per axis


def _on_lattice_boundary(idx: int, dim: int, n_p: int) -> bool:
    if dim == 1:
        return idx in (0, n_p - 1)
    i, j = divmod(idx, n_p)
    return i in (0, n_p - 1) or j in (0, n_p - 1)


@dataclass
class LegendreResult:
    value: float
    p_star: np.ndarray


def legendre(model, x, q, env=None, p_radius: float = 6.0) -> LegendreResult:
    """Numeric Legendre transform L(x,q) = sup_p <p,q> - H(x,p).

    Grid search over a momentum lattice followed by a one-step quadratic
    polish along each axis.  An argmax on the lattice boundary means either
    p_radius is too small or the supremum is genuinely infinite (velocity
    outside the model's cone), and raises PRadiusError.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    q = np.asarray(q, dtype=float).reshape(1, -1)
    lattice = lattice_points(np.linspace(-p_radius, p_radius, _LEGENDRE_N_P), model.dim)
    objective = (lattice @ q[0]) - model.eval_H(np.repeat(x, len(lattice), axis=0), lattice, env)
    k = int(np.argmax(objective))
    p_star = lattice[k].copy()
    value = float(objective[k])
    if _on_lattice_boundary(k, model.dim, _LEGENDRE_N_P):
        raise PRadiusError(
            f"p_radius too small: Legendre argmax for q={q[0]} sits on the momentum "
            f"lattice boundary (|p|={np.linalg.norm(p_star):.3g})")
    # quadratic polish, axis by axis, using lattice neighbors
    dp = 2.0 * p_radius / (_LEGENDRE_N_P - 1)
    for a in range(model.dim):
        trial = np.repeat(p_star[None, :], 3, axis=0)
        trial[0, a] -= dp
        trial[2, a] += dp
        v = (trial @ q[0]) - model.eval_H(np.repeat(x, 3, axis=0), trial, env)
        denom = v[0] - 2.0 * v[1] + v[2]
        if denom < -1e-14:
            shift = 0.5 * (v[0] - v[2]) / denom * dp
            p_star[a] += float(np.clip(shift, -dp, dp))
    polished = float(p_star @ q[0] - model.eval_H(x, p_star[None, :], env)[0])
    if polished > value:
        value = polished
    return LegendreResult(value=value, p_star=p_star)


def _unit_directions(dim: int) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    ang = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def sublevel_margin(model, a: float, b: float, env=None) -> float:
    """Largest rho with Z_a(x) + B_rho inside Z_b(x) over sampled x.

    For each sample and each probe direction, the boundary point of Z_a
    along the ray from an interior center is located by bisection and pushed
    rho further; dyadic search returns the largest verified rho.  Exact for
    the radial catalog models, a sampled certificate for general convex ones.
    """
    if b < a:
        raise ConfigError(f"need b >= a, got a={a}, b={b}")
    n = 64 if model.dim == 1 else 8
    xs = lattice_points(np.arange(n) / n, model.dim)
    dirs = _unit_directions(model.dim)
    p_radius, iters = 8.0, 48    # probe rays reach 2 p_radius; iters bisection steps
    boundary_pts = []
    lattice = lattice_points(np.linspace(-p_radius, p_radius, 65), model.dim)
    for x in xs:
        xrep = np.repeat(x[None, :], len(lattice), axis=0)
        h = model.eval_H(xrep, lattice, env)
        inside = h <= a + 1e-12
        if not np.any(inside):
            continue
        center = lattice[int(np.argmin(h))]
        for e in dirs:
            lo_t, hi_t = 0.0, 2.0 * p_radius
            if model.eval_H(x[None, :], (center + hi_t * e)[None, :], env)[0] <= a:
                raise PRadiusError(f"sublevel reaches the probe radius {2.0 * p_radius:g}")
            for _ in range(iters):
                mid = 0.5 * (lo_t + hi_t)
                if model.eval_H(x[None, :], (center + mid * e)[None, :], env)[0] <= a:
                    lo_t = mid
                else:
                    hi_t = mid
            boundary_pts.append((x, center + lo_t * e, e))
    if not boundary_pts:
        raise SubcriticalLevelError(f"sublevel {{H <= {a}}} empty at every sampled x")

    def feasible(rho: float) -> bool:
        for x, z, e in boundary_pts:
            if model.eval_H(x[None, :], (z + rho * e)[None, :], env)[0] > b + 1e-12:
                return False
        return True

    lo, hi = 0.0, 2.0 * p_radius
    if feasible(hi):
        return hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


# -- sublinear growth ---------------------------------------------------------


@dataclass
class SublinearityReport:
    radii: np.ndarray
    ratios: np.ndarray
    threshold: float
    passed: bool


def _sphere_points(dim: int, r: float) -> np.ndarray:
    if dim == 1:
        return np.array([[-r], [r]])
    ang = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
    return r * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def check_sublinearity(v, radii, dim: int = 1) -> SublinearityReport:
    """Track max_{|x| = R} |v(x)| / R over growing radii.

    Sublinear growth shows as the ratio decaying below the threshold, half
    the first ratio.  Needs at least two radii to say anything about a
    trend.  In 2D each circle is sampled at 128 points.
    """
    radii = np.asarray(sorted(float(r) for r in radii))
    if radii.size < 2:
        raise ConfigError("check_sublinearity needs at least two radii")
    if np.any(radii <= 0):
        raise ConfigError("radii must be positive")
    ratios = np.zeros(radii.size)
    for i, r in enumerate(radii):
        pts = _sphere_points(dim, r)
        vals = np.abs(np.asarray(v(pts), dtype=float))
        ratios[i] = float(np.max(vals)) / r
    thr = 0.5 * ratios[0]
    trend_ok = bool(np.all(ratios[1:] <= ratios[:-1] * 1.10))
    passed = bool(ratios[-1] < thr) and trend_ok
    return SublinearityReport(radii=radii, ratios=ratios, threshold=float(thr), passed=passed)


# -- the Cauchy problem by finite differences ---------------------------------------


def lax_friedrichs_evolve(u0: GridFn, model, env, t_final: float) -> GridFn:
    """Monotone upwind (local Lax-Friedrichs) scheme for u_t + H(x, Du) = 0.

    Completely independent of the kernel machinery: explicit time stepping
    at CFL number 0.4 with one-sided differences and a dissipation at least
    the momentum Lipschitz bound of H over the slopes present in the data.
    """
    grid = u0.grid
    slope = max(float(np.max(np.abs(b))) for b in
                [np.concatenate(one_sided_slopes(u0, a)) for a in range(grid.dim)])
    # sup |H_p| over |p| <= R, R = 1.5 slope + 2: R + |P| on the quadratic
    # profile, 1 on the cone and the flat core
    reach = 1.5 * slope + 2.0
    dhp = reach + float(np.linalg.norm(model.tilt)) if model.profile.quadratic else 1.0
    dissipation = max(dhp, 1.0)
    h = grid.h
    dt = 0.4 * h / (dissipation * grid.dim)
    steps = max(int(np.ceil(t_final / dt)), 1)
    dt = t_final / steps
    pts = grid.points()
    u = u0.values.copy()
    for _ in range(steps):
        fn = GridFn(grid, u)
        centers = []
        visc = np.zeros(grid.size)
        for axis in range(grid.dim):
            bwd, fwd = one_sided_slopes(fn, axis)
            centers.append(0.5 * (bwd + fwd))
            visc += 0.5 * dissipation * (fwd - bwd)
        grad = np.stack(centers, axis=1)
        u = u - dt * (model.eval_H(pts, grad, env) - visc)
    return GridFn(grid, u)


@dataclass
class TimeDependentReport:
    t_final: float
    max_discrepancy: float
    tol: float
    passed: bool


def check_time_dependent_solution(u0: GridFn, kernel, t_final: float) -> TimeDependentReport:
    """Kernel evolution vs the independent monotone scheme.

    Both discretize the same Cauchy problem; agreement to the scheme's
    sqrt(h)-scale accuracy, tol = 4 sqrt(h) (1 + t_final), ties the
    variational route to the PDE route.
    """
    dp = lax_minus(u0, kernel, t_final)
    dp_vals = dp.values - kernel.shift * t_final
    fd = lax_friedrichs_evolve(u0, kernel.model, kernel.env, t_final)
    diff = float(np.max(np.abs(dp_vals - fd.values)))
    tol = 4.0 * np.sqrt(u0.grid.h) * (1.0 + t_final)
    return TimeDependentReport(t_final=t_final, max_discrepancy=diff,
                               tol=float(tol), passed=bool(diff <= tol))


# -- fixed points, minimizing chains and calibrated curves ----------------------------


def fixed_point_set(v: GridFn, kernel, t: float, eps: float) -> np.ndarray:
    """Boolean mask {x : (T_t v + a t)(x) - v(x) <= eps}, a the kernel's
    level (the folded image carries the + a t).

    v must verify as a discrete subsolution first (or the residual sign is
    meaningless), so a v that fails verify_member is refused.
    """
    ok, worst = verify_member(v, kernel)
    if not ok:
        raise NotASubsolutionError(
            f"fixed_point_set needs a verified subsolution "
            f"(edge violation {worst:.3e})",
            worst_point=_worst_point(v, kernel), violation=worst)
    return lax_minus(v, kernel, t).values - v.values <= eps


def minimizing_chain(stencil, orbit: np.ndarray, x: int) -> tuple:
    """Optimal predecessors of the backward orbit's last row at node x.

    orbit[m] = pull^m(orbit[0]) for m = 0..n.  Returns the chain forward
    in time (n + 1 nodes, ending at x) and the cost of each of its n
    steps.  Ties break to the smallest predecessor index.
    """
    chain, costs = [int(x)], []
    for prev in orbit[-2::-1]:
        preds = stencil.predecessors(chain[-1])
        cand = np.where(preds >= 0, prev[preds] + stencil.weights[:, chain[-1]], np.inf)
        k = min(np.flatnonzero(cand == np.min(cand)), key=lambda i: preds[i])
        costs.append(stencil.weights[k, chain[-1]])
        chain.append(int(preds[k]))
    return np.array(chain[::-1], dtype=int), np.array(costs[::-1], dtype=float)


@dataclass
class CalibratedCurve:
    """Backward optimizer chain with its calibration audit."""

    indices: np.ndarray
    coords: np.ndarray
    step_costs: np.ndarray
    calibration_defect: float    # max |w jump - folded step cost|
    action_vs_semidistance: float
    stays_in_mask: bool


def _index_of(grid: GridSpec, x) -> int:
    """Flat index of the torus node nearest to the point x."""
    ix = np.atleast_1d(np.mod(np.rint(np.asarray(x, dtype=float) / grid.h).astype(int), grid.n))
    flat = 0
    for a in range(grid.dim):
        flat = flat * grid.n + ix[a]
    return int(flat)


def extract_calibrated_curve(x0, w: GridFn, kernel, n_steps: int, mask) -> CalibratedCurve:
    """Backtrack the argmin chain of T_{n dt} w below x0 (a node index or
    a point, which goes to its nearest node).

    The chain positions z_m realize the dynamic program, so along them the
    folded step costs should reproduce the increments of w (calibration)
    and the total action should dominate the semidistance S_a between the
    endpoints, a the kernel's level; both defects are reported, not
    asserted.
    """
    grid = kernel.grid
    x0_idx = x0 if isinstance(x0, (int, np.integer)) else _index_of(grid, x0)
    chain, costs = minimizing_chain(kernel, semigroup_orbit(w, kernel, n_steps), x0_idx)
    w_jumps = w.values[chain[1:]] - w.values[chain[:-1]]
    calib = float(np.max(np.abs(w_jumps - costs))) if len(costs) else 0.0
    graph = build_cost_graph(kernel.model, kernel.shift, kernel.env, grid, kernel.offsets)
    act_vs_s = float(costs.sum() - semidistance(graph, [int(chain[0])])[0, chain[-1]])
    return CalibratedCurve(indices=chain, coords=grid.points()[chain],
                           step_costs=costs, calibration_defect=calib,
                           action_vs_semidistance=act_vs_s,
                           stays_in_mask=bool(np.all(np.asarray(mask, dtype=bool)[chain])))


# -- weak strictness ------------------------------------------------------------


@dataclass
class WeakStrictnessReport:
    """Smallest gap S(y, x) - (v(x) - v(y)) over sampled off-mask pairs."""

    min_gap: float
    worst_pair: tuple
    n_pairs: int
    separation: float
    tol: float
    passed: bool


def check_weakly_strict(v: GridFn, sources, semidist: np.ndarray,
                        mask: np.ndarray) -> WeakStrictnessReport:
    """Strict inequality against the semidistance rows S_a(y, .) of the
    sources y (metric.semidistance), sampled.

    Pairs run over the off-mask sources y and all off-mask
    targets x with torus separation >= 2h; the diagonal saturates S
    identically and is excluded.
    """
    grid = v.grid
    sep = 2.0 * grid.h
    pts = grid.points()
    min_gap = np.inf
    worst = None
    n_pairs = 0
    for row, y_idx in enumerate(sources):
        if mask[y_idx]:
            continue
        far = torus_dist(grid, pts, pts[y_idx]) >= sep - 1e-12
        sel = far & ~mask
        if not np.any(sel):
            continue
        gaps = semidist[row, sel] - (v.values[sel] - v.values[y_idx])
        n_pairs += int(sel.sum())
        j = int(np.argmin(gaps))
        if gaps[j] < min_gap:
            min_gap = float(gaps[j])
            worst = (int(y_idx), int(np.nonzero(sel)[0][j]))
    if n_pairs == 0:
        raise ConfigError(
            "no valid off-mask pairs at the requested separation; "
            "the mask complement is empty or the separation too large")
    return WeakStrictnessReport(min_gap=min_gap, worst_pair=worst,
                                n_pairs=n_pairs, separation=sep,
                                tol=0.0, passed=bool(min_gap > 0.0))


# -- characteristics, envelopes and the lifted mask (Tonelli models) --------------


@dataclass
class CharacteristicReport:
    """Deviation between a DP minimizing chain and the backward flow."""

    chain_indices: np.ndarray
    chain_points: np.ndarray
    flow_points: np.ndarray
    terminal_momentum: np.ndarray
    max_deviation: float
    energy_drift: float


def verify_minimizer_is_characteristic(u: GridFn, kernel, x_index: int,
                                       t: float) -> CharacteristicReport:
    """Shadow the minimizing chain of (T^-_t u)(x) by a characteristic.

    The chain is rebuilt from the one-step dynamic program; the terminal
    momentum is the central-difference gradient of T^-_t u at x; the flow
    runs backward from (x, p) in steps of about 1e-3 and is compared at the
    chain times.
    """
    model, env, grid = kernel.model, kernel.env, kernel.grid
    _require_tonelli(model, "characteristic verification")
    n_steps = kernel.steps_of(t)
    orbit = semigroup_orbit(u, kernel, n_steps)
    chain, _ = minimizing_chain(kernel, orbit, x_index)
    pts = grid.points()
    p_term = GridFn(grid, orbit[n_steps]).central_gradient()[int(x_index)]

    # one flow substep count per kernel step, so samples land on chain times
    sub = max(int(round(kernel.dt / 1e-3)), 1)
    traj = flow_integrate(model, env, FlowState(pts[int(x_index)], p_term),
                          -t, kernel.dt / sub)
    flow_pts = traj.xi[::sub][: n_steps + 1][::-1]   # forward order
    dev = torus_dist(grid, flow_pts, pts[chain])
    return CharacteristicReport(
        chain_indices=chain, chain_points=pts[chain], flow_points=flow_pts,
        terminal_momentum=p_term, max_deviation=float(np.max(dev)),
        energy_drift=traj.drift)


@dataclass
class EnvelopeReport:
    """Backward images of data vs of its subtangent paraboloids."""

    sample_indices: np.ndarray
    discrepancies: np.ndarray
    max_discrepancy: float
    min_discrepancy: float


def check_envelope_identity(w: GridFn, kernel, t: float, k_semiconvex: float,
                            sample_indices) -> EnvelopeReport:
    """At sampled x: evolve the subtangent paraboloid at the argmin of the
    backward image and compare values.

    The paraboloid psi(z) = w(y) + <p, z - y> - (K/2)|z - y|^2 (torus
    displacement, central-difference p) lies below w when K dominates the
    semiconvexity constant, so the discrepancy is one-sided up to FD slop.
    The identity needs the short-time window K t < 1: beyond it the
    penalized backward image of psi degenerates (its minimizer escapes the
    contact point) and the discrepancy is O(K) rather than O(h + dt).
    """
    grid = kernel.grid
    pts = grid.points()
    grads = w.central_gradient()
    samples = np.atleast_1d(np.asarray(sample_indices, dtype=int))
    cols = kernel.reversed().walk_costs(samples, kernel.steps_of(t))    # h_t(., x)
    disc = np.empty(len(samples))
    for row, h_col in enumerate(cols):
        col = w.values + h_col
        y = int(np.argmin(col))
        direct = float(col[y])
        delta = min_image(pts - pts[y])
        psi = w.values[y] + delta @ grads[y] \
            - 0.5 * k_semiconvex * np.sum(delta * delta, axis=1)
        evolved = float(np.min(psi + h_col))
        disc[row] = direct - evolved
    return EnvelopeReport(sample_indices=samples, discrepancies=disc,
                          max_discrepancy=float(np.max(disc)),
                          min_discrepancy=float(np.min(disc)))


def lifted_mask_deviation(mask: np.ndarray, w: GridFn, model, env, t_span: float = 1.0,
                          dt: float = 1e-3) -> float:
    """Flow (x, D_h w(x)) from every mask point over [-t_span, t_span] and
    return the largest phase-space distance to the lifted mask, read at 8
    evenly spaced times of each trajectory.

    Distance combines torus position distance and momentum distance to the
    nearest lifted mask point; invariance holds when it stays at cell scale.
    """
    grid = w.grid
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        raise ConfigError("empty mask: nothing to flow")
    pts = grid.points()
    grads = w.central_gradient()
    lift_x = pts[idx]
    lift_p = grads[idx]
    worst = 0.0
    for i in idx:
        for sign in (+1.0, -1.0):
            traj = flow_integrate(model, env, FlowState(pts[i], grads[i]),
                                  sign * t_span, dt)
            sel = np.linspace(0, len(traj.times) - 1, 8).astype(int)
            for k in sel:
                dx = torus_dist(grid, lift_x, traj.xi[k])
                dp = np.linalg.norm(lift_p - traj.eta[k], axis=1)
                worst = max(worst, float(np.min(np.sqrt(dx * dx + dp * dp))))
    return worst


def mask_gradient_agreement(fns, mask: np.ndarray) -> float:
    """Largest pairwise FD-gradient discrepancy on the mask."""
    if not np.any(mask):
        raise ConfigError("empty mask: nothing to compare")
    grads = [f.central_gradient()[mask] for f in fns]
    worst = 0.0
    for i in range(len(grads)):
        for j in range(i + 1, len(grads)):
            worst = max(worst, float(np.max(np.linalg.norm(grads[i] - grads[j], axis=1))))
    return worst
