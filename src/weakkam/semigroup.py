"""Lax-Oleinik semigroups by min-plus dynamic programming.

The one-step kernel prices a displacement d covered in time dt at
dt * (L(midpoint, d/dt) + shift): build_kernel prices it at shift 0 and
refold_kernel adds dt * shift.  It is a grid.Stencil, the offset stencil
the cost graphs of the metric side share, and its weights are one (m, N)
array: the rows are priced into it by the start of each edge, from V read
off the cost graphs' parity covers, and turned in place by the stencil's
reversal (Stencil.reversed) into rows by the edge's end; each orientation
checks one direction of strong connectivity on a float32 hop stencil
while it is held.  T^-_t u = min_y u(y) + h_t(y, x)
is t/dt backward (pull) steps of the stencil; T^+_t is t/dt pull steps of
the same stencil with every edge turned around, the reversal identity
T^+_t u = -(reversed T^-_t)(-u) without a second kernel.  Ladder times are
step counts, so T_{s+t} = T_s o T_t holds to the last bit.  Rows h_t(y, .)
of a block of sources are t/dt steps of the stencil walked together
(Stencil.walk_costs); columns h_t(., x) are rows of the reversed stencil.
The whole N x N table (ActionKernel.at) has no caller in the package.

The stencil is also a weighted graph; its minimal cycle mean (Karp) is the
exact critical value of the discretized system, the level at which min-plus
powers stay bounded.  Folding the kernel by that value puts the discrete
Aubry phenomenon at machine precision instead of bisection precision.
Karp's N-step walk from node 0 is taken once, by Stencil.walk, and
replayed: per node and step the walk sums a shortlist of cheap in-edges,
and all of them only where a certified bound says another could win, with
the bits of a pull, and it names the nodes whose attaining in-edge changed.
The scoring pass replays the rows from that log, one gather and one add
per step.  Beyond O(N) vectors it holds a few shortlisted edges per node,
the log (capped before the walk) and sums in chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, LadderError, WeakKamError
from .grid import _BLOCK, _SHORTLIST, GridFn, GridSpec, Stencil, _index_type, relax
from .hamiltonian import lipschitz_radius
from .metric import _SamplePoints, lippo_scale

__all__ = [
    "ActionKernel",
    "build_kernel",
    "lax_minus",
    "lax_plus",
    "semigroup_orbit",
    "lax_minus_images",
    "discrete_critical_value",
    "MonotoneReport",
    "check_monotone_semigroup",
    "CorrectorReport",
    "check_corrector",
]


def _whole_steps(t: float, dt: float) -> int:
    """The number of dt steps in t: a positive whole multiple within 1e-9
    steps, else LadderError."""
    m = t / dt
    mi = int(round(m))
    if mi < 1 or abs(m - mi) > 1e-9:
        raise LadderError(
            f"time {t} is not a positive multiple of dt={dt}; "
            f"pick times on the kernel ladder")
    return mi


@dataclass
class ActionKernel(Stencil):
    """One-step minimal action h_dt(y, x) as an offset stencil.

    The stencil edge y -> x costs h_dt(y, x); no other pair is joined in one
    step.  ``shift`` is the energy folding added to L (use the critical
    value to normalize): the level a of every check on the kernel, which
    reads it, with model and env, from here.  build_kernel prices at level
    0 and refold_kernel is the one place that sets another.
    """

    model: object
    env: object
    dt: float
    theta: float
    radius_one: float
    shift: float

    # -- ladder ----------------------------------------------------------

    def ladder(self, t_max: float) -> list:
        """Dyadic times dt * 2^k up to t_max."""
        if not np.isfinite(t_max):
            raise ConfigError(f"ladder top t_max must be finite, got {t_max}")
        out = []
        t = self.dt
        while t <= t_max * (1 + 1e-12):
            out.append(t)
            t *= 2.0
        return out

    def steps_of(self, t: float) -> int:
        return _whole_steps(t, self.dt)

    # -- all-pairs tables (no caller in the package) -----------------------

    def at(self, t: float) -> np.ndarray:
        """All-pairs table h_t(y, x) for any positive multiple of dt."""
        return self.walk_costs(np.arange(self.size), self.steps_of(t))

    def power(self, k: int) -> np.ndarray:
        """All-pairs table for t = dt * 2^k."""
        return self.at(self.dt * 2**k)


def build_kernel(model, env, grid: GridSpec, dt: float, theta: float) -> ActionKernel:
    """One-step minimal-action kernel with reach dt R(theta) + 2h, at level
    0 (refold_kernel folds in another).

    The weights live in one (m, N) array, priced and turned in place.  Row
    k is first priced by the start x of the edge x -> x + k h: the model's
    closed-form Lagrangian at the edge midpoints x + k h / 2, its velocity
    one (1, dim) row that L broadcasts.  Those midpoints are the blocks of
    offset -k of the cost graphs' sampler (metric._SamplePoints), so V is
    read off the parity covers (EnvRealization._block_values) one block at
    a time.  Offsets whose speed is outside the model's cone (L = +inf
    everywhere) are dropped, and of the offsets +-n/2 that join the same
    node pair the last is kept, priced at the cheaper move; the kept rows
    move down over the dropped ones.

    Read with offsets -k, the start-priced rows are the kernel with every
    edge turned around, so they show whether every node reaches node 0.
    Stencil.reversed then turns them in place into the kernel's rows by the
    edge's end, which show whether node 0 reaches every node.  A kernel
    whose graph is not strongly connected is refused (ConfigError), because
    its cycle mean from node 0 would price only part of the torus.
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    R = lipschitz_radius(theta, model)
    radius_one = dt * R + 2.0 * grid.h
    offsets = grid.offsets_within(radius_one, include_zero=True)
    samples = _SamplePoints(grid, -offsets)    # block i + 1: the midpoints of offsets[i]
    weights = np.empty((len(offsets), grid.size))    # by start node
    priced = np.zeros(len(offsets), dtype=bool)
    for b, V in env._block_values(samples.shape, samples.covers()):
        if b:
            q = np.asarray(offsets[b - 1], dtype=float) * grid.h / dt
            row = weights[b - 1]
            np.multiply(model.L(V, q[None, :]), dt, out=row)
            priced[b - 1] = np.any(np.isfinite(row))
    del row    # no view of weights outlives its resize
    last = {}
    for i in np.flatnonzero(priced):
        pair = tuple(offsets[i] % grid.n)
        if pair in last:
            np.minimum(weights[i], weights[last[pair]], out=weights[i])
        last[pair] = i
    keep = sorted(last.values())
    for j, i in enumerate(keep):    # j <= i: a row moves over one no longer read
        if j < i:
            weights[j] = weights[i]
    weights.resize((len(keep), grid.size), refcheck=False)
    offsets = offsets[keep]
    # strongly connected iff every node reaches node 0, read on the rows by
    # start (the kernel turned around), and node 0 reaches every node, read
    # on the same rows turned in place by their end
    by_start = Stencil(grid, -offsets, weights)
    if not (_reaches_every_node(by_start)
            and _reaches_every_node(by_start.reversed(out=weights))):
        fastest = float(np.max(np.linalg.norm(offsets, axis=1), initial=0.0)) * grid.h / dt
        raise ConfigError(
            f"the one-step kernel graph is not strongly connected: a one-cell move "
            f"needs speed h/dt = {grid.h / dt:g}, the model's speed cone kept moves "
            f"up to speed {fastest:g}; choose dt and n with h/dt <= its maximal speed")
    return ActionKernel(grid=grid, model=model, env=env, dt=dt, theta=theta,
                        radius_one=radius_one, shift=0.0, offsets=offsets, weights=weights)


def _reaches_every_node(stencil: Stencil) -> bool:
    """Whether node 0 reaches every node over the stencil's finite edges:
    one relax on its hop stencil, cost 0 on each finite edge and +inf
    elsewhere, both exact in float32 at half the memory, filled a block
    of rows at a time."""
    hops = np.empty(stencil.weights.shape, dtype=np.float32)
    per = max(1, _BLOCK // stencil.size)
    for a in range(0, len(hops), per):
        finite = np.isfinite(stencil.weights[a:a + per])
        hops[a:a + per] = np.where(finite, np.float32(0), np.float32(np.inf))
    start = np.where(np.arange(stencil.size) == 0, 0.0, np.inf)
    return bool(np.all(np.isfinite(relax(Stencil(stencil.grid, stencil.offsets, hops), start))))


def refold_kernel(kernel: ActionKernel, shift: float) -> ActionKernel:
    """Same kernel with a different energy folding: the only way to move a
    kernel's level.

    Only the constant dt * (shift - old shift) moves on every finite edge,
    so the edge set and reach are reused.  With a power-of-two dt (the
    config's) a kernel built at 0 and folded to s has the bits of dt * (L + s).
    """
    weights = kernel.weights + kernel.dt * (shift - kernel.shift)
    return ActionKernel(grid=kernel.grid, model=kernel.model, env=kernel.env,
                        dt=kernel.dt, theta=kernel.theta,
                        radius_one=kernel.radius_one, shift=float(shift),
                        offsets=kernel.offsets, weights=weights)


# -- operators ---------------------------------------------------------------


def lax_minus(u: GridFn, kernel: ActionKernel, t: float) -> GridFn:
    """T^-_t u, by t/dt backward steps of the stencil."""
    vals = u.values
    for _ in range(kernel.steps_of(t)):
        vals = kernel.pull(vals)
    return GridFn(u.grid, vals)


def lax_plus(u: GridFn, kernel: ActionKernel, t: float) -> GridFn:
    """T^+_t u = max_y u(y) - h_t(x, y), by t/dt steps of the reversed stencil.

    h_t of the reversed model is the transpose of the forward one, so
    T^+_t u = -min_y (h_t(x, y) - u(y)) needs no second kernel.
    """
    vals, reverse = -u.values, kernel.reversed()
    for _ in range(kernel.steps_of(t)):
        vals = reverse.pull(vals)
    return GridFn(u.grid, -vals)


def semigroup_orbit(u: GridFn, kernel: ActionKernel, n_steps: int) -> np.ndarray:
    """Values of T^-_{m dt} u for m = 0..n_steps, shape (n_steps+1, size)."""
    out = np.empty((n_steps + 1, u.grid.size))
    out[0] = u.values
    for m in range(1, n_steps + 1):
        out[m] = kernel.pull(out[m - 1])
    return out


def lax_minus_images(u: GridFn, kernel: ActionKernel, times) -> np.ndarray:
    """Values of T^-_t u for each t in times, in the order given.

    They are read off one orbit to the largest time: the same pulls as
    lax_minus takes, so the same bits.
    """
    steps = [kernel.steps_of(t) for t in times]
    return semigroup_orbit(u, kernel, max(steps, default=0))[steps]


def discrete_critical_value(kernel: ActionKernel) -> float:
    """Critical value of the discretized system via Karp's cycle mean.

    The minimal mean cycle of the one-step graph equals dt (mean L + shift)
    along the best closed orbit; the value returned is the total level
    (shift included) that makes that mean zero, i.e. the exact level at
    which min-plus powers of the folded kernel stay bounded.

    Karp's table D_k(v) (least cost of a k-step walk from node 0 to v) is
    walked once, to D_N, and replayed to score every row against it, so it
    takes O(N) memory instead of O(N^2).  The walk is Stencil.walk, each row
    the pulled one to the bit; it names per step the nodes whose attaining
    in-edge changed, which _KarpLog keeps.  The replay sets those edges and
    reads D_k = D_{k-1}[src] + cost, the sum that attains the pull, so each
    replayed row has the walked row's bits; past the log's cap the rows are
    walked on from the last replayed one.  A D_N that comes out of the
    second pass differing from the walked one in any bit is refused.  A NaN
    or -inf weight is refused up front: pull would carry it into the rows,
    and the walk's shortlists need not see it; the rows are then finite or
    +inf, and a score is NaN only where D_N and D_k are both +inf.
    """
    if not np.min(kernel.weights) > -np.inf:
        k, x = np.argwhere(~(kernel.weights > -np.inf))[0]
        raise WeakKamError(f"the kernel weight of offset {tuple(kernel.offsets[k].tolist())} "
                           f"into node {x} is {float(kernel.weights[k, x])!r}")
    size = kernel.grid.size
    start = np.where(np.arange(size) == 0, 0.0, np.inf)
    log = _KarpLog(kernel)
    for final, nodes, offs in kernel.walk(start, size):
        log.add(nodes, offs)
    worst = np.full(size, -np.inf)     # max over k of (D_N - D_k) / (N - k)
    with np.errstate(invalid="ignore"):    # +inf - +inf: no walk of either length
        for k, row in enumerate(chain([start], log.replay(start))):
            if k < size:
                np.fmax(worst, (final - row) / (size - k), out=worst)
    moved = np.flatnonzero(row.view(np.int64) != final.view(np.int64))
    if len(moved):
        x = moved[0]
        raise WeakKamError(f"Karp's replayed row D_N differs from the walked one at node {x}: "
                           f"{float(row[x])!r} against {float(final[x])!r}")
    scored = np.isfinite(final) & (worst > -np.inf)
    if not np.any(scored):
        raise ConfigError("kernel graph has no cycles reachable from node 0")
    return kernel.shift - float(np.min(worst[scored])) / kernel.dt


def _karp_log_cap(kernel: ActionKernel) -> int:
    """Entries Karp's log may hold, fixed before the walk: as many as keep
    it and the walk's shortlists (start node, cost and sum at 8 bytes, and
    an offset index) within 6 bytes per stencil entry, and one per node at
    least, an O(N) vector that lets a stencil of few offsets replay a walk
    that settles at once."""
    m, size = kernel.weights.shape
    index = np.dtype(_index_type(m)).itemsize
    return max(size, (6 * m * size - (24 + index) * _SHORTLIST * size) // (4 + index))


class _KarpLog:
    """The attaining in-edges Karp's walk changed, step by step: per entry
    the node (int32) and the offset index (int16, int32 past 2^15
    offsets), and per step the end of its entries.  The arrays grow by
    doubling up to _karp_log_cap; the first step that would pass the cap
    ends the log, and no later step is logged."""

    def __init__(self, kernel: ActionKernel):
        self.kernel, self.cap = kernel, _karp_log_cap(kernel)
        self.nodes = np.empty(kernel.size, dtype=np.int32)    # the cap is at least N
        self.offs = np.empty(kernel.size, dtype=_index_type(len(kernel.offsets)))
        self.ends = np.zeros(kernel.size + 1, dtype=np.int64)    # entries of steps 1..k
        self.steps, self.open = 0, True

    def add(self, nodes: np.ndarray, offs: np.ndarray) -> None:
        """Log the next step's changed edges, unless the log has ended."""
        a = self.ends[self.steps]
        b = a + len(nodes)
        self.open = self.open and b <= self.cap
        if not self.open:
            return
        if b > len(self.nodes):
            room = min(self.cap, max(b, 2 * len(self.nodes)))
            self.nodes.resize(room, refcheck=False)
            self.offs.resize(room, refcheck=False)
        self.nodes[a:b], self.offs[a:b] = nodes, offs
        self.steps += 1
        self.ends[self.steps] = b

    def replay(self, start: np.ndarray):
        """Yield D_1..D_N from D_0 = start: a logged step sets its nodes'
        edges and reads D_k = D_{k-1}[src] + cost (+inf before a node's
        first edge), the sum that attains the pull; the steps past the log
        are walked on from the last replayed row.  Starts and costs of the
        logged edges are formed for ~_BLOCK entries at a time."""
        kernel, size = self.kernel, self.kernel.size
        src, cost = np.full(size, -1), np.full(size, np.inf)
        ext = np.append(start, np.inf)
        lo = hi = 0    # entries whose starts and costs are formed
        for k in range(1, self.steps + 1):
            a, b = self.ends[k - 1], self.ends[k]
            if b > hi:
                lo, hi = a, min(max(b, a + _BLOCK), self.ends[self.steps])
                ks, xs = self.offs[lo:hi], self.nodes[lo:hi]
                starts = kernel.grid.neighbors(xs, -kernel.offsets[ks])    # -1 off a box
                costs = kernel.weights[ks, xs]
            if b > a:    # most steps change no edge
                xs = self.nodes[a:b]
                src[xs], cost[xs] = starts[a - lo:b - lo], costs[a - lo:b - lo]
            row = np.take(ext, src, mode="wrap") + cost    # -1 reads the +inf
            yield row
            ext[:size] = row
        if self.steps < size:
            for row, _, _ in kernel.walk(ext[:size], size - self.steps):
                yield row


# -- verification ------------------------------------------------------------


@dataclass
class MonotoneReport:
    times: list
    min_increment: float
    tol: float
    passed: bool


def check_monotone_semigroup(u: GridFn, kernel: ActionKernel, times) -> MonotoneReport:
    """For subsolutions of the kernel's level a, t -> T^-_t u + a t (the
    folded image) must not decrease.

    Checks all consecutive ladder pairs pointwise, including the step from
    t = 0.  Violations beyond the quadrature tolerance 4 h Ltilde (Ltilde
    from metric.lippo_scale) flag either a non-subsolution or an
    inconsistent level.
    """
    times = sorted(times)
    tol = 4.0 * u.grid.h * lippo_scale(kernel.model, kernel.shift, kernel.env, u.grid)
    rise = np.vstack([u.values, lax_minus_images(u, kernel, times)])
    worst = float(np.min(np.diff(rise, axis=0), initial=np.inf))
    return MonotoneReport(times=list(times), min_increment=worst, tol=float(tol),
                          passed=bool(worst >= -tol))


@dataclass
class CorrectorReport:
    times: list
    residuals: np.ndarray
    tol: float
    passed: bool


def check_corrector(u: GridFn, kernel: ActionKernel, times, tol: float) -> CorrectorReport:
    """Fixed-point test sup |T^-_t u + a t - u| at each ladder time, a the
    kernel's level (T^-_t u + a t is the folded image)."""
    times = sorted(times)
    res = np.array([float(np.max(np.abs(cur - u.values)))
                    for cur in lax_minus_images(u, kernel, times)])
    return CorrectorReport(times=times, residuals=res, tol=float(tol),
                           passed=bool(np.all(res <= tol)))
