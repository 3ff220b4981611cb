"""Lattices, grid functions and the one-step stencil graph.

Everything downstream (kernels, semidistances, masks) lives on a uniform
periodic grid over the unit cell [0,1)^dim with spacing h = 1/n, or on a
non-periodic box for growing-box runs.  Grid functions are stored flat in C
order so that node index 0 is the origin and lexicographic order of
coordinates equals index order; argmin tie-breaking relies on this.

Action kernels and sigma_a cost graphs are both a Stencil: one row of edge
costs per lattice offset.  relax() is the one shortest-path engine over it,
with one stop rule and a negative-cycle witness; policy_iteration() gives
its minimal cycle mean, a min-plus eigenvector and the critical graph.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, SubcriticalLevelError, WeakKamError

__all__ = [
    "GridSpec",
    "GridFn",
    "BoxSpec",
    "Stencil",
    "relax",
    "CriticalGraph",
    "policy_iteration",
    "geometric_mix",
    "save_gridfn_csv",
    "load_gridfn_csv",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [0,1)^dim.

    dim : 1 or 2
    n   : points per axis, at least 8
    """

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigError(f"grid dimension must be 1 or 2, got {self.dim}")
        if self.n < 8:
            raise ConfigError(f"grid needs n >= 8 points per axis, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def size(self) -> int:
        return self.n**self.dim

    def axis(self) -> np.ndarray:
        return np.arange(self.n) * self.h

    def points(self) -> np.ndarray:
        """All node coordinates, shape (size, dim), C order."""
        ax = self.axis()
        if self.dim == 1:
            return ax[:, None]
        gx, gy = np.meshgrid(ax, ax, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel()], axis=1)

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Map coordinates into the fundamental cell [0,1)."""
        return np.mod(x, 1.0)

    def min_image(self, d: np.ndarray) -> np.ndarray:
        """Minimal periodic representative of a displacement, in [-1/2, 1/2)."""
        return np.mod(np.asarray(d) + 0.5, 1.0) - 0.5

    def torus_dist(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        d = self.min_image(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
        return np.linalg.norm(np.atleast_1d(d).reshape(-1, self.dim), axis=-1)

    def index_of(self, x: np.ndarray) -> int:
        """Flat index of the node nearest to x."""
        ix = np.mod(np.rint(np.asarray(x, dtype=float) / self.h).astype(int), self.n)
        ix = np.atleast_1d(ix)
        flat = 0
        for a in range(self.dim):
            flat = flat * self.n + ix[a]
        return int(flat)

    def offsets_within(self, radius: float, include_zero: bool = False) -> np.ndarray:
        """Integer offsets k with |k|*h <= radius, shape (m, dim).

        Ordered lexicographically; the zero offset is optional.  Offsets are
        clipped to half the period so each edge has a unique minimal image.
        """
        kmax = min(int(np.floor(radius / self.h + 1e-12)), self.n // 2)
        rng = np.arange(-kmax, kmax + 1)
        if self.dim == 1:
            ks = rng[:, None]
        else:
            kx, ky = np.meshgrid(rng, rng, indexing="ij")
            ks = np.stack([kx.ravel(), ky.ravel()], axis=1)
        norms = np.linalg.norm(ks, axis=1) * self.h
        keep = norms <= radius + 1e-12
        if not include_zero:
            keep &= norms > 0
        return ks[keep]

    def roll_flat(self, values: np.ndarray, k: np.ndarray) -> np.ndarray:
        """values evaluated at node - k*h, as a flat array (periodic shift).

        With out[i] = values[i - k] the result reads off predecessor data for
        the edge (node - k*h) -> node.
        """
        v = values.reshape(self.shape)
        shifted = np.roll(v, shift=tuple(int(c) for c in np.atleast_1d(k)), axis=tuple(range(self.dim)))
        return shifted.ravel()

    def pad(self, values: np.ndarray, reach: int) -> np.ndarray:
        """values shaped on the grid, over any leading axes, and extended by
        reach nodes per side, periodically."""
        wrap = np.arange(-reach, self.n + reach) % self.n
        return values.reshape(values.shape[:-1] + self.shape)[(...,) + np.ix_(*[wrap] * self.dim)]

    def neighbors(self, x, step: np.ndarray) -> np.ndarray:
        """Flat index of node x + step*h (periodic); x broadcasts against the
        leading axes of step."""
        step = np.asarray(step)
        moved = [c + step[..., a] for a, c in enumerate(np.unravel_index(x, self.shape))]
        return np.ravel_multi_index(moved, self.shape, mode="wrap")


@dataclass
class GridFn:
    """A real-valued function sampled on a periodic grid, stored flat."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.values.size != self.grid.size:
            raise ConfigError(
                f"value count {self.values.size} does not match grid size {self.grid.size}"
            )

    @classmethod
    def from_callable(cls, grid: GridSpec, f) -> "GridFn":
        return cls(grid, np.asarray(f(grid.points()), dtype=float).ravel())

    @classmethod
    def zeros(cls, grid: GridSpec) -> "GridFn":
        return cls(grid, np.zeros(grid.size))

    def copy(self) -> "GridFn":
        return GridFn(self.grid, self.values.copy())

    def shaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def normalized_at_origin(self) -> "GridFn":
        """Subtract the value at node 0 so the result vanishes at the origin."""
        return GridFn(self.grid, self.values - self.values[0])

    def __add__(self, other):
        if isinstance(other, GridFn):
            return GridFn(self.grid, self.values + other.values)
        return GridFn(self.grid, self.values + other)

    def __sub__(self, other):
        if isinstance(other, GridFn):
            return GridFn(self.grid, self.values - other.values)
        return GridFn(self.grid, self.values - other)

    def __mul__(self, scalar):
        return GridFn(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def central_gradient(self) -> np.ndarray:
        """Central-difference gradient at every node, shape (size, dim)."""
        v = self.shaped()
        h = self.grid.h
        comps = []
        for a in range(self.grid.dim):
            comps.append((np.roll(v, -1, axis=a) - np.roll(v, 1, axis=a)) / (2 * h))
        return np.stack([c.ravel() for c in comps], axis=1)

    def one_sided_slopes(self, axis: int) -> tuple:
        """(backward, forward) difference quotients along an axis."""
        v = self.shaped()
        h = self.grid.h
        fwd = (np.roll(v, -1, axis=axis) - v) / h
        bwd = (v - np.roll(v, 1, axis=axis)) / h
        return bwd.ravel(), fwd.ravel()

    def second_differences(self, k: np.ndarray) -> np.ndarray:
        """Centered second difference quotient along integer offset k.

        q(x) = (u(x + kh) + u(x - kh) - 2 u(x)) / |kh|^2, flat array.
        """
        v = self.shaped()
        k = np.atleast_1d(np.asarray(k, dtype=int))
        ax = tuple(range(self.grid.dim))
        plus = np.roll(v, shift=tuple(-k), axis=ax)
        minus = np.roll(v, shift=tuple(+k), axis=ax)
        step2 = float(np.dot(k, k)) * self.grid.h**2
        return ((plus + minus - 2 * v) / step2).ravel()

    def periodic_eval(self, x: np.ndarray) -> np.ndarray:
        """Multilinear periodic interpolation at arbitrary points."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        u = x / self.grid.h
        i0 = np.floor(u).astype(int)
        frac = u - i0
        v = self.shaped()
        n = self.grid.n
        if self.grid.dim == 1:
            a = np.mod(i0[:, 0], n)
            b = np.mod(i0[:, 0] + 1, n)
            out = v[a] * (1 - frac[:, 0]) + v[b] * frac[:, 0]
        else:
            ax, ay = np.mod(i0[:, 0], n), np.mod(i0[:, 1], n)
            bx, by = np.mod(i0[:, 0] + 1, n), np.mod(i0[:, 1] + 1, n)
            fx, fy = frac[:, 0], frac[:, 1]
            out = (
                v[ax, ay] * (1 - fx) * (1 - fy)
                + v[bx, ay] * fx * (1 - fy)
                + v[ax, by] * (1 - fx) * fy
                + v[bx, by] * fx * fy
            )
        return out

    def as_callable(self):
        """Periodic-extension callable view, for the environment metrics."""
        return lambda x: self.periodic_eval(x)


@dataclass(frozen=True)
class BoxSpec:
    """Non-periodic lattice on [-radius, radius]^dim for growing-box runs."""

    dim: int
    radius: float
    points_per_unit: int = 32

    @property
    def h(self) -> float:
        return 1.0 / self.points_per_unit

    @property
    def n_per_axis(self) -> int:
        return 2 * int(round(self.radius * self.points_per_unit)) + 1

    @property
    def shape(self) -> tuple:
        return (self.n_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.n_per_axis**self.dim

    def axis(self) -> np.ndarray:
        m = int(round(self.radius * self.points_per_unit))
        return np.arange(-m, m + 1) * self.h

    def points(self) -> np.ndarray:
        ax = self.axis()
        if self.dim == 1:
            return ax[:, None]
        gx, gy = np.meshgrid(ax, ax, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel()], axis=1)

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """A box does not wrap: coordinates stay as they are."""
        return x

    def offsets_within(self, radius: float, include_zero: bool = False) -> np.ndarray:
        """Integer offsets k with |k|*h <= radius, shape (m, dim), ordered
        lexicographically; the zero offset is optional.  No clipping: a box
        has no period."""
        kmax = int(np.floor(radius / self.h + 1e-12))
        rng = np.arange(-kmax, kmax + 1)
        if self.dim == 1:
            ks = rng[:, None]
        else:
            kx, ky = np.meshgrid(rng, rng, indexing="ij")
            ks = np.stack([kx.ravel(), ky.ravel()], axis=1)
        norms = np.linalg.norm(ks, axis=1) * self.h
        keep = norms <= radius + 1e-12
        if not include_zero:
            keep &= norms > 0
        return ks[keep]

    def pad(self, values: np.ndarray, reach: int) -> np.ndarray:
        """values shaped on the box, over any leading axes, and extended by
        reach nodes per side with +inf: no node lies past the edge."""
        lead = values.shape[:-1]
        out = np.full(lead + tuple(s + 2 * reach for s in self.shape), np.inf)
        out[(...,) + (slice(reach, reach + self.n_per_axis),) * self.dim] = \
            values.reshape(lead + self.shape)
        return out

    def roll_flat(self, values: np.ndarray, k: np.ndarray) -> np.ndarray:
        """values evaluated at node - k*h, +inf where that node is off the box."""
        reach = int(np.max(np.abs(k)))
        return sliding_window_view(self.pad(values, reach), self.shape)[tuple(reach - k)].ravel()

    def neighbors(self, x, step: np.ndarray) -> np.ndarray:
        """Flat index of node x + step*h, -1 off the box; x broadcasts against
        the leading axes of step."""
        step = np.asarray(step)
        moved = [c + step[..., a] for a, c in enumerate(np.unravel_index(x, self.shape))]
        inside = np.logical_and.reduce([(c >= 0) & (c < self.n_per_axis) for c in moved])
        return np.where(inside, np.ravel_multi_index(moved, self.shape, mode="clip"), -1)


_SHORTLIST = 6    # in-edges per node that Stencil.walk sums each step


@dataclass
class Stencil:
    """Weighted one-step graph on a lattice, stored per offset.

    weights[k, x] is the cost of the edge into x from x - offsets[k] * h,
    +inf where there is no such edge.  A periodic GridSpec wraps around; a
    BoxSpec has no node past its edge, and reads there are +inf.  Only this
    class, relax() and policy_iteration() read that layout.
    """

    grid: object
    offsets: np.ndarray = field(repr=False)    # (m, dim) integer steps
    weights: np.ndarray = field(repr=False)    # (m, size)

    @property
    def size(self) -> int:
        return self.grid.size

    def _blocks(self, u: np.ndarray):
        """Yield (rows, vals) per block of offsets: vals[j, ..., x] =
        u[..., x - k h] for the offset k = offsets[rows][j], +inf off a box;
        a fresh array of shape (block,) + u.shape.

        u may carry leading axes, e.g. one row per source.  A block of
        ~256 KiB stays in cache, and a caller that reduces each block over
        its offsets needs O(u.size) memory beyond the stencil.
        """
        grid = self.grid
        lead, dim = u.ndim - 1, len(grid.shape)
        reach = int(np.max(np.abs(self.offsets), initial=0))
        windows = sliding_window_view(grid.pad(u, reach), grid.shape, axis=tuple(range(-dim, 0)))
        windows = np.moveaxis(windows, tuple(range(lead, lead + dim)), tuple(range(dim)))
        pick = reach - self.offsets.T    # windows[w][..., x] = u[..., x + (w - reach) h]
        per = max(1, 32768 // u.size)
        for a in range(0, len(self.offsets), per):
            yield slice(a, a + per), windows[tuple(pick[:, a:a + per])].reshape((-1,) + u.shape)

    def pull(self, u: np.ndarray) -> np.ndarray:
        """One backward step: out[..., x] = min_y u[..., y] + cost(y -> x),
        over any leading axes of u."""
        best = np.full(u.shape, np.inf)
        lift = (-1,) + (1,) * (u.ndim - 1) + (self.size,)
        for rows, cand in self._blocks(u):
            cand += self.weights[rows].reshape(lift)
            np.minimum(best, cand.min(axis=0), out=best)
        return best

    def walk_costs(self, sources, steps: int) -> np.ndarray:
        """Least cost of a walk of steps >= 1 edges from each source to every
        node, shape (len(sources), size), +inf where there is none.

        The first step scatters each source's out-edges; the other steps
        pull the whole stack.  Row i is therefore the same to the last bit
        as steps pulls of the min-plus indicator of sources[i].
        """
        sources = np.asarray(sources, dtype=int)
        out = np.full((len(sources), self.size), np.inf)
        rows = np.arange(len(sources))
        ends = self.grid.neighbors(sources, self.offsets[:, None, :])    # -1 off a box
        for w, end in zip(self.weights, ends):
            on = end >= 0
            hit = (rows[on], end[on])
            out[hit] = np.minimum(out[hit], w[end[on]])
        for _ in range(steps - 1):
            out = self.pull(out)
        return out

    def walk(self, u: np.ndarray, steps: int):
        """Yield pull^k(u) for k = 1..steps of a vector u, each the same to the
        last bit as k pulls, from a few edges per node and step.

        Each node keeps a shortlist of its _SHORTLIST cheapest in-edges
        (start node and cost) and a float bound at or below the exact sum
        u[y] + cost of each other in-edge, stored as floor = bound - drift
        with one drift for all nodes.  A step gathers the shortlisted sums,
        with the operands pull adds, and takes their minimum b.  Where
        b <= fl(floor + drift), every other sum rounds to at least that
        float, as round-to-nearest is monotone, so b is the pull's minimum to
        the bit.  The other nodes are dirty: all their in-edges are summed
        again (_refresh), which gives the minimum, a new shortlist and
        bound = nextafter(t, -inf), t the next smallest float sum (an exact
        sum that rounds to t or more is above that float), kept as
        floor = nextafter(fl(bound - drift), -inf).  For every real z,
        nextafter(fl(z), -inf) <= z.

        Past a step u -> u', every exact sum moves by u'[y] - u[y], which is
        at least nextafter(min fl(u' - u), -inf) by the same argument; drift
        grows by that and is rounded down, so floor + drift stays below the
        sums it bounds.  A non-finite entry in u or u' sets every floor to
        -inf, and a step from a non-finite u is pulled.  A step that would
        refresh more than 1/8 of the nodes after a step taken on shortlists
        hands the walk to pull until twice its index, where a refresh
        catches up.  A full refresh costs several pulls; in a transient
        this wastes at most log2(steps) of them.

        Two sums of equal value have equal bits unless they are +0.0 and
        -0.0, which needs a -0.0 cost.  A stencil with a NaN, -inf or -0.0
        cost, or with no more offsets than a shortlist holds, is pulled.
        """
        tame = len(self.offsets) > _SHORTLIST and all(
            np.min(w) > -np.inf and not np.any(np.signbit(w[w == 0])) for w in self.weights)
        start, cost = np.full((_SHORTLIST, self.size), -1), np.full((_SHORTLIST, self.size), np.inf)
        sums, floor = np.empty_like(cost), np.full(self.size, -np.inf)    # floor: bound - drift
        drift, lean, finite = 0.0, True, bool(np.all(np.isfinite(u)))
        resume = 0 if tame else steps + 1
        for k in range(1, steps + 1):
            dirty = None
            if finite and k >= resume:
                ext = np.append(u, np.inf)
                np.take(ext, start, out=sums, mode="wrap")    # no buffer; -1 reads the +inf
                new = np.min(np.add(sums, cost, out=sums), axis=0)
                dirty = np.flatnonzero(~(new <= floor + drift))
                if lean and len(dirty) > self.size // 8:
                    resume, dirty = 2 * k, None
            if dirty is None:
                new = self.pull(u)
            else:
                self._refresh(ext, dirty, new, start, cost, floor, drift)
            lean = dirty is not None
            was, finite = finite, bool(np.all(np.isfinite(new)))
            if was and finite:
                drift = math.nextafter(drift + math.nextafter(float(np.min(new - u)), -math.inf),
                                       -math.inf)
            else:
                floor.fill(-np.inf)
            yield new
            u = new

    def _refresh(self, ext, nodes, best, start, cost, floor, drift: float) -> None:
        """Sum every in-edge of each of nodes against ext (u, then +inf) and
        write its minimum to best, its shortlist to start and cost and its
        floor, in place; see walk.  Chunks of at most 32768 (node, offset)
        entries."""
        s, per = len(start), max(1, 32768 // len(self.offsets))
        for a in range(0, len(nodes), per):
            xs = nodes[a:a + per]
            froms = self.grid.neighbors(xs[:, None], -self.offsets)    # -1 off a box
            weights = self.weights[:, xs].T
            cand = ext[froms] + weights
            best[xs] = np.min(cand, axis=1)
            j = np.argpartition(cand, s, axis=1)
            start[:, xs], cost[:, xs] = (np.take_along_axis(v, j[:, :s], axis=1).T
                                         for v in (froms, weights))
            bound = np.nextafter(np.take_along_axis(cand, j[:, s:s + 1], axis=1)[:, 0], -np.inf)
            floor[xs] = np.nextafter(bound - drift, -np.inf)
            del froms, weights, cand, j    # before the next chunk's are made

    def reversed(self) -> "Stencil":
        """Every edge turned around, so pull on it is the forward step
        out(y) = min_x cost(y -> x) + u(x) of this stencil."""
        turned = np.empty_like(self.weights)
        for row, k, w in zip(turned, self.offsets, self.weights):
            row[:] = self.grid.roll_flat(w, -k)
        return Stencil(self.grid, -self.offsets, turned)

    def edge_gap(self, v: np.ndarray) -> float:
        """max of (v(x) - v(y)) - cost(y -> x) over the finite edges; +inf
        when v has a non-finite value, which no edge inequality admits."""
        if not np.all(np.isfinite(v)):
            return np.inf
        gap = -np.inf
        for k, w in zip(self.offsets, self.weights):
            row = (v - self.grid.roll_flat(v, k)) - w
            gap = max(gap, float(np.max(row, where=np.isfinite(w), initial=-np.inf)))
        return gap

    def cost_scale(self) -> float:
        """Largest |finite edge cost| (0 when there is none)."""
        finite = np.isfinite(self.weights)
        return max(float(np.max(self.weights, where=finite, initial=0.0)),
                   -float(np.min(self.weights, where=finite, initial=0.0)))

    def predecessors(self, x) -> np.ndarray:
        """Start x - offsets[k] h of every edge into node(s) x, one row per
        offset; -1 off the lattice."""
        steps = -self.offsets.reshape((len(self.offsets),) + (1,) * np.ndim(x)
                                      + self.offsets.shape[1:])
        return self.grid.neighbors(x, steps)

    def edge_cost(self, y: int, x: int) -> float:
        """Cost of the cheapest edge y -> x (+inf when there is none)."""
        return float(np.min(self.weights[self.predecessors(x) == y, x], initial=np.inf))

    def minimizing_chain(self, orbit: np.ndarray, x: int) -> tuple:
        """Optimal predecessors of the backward orbit's last row at node x.

        orbit[m] = pull^m(orbit[0]) for m = 0..n.  Returns the chain forward
        in time (n + 1 nodes, ending at x) and the cost of each of its n
        steps.  Ties break to the smallest predecessor index.
        """
        chain, costs = [int(x)], []
        for prev in orbit[-2::-1]:
            preds = self.predecessors(chain[-1])
            cand = np.where(preds >= 0, prev[preds] + self.weights[:, chain[-1]], np.inf)
            k = min(np.flatnonzero(cand == np.min(cand)), key=lambda i: preds[i])
            costs.append(self.weights[k, chain[-1]])
            chain.append(int(preds[k]))
        return np.array(chain[::-1], dtype=int), np.array(costs[::-1], dtype=float)


RELAX_STOP = 1e-13


def relax(stencil: Stencil, init: np.ndarray, forward: bool = False) -> np.ndarray:
    """Shortest paths over the stencil's edges, or a negative-cycle refusal.

    Iterates dist = min(dist, pull(dist)) from init towards
    dist(x) = min_y init(y) + S(y, x); forward runs it on the reversed
    stencil, for dist(y) = min_x S(y, x) + init(x).  It stops once no node
    improves by more than RELAX_STOP * max(1, cost_scale): a level folded to
    the exact critical value leaves cycle means within rounding of zero, and
    sweeps could shave that forever, while a negative cycle gains far more.

    Shortest paths have at most size - 1 edges, so a run still improving
    after size + 64 sweeps only goes on for a witness: for size + 1 more
    sweeps each improved node records the start of its improving edge (the
    first offset that attains the pull), which itself improved the sweep
    before.  The record walk from a node improved last thus closes a cycle
    of negative cost, raised in edge order as
    SubcriticalLevelError(cycle=..., cycle_cost=...).
    """
    steps = stencil.reversed() if forward else stencil
    size = stencil.size
    eps = RELAX_STOP * max(1.0, stencil.cost_scale())
    dist = np.array(init, dtype=float)
    parent = np.full(size, -1)
    for sweep in range(2 * size + 65):
        if sweep < size + 64:
            cand = steps.pull(dist)
        else:
            cand, arg = _pull_argmin(steps, dist)
        took = np.flatnonzero(cand < dist)
        gain = dist[took] - cand[took]
        if sweep >= size + 64:
            parent[took] = steps.grid.neighbors(took, -steps.offsets[arg[took]])
        dist[took] = cand[took]
        if float(np.max(gain, initial=0.0)) <= eps:
            return dist
    seen, node = {}, int(took[np.argmax(gain)])
    while node not in seen:
        seen[node] = len(seen)
        node = int(parent[node])
    cycle = list(seen)[seen[node]:]    # each node's parent follows it
    if not forward:
        cycle = cycle[::-1]
    cost = sum(stencil.edge_cost(y, x) for y, x in zip(cycle, cycle[1:] + cycle[:1]))
    raise SubcriticalLevelError(
        f"shortest paths still improving after {2 * size + 65} sweeps: negative "
        f"cycle of cost {cost:.3e} through {len(cycle)} nodes (level below "
        f"the critical value)", cycle=cycle, cycle_cost=cost)


@dataclass
class CriticalGraph:
    """Spectral data of a strongly connected stencil from policy iteration.

    mean   : minimal cycle mean per edge, the fsum mean of ``cycle``
    cycle  : nodes of one minimal-mean cycle, in edge order (the last node
             steps to the first)
    bias   : min-plus eigenvector, mean + bias(x) = min_y bias(y) + cost(y -> x)
    mask   : nodes on minimal-mean cycles (the critical graph's cycles)
    budget : rounding budget that decides saturation, see policy_iteration
    """

    mean: float
    cycle: list
    bias: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)
    budget: float


def _evaluate_policy(pred: list, cost: list) -> tuple:
    """Cycle mean and bias of the policy x <- pred[x] with edge costs cost[x].

    Each walk along pred ends on a cycle; a new cycle gets its fsum mean
    and bias 0 at its smallest node, and every other node takes
    bias(x) = (cost[x] - mean) + bias(pred[x]).  Returns (means, bias,
    cycles), each cycle listed against the edges.
    """
    size = len(pred)
    mean, bias, state, cycles = [0.0] * size, [0.0] * size, [0] * size, []
    for start in range(size):
        path, x = [], start
        while state[x] == 0:       # 0 unseen, 1 on this walk, 2 evaluated
            state[x] = 1
            path.append(x)
            x = pred[x]
        if state[x] == 1:          # the walk closed a new cycle at x
            cyc = path[path.index(x):]
            del path[len(path) - len(cyc):]
            eta = math.fsum(cost[z] for z in cyc) / len(cyc)
            root = cyc.index(min(cyc))
            for j in range(1, len(cyc)):
                z = cyc[root - j]
                bias[z] = (cost[z] - eta) + bias[pred[z]]
            for z in cyc:
                mean[z], state[z] = eta, 2
            cycles.append(cyc)
        for z in reversed(path):
            mean[z] = mean[pred[z]]
            bias[z] = (cost[z] - mean[z]) + bias[pred[z]]
            state[z] = 2
    return np.array(mean), np.array(bias), cycles


def _take_min(cand: np.ndarray, rows: slice, best: np.ndarray, arg: np.ndarray) -> None:
    """Lower best to the block's column minima where they are smaller, and
    record the winning offset index in arg."""
    j = np.argmin(cand, axis=0)
    low = np.take_along_axis(cand, j[None], axis=0)[0]
    took = low < best
    best[took] = low[took]
    arg[took] = rows.start + j[took]


def _pull_argmin(stencil: Stencil, u: np.ndarray) -> tuple:
    """pull(u) of a vector u, the same minimum, and per node the first
    offset index that attains it (0 where the minimum is +inf)."""
    best, arg = np.full(stencil.size, np.inf), np.zeros(stencil.size, dtype=int)
    for rows, cand in stencil._blocks(u):    # +inf off a box
        cand += stencil.weights[rows]
        _take_min(cand, rows, best, arg)
    return best, arg


def _nontrivial_sccs(size: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Nodes on strongly connected components of two or more nodes, by an
    iterative Tarjan walk over the edges src -> dst in CSR form."""
    order = np.argsort(src, kind="stable")
    head = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=size))])
    succ = dst[order]
    index, low = [-1] * size, [0] * size
    on_stack, stack, found = [False] * size, [], np.zeros(size, dtype=bool)
    count = 0
    for root in range(size):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = True
        work = [[root, int(head[root])]]
        while work:
            top = work[-1]
            x, e = top
            if e < head[x + 1]:
                top[1] = e + 1
                y = int(succ[e])
                if index[y] < 0:
                    index[y] = low[y] = count
                    count += 1
                    stack.append(y)
                    on_stack[y] = True
                    work.append([y, int(head[y])])
                elif on_stack[y]:
                    low[x] = min(low[x], index[y])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[x])
            if low[x] == index[x]:
                comp = []
                while True:
                    y = stack.pop()
                    on_stack[y] = False
                    comp.append(y)
                    if y == x:
                        break
                if len(comp) > 1:
                    found[comp] = True
    return found


def policy_iteration(stencil: Stencil) -> CriticalGraph:
    """Minimal cycle mean, bias and critical mask of a strongly connected
    stencil by Howard's policy iteration in min-plus form.

    A policy picks one in-edge per node.  Evaluation walks its functional
    graph (_evaluate_policy).  Improvement first moves a node to an in-edge
    from a node of smaller cycle mean; a node with none moves to the
    in-edge of equal mean that lowers cost(y -> x) + bias(y) by more than
    the budget below.  Both passes reduce the stencil one offset block at a
    time, so they need O(size) memory beyond it.  On a strongly connected
    graph the final policy has one mean everywhere, the minimal cycle mean
    (Cochet-Terrasson, Cohen, Gaubert, McGettrick & Quadrat, 1998).

    An edge is saturated when its slack cost(y -> x) + bias(y) - mean -
    bias(x) is at most the budget; the cycles of the saturated edges are
    exactly the minimal-mean cycles (Baccelli, Cohen, Olsder & Quadrat,
    1992, ch. 3), so the mask holds the nodes on a nontrivial strongly
    connected component of them and those with a saturated self-loop.

    The budget is a priori.  With u = 2^-53 and S = max(1, cost_scale,
    max |bias|), the mean of a cycle is rounded once (u S), and each node's
    bias is a chain of at most size - 1 steps from its cycle root, each
    rounding cost - mean and the sum (3 u S, as |cost - mean| <= 2 S), so
    the computed bias is within 4 u S (size - 1) of the exact one.  The
    slack adds that error at both ends, the mean's, and three roundings of
    terms up to 4 S, 9 u S in all: at most (8 size + 2) u S, below
    budget = 4 (size + 1) 2^-52 S.  Improvements smaller than the budget
    are rounding, so they are not taken.
    """
    size = stencil.size
    nodes = np.arange(size)
    weights = stencil.weights
    cheapest, policy = _pull_argmin(stencil, np.zeros(size))
    if not np.all(np.isfinite(cheapest)):
        raise ConfigError("policy iteration needs a stencil with an edge into every node")
    scale = max(1.0, stencil.cost_scale())
    for _ in range(size + 64):
        pred = stencil.grid.neighbors(nodes, -stencil.offsets[policy])
        cost = weights[policy, nodes]
        mean, bias, cycles = _evaluate_policy(pred.tolist(), cost.tolist())
        budget = 4 * (size + 1) * 2.0**-52 * max(scale, float(np.max(np.abs(bias))))
        low_mean, to_mean = mean.copy(), policy.copy()
        low_cost, to_cost = np.full(size, np.inf), policy.copy()
        for (rows, means), (_, cand) in zip(stencil._blocks(mean), stencil._blocks(bias)):
            means[~np.isfinite(weights[rows])] = np.inf
            _take_min(means, rows, low_mean, to_mean)
            cand += weights[rows]
            cand[means != mean] = np.inf
            _take_min(cand, rows, low_cost, to_cost)
        lower = low_mean < mean
        cheaper = ~lower & (low_cost < cost + bias[pred] - budget)
        if not (lower.any() or cheaper.any()):
            break
        policy = np.where(lower, to_mean, np.where(cheaper, to_cost, policy))
    else:
        raise WeakKamError(f"policy iteration did not settle in {size + 64} rounds")
    if np.any(mean != mean[0]):
        raise ConfigError("the stencil graph is not strongly connected: its policy "
                          "iteration ends with more than one cycle mean")
    level = float(mean[0])
    src, dst = [], []
    loops = np.zeros(size, dtype=bool)
    still = np.flatnonzero(np.all(stencil.offsets == 0, axis=1))
    for rows, slack in stencil._blocks(bias):
        slack += weights[rows]
        slack -= level
        slack -= bias
        tight = slack <= budget
        for k in still[(still >= rows.start) & (still < rows.stop)]:
            loops |= tight[k - rows.start]
            tight[k - rows.start] = False
        k, x = np.nonzero(tight)
        dst.append(x)
        src.append(stencil.grid.neighbors(x, -stencil.offsets[rows.start + k]))
    mask = loops | _nontrivial_sccs(size, np.concatenate(src), np.concatenate(dst))
    return CriticalGraph(mean=level, cycle=cycles[0][::-1], bias=bias, mask=mask,
                         budget=budget)


def geometric_mix(grid: GridSpec, stack) -> GridFn:
    """sum_n 2^-(n+1) v_n over the value arrays in stack, renormalized so
    the weights sum to one."""
    weights = np.array([2.0**-(n + 1) for n in range(len(stack))])
    weights /= weights.sum()
    vals = np.zeros(grid.size)
    for wgt, arr in zip(weights, stack):
        vals += wgt * arr
    return GridFn(grid, vals)


def save_gridfn_csv(fn: GridFn, path) -> None:
    """Write a grid function as CSV with a two-line header (shape, spacing)."""
    buf = io.StringIO()
    buf.write(f"# gridfn dim={fn.grid.dim} n={fn.grid.n}\n")
    buf.write(f"# h={fn.grid.h!r}\n")
    cols = ",".join(f"x{a}" for a in range(fn.grid.dim))
    buf.write(f"index,{cols},value\n")
    pts = fn.grid.points()
    for i, v in enumerate(fn.values):
        coord = ",".join(repr(float(c)) for c in pts[i])
        buf.write(f"{i},{coord},{float(v)!r}\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def load_gridfn_csv(path) -> GridFn:
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
