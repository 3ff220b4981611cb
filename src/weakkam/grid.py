"""Lattices, grid functions and the one-step stencil graph.

Everything downstream (kernels, semidistances, masks) lives on one lattice
geometry (_Lattice) with two constructors: GridSpec, the unit torus
[0,1)^dim with spacing h = 1/n, and BoxSpec, a non-periodic box for
growing-box runs.  Grid functions are stored flat in C order so that
lexicographic order of coordinates equals index order (on the torus node
index 0 is the origin); argmin tie-breaking relies on this.

Action kernels and sigma_a cost graphs are both a Stencil: one row of edge
costs per lattice offset.  relax() is the one shortest-path engine over it,
with one stop rule and a negative-cycle witness; policy_iteration() gives
its minimal cycle mean, a min-plus eigenvector and the critical graph.

A Stencil reads its data at x - k h for every offset k through one gather
plan, built on first use and kept on the instance.  The plan depends only
on the lattice and the offsets: the reach (largest |offset| per axis), the
pad index that extends the lattice by the reach per side (periodically on
a torus, with +inf past a box's edge) and the start of each offset's
window in the padded array.  Pulls, edge gaps and the reversal pad their
data once, take one strided view of every window and copy the windows out
in blocks of ~256 KiB, so a block stays in cache and a reduction over the
offsets needs one block beyond its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, SubcriticalLevelError, WeakKamError

__all__ = [
    "lattice_points",
    "GridSpec",
    "GridFn",
    "BoxSpec",
    "Stencil",
    "relax",
    "CriticalGraph",
    "policy_iteration",
    "geometric_mix",
    "save_gridfn_csv",
]


def lattice_points(ax: np.ndarray, dim: int) -> np.ndarray:
    """Every point of the lattice ax^dim, shape (len(ax)^dim, dim), in C
    order: the last coordinate varies fastest."""
    if dim == 1:
        return ax[:, None]
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


class _Lattice:
    """One lattice geometry with two constructors.  The nodes are n per
    axis, first h, (first + 1) h, ..., (first + n - 1) h on each of dim
    axes; a periodic lattice is the unit torus (first = 0, n h = 1), the
    other a box with no node past its edge.  GridSpec and BoxSpec supply
    n, h, first and periodic; everything else is defined here once."""

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def size(self) -> int:
        return self.n**self.dim

    @property
    def max_offset(self):
        """Largest |offset| per axis: half the period on a torus, no cap on
        a box."""
        return self.n // 2 if self.periodic else math.inf

    def axis(self) -> np.ndarray:
        return np.arange(self.first, self.first + self.n) * self.h

    def points(self) -> np.ndarray:
        """All node coordinates, shape (size, dim), C order."""
        return lattice_points(self.axis(), self.dim)

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Map coordinates into the unit cell [0,1) on a torus; a box leaves
        them as they are."""
        return np.mod(x, 1.0) if self.periodic else x

    def neighbors(self, x, step: np.ndarray) -> np.ndarray:
        """Flat index of node x + step*h: periodic on a torus, -1 off a box;
        x broadcasts against the leading axes of step."""
        step = np.asarray(step)
        moved = [c + step[..., a] for a, c in enumerate(np.unravel_index(x, self.shape))]
        if self.periodic:
            return np.ravel_multi_index(moved, self.shape, mode="wrap")
        inside = np.logical_and.reduce([(c >= 0) & (c < self.n) for c in moved])
        return np.where(inside, np.ravel_multi_index(moved, self.shape, mode="clip"), -1)

    def offsets_within(self, radius: float, include_zero: bool = False) -> np.ndarray:
        """Integer offsets k with |k|*h <= radius, shape (m, dim).

        Ordered lexicographically; the zero offset is optional.  On a torus
        they are clipped to half the period so each edge has a unique
        minimal image.
        """
        kmax = min(int(np.floor(radius / self.h + 1e-12)), self.max_offset)
        ks = lattice_points(np.arange(-kmax, kmax + 1), self.dim)
        norms = np.linalg.norm(ks, axis=1) * self.h
        keep = norms <= radius + 1e-12
        if not include_zero:
            keep &= norms > 0
        return ks[keep]


@dataclass(frozen=True)
class GridSpec(_Lattice):
    """The unit torus [0,1)^dim as a periodic lattice, h = 1/n.

    dim : 1 or 2
    n   : points per axis, at least 8
    """

    dim: int
    n: int
    first = 0
    periodic = True

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigError(f"grid dimension must be 1 or 2, got {self.dim}")
        if self.n < 8:
            raise ConfigError(f"grid needs n >= 8 points per axis, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n


@dataclass
class GridFn:
    """A real-valued function sampled on the unit torus, stored flat."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.values.size != self.grid.size:
            raise ConfigError(
                f"value count {self.values.size} does not match grid size {self.grid.size}"
            )

    @classmethod
    def zeros(cls, grid: GridSpec) -> "GridFn":
        return cls(grid, np.zeros(grid.size))

    def shaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)

    def normalized_at_origin(self) -> "GridFn":
        """Subtract the value at node 0 so the result vanishes at the origin."""
        return GridFn(self.grid, self.values - self.values[0])

    def central_gradient(self) -> np.ndarray:
        """Central-difference gradient at every node, shape (size, dim)."""
        v = self.shaped()
        h = self.grid.h
        comps = []
        for a in range(self.grid.dim):
            comps.append((np.roll(v, -1, axis=a) - np.roll(v, 1, axis=a)) / (2 * h))
        return np.stack([c.ravel() for c in comps], axis=1)

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


@dataclass(frozen=True)
class BoxSpec(_Lattice):
    """The box [-radius, radius]^dim as a non-periodic lattice, h =
    1/points_per_unit, for growing-box runs: 2 round(radius / h) + 1 nodes
    per axis, centered at the origin.

    dim             : 1 or 2
    radius          : finite, above h / 2 (a smaller one gives one node)
    points_per_unit : at least 1
    """

    dim: int
    radius: float
    points_per_unit: int = 32
    periodic = False

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigError(f"box dimension must be 1 or 2, got {self.dim}")
        if not self.points_per_unit >= 1:
            raise ConfigError(f"box needs points_per_unit >= 1, got {self.points_per_unit}")
        if not math.isfinite(self.radius) or self.radius < 0.0:
            raise ConfigError(f"box radius {self.radius!r} is not a finite non-negative number")
        if self.n == 1:
            raise ConfigError(f"box radius {self.radius!r} at {self.points_per_unit} points "
                              "per unit gives a one-node box")

    @property
    def h(self) -> float:
        return 1.0 / self.points_per_unit

    @property
    def first(self) -> int:
        return -int(round(self.radius * self.points_per_unit))

    @property
    def n(self) -> int:
        return 1 - 2 * self.first


_SHORTLIST = 6    # in-edges per node that Stencil.walk sums each step
_BLOCK = 32768    # entries per gathered block: 256 KiB of float64 stays in cache


@dataclass(frozen=True, eq=False)
class _GatherPlan:
    """Where a stencil reads u at x - k h for each of its offsets k.

    The lattice is padded by the reach, the largest |offset| per axis, on
    every side.  pad[p] is the flat index into u of padded node p: its
    periodic image on a torus, -1 past the edge of a box, which reads a
    +inf cell appended to u.  Over the flat padded array, the window that
    starts at s reads node x at s + x . steps; the window starts[k] reads
    u at x - offsets[k] h and turns[k] reads it at x + offsets[k] h.  The
    plan depends only on the lattice and the offsets.  u is padded by one
    take of pad, except on a 1D torus, whose pad is slices of u: there one
    concatenation costs as much as the take on one row and a third of it
    on a block of rows.  A 2D torus keeps the take: its pad's slices along
    the last axis are runs of reach cells, which copy no faster.
    """

    pad: np.ndarray       # (prod(shape + 2 reach),) flat index into u, -1 past a box
    closed: bool          # a box: u gets a +inf cell for the pad to read past its edge
    shape: tuple          # the lattice shape
    reach: int            # pad width per side
    steps: tuple          # padded flat index step per lattice axis
    span: int             # window starts 0..span-1: the last window ends the array
    starts: np.ndarray    # (m,) window start reading u at x - k h
    turns: np.ndarray     # (m,) window start reading u at x + k h

    @classmethod
    def build(cls, grid, offsets: np.ndarray) -> "_GatherPlan":
        reach = int(np.max(np.abs(offsets), initial=0))
        padded = (grid.n + 2 * reach,) * grid.dim
        pad = grid.neighbors(0, lattice_points(np.arange(-reach, grid.n + reach), grid.dim))
        steps = tuple(math.prod(padded[a + 1:]) for a in range(grid.dim))
        centre = reach * sum(steps)
        shift = np.asarray(offsets, dtype=int).reshape(-1, grid.dim) @ np.array(steps, dtype=int)
        return cls(pad, not grid.periodic, grid.shape, reach, steps, 2 * centre + 1,
                   centre - shift, centre + shift)

    def windows(self, u: np.ndarray) -> np.ndarray:
        """View of u padded, shape (span,) + lead + shape, over any leading
        axes of u: windows[s][..., x] is the padded node at s + x . steps,
        so windows[starts[k]][..., x] = u[..., x - k h].  numpy checks that
        the view stays inside the padded buffer."""
        if len(self.shape) == 1 and not self.closed:
            flat = self._periodic(u)
        else:
            if self.closed:
                u = np.concatenate((u, np.full(u.shape[:-1] + (1,), np.inf)), axis=-1)
            flat = np.take(u, self.pad, axis=-1)    # -1 reads the appended +inf
        it = flat.itemsize
        return np.ndarray((self.span,) + flat.shape[:-1] + self.shape, flat.dtype, flat,
                          strides=(it,) + flat.strides[:-1] + tuple(it * s for s in self.steps))

    def _periodic(self, u: np.ndarray) -> np.ndarray:
        """u padded periodically by the reach on a 1D torus, as
        np.take(u, pad, axis=-1) gives it: one np.concatenate of the last
        reach mod n cells, the whole periods the reach spans on either side
        and u, and the first reach mod n cells."""
        n = self.shape[0]
        whole, part = divmod(self.reach, n)
        return np.concatenate((u[..., n - part:],) + (u,) * (2 * whole + 1) + (u[..., :part],),
                              axis=-1)


@dataclass
class Stencil:
    """Weighted one-step graph on a lattice, stored per offset.

    weights[k, x] is the cost of the edge into x from x - offsets[k] * h,
    +inf where there is no such edge.  A periodic lattice wraps around; a
    box has no node past its edge, and reads there are +inf.  Only this
    class, relax(), policy_iteration() and the replay of Karp's walk
    (semigroup._KarpLog) read that layout.

    Every per-offset read goes through one gather plan (_GatherPlan), built
    on first use and kept on the instance: the reach, the pad index and
    each offset's window in the padded array.  It depends only on the
    lattice and the offsets, which are not changed after construction.  A
    read pads u once, takes one strided view of all windows and copies them
    out in blocks of _BLOCK entries (~256 KiB, one offset at least), so a
    caller that reduces each block needs O(u.size) memory beyond the
    stencil.
    """

    grid: object
    offsets: np.ndarray = field(repr=False)    # (m, dim) integer steps
    weights: np.ndarray = field(repr=False)    # (m, size)

    @property
    def size(self) -> int:
        return self.grid.size

    @cached_property
    def _plan(self) -> _GatherPlan:
        return _GatherPlan.build(self.grid, self.offsets)

    def _blocks(self, u: np.ndarray):
        """Yield (rows, vals) per block of offsets: vals[j, ..., x] =
        u[..., x - k h] for the offset k = offsets[rows][j], +inf off a box;
        a fresh array of shape (block,) + u.shape.  u may carry leading
        axes, e.g. one row per source."""
        starts = self._plan.starts
        windows = self._plan.windows(u)
        per = max(1, _BLOCK // u.size)
        for a in range(0, len(starts), per):
            yield slice(a, a + per), windows[starts[a:a + per]].reshape((-1,) + u.shape)

    def pull(self, u: np.ndarray) -> np.ndarray:
        """One backward step: out[..., x] = min_y u[..., y] + cost(y -> x),
        over any leading axes of u."""
        best = None
        lift = (-1,) + (1,) * (u.ndim - 1) + (self.size,)
        for rows, cand in self._blocks(u):
            cand += self.weights[rows].reshape(lift)
            low = cand.min(axis=0)
            del cand    # before the next block is gathered
            best = low if best is None else np.minimum(best, low, out=best)
        return np.full(u.shape, np.inf) if best is None else best

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
        """Yield (row, nodes, offs) for k = 1..steps of a vector u: row is
        pull^k(u), the same to the last bit as k pulls, taken from a few
        edges per node and step; nodes are those whose attaining in-edge
        changed at step k and offs the offset index of the new one.

        Each node keeps a shortlist of its _SHORTLIST cheapest in-edges
        (start node, cost and offset index) and a float bound at or below
        the exact sum u[y] + cost of each other in-edge, stored as
        floor = bound - drift with one drift for all nodes.  A step gathers
        the shortlisted sums, with the operands pull adds, and takes their
        minimum b.  Where b <= fl(floor + drift), every other sum rounds to
        at least that float, as round-to-nearest is monotone, so b is the
        pull's minimum to the bit.  The other nodes are dirty: all their
        in-edges are summed again (_refresh), which gives the minimum, a new
        shortlist and bound = nextafter(t, -inf), t the next smallest float
        sum (an exact sum that rounds to t or more is above that float),
        kept as floor = nextafter(fl(bound - drift), -inf).  For every real
        z, nextafter(fl(z), -inf) <= z.

        Past a step u -> u', every exact sum moves by u'[y] - u[y], which is
        at least nextafter(min fl(u' - u), -inf) by the same argument; drift
        grows by that and is rounded down, so floor + drift stays below the
        sums it bounds.  A non-finite entry in u or u' sets every floor to
        -inf, and a step from a non-finite u is pulled (_pull_argmin, with
        pull's bits).  A step that would refresh more than 1/8 of the nodes
        after a step taken on shortlists hands the walk to pull until twice
        its index, and on until a pulled step changes fewer than 1/8 of the
        attaining edges; then a refresh catches up.  A full refresh costs
        several pulls, and one made while the edges still move is thrown
        away at the next hand-over; in a transient the doubling wastes at
        most log2(steps) of them.

        Each node also records one attaining in-edge, none (a +inf sum)
        before the first step.  A step keeps it where its sum u[y] + cost
        still has the new row's bits, and otherwise takes the shortlisted
        sum with those bits or the pull's attaining offset, and names the
        node.  On a stencil that takes shortlists, a pulled step from a u
        without NaN starts from the recorded sums (_pull_argmin's best), so
        it searches offsets only where an edge is beaten.
        So every row is the previous row at the recorded starts plus the
        recorded costs, and replaying the named changes gives the walk
        back: Karp's scoring pass does.

        Two sums of equal value have equal bits unless they are +0.0 and
        -0.0, which needs a -0.0 cost.  A stencil with a NaN, -inf or -0.0
        cost, or with no more offsets than a shortlist holds, is pulled;
        with a -0.0 cost, a zero may replay with the other sign.
        """
        size, index = self.size, _index_type(len(self.offsets))
        tame = len(self.offsets) > _SHORTLIST and all(
            np.min(w) > -np.inf and not np.any(np.signbit(w[w == 0])) for w in self.weights)
        shape = (_SHORTLIST, size)
        lists = start, cost, ks, sums = (np.full(shape, -1), np.full(shape, np.inf),
                                         np.zeros(shape, dtype=index), np.empty(shape))
        floor = np.full(size, -np.inf)    # bound - drift
        src, cst = np.full(size, -1), np.full(size, np.inf)    # recorded edges: none yet
        drift, lean, finite = 0.0, True, bool(np.all(np.isfinite(u)))
        resume = 0 if tame else steps + 1    # the steps before it are pulled
        for k in range(1, steps + 1):
            ext = np.append(u, np.inf)
            kept = np.take(ext, src, mode="wrap") + cst    # -1 reads the +inf
            dirty = None
            if finite and k >= resume:
                np.take(ext, start, out=sums, mode="wrap")    # no buffer; -1 reads the +inf
                new = np.min(np.add(sums, cost, out=sums), axis=0)
                dirty = np.flatnonzero(~(new <= floor + drift))
                if lean and len(dirty) > size // 8:
                    resume, dirty = 2 * k, None
            if dirty is None:
                seed = kept.copy() if tame and not np.isnan(u).any() else None
                new, arg = _pull_argmin(self, u, seed)    # arg is right where kept is beaten
            else:
                self._refresh(ext, dirty, new, lists, floor, drift)
            nodes = np.flatnonzero(kept.view(np.int64) != new.view(np.int64))
            if dirty is None:
                offs = arg[nodes].astype(index)
                src[nodes] = self.grid.neighbors(nodes, -self.offsets[offs])
                cst[nodes] = self.weights[offs, nodes]
            elif len(nodes):    # each is shortlisted: a refresh keeps its minimum
                j = np.argmax(sums[:, nodes].view(np.int64) == new[nodes].view(np.int64), axis=0)
                offs, src[nodes], cst[nodes] = ks[j, nodes], start[j, nodes], cost[j, nodes]
            else:
                offs = ks[0, nodes]    # no edge moved, as on most steps
            lean = dirty is not None
            if not lean and 8 * len(nodes) >= size:    # the edges still move
                resume = max(resume, k + 2)
            was, finite = finite, bool(np.all(np.isfinite(new)))
            if was and finite:
                drift = math.nextafter(drift + math.nextafter(float(np.min(new - u)), -math.inf),
                                       -math.inf)
            else:
                floor.fill(-np.inf)
            yield new, nodes, offs
            u = new

    def _refresh(self, ext, nodes, best, lists, floor, drift: float) -> None:
        """Sum every in-edge of each of nodes against ext (u, then +inf) and
        write its minimum to best, its shortlist (start nodes, costs, offset
        indices and sums) to lists and its floor, in place; see walk.  The
        minimum is one of the shortlisted sums.  Chunks of at most _BLOCK
        (node, offset) entries."""
        start, cost, offs, sums = lists
        s, per = len(start), max(1, _BLOCK // len(self.offsets))
        for a in range(0, len(nodes), per):
            xs = nodes[a:a + per]
            froms = self.grid.neighbors(xs[:, None], -self.offsets)    # -1 off a box
            weights = self.weights[:, xs].T
            cand = ext[froms] + weights
            best[xs] = np.min(cand, axis=1)
            j = np.argpartition(cand, s, axis=1)
            start[:, xs], cost[:, xs], sums[:, xs] = (np.take_along_axis(v, j[:, :s], axis=1).T
                                                      for v in (froms, weights, cand))
            offs[:, xs] = j[:, :s].T
            bound = np.nextafter(np.take_along_axis(cand, j[:, s:s + 1], axis=1)[:, 0], -np.inf)
            floor[xs] = np.nextafter(bound - drift, -np.inf)
            del froms, weights, cand, j    # before the next chunk's are made

    def reversed(self, out=None) -> "Stencil":
        """Every edge turned around, so pull on it is the forward step
        u'(y) = min_x cost(y -> x) + u(x) of this stencil.  Row k reads
        weights[k] at x + offsets[k] h: one block of rows is padded at a
        time and each row's window is copied straight into its turned
        row.  The turned rows go to out, a fresh array by default; out may
        be self.weights, turned in place, since a block is padded into a
        copy before its rows are written (self then holds turned rows
        under its own offsets and is not read again)."""
        turns = self._plan.turns
        turned = np.empty_like(self.weights) if out is None else out
        shaped = turned.reshape((-1,) + self.grid.shape)
        per = max(1, _BLOCK // self.size)
        for a in range(0, len(turns), per):
            windows = self._plan.windows(self.weights[a:a + per])
            for j, start in enumerate(turns[a:a + per]):
                shaped[a + j] = windows[start, j]
            del windows    # before the next block is padded
        return Stencil(self.grid, -self.offsets, turned)

    def _gap_blocks(self, v: np.ndarray):
        """Yield per block of offsets gaps[j, x] = (v(x) - v(y)) - cost(y -> x)
        for the edge y -> x of offset rows[j], -inf where there is none."""
        for rows, gaps in self._blocks(v):
            w = self.weights[rows]
            np.subtract(v, gaps, out=gaps)
            gaps -= w
            gaps[~np.isfinite(w)] = -np.inf
            yield gaps

    def edge_gap(self, v: np.ndarray) -> float:
        """max of (v(x) - v(y)) - cost(y -> x) over the finite edges; +inf
        when v has a non-finite value, which no edge inequality admits."""
        if not np.all(np.isfinite(v)):
            return np.inf
        gap = -np.inf
        for gaps in self._gap_blocks(v):
            gap = max(gap, float(np.max(gaps)))
        return gap

    def worst_gap_node(self, v: np.ndarray) -> int:
        """Flat index of the end x of an edge y -> x at which edge_gap(v)
        is attained, or of v's first non-finite value: the first such
        edge, in offset order and then node order."""
        if not np.all(np.isfinite(v)):
            return int(np.argmin(np.isfinite(v)))
        gap, node = -np.inf, 0
        for gaps in self._gap_blocks(v):
            j = np.argmax(gaps, axis=1)
            tops = gaps[np.arange(len(j)), j]
            i = int(np.argmax(np.where(tops > gap, tops, -np.inf)))
            if tops[i] > gap:
                gap, node = tops[i], int(j[i])
        return node

    def cost_scale(self) -> float:
        """Largest |finite edge cost| (0 when there is none), read a block
        of rows at a time: each block's finiteness mask holds as many bytes
        as _BLOCK float64 entries."""
        scale = 0.0
        per = max(1, 8 * _BLOCK // self.size)
        for a in range(0, len(self.weights), per):
            w = self.weights[a:a + per]
            finite = np.isfinite(w)
            scale = max(scale, float(np.max(w, where=finite, initial=0.0)),
                        -float(np.min(w, where=finite, initial=0.0)))
        return scale

    def predecessors(self, x) -> np.ndarray:
        """Start x - offsets[k] h of every edge into node(s) x, one row per
        offset; -1 off the lattice."""
        steps = -self.offsets.reshape((len(self.offsets),) + (1,) * np.ndim(x)
                                      + self.offsets.shape[1:])
        return self.grid.neighbors(x, steps)

    def edge_cost(self, y: int, x: int) -> float:
        """Cost of the cheapest edge y -> x (+inf when there is none)."""
        return float(np.min(self.weights[self.predecessors(x) == y, x], initial=np.inf))


RELAX_STOP = 1e-13


def relax(stencil: Stencil, init: np.ndarray) -> np.ndarray:
    """Shortest paths over the stencil's edges, or a negative-cycle refusal.

    Iterates dist = min(dist, pull(dist)) from init towards
    dist(x) = min_y init(y) + S(y, x) over the stencil it is given; the
    forward run dist(y) = min_x S(y, x) + init(x) relaxes stencil.reversed(),
    which a caller turns once for all its runs.  It stops once no node
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
    size = stencil.size
    eps = RELAX_STOP * max(1.0, stencil.cost_scale())
    dist = np.array(init, dtype=float)
    parent = np.full(size, -1)
    for sweep in range(2 * size + 65):
        if sweep < size + 64:
            cand = stencil.pull(dist)
        else:
            cand, arg = _pull_argmin(stencil, dist)
        took = np.flatnonzero(cand < dist)
        gain = dist[took] - cand[took]
        if sweep >= size + 64:
            parent[took] = stencil.grid.neighbors(took, -stencil.offsets[arg[took]])
        dist[took] = cand[took]
        if float(np.max(gain, initial=0.0)) <= eps:
            return dist
    seen, node = {}, int(took[np.argmax(gain)])
    while node not in seen:
        seen[node] = len(seen)
        node = int(parent[node])
    cycle = list(seen)[seen[node]:][::-1]    # each node's parent precedes it
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
    record the first offset index that attains it in arg.  The index is
    searched only in the columns the block lowers; a column holding a NaN
    has a NaN minimum, which lowers nothing."""
    low = cand.min(axis=0)
    took = np.flatnonzero(low < best)
    best[took] = low[took]
    arg[took] = rows.start + np.argmax(cand[:, took] == low[took], axis=0)


def _index_type(count: int) -> type:
    """Integer type of an index into count offsets: int16, int32 past 2^15."""
    return np.int16 if count <= 2**15 else np.int32


def _pull_argmin(stencil: Stencil, u: np.ndarray, best=None) -> tuple:
    """pull(u) of a vector u, the same to the last bit, and per node the
    first offset index that attains it (0 where the minimum is +inf or NaN).
    The minimum is pull's reduction; the index is searched only where a
    block lowers it.

    A given best, used in place, starts the reduction: best[x] is the sum
    of u along some in-edge of x (+inf: none).  The index is then searched,
    and returned right, only where a block is strictly lower, so a caller
    that knows an attaining edge of the other nodes searches only where it
    is beaten.  The minimum has pull's bits unless a sum is -0.0 or u is NaN.
    """
    arg = np.zeros(stencil.size, dtype=int)
    for rows, cand in stencil._blocks(u):    # +inf off a box
        cand += stencil.weights[rows]
        low = cand.min(axis=0)
        took = np.flatnonzero(low < (np.inf if best is None else best))
        arg[took] = rows.start + np.argmax(cand[:, took] == low[took], axis=0)
        best = low if best is None else np.minimum(best, low, out=best)
    return np.full(u.shape, np.inf) if best is None else best, arg


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


def _write_node_csv(path, grid, comments: list, names: str, cells) -> None:
    """Write the row "index,x0,...,<cell>" of each node and its cell string
    under "# <comment>" lines and the column line "index,x0,...,<names>"."""
    cols = ",".join(f"x{a}" for a in range(grid.dim))
    lines = [f"# {line}\n" for line in comments] + [f"index,{cols},{names}\n"]
    for i, (point, cell) in enumerate(zip(grid.points(), cells)):
        lines.append(f"{i},{','.join(repr(float(c)) for c in point)},{cell}\n")
    with open(path, "w") as fh:
        fh.write("".join(lines))


def save_gridfn_csv(fn: GridFn, path) -> None:
    """Write a grid function as CSV with a two-line header (shape, spacing)."""
    grid = fn.grid
    _write_node_csv(path, grid, [f"gridfn dim={grid.dim} n={grid.n}", f"h={grid.h!r}"],
                    "value", (repr(float(v)) for v in fn.values))
