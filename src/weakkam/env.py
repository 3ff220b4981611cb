"""Sampled stationary environments.

A realization is a concrete scalar field omega -> V(., omega) on R^dim that
the Hamiltonian models read as their potential / refraction term.  Four
generators are built in:

* ``periodic``      -- fixed cosine sum with integer frequencies,
* ``quasiperiodic`` -- cosine sum with incommensurate frequencies,
* ``random_fourier``-- deterministic amplitude profile on a frequency
                       lattice, phases drawn i.i.d. per realization,
* ``poisson_bumps`` -- compactly supported C^2 bumps at Poisson points.

Translation acts on the internal representation (phase shift or point
shift), so stationarity H(x+z, p, omega) = H(x, p, tau_z omega) holds to
rounding error, and tau is an exact group action.

Evaluation at m points holds little beyond its result.  A cosine sum builds
one (m, modes) array of angles x . freqs, scales and shifts it in place and
takes its cosines in the same buffer: the same operations on the same
operands as the textbook expression, so every value keeps its bits.  The
final matrix-vector product may round a row by its place in the batch, so
a caller that needs values for a batch of equal blocks and for each block
as its own array (the bisection of metric.critical_value_free) gets both
from one cosine table, with one product over the batch and one per block
(_evaluate_blocks); a caller that needs only the blocks' values
(metric.build_cost_graph) gets them through one block-sized scratch array
(_block_values).  Either way the cosines are filled cover by cover: a cover
is an array of points whose cosines are computed once, and every block that
holds the same points (a slice of the cover, say) copies them.  The
blocks' points are formed one block at a time by the caller.  A point's
cosines do not depend on the rows it is computed with, so a copy is made
only where the coordinates are bit-equal to the cover's, and the table is
the textbook one to the bit.  A bump cloud is evaluated in blocks of rows
whose (rows, centers, dim) differences hold ~32768 entries; every bump sum
reduces within one row, so blocking moves no bit and memory beyond the
result does not grow with m.

The gradient is taken at one point, in Python floats: the characteristic
flow is its one caller, once per RK4 stage (see EnvRealization.gradient).

Amplitudes of the random Fourier generator are deliberately deterministic:
a random amplitude would be a translation-invariant random variable and the
ensemble would stop being ergodic, which breaks every growing-box
concentration experiment downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grid import GridFn, lattice_points

__all__ = [
    "EnvSpec",
    "EnvRealization",
    "sample_realization",
    "metric_d",
    "ky_fan_from_distances",
    "ky_fan_distance",
]

KINDS = ("periodic", "quasiperiodic", "random_fourier", "poisson_bumps")

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EnvSpec:
    """Recipe for sampling environment realizations.

    params is a flat dict of floats / float lists; unknown keys are rejected
    at sampling time so config typos fail loudly.
    """

    kind: str
    dimension: int = 1
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown environment kind {self.kind!r}, expected one of {KINDS}")
        if self.dimension not in (1, 2):
            raise ConfigError(f"environment dimension must be 1 or 2, got {self.dimension}")


@dataclass
class EnvRealization:
    """One sampled field, evaluable (with gradient) anywhere in R^dim.

    Internally either a cosine sum (amplitudes, frequency rows, phases) or a
    bump cloud (centers, radius).  ``translate`` returns a new realization of
    the shifted field; composition of translates is exact.
    """

    spec: EnvSpec
    index: int
    amplitudes: np.ndarray | None = None
    freqs: np.ndarray | None = None          # rows are frequency vectors
    phases: np.ndarray | None = None
    centers: np.ndarray | None = None        # poisson bump centers
    bump_radius: float = 0.0
    coverage: float = 0.0                    # bumps valid for |x|_inf <= coverage

    def __post_init__(self):
        # (frequency row, phase, amplitude) per mode as Python floats, for
        # the point-wise gradient
        if self.amplitudes is not None:
            self._modes = list(zip(self.freqs.tolist(), self.phases.tolist(),
                                   self.amplitudes.tolist()))

    # -- evaluation ------------------------------------------------------

    def _angles(self, x: np.ndarray) -> np.ndarray:
        """2 pi x . freqs + phases for an (m, dim) float array x, one
        (m, modes) array scaled in place."""
        ang = x @ self.freqs.T
        ang *= 2.0 * np.pi
        ang += self.phases
        return ang

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Field values; x has shape (m, dim) or (dim,)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.centers is not None:
            return self._eval_bumps(x)
        ang = self._angles(x)
        return np.cos(ang, out=ang) @ self.amplitudes

    def _cosines(self, x: np.ndarray) -> np.ndarray:
        """cos(_angles) over the points of a float array x of shape
        (..., dim), as an array of shape (..., modes).  numpy forms a
        one-row x @ freqs.T by a vector-matrix call whose angles can differ
        in the last bit, so one row is computed as two copies of itself:
        every row gets the entry cos(_angles(x)) holds for it in any batch
        of two or more rows."""
        pts = _rows(x)
        ang = self._angles(pts if len(pts) > 1 else np.repeat(pts, 2, axis=0))
        return np.cos(ang, out=ang)[:len(pts)].reshape(x.shape[:-1] + (-1,))

    def _cover_values(self, points: np.ndarray, index, x: np.ndarray) -> tuple:
        """(cosines, values): the cosines of a cover, an array of points
        of shape (..., dim), and the field values on the points of x, an
        array of shape (..., dim) taken in C order as rows.

        Where x is bit-equal to points[index], its values are the product
        over a contiguous copy of cosines[index]: the table evaluate would
        build on x, so they are bit for bit evaluate(x).  Otherwise, and
        for one row (see _cosines), x is evaluated.  A bump cloud has no
        cosines: (None, evaluate(x))."""
        rows = _rows(x)
        if self.centers is not None:
            return None, self._eval_bumps(rows)
        cosines = self._cosines(points)
        if len(rows) > 1 and np.array_equal(x, points[index]):
            own = np.ascontiguousarray(cosines[index]).reshape(len(rows), -1)
            return cosines, own @ self.amplitudes
        return cosines, self.evaluate(rows)

    def _block_cosines(self, covers, points_of):
        """Yield (b, cosines) for every block b of a batch, cover by cover.

        covers yields (points, cosines, members): the points of a cover, an
        array of shape (..., dim), their cosines or None (computed here),
        and per member a block b with the index that reads b's points off
        the cover.  points_of(b) forms b's points, of the cover's shape
        after indexing; they are formed here and dropped with the block.
        A block gets a view of the cover's cosines where its points are
        bit-equal to the cover's, and its own cosines otherwise.  A point's
        cosines do not depend on the rows it is computed with (see
        _cosines), so either way they are the ones cos(_angles) holds for
        it in any batch.  One cover's cosines are held at a time; a
        consumer drops each view before asking for the next block.
        """
        for points, cosines, members in covers:
            cover = self._cosines(points) if cosines is None else cosines
            del cosines
            for b, index in members:
                x = points_of(b)
                yield b, cover[index] if np.array_equal(x, points[index]) else self._cosines(x)
            del cover

    def _cosine_table(self, shape: tuple, covers, points_of, table) -> np.ndarray:
        """cos(2 pi x . freqs + phases) over the points of a batch of
        shape[0] blocks, b's points given by points_of(b), as one array of
        shape shape + (modes,) made by table(shape) and filled cover by
        cover (see _block_cosines): every entry is the one cos(_angles)
        holds for its point, and the batch's points are never held."""
        table = table(shape + (len(self.amplitudes),))
        for b, cosines in self._block_cosines(covers, points_of):
            table[b] = cosines
            del cosines    # drop the view before the next cover is made
        return table

    def _product(self, rows: np.ndarray, points_of, b) -> np.ndarray:
        """Values of block b from its contiguous (rows, modes) cosines: the
        product evaluate takes.  One row goes through evaluate, whose
        product is a vector-matrix call."""
        if len(rows) == 1:
            return self.evaluate(points_of(b).reshape(1, -1))
        return rows @ self.amplitudes

    def _evaluate_blocks(self, shape: tuple, covers, points_of, reduce, table) -> tuple:
        """(reduce(whole), blocks): the field values on the blocks of a
        batch of shape[0] blocks of prod(shape[1:]) points each, b's points
        given by points_of(b) (see _block_cosines).  blocks[b] holds b's
        values bit for bit as evaluate returns them on b alone; whole
        holds the values of the whole batch as evaluate returns them on
        its rows in one array, and reduce reads it as an iterable of one
        slice per block.

        A cosine sum fills one (*shape, modes) table, table(shape) being
        its allocator (np.empty, or a buffer that outlives the call), cover
        by cover.  The product rounds a row by its place in the batch, so
        the whole-batch product is a call of its own.  It is taken first
        and dropped after reduce returns, so the table never lives with
        two value arrays.  Then each block gets its own product over its
        contiguous rows.  A bump row reduces on its own, so a bump cloud
        evaluates each block's points and reduce reads those values;
        covers and table are not used.
        """
        if self.centers is not None:
            blocks = [self._eval_bumps(_rows(points_of(b))) for b in range(shape[0])]
            return reduce(iter(blocks)), blocks
        table = self._cosine_table(shape, covers, points_of, table)
        rows = table.reshape(shape[0], -1, len(self.amplitudes))
        whole = table.reshape(-1, len(self.amplitudes)) @ self.amplitudes
        reduced = reduce(iter(whole.reshape(shape[0], -1)))
        del whole
        return reduced, [self._product(block, points_of, b) for b, block in enumerate(rows)]

    def _block_values(self, shape: tuple, covers, points_of):
        """Yield (b, values) for every block b of a batch laid out as in
        _evaluate_blocks, bit for bit what evaluate returns on b alone,
        without a table: a cosine sum copies each block's cosines into one
        reused (*shape[1:], modes) scratch array and takes its product
        there, cover by cover (see _block_cosines), so it holds one cover
        and one block's cosines at a time.  A bump cloud evaluates block
        by block."""
        if self.centers is not None:
            for b in range(shape[0]):
                yield b, self._eval_bumps(_rows(points_of(b)))
            return
        scratch = np.empty(shape[1:] + (len(self.amplitudes),))
        rows = scratch.reshape(-1, len(self.amplitudes))
        for b, cosines in self._block_cosines(covers, points_of):
            scratch[...] = cosines
            del cosines
            yield b, self._product(rows, points_of, b)

    def gradient(self, x) -> list:
        """DV at one point x, given as dim floats, as a list of dim floats.

        The RK4 flow calls this once per stage.  A cosine sum takes, per
        mode k, the angle (x . f_k) 2 pi + phi_k and s_k = a_k sin(angle),
        and component i is -2 pi sum_k s_k f_ki, summed over k left to
        right with Python float + (not sum(), which compensates on Python
        >= 3.12, nor math.fsum).  In 1D an angle is one product, and with
        one mode the sum is one product, so a single-mode cosine has the
        bits of the array expression -2 pi (a sin(2 pi x @ f.T + phi)) @ f;
        with several modes a BLAS product adds in another order, or fused,
        and the two differ by summation rounding.  A bump cloud is summed
        by numpy over its centers on one (1, dim) row, as an array of rows
        would be.
        """
        if self.centers is not None:
            return self._grad_bumps(np.array([x], dtype=float)).tolist()[0]
        grad = [0.0] * len(x)
        for f, phase, amp in self._modes:
            dot = 0.0
            for xi, fi in zip(x, f):
                dot += xi * fi
            s = amp * math.sin(dot * _TWO_PI + phase)
            for i, fi in enumerate(f):
                grad[i] += s * fi
        return [-_TWO_PI * g for g in grad]

    def _bump_terms(self, x: np.ndarray):
        """Yield (rows, d, w) per block of rows: d[i, j] = x[i] - centers[j]
        and w = max(1 - |d|^2 / r^2, 0), with ~32768 entries in d.  Every
        bump sum reduces within one row, so a row's value does not depend
        on the block it is evaluated in."""
        per = max(1, 32768 // self.centers.size)
        for a in range(0, len(x), per):
            d = x[a:a + per, None, :] - self.centers[None, :, :]
            w = np.clip(1.0 - np.sum(d * d, axis=2) / self.bump_radius**2, 0.0, None)
            yield slice(a, a + per), d, w

    def _eval_bumps(self, x: np.ndarray) -> np.ndarray:
        # profile (1 - |u|^2)^3 on |u| <= 1: C^2 with bounded third derivative
        out = np.empty(len(x))
        for rows, _, w in self._bump_terms(x):
            out[rows] = np.sum(w**3, axis=1)
        return out

    def _grad_bumps(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape)
        for rows, d, w in self._bump_terms(x):
            coef = -6.0 * w**2 / self.bump_radius**2
            out[rows] = np.sum(coef[:, :, None] * d, axis=1)
        return out

    # -- structure -------------------------------------------------------

    def translate(self, z: np.ndarray) -> "EnvRealization":
        """Realization of the field x -> V(x + z)."""
        z = np.asarray(z, dtype=float).reshape(self.spec.dimension)
        if self.centers is not None:
            return EnvRealization(
                spec=self.spec, index=self.index,
                centers=self.centers - z[None, :],
                bump_radius=self.bump_radius,
                coverage=self.coverage - float(np.max(np.abs(z))),
            )
        return EnvRealization(
            spec=self.spec, index=self.index,
            amplitudes=self.amplitudes, freqs=self.freqs,
            phases=self.phases + 2.0 * np.pi * (self.freqs @ z),
        )

    def field_bound(self) -> float:
        """Conservative bound on sup |V|."""
        if self.centers is not None:
            probe = _coverage_lattice(self.spec.dimension, max(self.coverage, 1.0), 8)
            return float(np.max(np.abs(self.evaluate(probe)))) * 1.25 + 0.25
        return float(np.sum(np.abs(self.amplitudes)))

    def hessian_bound(self) -> float:
        if self.centers is not None:
            # single bump second derivative is bounded by 24/r^2 on its support
            probe = _coverage_lattice(self.spec.dimension, max(self.coverage, 1.0), 8)
            stack = float(np.max(self.evaluate(probe))) + 1.0
            return 24.0 / self.bump_radius**2 * stack
        return float(np.sum(np.abs(self.amplitudes) * (2.0 * np.pi * np.linalg.norm(self.freqs, axis=1)) ** 2))


def _rows(x: np.ndarray) -> np.ndarray:
    """The points of an array of shape (..., dim) as (m, dim) rows."""
    return x.reshape(-1, x.shape[-1])


def _coverage_lattice(dim: int, halfwidth: float, per_unit: int) -> np.ndarray:
    m = max(int(np.ceil(halfwidth * per_unit)), 1)
    return lattice_points(np.arange(-m, m + 1) / per_unit, dim)


_KIND_PARAMS = {
    "periodic": ("amplitudes", "phases", "frequencies"),
    "quasiperiodic": ("amplitudes", "frequencies"),
    "random_fourier": ("k_max", "period", "amplitude", "decay"),
    "poisson_bumps": ("intensity", "bump_radius", "coverage"),
}


def sample_realization(spec: EnvSpec, index: int) -> EnvRealization:
    """Draw realization ``index`` of the ensemble.

    Deterministic in (spec.seed, index); distinct indices use independent
    child streams of one seed sequence.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(spec.seed), int(index)]))
    dim = spec.dimension
    p = dict(spec.params)
    unknown = sorted(set(p) - set(_KIND_PARAMS[spec.kind]))
    if unknown:
        raise ConfigError(
            f"unknown parameter(s) {unknown} for environment kind "
            f"{spec.kind!r}; accepted: {sorted(_KIND_PARAMS[spec.kind])}")

    if spec.kind == "periodic":
        amps = np.atleast_1d(np.asarray(p.get("amplitudes", [1.0]), dtype=float))
        phases = np.atleast_1d(np.asarray(p.get("phases", np.zeros(len(amps))), dtype=float))
        freqs = _as_freq_rows(p.get("frequencies"), len(amps), dim, default_integer=True)
        return EnvRealization(spec, index, amplitudes=amps, freqs=freqs, phases=phases)

    if spec.kind == "quasiperiodic":
        amps = np.atleast_1d(np.asarray(p.get("amplitudes", [1.0, 0.6]), dtype=float))
        default = [1.0, float(np.sqrt(2.0))] if dim == 1 else None
        freqs = _as_freq_rows(p.get("frequencies", default), len(amps), dim, default_integer=False)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=len(amps))
        return EnvRealization(spec, index, amplitudes=amps, freqs=freqs, phases=phases)

    if spec.kind == "random_fourier":
        kmax = int(p.get("k_max", 3))
        period = float(p.get("period", 1.0))
        amp = float(p.get("amplitude", 1.0))
        decay = float(p.get("decay", 2.0))
        ks = _lattice_modes(dim, kmax)
        norms = np.linalg.norm(ks, axis=1)
        amps = amp * norms**-decay
        amps /= np.sum(amps)
        amps *= amp
        freqs = ks / period
        phases = rng.uniform(0.0, 2.0 * np.pi, size=len(amps))
        return EnvRealization(spec, index, amplitudes=amps, freqs=freqs, phases=phases)

    # poisson_bumps
    intensity = float(p.get("intensity", 1.0))
    radius = float(p.get("bump_radius", 0.35))
    coverage = float(p.get("coverage", 8.0))
    half = coverage + radius
    volume = (2.0 * half) ** dim
    count = int(rng.poisson(intensity * volume))
    centers = rng.uniform(-half, half, size=(max(count, 1), dim))
    if count == 0:
        centers = np.full((1, dim), 1e6)  # empty window: one bump far away
    return EnvRealization(spec, index, centers=centers, bump_radius=radius, coverage=coverage)


def _lattice_modes(dim: int, kmax: int) -> np.ndarray:
    if dim == 1:
        ks = lattice_points(np.arange(1, kmax + 1, dtype=float), 1)
    else:
        ks = lattice_points(np.arange(-kmax, kmax + 1), 2).astype(float)
        keep = np.linalg.norm(ks, axis=1) > 0
        # keep one representative per +-k pair: cos is even up to phase
        keep &= (ks[:, 0] > 0) | ((ks[:, 0] == 0) & (ks[:, 1] > 0))
        ks = ks[keep]
        ks = ks[np.linalg.norm(ks, axis=1) <= kmax + 1e-9]
    return ks


def _as_freq_rows(freqs, m: int, dim: int, default_integer: bool) -> np.ndarray:
    if freqs is None:
        base = np.arange(1, m + 1, dtype=float)
        rows = np.zeros((m, dim))
        rows[:, 0] = base
        return rows
    arr = np.asarray(freqs, dtype=float)
    if arr.ndim == 1:
        if dim == 1:
            return arr[:, None]
        raise ConfigError("2-d environments need one frequency vector per mode")
    if arr.shape != (m, dim):
        raise ConfigError(f"frequencies have shape {arr.shape}, expected ({m}, {dim})")
    return arr


# -- metrics on fields ---------------------------------------------------


def _as_field(f):
    if isinstance(f, GridFn):
        return f.periodic_eval
    if isinstance(f, EnvRealization):
        return f.evaluate
    return f


def metric_d(f, g, n_max: int = 10, dim: int = 1) -> float:
    """Frechet-style metric sum_{n<=n_max} 2^-n ||f-g||_n / (1 + ||f-g||_n).

    ||.||_n is the sup norm over the ball of radius n, approximated on a
    deterministic lattice of 8 points per unit (4 in 2D).  Grid functions
    are extended periodically.  The value lies in [0, 1 - 2^-n_max].
    """
    if isinstance(f, GridFn):
        dim = f.grid.dim
    elif isinstance(f, EnvRealization):
        dim = f.spec.dimension
    fc, gc = _as_field(f), _as_field(g)
    ppu = 8 if dim == 1 else 4
    total = 0.0
    for n in range(1, n_max + 1):
        pts = _coverage_lattice(dim, float(n), ppu)
        sup = float(np.max(np.abs(np.asarray(fc(pts), dtype=float) - np.asarray(gc(pts), dtype=float))))
        total += 2.0**-n * sup / (1.0 + sup)
    return total


def ky_fan_from_distances(distances) -> float:
    """Exact empirical Ky Fan value inf{eps >= 0 : #{d_i > eps}/n <= eps}.

    Scans the sorted-sample step function; the infimum is attained either at
    a sample value or where the exceedance staircase crosses the diagonal.
    """
    d = np.sort(np.asarray(distances, dtype=float))
    n = d.size
    if n == 0:
        raise ConfigError("ky_fan needs at least one sampled distance")
    best = np.inf
    for j in range(n + 1):
        lo = 0.0 if j == 0 else float(d[j - 1])
        hi = np.inf if j == n else float(d[j])
        exceed = (n - int(np.searchsorted(d, lo, side="right"))) / n
        eps = max(lo, exceed)
        if eps < hi or j == n:
            best = min(best, eps)
    return float(best)


def ky_fan_distance(spec: EnvSpec, F, G, n_samples: int) -> tuple:
    """Empirical Ky Fan distance between function-valued maps F, G, with
    metric_d summed over balls up to radius 6.

    F and G take an EnvRealization and return an evaluable field (callable
    or GridFn).  Returns (value, per-realization distances).
    """
    if n_samples < 1:
        raise ConfigError("ky_fan_distance needs n_samples >= 1")
    dists = np.zeros(n_samples)
    for i in range(n_samples):
        omega = sample_realization(spec, i)
        dists[i] = metric_d(F(omega), G(omega), n_max=6, dim=spec.dimension)
    return ky_fan_from_distances(dists), dists
