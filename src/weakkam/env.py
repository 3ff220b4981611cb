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
from one stream (_evaluate_blocks): each block's cosines pass through one
block-sized scratch array, which gives the block its own product, and on
in batch order through one chunk of rows, whose products give the whole
batch's values run by run, to the bit of the one product over the batch
under single-threaded BLAS; a caller that needs only the blocks' values
(metric.build_cost_graph, and semigroup.build_kernel for its edge
midpoints) gets them through the scratch alone (_block_values).  No
(rows, modes) table of a batch is held.
Either way the blocks are read off covers: a cover is an array of points
whose cosines are computed once, and every block is a slice of a cover by
construction, so it reads its cosines off the cover's without forming its
points.  A point's cosines do not depend on the rows it is computed with,
so a block's cosines are the textbook ones to the bit.
A bump cloud is evaluated in blocks of rows whose (rows, centers, dim)
differences hold ~32768 entries; every bump sum reduces within one row, so
blocking moves no bit, memory beyond the result does not grow with m, and a
batch of blocks evaluates each cover once and slices its values.

The gradient is bound once per realization as a function of one point's
coordinates in Python floats: the characteristic flow is its one caller,
once per RK4 stage (see EnvRealization.gradient).

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

# rows per run of the whole-batch product in EnvRealization._evaluate_blocks;
# a power of two, and runs start at its multiples, which keeps the bits of
# one product over the batch (see there)
_CHUNK = 4096


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

    def _cover_table(self, points: np.ndarray) -> np.ndarray:
        """A cover's table over an array of points of shape (..., dim):
        cos(_angles), shape (..., modes), for a cosine sum, the field
        values, shape (...), for a bump cloud.  A cover has several rows,
        so its angles come from one matrix product (numpy forms a one-row
        x @ freqs.T by a vector-matrix call that can round differently),
        and a point's entries do not depend on the rows around it."""
        rows = points.reshape(-1, points.shape[-1])
        if self.centers is not None:
            return self._eval_bumps(rows).reshape(points.shape[:-1])
        ang = self._angles(rows)
        return np.cos(ang, out=ang).reshape(points.shape[:-1] + (-1,))

    def _cover_values(self, points: np.ndarray, index) -> tuple:
        """(table, values): a cover's table and the field values on its
        block points[index], in C order, read off the table: the product
        over a contiguous copy of the block's cosines, bit for bit
        evaluate(points[index])."""
        table = self._cover_table(points)
        if self.centers is not None:
            return table, table[index].flatten()
        own = np.ascontiguousarray(table[index]).reshape(-1, len(self.amplitudes))
        return table, own @ self.amplitudes

    def _block_tables(self, covers):
        """Yield (b, table[index]) for every block b of a batch, cover by
        cover.  covers yields (points, table, members): a cover's points,
        its table or None (computed here), and per member a block b with
        the index that reads b's points off the cover; a block is a slice
        of its cover by construction.  A consumer that drops each view
        before asking for the next holds one cover's table at a time."""
        for points, table, members in covers:
            cover = self._cover_table(points) if table is None else table
            del table
            for b, index in members:
                yield b, cover[index]
            del cover

    def _evaluate_blocks(self, shape: tuple, covers, reduce) -> tuple:
        """(reduce(runs), blocks): the field values on the blocks of a
        batch of shape[0] blocks of prod(shape[1:]) points each, read off
        covers (see _block_tables).  blocks[b] holds b's values bit for bit
        as evaluate returns them on b alone; runs yields the values of the
        whole batch in batch order, as evaluate returns them on its rows in
        one array under single-threaded BLAS, and reduce reads it to the
        end.

        A cosine sum makes every cover's table first, drops each once its
        last block has passed, and streams the blocks in batch order: each
        block's cosines are copied into one reused (*shape[1:], modes)
        scratch array, which gives the block its own product, and fed on
        from there into one (_CHUNK, modes) chunk array.  The product
        rounds a row by its place in the batch, but under single-threaded
        OpenBLAS a product over rows that start at a multiple of _CHUNK
        rounds each row as the product over the whole batch does, so a run
        is the product of one full chunk, and the last run ends at the
        batch's last row; runs yields them as they fill.  On the R = 8
        batch the tests check, runs and blocks also keep their bits under
        two BLAS threads, where the one product over the batch does not.
        A bump row reduces on its own, so a bump cloud's runs are its
        blocks, its _block_values.
        """
        if self.centers is not None:
            values = dict(self._block_values(shape, covers))
            blocks = [values[b] for b in range(shape[0])]
            return reduce(iter(blocks)), blocks
        blocks = [None] * shape[0]
        return reduce(self._batch_runs(shape, covers, blocks)), blocks

    def _batch_runs(self, shape: tuple, covers, blocks: list):
        """Yield the runs of _evaluate_blocks in batch order and set
        blocks[b] to block b's own values as its rows pass."""
        modes = len(self.amplitudes)
        cosines = dict(self._block_tables(covers))
        scratch = np.empty(shape[1:] + (modes,))
        rows = scratch.reshape(-1, modes)
        chunk = np.empty((min(_CHUNK, shape[0] * len(rows)), modes))
        filled = 0
        for b in range(shape[0]):
            scratch[...] = cosines.pop(b)
            blocks[b] = rows @ self.amplitudes
            start = 0
            while start < len(rows):
                take = min(len(chunk) - filled, len(rows) - start)
                chunk[filled:filled + take] = rows[start:start + take]
                filled, start = filled + take, start + take
                if filled == len(chunk):
                    yield chunk @ self.amplitudes
                    filled = 0
        if filled:
            yield chunk[:filled] @ self.amplitudes

    def _block_values(self, shape: tuple, covers):
        """Yield (b, values) for every block b of a batch laid out as in
        _evaluate_blocks, bit for bit what evaluate returns on b alone,
        without a table: a cosine sum copies each block's cosines into one
        reused (*shape[1:], modes) scratch array and takes its product
        there, so it holds one cover and one block's cosines at a time.  A
        bump cloud copies each block's values off its cover's."""
        if self.centers is not None:
            for b, values in self._block_tables(covers):
                yield b, values.flatten()
            return
        scratch = np.empty(shape[1:] + (len(self.amplitudes),))
        rows = scratch.reshape(-1, len(self.amplitudes))
        for b, cosines in self._block_tables(covers):
            scratch[...] = cosines
            del cosines
            yield b, rows @ self.amplitudes

    def gradient(self):
        """DV bound once, as a function of the dim coordinates of one point
        given as Python floats: g(x) returns one float in 1D, and g(x0, x1)
        a pair of floats in 2D.

        The characteristic flow binds it once per run and calls it once per
        RK4 stage.  A cosine sum holds its per-mode floats (frequencies,
        phase, amplitude) in the function and takes, per mode k, the angle
        (0.0 + x . f_k) 2 pi + phi_k and s_k = a_k sin(angle); component i
        is -2 pi (0.0 + sum_k s_k f_ki), summed over k left to right with
        Python float + (not sum(), which compensates on Python >= 3.12, nor
        math.fsum).  In 1D an angle is one product, and with one mode the
        sum is one product, so a single-mode cosine has the bits of the
        array expression -2 pi (a sin(2 pi x @ f.T + phi)) @ f; with several
        modes a BLAS product adds in another order, or fused, and the two
        differ by summation rounding.  A bump cloud is summed by numpy over
        its centers on one (1, dim) row, as an array of rows would be.
        """
        if self.centers is not None:
            if self.spec.dimension == 1:
                return lambda x: self._grad_bumps(np.array([[x]])).item()
            return lambda x0, x1: self._grad_bumps(np.array([[x0, x1]]))[0].tolist()
        sin, two_pi = math.sin, _TWO_PI
        if self.spec.dimension == 1:
            modes = tuple(zip(self.freqs[:, 0].tolist(), self.phases.tolist(),
                              self.amplitudes.tolist()))

            def gradient(x):
                g = 0.0
                for f, phase, amp in modes:
                    g += amp * sin((0.0 + x * f) * two_pi + phase) * f
                return -two_pi * g
            return gradient
        modes = tuple(zip(self.freqs[:, 0].tolist(), self.freqs[:, 1].tolist(),
                          self.phases.tolist(), self.amplitudes.tolist()))

        def gradient(x0, x1):
            g0 = g1 = 0.0
            for f0, f1, phase, amp in modes:
                s = amp * sin((0.0 + x0 * f0 + x1 * f1) * two_pi + phase)
                g0 += s * f0
                g1 += s * f1
            return -two_pi * g0, -two_pi * g1
        return gradient

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

    if spec.kind == "poisson_bumps":
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

    if spec.kind == "periodic":
        amps = np.atleast_1d(np.asarray(p.get("amplitudes", [1.0]), dtype=float))
        phases = np.atleast_1d(np.asarray(p.get("phases", np.zeros(len(amps))), dtype=float))
        freqs = _as_freq_rows(p.get("frequencies"), len(amps), dim)
    elif spec.kind == "quasiperiodic":
        amps = np.atleast_1d(np.asarray(p.get("amplitudes", [1.0, 0.6]), dtype=float))
        default = [1.0, float(np.sqrt(2.0))] if dim == 1 else None
        freqs = _as_freq_rows(p.get("frequencies", default), len(amps), dim)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=len(amps))
    else:    # random_fourier
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
    if not len(amps) == len(freqs) == len(phases):
        raise ConfigError(f"environment kind {spec.kind!r} has {len(amps)} amplitudes, "
                          f"{len(freqs)} frequencies and {len(phases)} phases; give one "
                          f"of each per amplitude")
    return EnvRealization(spec, index, amplitudes=amps, freqs=freqs, phases=phases)


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


def _as_freq_rows(freqs, m: int, dim: int) -> np.ndarray:
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
