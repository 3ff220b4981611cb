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
takes its cosines (sines for the gradient) in the same buffer: the same
operations on the same operands as the textbook expression, so every value
keeps its bits.  The final matrix-vector product may round a row
differently by its place in the batch, so a caller that needs values for a
batch and for row blocks of it as their own arrays (the bisection of
metric.critical_value_free) gets both from one cosine table, with one
product per block and one over the batch.  A bump cloud is evaluated in
blocks of rows whose (rows, centers, dim) differences hold ~32768 entries;
every bump sum reduces within one row, so blocking moves no bit and memory
beyond the result does not grow with m.

Amplitudes of the random Fourier generator are deliberately deterministic:
a random amplitude would be a translation-invariant random variable and the
ensemble would stop being ergodic, which breaks every growing-box
concentration experiment downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grid import GridFn

__all__ = [
    "EnvSpec",
    "EnvRealization",
    "sample_realization",
    "metric_d",
    "ky_fan_from_distances",
    "ky_fan_distance",
    "check_sublinearity",
    "SublinearityReport",
    "dump_coefficients",
]

KINDS = ("periodic", "quasiperiodic", "random_fourier", "poisson_bumps")


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

    def _evaluate_blocks(self, x: np.ndarray, bounds) -> tuple:
        """(whole, blocks): field values on an (m, dim) float array x as one
        batch, and on each row block x[bounds[i]:bounds[i + 1]], each bit
        for bit what evaluate returns on that array alone.

        A cosine sum builds one (m, modes) table of cosines.  Its entries
        are elementwise in the rows, so a block's rows hold what evaluate
        would build, and each block gets its own product over its row
        slice: the product rounds a row by its place in the batch, so the
        whole-batch product is a separate call.  One exception: numpy forms
        a one-row x @ freqs.T by a vector-matrix call, whose angles can
        differ from the batch's in the last bit, so a one-row block goes
        through evaluate.  A bump row reduces on its own, so the blocks are
        slices of the whole.
        """
        spans = list(zip(bounds[:-1], bounds[1:]))
        if self.centers is not None:
            whole = self._eval_bumps(x)
            return whole, [whole[a:b] for a, b in spans]
        table = self._angles(x)
        np.cos(table, out=table)
        blocks = [self.evaluate(x[a:b]) if b - a == 1 else table[a:b] @ self.amplitudes
                  for a, b in spans]
        return table @ self.amplitudes, blocks

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Field gradient; x has shape (m, dim) or (dim,).

        An (m, dim) float array is used as it is, without a wrapper call:
        the RK4 flow calls this once per stage on one row.  Bit rule: the
        sines and both matrix products are these numpy calls on the rows
        as given.  np.sin is not math.sin, and a BLAS product may round
        differently from a Python sum, so none of them may be swapped for
        scalar math without moving trajectory bits.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            x = np.atleast_2d(x)
        if self.centers is not None:
            return self._grad_bumps(x)
        ang = self._angles(x)
        np.sin(ang, out=ang)
        ang *= self.amplitudes
        return -2.0 * np.pi * (ang @ self.freqs)

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

    def gradient_bound(self) -> float:
        if self.centers is not None:
            probe = _coverage_lattice(self.spec.dimension, max(self.coverage, 1.0), 8)
            g = self.gradient(probe)
            return float(np.max(np.linalg.norm(g, axis=1))) * 1.25 + 0.25
        return float(2.0 * np.pi * np.sum(np.abs(self.amplitudes) * np.linalg.norm(self.freqs, axis=1)))

    def hessian_bound(self) -> float:
        if self.centers is not None:
            # single bump second derivative is bounded by 24/r^2 on its support
            probe = _coverage_lattice(self.spec.dimension, max(self.coverage, 1.0), 8)
            stack = float(np.max(self.evaluate(probe))) + 1.0
            return 24.0 / self.bump_radius**2 * stack
        return float(np.sum(np.abs(self.amplitudes) * (2.0 * np.pi * np.linalg.norm(self.freqs, axis=1)) ** 2))


def _coverage_lattice(dim: int, halfwidth: float, per_unit: int) -> np.ndarray:
    m = max(int(np.ceil(halfwidth * per_unit)), 1)
    ax = np.arange(-m, m + 1) / per_unit
    if dim == 1:
        return ax[:, None]
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def _param(params: dict, key: str, default):
    return params.get(key, default)


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
        amps = np.atleast_1d(np.asarray(_param(p, "amplitudes", [1.0]), dtype=float))
        phases = np.atleast_1d(np.asarray(_param(p, "phases", np.zeros(len(amps))), dtype=float))
        freqs = _as_freq_rows(_param(p, "frequencies", None), len(amps), dim, default_integer=True)
        return EnvRealization(spec, index, amplitudes=amps, freqs=freqs, phases=phases)

    if spec.kind == "quasiperiodic":
        amps = np.atleast_1d(np.asarray(_param(p, "amplitudes", [1.0, 0.6]), dtype=float))
        default = [1.0, float(np.sqrt(2.0))] if dim == 1 else None
        freqs = _as_freq_rows(_param(p, "frequencies", default), len(amps), dim, default_integer=False)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=len(amps))
        return EnvRealization(spec, index, amplitudes=amps, freqs=freqs, phases=phases)

    if spec.kind == "random_fourier":
        kmax = int(_param(p, "k_max", 3))
        period = float(_param(p, "period", 1.0))
        amp = float(_param(p, "amplitude", 1.0))
        decay = float(_param(p, "decay", 2.0))
        ks = _lattice_modes(dim, kmax)
        norms = np.linalg.norm(ks, axis=1)
        amps = amp * norms**-decay
        amps /= np.sum(amps)
        amps *= amp
        freqs = ks / period
        phases = rng.uniform(0.0, 2.0 * np.pi, size=len(amps))
        return EnvRealization(spec, index, amplitudes=amps, freqs=freqs, phases=phases)

    # poisson_bumps
    intensity = float(_param(p, "intensity", 1.0))
    radius = float(_param(p, "bump_radius", 0.35))
    coverage = float(_param(p, "coverage", 8.0))
    half = coverage + radius
    volume = (2.0 * half) ** dim
    count = int(rng.poisson(intensity * volume))
    centers = rng.uniform(-half, half, size=(max(count, 1), dim))
    if count == 0:
        centers = np.full((1, dim), 1e6)  # empty window: one bump far away
    return EnvRealization(spec, index, centers=centers, bump_radius=radius, coverage=coverage)


def _lattice_modes(dim: int, kmax: int) -> np.ndarray:
    if dim == 1:
        ks = np.arange(1, kmax + 1, dtype=float)[:, None]
    else:
        rng_ = np.arange(-kmax, kmax + 1)
        kx, ky = np.meshgrid(rng_, rng_, indexing="ij")
        ks = np.stack([kx.ravel(), ky.ravel()], axis=1).astype(float)
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


def _as_field(f, dim: int):
    if isinstance(f, GridFn):
        return f.as_callable()
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
    fc, gc = _as_field(f, dim), _as_field(g, dim)
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


@dataclass
class SublinearityReport:
    radii: np.ndarray
    ratios: np.ndarray
    threshold: float
    passed: bool


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


def _sphere_points(dim: int, r: float) -> np.ndarray:
    if dim == 1:
        return np.array([[-r], [r]])
    ang = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
    return r * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def dump_coefficients(real: EnvRealization) -> str:
    """One coefficient per line, with a small self-describing header."""
    lines = [f"# weakkam-env version=1 kind={real.spec.kind} dim={real.spec.dimension} index={real.index}"]
    if real.centers is not None:
        lines.append(f"bump_radius={real.bump_radius!r}")
        lines.append(f"coverage={real.coverage!r}")
        for i, c in enumerate(real.centers):
            for a, comp in enumerate(c):
                lines.append(f"center[{i}][{a}]={float(comp)!r}")
    else:
        for i in range(len(real.amplitudes)):
            lines.append(f"amplitude[{i}]={float(real.amplitudes[i])!r}")
            for a in range(real.freqs.shape[1]):
                lines.append(f"frequency[{i}][{a}]={float(real.freqs[i, a])!r}")
            lines.append(f"phase[{i}]={float(real.phases[i])!r}")
    return "\n".join(lines) + "\n"
