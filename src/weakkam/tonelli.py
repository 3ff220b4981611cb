"""Machinery tied to complete characteristic flows.

Everything here assumes a Tonelli-flagged model: smooth, uniformly convex
in momentum, with controlled derivatives.  On those models

* the characteristic system integrates with an audited energy drift
  (flow_integrate),
* a short-time contraction window with explicit constants controls the
  position map of gradient-fed flows (regular_window, contraction_check),
* the two-sided smoothing T^-_t after T^+_s upgrades a strict subsolution
  to one with two-sided second-difference bounds — a gradient-Lipschitz
  proxy — without moving it on the Aubry mask (bernard_regularize), at
  the level folded into the kernel it runs on, under bounds it derives.

Non-Tonelli models are refused with the failed requirements listed, not
approximated.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .aubry import default_eps, verify_member
from .errors import ConfigError, NotTonelliError
from .grid import GridFn
from .hamiltonian import field_values, kappa
from .semigroup import ActionKernel, lax_minus, lax_plus
from .subsol import StrictnessCertificate, check_strict

__all__ = [
    "FlowState",
    "Trajectory",
    "flow_integrate",
    "SemiconcavityReport",
    "estimate_semiconcavity",
    "kernel_semiconcavity",
    "RegularWindow",
    "regular_window",
    "ContractionReport",
    "contraction_check",
    "BernardReport",
    "bernard_regularize",
]


def _require_tonelli(model, what: str):
    if not model.tonelli:
        raise NotTonelliError(
            f"{what} needs a complete characteristic flow, but model "
            f"'{model.name}' is not Tonelli-flagged (twice differentiable, "
            f"uniformly convex in p, derivatives bounded on momentum bands)",
            failed_conditions=("smoothness/uniform convexity in p",))


# -- Hamiltonian flow -------------------------------------------------------


@dataclass
class FlowState:
    """Position-momentum pair for the characteristic system."""

    xi: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        self.xi = np.atleast_1d(np.asarray(self.xi, dtype=float))
        self.eta = np.atleast_1d(np.asarray(self.eta, dtype=float))


@dataclass
class Trajectory:
    """Sampled characteristic with its conserved-energy audit."""

    times: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    energy: np.ndarray
    drift: float


def flow_integrate(model, env, state0: FlowState, t: float, dt: float) -> Trajectory:
    """RK4 on xi' = H_p, eta' = -H_x; negative t integrates backward.

    The characteristic field is bound once, model.rates(env), and the
    state is stepped as named Python float locals (x, p in 1D; x0, x1, p0,
    p1 in 2D), one RK4 body per dimension the validators admit; any other
    dimension is refused.  Each stage makes one call of the bound field and
    builds no numpy array; each state is appended to one array.array of
    doubles, positions then momenta, which becomes the xi and eta arrays
    once, after the last step.  Python float + and * are the IEEE
    operations numpy applies elementwise, taken here in the textbook order
    by explicit + on floats (no sum()), so each step has the bits of the
    same RK4 on arrays with the same field values; those have the bits set
    by the field's own point-wise contract (HamiltonianModel,
    EnvRealization.gradient).  The energy is audited by one eval_H over the
    whole trajectory.  Not symplectic: the energy drift over the run is
    measured and reported instead, and callers gate on it.  A non-finite t
    or dt, a dt <= 0, or a step count t / dt that overflows is refused.
    """
    _require_tonelli(model, "flow integration")
    t, dt = float(t), float(dt)
    if not (math.isfinite(t) and math.isfinite(dt)):
        raise ConfigError(f"flow time t={t!r} and step dt={dt!r} must be finite")
    if dt <= 0:
        raise ConfigError(f"flow step dt={dt!r} must be positive")
    if not math.isfinite(abs(t) / dt):
        raise ConfigError(f"flow time t={t!r} over step dt={dt!r} is too many steps")
    dim = model.dim
    if dim not in (1, 2):
        raise ConfigError(f"the characteristic flow runs in dimension 1 or 2, "
                          f"but model '{model.name}' has dimension {dim}")
    if state0.xi.size != dim or state0.eta.size != dim:
        raise ConfigError(
            f"flow state has xi.size={state0.xi.size} and "
            f"eta.size={state0.eta.size}, but model '{model.name}' has "
            f"dimension {dim}")
    n = max(int(round(abs(t) / dt)), 1)
    step = float(np.sign(t) if t != 0 else 1.0) * abs(t) / n
    half, sixth = 0.5 * step, step / 6.0
    rate = model.rates(env)
    states = array("d", state0.xi.reshape(dim).tolist() + state0.eta.reshape(dim).tolist())
    if dim == 1:
        x, p = states
        for _ in range(n):
            k1x, k1p = rate(x, p)
            k2x, k2p = rate(x + half * k1x, p + half * k1p)
            k3x, k3p = rate(x + half * k2x, p + half * k2p)
            k4x, k4p = rate(x + step * k3x, p + step * k3p)
            x = x + sixth * (k1x + 2 * k2x + 2 * k3x + k4x)
            p = p + sixth * (k1p + 2 * k2p + 2 * k3p + k4p)
            states.extend((x, p))
    else:
        x0, x1, p0, p1 = states
        for _ in range(n):
            a0, a1, b0, b1 = rate(x0, x1, p0, p1)
            c0, c1, d0, d1 = rate(x0 + half * a0, x1 + half * a1,
                                  p0 + half * b0, p1 + half * b1)
            e0, e1, f0, f1 = rate(x0 + half * c0, x1 + half * c1,
                                  p0 + half * d0, p1 + half * d1)
            g0, g1, h0, h1 = rate(x0 + step * e0, x1 + step * e1,
                                  p0 + step * f0, p1 + step * f1)
            x0 = x0 + sixth * (a0 + 2 * c0 + 2 * e0 + g0)
            x1 = x1 + sixth * (a1 + 2 * c1 + 2 * e1 + g1)
            p0 = p0 + sixth * (b0 + 2 * d0 + 2 * f0 + h0)
            p1 = p1 + sixth * (b1 + 2 * d1 + 2 * f1 + h1)
            states.extend((x0, x1, p0, p1))
    path = np.frombuffer(states).reshape(n + 1, 2 * dim)
    xi, eta = path[:, :dim].copy(), path[:, dim:].copy()
    times = step * np.arange(n + 1)
    energy = np.asarray(model.eval_H(xi, eta, env), dtype=float)
    drift = float(np.max(np.abs(energy - energy[0])))
    return Trajectory(times=times, xi=xi, eta=eta, energy=energy, drift=drift)


# -- semiconcavity ----------------------------------------------------------


def _directions(dim: int) -> list:
    if dim == 1:
        return [np.array([1])]
    return [np.array([1, 0]), np.array([0, 1]), np.array([1, 1]), np.array([1, -1])]


@dataclass
class SemiconcavityReport:
    """Extremes of centered second-difference quotients.

    k_upper bounds the one-sided upper curvature (semiconcavity constant),
    k_lower the lower one (negated semiconvexity constant).  Quotients at
    kink scale 1/h are flagged unbounded.
    """

    k_upper: float
    k_lower: float
    argmax_index: int
    argmin_index: int
    kink_scale: float
    unbounded_above: bool
    unbounded_below: bool


def estimate_semiconcavity(v: GridFn) -> SemiconcavityReport:
    """Scan centered second differences over axis and diagonal directions."""
    quots = np.stack([v.second_differences(k) for k in _directions(v.grid.dim)])
    k_upper = float(np.max(quots))
    k_lower = float(np.min(quots))
    flat_up = int(np.argmax(np.max(quots, axis=0)))
    flat_dn = int(np.argmin(np.min(quots, axis=0)))
    # a slope jump of size d scores |q| = d/h; flag from unit jumps upward
    kink = 1.0 / v.grid.h
    return SemiconcavityReport(
        k_upper=k_upper, k_lower=k_lower, argmax_index=flat_up,
        argmin_index=flat_dn, kink_scale=kink,
        unbounded_above=bool(k_upper >= kink),
        unbounded_below=bool(k_lower <= -kink))


def kernel_semiconcavity(kernel: ActionKernel, t: float) -> float:
    """Largest axis second-difference quotient of x -> h_t(y, x) over y.

    This is the measured concavity constant the backward semigroup imprints
    on its images at time t.  The rows h_t(y, .) are walked on the stencil
    one block of ~32768 entries at a time and reduced into a running max, so
    no N x N table is held.
    """
    grid = kernel.grid
    steps, nodes = kernel.steps_of(t), np.arange(grid.size)
    per = max(1, 32768 // grid.size)
    best = -np.inf
    for start in range(0, grid.size, per):
        rows = kernel.walk_costs(nodes[start:start + per], steps)
        shaped = rows.reshape((len(rows),) + grid.shape)
        for ax in range(grid.dim):
            plus = np.roll(shaped, -1, axis=1 + ax)
            minus = np.roll(shaped, 1, axis=1 + ax)
            # Pruned offsets carry +inf costs; inf - inf yields NaN here, which
            # the finite mask below discards along with the infs themselves.
            with np.errstate(invalid="ignore"):
                q = (plus + minus - 2 * shaped) / grid.h**2
            best = max(best, float(np.max(q, where=np.isfinite(q), initial=-np.inf)))
    return best


# -- contraction window -----------------------------------------------------


@dataclass
class RegularWindow:
    """Short-time window on which gradient-fed flows are near-identity.

    Constants: rho is the momentum radius reachable from |p| <= kappa0 at
    constant energy, ell the flow-field Lipschitz rate on that band, t0 the
    largest dyadic time passing all three smallness constraints, a_const
    the resulting Lipschitz bound for the regularized gradient.
    """

    lam: float
    rho: float
    ell: float
    t0: float
    a_const: float
    constraints: dict = field(default_factory=dict)


def regular_window(kernel: ActionKernel, lam: float) -> RegularWindow:
    """Constants (rho, ell, t0, A) of the short-time contraction estimate,
    kappa0 and R(kappa0) the kernel's kappa and speed_radius.

    t0 is the largest dyadic 2^-j with
        (e^{ell t0} - 1) sqrt(1 + lam^2) < 1/2,
        ell t0 < 1/4,
        t0 R(kappa0) < 1/4,
    and A = 2 e^{ell t0} sqrt(1 + lam^2) bounds the gradient Lipschitz
    constant the window certifies.
    """
    _require_tonelli(kernel.model, "the contraction window")
    model, env, kappa0 = kernel.model, kernel.env, kernel.kappa
    # energy ceiling reachable from |p| <= kappa0, then back to a momentum radius
    xs = np.random.default_rng(11).uniform(0.0, 1.0, size=(512, model.dim))
    dirs = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    if model.dim == 1:
        pp = np.array([[kappa0], [-kappa0]])
    else:
        pp = kappa0 * np.stack([np.cos(dirs), np.sin(dirs)], axis=1)
    V = field_values(env, xs)
    e0 = max(float(np.max(model.H(V, np.broadcast_to(p, xs.shape)))) for p in pp)
    rho = kappa(model, e0, env)
    ell = float(model.l_r(rho, env))
    root = float(np.sqrt(1.0 + lam * lam))
    t0 = None
    for j in range(64):
        cand = 2.0**-j
        c1 = (np.exp(ell * cand) - 1.0) * root
        c2 = ell * cand
        c3 = cand * kernel.speed_radius
        if c1 < 0.5 and c2 < 0.25 and c3 < 0.25:
            t0 = cand
            constraints = {"contraction": float(c1), "rate_time": float(c2),
                           "excursion": float(c3)}
            break
    if t0 is None:
        raise ConfigError("no dyadic time satisfies the window constraints; "
                          "the flow rate ell is effectively unbounded")
    a_const = 2.0 * float(np.exp(ell * t0)) * root
    return RegularWindow(lam=float(lam), rho=float(rho), ell=ell, t0=float(t0),
                         a_const=a_const, constraints=constraints)


@dataclass
class ContractionReport:
    """Empirical Lipschitz constant of y -> R_{t0}(y) - y on sampled pairs."""

    lipschitz: float
    n_pairs: int
    t0: float
    bound: float
    max_energy_drift: float
    passed: bool


def contraction_check(window: RegularWindow, model, env) -> ContractionReport:
    """Flow 100 sampled pairs (y, Dpsi(y)) for t0 at step 1e-3 and measure
    Lip(position map - id).

    Test gradient: Dpsi_i(y) = (lam / 2 pi) sin(2 pi y_i), whose Lipschitz
    constant is exactly lam.  The pairs come from a fixed seed (0).
    """
    n_pairs, dt = 100, 1e-3
    lam = window.lam

    def psi_grad(y):
        return (lam / (2.0 * np.pi)) * np.sin(2.0 * np.pi * np.asarray(y))

    rng = np.random.default_rng(0)
    dim = model.dim
    worst = 0.0
    drift = 0.0
    for _ in range(n_pairs):
        y1 = rng.uniform(0.0, 1.0, size=dim)
        gap = rng.uniform(0.01, 0.25)
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        y2 = y1 + gap * direction
        t1 = flow_integrate(model, env, FlowState(y1, psi_grad(y1)), window.t0, dt)
        t2 = flow_integrate(model, env, FlowState(y2, psi_grad(y2)), window.t0, dt)
        d1 = t1.xi[-1] - y1
        d2 = t2.xi[-1] - y2
        worst = max(worst, float(np.linalg.norm(d1 - d2)) / gap)
        drift = max(drift, t1.drift, t2.drift)
    return ContractionReport(lipschitz=worst, n_pairs=n_pairs, t0=window.t0,
                             bound=0.5, max_energy_drift=drift,
                             passed=bool(worst <= 0.5))


# -- two-sided regularization ----------------------------------------------


@dataclass
class BernardReport:
    """Certificates for the forward-backward smoothing T^-_t T^+_s.

    passed aggregates every certificate; the mask agreement is None, and
    left out, when the mask is empty.
    """

    s: float
    t: float
    subsolution_ok: bool
    edge_violation: float
    curvature: SemiconcavityReport
    curvature_bound: float
    curvature_ok: bool
    sup_change: float
    sup_bound: float
    sup_ok: bool
    mask_agreement: float | None
    mask_eps: float
    mask_ok: bool | None
    strictness: StrictnessCertificate
    strict_ok: bool
    warnings: list
    passed: bool

    def failed(self) -> list:
        """Names of the computed certificates that failed."""
        verdicts = (("subsolution", self.subsolution_ok), ("sup-change", self.sup_ok),
                    ("curvature", self.curvature_ok), ("mask", self.mask_ok),
                    ("strict", self.strict_ok))
        return [name for name, ok in verdicts if ok is False]


def bernard_regularize(w: GridFn, kernel: ActionKernel, s: float, t: float, mask: np.ndarray,
                       d0: float, strict_input: bool, window: RegularWindow) -> tuple:
    """T^-_t (T^+_s w) with its five-way certificate, at the kernel's level a.

    (a) stays a discrete subsolution at level a; (b) two-sided second
    differences bounded (gradient-Lipschitz proxy) by the curvature bound
    max(window.a_const, kernel_semiconcavity at s and at t); (c) moves w by
    at most (t + s) R(kappa), the kernel's speed radius; (d) agrees with w
    on the mask within default_eps(w); (e) stays strict off the mask by d0.
    A non-strict input is a warning, not a refusal: the output is data.
    On the folded kernel T^+_s and T^-_t carry -a s and +a t themselves.
    """
    _require_tonelli(kernel.model, "two-sided regularization")
    warnings = []
    if not strict_input:
        warnings.append("input strictness not certified; the two-sided "
                        "smoothing is computed but its guarantees assume a "
                        "strict input")
    w_eps = lax_minus(lax_plus(w, kernel, s), kernel, t)

    sub_ok, worst = verify_member(w_eps, kernel)
    curv = estimate_semiconcavity(w_eps)
    curvature_bound = max(window.a_const, *(kernel_semiconcavity(kernel, x) for x in {s, t}))
    two_sided = max(abs(curv.k_upper), abs(curv.k_lower))
    curv_ok = bool(two_sided <= curvature_bound
                   and not curv.unbounded_above and not curv.unbounded_below)
    sup_change = float(np.max(np.abs(w_eps.values - w.values)))
    sup_bound = (t + s) * kernel.speed_radius
    sup_ok = bool(sup_change <= sup_bound + 1e-9)

    mask_eps = default_eps(w.values)
    mask_agree = mask_ok = None
    if np.any(mask):
        mask_agree = float(np.max(np.abs(w_eps.values[mask] - w.values[mask])))
        mask_ok = bool(mask_agree <= mask_eps)
    strict_cert = check_strict(w_eps, kernel, mask, d0)

    report = BernardReport(
        s=float(s), t=float(t), subsolution_ok=bool(sub_ok), edge_violation=worst,
        curvature=curv, curvature_bound=curvature_bound, curvature_ok=curv_ok,
        sup_change=sup_change, sup_bound=float(sup_bound), sup_ok=sup_ok,
        mask_agreement=mask_agree, mask_eps=mask_eps, mask_ok=mask_ok,
        strictness=strict_cert, strict_ok=strict_cert.passed, warnings=warnings,
        passed=bool(sub_ok and sup_ok and curv_ok and strict_cert.passed
                    and mask_ok is not False))
    return w_eps, report
