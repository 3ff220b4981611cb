"""Machinery tied to complete characteristic flows.

Everything here assumes a Tonelli-flagged model: smooth, uniformly convex
in momentum, with controlled derivatives.  On those models

* minimizing chains of the discrete semigroup shadow backward Hamiltonian
  characteristics (verify_minimizer_is_characteristic measures how well),
* a short-time contraction window with explicit constants controls the
  position map of gradient-fed flows (regular_window, contraction_check),
* the two-sided smoothing T^-_t after T^+_s upgrades a strict subsolution
  to one with two-sided second-difference bounds — a gradient-Lipschitz
  proxy — without moving it on the Aubry mask (bernard_regularize),
* backward images of semiconvex data coincide with the sup of backward
  images of their subtangent paraboloids (check_envelope_identity).

Non-Tonelli models are refused with the failed requirements listed, not
approximated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aubry import default_eps, verify_member
from .errors import ConfigError, NotTonelliError
from .grid import GridFn
from .hamiltonian import kappa, lipschitz_radius
from .semigroup import ActionKernel, lax_minus, lax_plus, semigroup_orbit
from .subsol import StrictnessCertificate, check_strict, _mask_array

__all__ = [
    "FlowState",
    "Trajectory",
    "flow_integrate",
    "CharacteristicReport",
    "verify_minimizer_is_characteristic",
    "SemiconcavityReport",
    "estimate_semiconcavity",
    "kernel_semiconcavity",
    "RegularWindow",
    "regular_window",
    "ContractionReport",
    "contraction_check",
    "BernardReport",
    "bernard_regularize",
    "EnvelopeReport",
    "check_envelope_identity",
    "lifted_mask_deviation",
    "mask_gradient_agreement",
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

    def state(self, k: int) -> FlowState:
        return FlowState(self.xi[k], self.eta[k])


def flow_integrate(model, env, state0: FlowState, t: float, dt: float) -> Trajectory:
    """RK4 on xi' = H_p, eta' = -H_x; negative t integrates backward.

    The state is stepped as Python floats, positions then momenta.  Each
    stage writes its point into a preallocated pair of (1, dim) rows and
    makes one model.DH call on them; nothing else touches an array until
    the step is written into the trajectory.  Python float + and * are the
    IEEE operations numpy applies elementwise, taken here in the textbook
    order, so every step has the bits of the same RK4 on (1, dim) arrays.
    The energy is audited by one eval_H over the whole trajectory.  Not
    symplectic: the energy drift over the run is measured and reported
    instead, and callers gate on it.
    """
    _require_tonelli(model, "flow integration")
    if dt <= 0:
        raise ConfigError("dt must be positive")
    dim = model.dim
    if state0.xi.size != dim or state0.eta.size != dim:
        raise ConfigError(
            f"flow state has xi.size={state0.xi.size} and "
            f"eta.size={state0.eta.size}, but model '{model.name}' has "
            f"dimension {dim}")
    if model.DH is None:
        raise ConfigError(f"model {model.name} has no derivative data")
    n = max(int(round(abs(t) / dt)), 1)
    step = float(np.sign(t) if t != 0 else 1.0) * abs(t) / n
    half, sixth = 0.5 * step, step / 6.0
    xi = np.empty((n + 1, dim))
    eta = np.empty((n + 1, dim))
    xi[0], eta[0] = state0.xi.reshape(dim), state0.eta.reshape(dim)
    point = np.empty((2, dim))
    x_row, p_row, coords = point[:1], point[1:], point.reshape(-1)

    def rates(z):
        """(H_p, -H_x) at the point z as one list of floats."""
        coords[:] = z
        hx, hp = model.DH(x_row, p_row, env)
        return hp.tolist()[0] + [-v for v in hx.tolist()[0]]

    z = xi[0].tolist() + eta[0].tolist()
    for k in range(1, n + 1):
        k1 = rates(z)
        k2 = rates([a + half * b for a, b in zip(z, k1)])
        k3 = rates([a + half * b for a, b in zip(z, k2)])
        k4 = rates([a + step * b for a, b in zip(z, k3)])
        z = [a + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(z, k1, k2, k3, k4)]
        xi[k], eta[k] = z[:dim], z[dim:]
    times = step * np.arange(n + 1)
    energy = np.asarray(model.eval_H(xi, eta, env), dtype=float)
    drift = float(np.max(np.abs(energy - energy[0])))
    return Trajectory(times=times, xi=xi, eta=eta, energy=energy, drift=drift)


# -- minimizers vs characteristics ------------------------------------------


@dataclass
class CharacteristicReport:
    """Deviation between a DP minimizing chain and the backward flow."""

    chain_indices: np.ndarray
    chain_points: np.ndarray
    flow_points: np.ndarray
    terminal_momentum: np.ndarray
    max_deviation: float
    energy_drift: float


def verify_minimizer_is_characteristic(u: GridFn, kernel: ActionKernel,
                                       x_index: int, t: float) -> CharacteristicReport:
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
    chain, _ = kernel.minimizing_chain(orbit, x_index)
    pts = grid.points()
    p_term = GridFn(grid, orbit[n_steps]).central_gradient()[int(x_index)]

    # one flow substep count per kernel step, so samples land on chain times
    sub = max(int(round(kernel.dt / 1e-3)), 1)
    traj = flow_integrate(model, env, FlowState(pts[int(x_index)], p_term),
                          -t, kernel.dt / sub)
    flow_pts = traj.xi[::sub][: n_steps + 1][::-1]   # forward order
    dev = grid.torus_dist(flow_pts, pts[chain])
    return CharacteristicReport(
        chain_indices=chain, chain_points=pts[chain], flow_points=flow_pts,
        terminal_momentum=p_term, max_deviation=float(np.max(dev)),
        energy_drift=traj.drift)


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
    kink scale 1/h are flagged unbounded; verdicts appear when a reference
    constant is supplied.
    """

    k_upper: float
    k_lower: float
    argmax_index: int
    argmin_index: int
    kink_scale: float
    unbounded_above: bool
    unbounded_below: bool
    k_reference: float | None = None
    tol: float = 0.0
    semiconcave: bool | None = None
    semiconvex: bool | None = None


def estimate_semiconcavity(v: GridFn, k_reference: float | None = None) -> SemiconcavityReport:
    """Scan centered second differences over axis and diagonal directions."""
    quots = np.stack([v.second_differences(k) for k in _directions(v.grid.dim)])
    k_upper = float(np.max(quots))
    k_lower = float(np.min(quots))
    flat_up = int(np.argmax(np.max(quots, axis=0)))
    flat_dn = int(np.argmin(np.min(quots, axis=0)))
    # a slope jump of size d scores |q| = d/h; flag from unit jumps upward
    kink = 1.0 / v.grid.h
    rep = SemiconcavityReport(
        k_upper=k_upper, k_lower=k_lower, argmax_index=flat_up,
        argmin_index=flat_dn, kink_scale=kink,
        unbounded_above=bool(k_upper >= kink),
        unbounded_below=bool(k_lower <= -kink))
    if k_reference is not None:
        rep.k_reference = float(k_reference)
        rep.semiconcave = bool(k_upper <= k_reference)
        rep.semiconvex = bool(k_lower >= -k_reference)
    return rep


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

    kappa0: float
    lam: float
    rho: float
    ell: float
    t0: float
    a_const: float
    r_kappa0: float
    constraints: dict = field(default_factory=dict)


def _sampled_flow_lipschitz(model, env, rho: float) -> float:
    """Fallback ell: sampled difference quotients of (H_x, H_p), doubled."""
    dim = model.dim
    xs = np.random.default_rng(7).uniform(0.0, 1.0, size=(256, dim))
    ps = np.linspace(-rho, rho, 9)
    grids = np.meshgrid(*([ps] * dim), indexing="ij")
    pp = np.stack([g.ravel() for g in grids], axis=1)
    best = 0.0
    eps = 1e-4
    for d in range(dim):
        ex = np.zeros(dim)
        ex[d] = eps
        for probe in (xs[: len(pp)], ):
            m = min(len(probe), len(pp))
            hx1, hp1 = model.eval_DH(probe[:m] + ex, pp[:m], env)
            hx0, hp0 = model.eval_DH(probe[:m] - ex, pp[:m], env)
            best = max(best, float(np.max(np.abs(np.c_[hx1 - hx0, hp1 - hp0]))) / (2 * eps))
            hx1, hp1 = model.eval_DH(probe[:m], pp[:m] + ex, env)
            hx0, hp0 = model.eval_DH(probe[:m], pp[:m] - ex, env)
            best = max(best, float(np.max(np.abs(np.c_[hx1 - hx0, hp1 - hp0]))) / (2 * eps))
    return 2.0 * max(best, 1.0)


def regular_window(kappa0: float, lam: float, model, env) -> RegularWindow:
    """Constants (rho, ell, t0, A) of the short-time contraction estimate.

    t0 is the largest dyadic 2^-j with
        (e^{ell t0} - 1) sqrt(1 + lam^2) < 1/2,
        ell t0 < 1/4,
        t0 R(kappa0) < 1/4,
    and A = 2 e^{ell t0} sqrt(1 + lam^2) bounds the gradient Lipschitz
    constant the window certifies.
    """
    _require_tonelli(model, "the contraction window")
    # energy ceiling reachable from |p| <= kappa0, then back to a momentum radius
    xs = np.random.default_rng(11).uniform(0.0, 1.0, size=(512, model.dim))
    dirs = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    if model.dim == 1:
        pp = np.array([[kappa0], [-kappa0]])
    else:
        pp = kappa0 * np.stack([np.cos(dirs), np.sin(dirs)], axis=1)
    e0 = max(float(np.max(model.eval_H(xs, np.broadcast_to(p, xs.shape), env)))
             for p in pp)
    rho = kappa(model, e0, env)
    if model.l_r is not None:
        ell = float(model.l_r(rho, env))
    else:
        ell = _sampled_flow_lipschitz(model, env, rho)
    r0 = lipschitz_radius(kappa0, model)
    root = float(np.sqrt(1.0 + lam * lam))
    t0 = None
    for j in range(64):
        cand = 2.0**-j
        c1 = (np.exp(ell * cand) - 1.0) * root
        c2 = ell * cand
        c3 = cand * r0
        if c1 < 0.5 and c2 < 0.25 and c3 < 0.25:
            t0 = cand
            constraints = {"contraction": float(c1), "rate_time": float(c2),
                           "excursion": float(c3)}
            break
    if t0 is None:
        raise ConfigError("no dyadic time satisfies the window constraints; "
                          "the flow rate ell is effectively unbounded")
    a_const = 2.0 * float(np.exp(ell * t0)) * root
    return RegularWindow(kappa0=float(kappa0), lam=float(lam), rho=float(rho),
                         ell=ell, t0=float(t0), a_const=a_const, r_kappa0=r0,
                         constraints=constraints)


@dataclass
class ContractionReport:
    """Empirical Lipschitz constant of y -> R_{t0}(y) - y on sampled pairs."""

    lipschitz: float
    n_pairs: int
    t0: float
    bound: float
    max_energy_drift: float
    passed: bool


def contraction_check(window: RegularWindow, model, env, n_pairs: int = 100,
                      dt: float = 1e-3, seed: int = 0) -> ContractionReport:
    """Flow pairs (y, Dpsi(y)) for t0 and measure Lip(position map - id).

    Test gradient: Dpsi_i(y) = (lam / 2 pi) sin(2 pi y_i), whose Lipschitz
    constant is exactly lam.
    """
    lam = window.lam

    def psi_grad(y):
        return (lam / (2.0 * np.pi)) * np.sin(2.0 * np.pi * np.asarray(y))

    rng = np.random.default_rng(seed)
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

    passed aggregates only the certificates that were actually computable
    with the supplied data (a mask is needed for agreement and strictness).
    """

    s: float
    t: float
    subsolution_ok: bool
    edge_violation: float
    curvature: SemiconcavityReport
    curvature_bound: float | None
    curvature_ok: bool | None
    sup_change: float
    sup_bound: float
    sup_ok: bool
    mask_agreement: float | None
    mask_eps: float | None
    mask_ok: bool | None
    strictness: StrictnessCertificate | None
    strict_ok: bool | None
    warnings: list
    passed: bool

    def failed(self) -> list:
        """Names of the computed certificates that failed."""
        verdicts = (("subsolution", self.subsolution_ok), ("sup-change", self.sup_ok),
                    ("curvature", self.curvature_ok), ("mask", self.mask_ok),
                    ("strict", self.strict_ok))
        return [name for name, ok in verdicts if ok is False]


def bernard_regularize(w: GridFn, kernel: ActionKernel, a: float,
                       s: float, t: float, mask=None, d0: float = 0.1,
                       strict_input: bool | None = None,
                       curvature_bound: float | None = None,
                       r_kappa: float | None = None) -> tuple:
    """T^-_t (T^+_s w) with its five-way certificate.

    (a) stays a discrete subsolution at level a; (b) two-sided second
    differences bounded (gradient-Lipschitz proxy), optionally against an
    assembled constant; (c) moves w by at most (t + s) R(kappa);
    (d) agrees with w on the mask within default_eps(w); (e) stays strict
    off the mask.
    A non-strict input is a warning, not a refusal: the output is data.
    """
    model, env = kernel.model, kernel.env
    _require_tonelli(model, "two-sided regularization")
    warnings = []
    if not strict_input:
        warnings.append("input strictness not certified; the two-sided "
                        "smoothing is computed but its guarantees assume a "
                        "strict input")
    up = lax_plus(w, kernel, s)
    v1 = GridFn(w.grid, up.values - (a - kernel.shift) * s)
    down = lax_minus(v1, kernel, t)
    w_eps = GridFn(w.grid, down.values + (a - kernel.shift) * t)

    sub_ok, worst = verify_member(w_eps, kernel, a)
    curv = estimate_semiconcavity(w_eps)
    curv_ok = None
    if curvature_bound is not None:
        two_sided = max(abs(curv.k_upper), abs(curv.k_lower))
        curv_ok = bool(two_sided <= curvature_bound
                       and not curv.unbounded_above and not curv.unbounded_below)
    if r_kappa is None:
        r_kappa = lipschitz_radius(kappa(model, a, env), model)
    sup_change = float(np.max(np.abs(w_eps.values - w.values)))
    sup_bound = (t + s) * r_kappa
    sup_ok = bool(sup_change <= sup_bound + 1e-9)

    mask_agree = mask_eps_val = mask_ok = None
    strict_cert = strict_ok = None
    if mask is not None:
        m = _mask_array(mask)
        mask_eps_val = default_eps(w.values)
        if np.any(m):
            mask_agree = float(np.max(np.abs(w_eps.values[m] - w.values[m])))
            mask_ok = bool(mask_agree <= mask_eps_val)
        strict_cert = check_strict(w_eps, model, env, m, d0, a=a)
        strict_ok = strict_cert.passed

    checks = [sub_ok, sup_ok] + [c for c in (curv_ok, mask_ok, strict_ok) if c is not None]
    report = BernardReport(
        s=float(s), t=float(t), subsolution_ok=bool(sub_ok), edge_violation=worst,
        curvature=curv, curvature_bound=curvature_bound, curvature_ok=curv_ok,
        sup_change=sup_change, sup_bound=float(sup_bound), sup_ok=sup_ok,
        mask_agreement=mask_agree, mask_eps=mask_eps_val, mask_ok=mask_ok,
        strictness=strict_cert, strict_ok=strict_ok, warnings=warnings,
        passed=bool(all(checks)))
    return w_eps, report


# -- paraboloid envelopes ---------------------------------------------------


@dataclass
class EnvelopeReport:
    """Backward images of data vs of its subtangent paraboloids."""

    sample_indices: np.ndarray
    discrepancies: np.ndarray
    max_discrepancy: float
    min_discrepancy: float


def check_envelope_identity(w: GridFn, kernel: ActionKernel, t: float,
                            k_semiconvex: float, sample_indices) -> EnvelopeReport:
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
        delta = grid.min_image(pts - pts[y])
        psi = w.values[y] + delta @ grads[y] \
            - 0.5 * k_semiconvex * np.sum(delta * delta, axis=1)
        evolved = float(np.min(psi + h_col))
        disc[row] = direct - evolved
    return EnvelopeReport(sample_indices=samples, discrepancies=disc,
                          max_discrepancy=float(np.max(disc)),
                          min_discrepancy=float(np.min(disc)))


# -- Aubry rigidity helpers -------------------------------------------------


def lifted_mask_deviation(mask, w: GridFn, model, env, t_span: float = 1.0,
                          dt: float = 1e-3) -> float:
    """Flow (x, D_h w(x)) from every mask point over [-t_span, t_span] and
    return the largest phase-space distance to the lifted mask, read at 8
    evenly spaced times of each trajectory.

    Distance combines torus position distance and momentum distance to the
    nearest lifted mask point; invariance holds when it stays at cell scale.
    """
    grid = w.grid
    m = _mask_array(mask)
    idx = np.nonzero(m)[0]
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
                dx = grid.torus_dist(lift_x, traj.xi[k])
                dp = np.linalg.norm(lift_p - traj.eta[k], axis=1)
                worst = max(worst, float(np.min(np.sqrt(dx * dx + dp * dp))))
    return worst


def mask_gradient_agreement(fns, mask) -> float:
    """Largest pairwise FD-gradient discrepancy on the mask."""
    m = _mask_array(mask)
    if not np.any(m):
        raise ConfigError("empty mask: nothing to compare")
    grads = [f.central_gradient()[m] for f in fns]
    worst = 0.0
    for i in range(len(grads)):
        for j in range(i + 1, len(grads)):
            worst = max(worst, float(np.max(np.linalg.norm(grads[i] - grads[j], axis=1))))
    return worst
