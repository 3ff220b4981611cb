"""
Building a strict critical subsolution away from the Aubry mask
===============================================================

Averaging verified subsolutions gives a function w that is critical
everywhere but strict nowhere in particular.  This demo turns w into a
function v that satisfies H(x, Dv) <= c - delta outside a small
neighborhood of the Aubry mask, while agreeing with w on the mask itself
-- first for a strictly convex Hamiltonian (geometric mix of semigroup
images along a dyadic time fill), then for a merely convex one, where
each image needs a sup-convolution penalty before the mix.
"""

import numpy as np

import weakkam as wk
from weakkam.aubry import build_library, build_w, detect_aubry
from weakkam.grid import GridSpec
from weakkam.hamiltonian import (kappa, lipschitz_radius, mechanical_model,
                                 nonstrict_model)
from weakkam.semigroup import (build_kernel, discrete_critical_value,
                               refold_kernel)
from weakkam.subsol import (build_strict_convex, build_strict_strictly_convex,
                            check_strict, truncation_budget)

##############################################################################
# Shared setup: cosine well, exact folded level, subsolution library, mask.

spec = wk.EnvSpec(kind="periodic", dimension=1, seed=0,
                  params={"amplitudes": (1.0,)})
env = wk.sample_realization(spec, 0)
model = mechanical_model(dim=1, field_bound=1.0)
grid = GridSpec(dim=1, n=256)
raw = build_kernel(model, env, grid, dt=1.0 / 64.0,
                   theta=kappa(model, 1.02, env) + 1.0)
c = discrete_critical_value(raw)
kern = refold_kernel(raw, c)
w = build_w(build_library(kern, n_seeds=4))
mask = detect_aubry(w, kern, t_max=4.0)
print(f"level c = {c!r}, mask cells = {[int(i) for i in mask.indices()]}")

##############################################################################
# Strictly convex branch.  Mix the semigroup images T^-_{t_n} w at the
# dyadic fill times t_n of (0, tau) with geometric weights: strict
# convexity of H in p makes any genuine average of subsolutions strict
# wherever their gradients disagree, and off the mask they must disagree.

tau, m_terms = 0.125, 6
v = build_strict_strictly_convex(w, kern, tau, m_terms)

r_kappa = lipschitz_radius(kappa(model, c, env), model)
budget = tau * r_kappa + truncation_budget(w, m_terms)
sup_move = float(np.max(np.abs(v.values - w.values)))
print(f"time-mix: sup |v - w| = {sup_move:.6g}  (budget {budget:.6g})")

cert = check_strict(v, model, env, mask.mask, d0=0.1, a=c)
print(f"strictness margin delta = {cert.delta:.6g} on "
      f"{cert.n_region} cells at distance >= 0.1 from the mask "
      f"-> {'PASS' if cert.passed else 'FAIL'}")
mask_move = float(np.max(np.abs(v.values[mask.mask] - w.values[mask.mask])))
print(f"agreement on the mask: max |v - w| = {mask_move!r}")

##############################################################################
# Merely convex branch.  A Hamiltonian with a flat face in p (here
# max(|p| - 1, 0)^2 / 2 + potential) defeats the plain mix: gradients can
# disagree inside the face at zero cost.  The fix is a time
# sup-convolution with quadratic penalty delta before mixing -- the
# strictly-convex builder refuses this model, the convex builder accepts.

mn = nonstrict_model(dim=1, field_bound=1.0)
rawn = build_kernel(mn, env, grid, dt=1.0 / 64.0, theta=3.0)
cn = discrete_critical_value(rawn)
kn = refold_kernel(rawn, cn)
wn = build_w(build_library(kn, n_seeds=4))
maskn = detect_aubry(wn, kn, t_max=4.0)
print(f"\nflat-face model: level c = {cn!r}, mask cells = {[int(i) for i in maskn.indices()]}")

try:
    build_strict_strictly_convex(wn, kn, tau, m_terms)
except Exception as exc:
    print(f"strictly-convex builder refuses: {type(exc).__name__}: {exc}")

delta_pen = 0.05
r_kn = lipschitz_radius(kappa(mn, cn + 0.02, env), mn)
vn = build_strict_convex(wn, kn, delta_pen, tau, m_terms, r_kappa=r_kn)
cert_n = check_strict(vn, mn, env, maskn.mask, d0=0.1, a=cn)
print(f"sup-convolution mix: delta = {cert_n.delta:.6g} "
      f"-> {'PASS' if cert_n.passed else 'FAIL'}")
print(f"sup move {float(np.max(np.abs(vn.values - wn.values))):.6g}  "
      f"(budget {tau * r_kn + truncation_budget(wn, m_terms) + 2 * delta_pen * r_kn:.6g})")
