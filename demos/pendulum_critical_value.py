"""
Critical value and Aubry mask for the cosine-well pendulum
==========================================================

A mechanical Hamiltonian |p|^2/2 + cos(2 pi x) on the unit circle.  The
demo builds the one-step action kernel on an exact dyadic time ladder,
reads off the discrete critical value from the minimum-mean cycle of the
kernel graph, brackets the continuum value by certificate bisection, and
detects the projected Aubry set as the cells where the folded semigroup
leaves the subsolution library fixed.
"""

import numpy as np

import weakkam as wk
from weakkam.aubry import build_library, build_w, detect_aubry
from weakkam.grid import GridSpec
from weakkam.hamiltonian import kappa, mechanical_model
from weakkam.metric import critical_value_free
from weakkam.semigroup import (build_kernel, discrete_critical_value,
                               refold_kernel)

##############################################################################
# The environment is a single cosine bump of unit amplitude; the model is
# the mechanical Hamiltonian with that bump as its potential.

spec = wk.EnvSpec(kind="periodic", dimension=1, seed=0,
                  params={"amplitudes": (1.0,)})
env = wk.sample_realization(spec, 0)
model = mechanical_model(dim=1, field_bound=1.0)
grid = GridSpec(dim=1, n=256)

##############################################################################
# One backward step of length dt costs dt * L(midpoint, displacement/dt),
# minimized over a displacement stencil wide enough for momenta up to the
# energy level we care about.  Longer times come from min-plus squaring,
# so every ladder time t = dt * 2^k is exact.

dt = 1.0 / 64.0
raw = build_kernel(model, env, grid, dt=dt, theta=kappa(model, 1.02, env) + 1.0)
print(f"kernel: n={grid.n}, dt={dt}, stencil of {raw.offsets.shape[0]} offsets")

##############################################################################
# The discrete critical value is the negative minimum mean cycle of the
# one-step graph -- an exact combinatorial quantity, no bisection needed.
# For the unit cosine well the continuum value is max V = 1, and the
# midpoint quadrature hits it on the nose.

c_disc = discrete_critical_value(raw)
print(f"discrete critical value (minimum-mean cycle): {c_disc!r}")

##############################################################################
# An independent route: bisection on the level a, where each trial level is
# accepted iff the a-shifted edge graph has no negative cycle.  The bracket
# endpoints are certificates, so the error bound is unconditional.

res = critical_value_free(model, env, grid, tol_bisect=5e-3)
print(f"bisection bracket: [{res.lo}, {res.hi}]  "
      f"(midpoint {res.value}, {res.iterations} iterations)")

##############################################################################
# Fold the exact level into the kernel and grow a library of verified
# critical subsolutions (forward and backward cost cones from a few seeds).
# Their average w is again a subsolution; the Aubry mask is where the
# folded semigroup cannot improve w at any ladder time.

kern = refold_kernel(raw, c_disc)
lib = build_library(kern, n_seeds=4)
w = build_w(lib)
mask = detect_aubry(w, kern, t_max=4.0)

cells = mask.indices()
print(f"aubry mask: {cells.size} of {grid.size} cells -> "
      f"x = {[float(x) for x in grid.points()[cells][:, 0]]}")
print(f"residual at the mask: {float(np.max(mask.residual[mask.mask]))!r}")
print("threshold sensitivity (eps/2, eps, 2 eps): "
      + ("stable" if all(np.array_equal(mask.thresholds[k], mask.mask)
                         for k in ("half", "one", "two")) else "UNSTABLE"))

##############################################################################
# The hilltop of the potential is the unique cell: the only point where an
# orbit can sit forever at critical energy without paying action.
