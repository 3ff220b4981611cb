"""
Sampled random environments: density and concentration
======================================================

Two statements about randomly sampled potentials, made quantitative.
First: strict subsolutions are dense -- mixing a pinch of the strict
function into any critical subsolution stays within any target distance,
uniformly over realizations, measured in a Ky Fan metric (distance in
probability over the sampled ensemble).  Second: the critical value of a
stationary random field concentrates -- per-realization estimates on
growing boxes spread less and less, the finite-volume shadow of the
almost-sure limit.
"""

import math

import numpy as np

import weakkam as wk
from weakkam.aubry import build_library, build_w
from weakkam.env import ky_fan_distance
from weakkam.grid import GridSpec
from weakkam.hamiltonian import kappa, mechanical_model
from weakkam.metric import critical_value_stationary
from weakkam.semigroup import (build_kernel, discrete_critical_value,
                               refold_kernel)
from weakkam.subsol import build_strict_strictly_convex, density_mix

##############################################################################
# An ensemble of random trigonometric potentials: unit period, three
# harmonics, coefficient decay 1/k, drawn from seed 7.  Each realization
# gets the full pipeline (level, library, average w, strict v); results
# are cached per realization index.

grid = GridSpec(dim=1, n=64)
spec = wk.EnvSpec(kind="random_fourier", dimension=1, seed=7,
                  params={"k_max": 3, "amplitude": 0.5, "decay": 1.0})
cache = {}


def pipeline(omega):
    if omega.index not in cache:
        model = mechanical_model(dim=1, field_bound=omega.field_bound())
        theta = kappa(model, omega.field_bound() + 0.02, omega) + 1.0
        raw = build_kernel(model, omega, grid, dt=1.0 / 64.0, theta=theta)
        kern = refold_kernel(raw, discrete_critical_value(raw))
        w = build_w(build_library(kern, n_seeds=4))
        v = build_strict_strictly_convex(w, kern, 0.125, 6)
        cache[omega.index] = (w, v)
    return cache[omega.index]


##############################################################################
# The mix (1 - 1/n) w + (1/n) v moves from w by at most sup |v - w| / n,
# so the worst sup over the ensemble fixes how large n must be for a
# 1e-2 target.  The Ky Fan distance then certifies the same bound in
# probability, and shrinks monotonically along the n-ladder.

n_samples = 16
budget = 0.0
for i in range(n_samples):
    w_i, v_i = pipeline(wk.sample_realization(spec, i))
    budget = max(budget, float(np.max(np.abs(v_i.values - w_i.values))))
n_star = math.ceil(budget / 1e-2)
print(f"worst sup |v - w| over {n_samples} realizations: {budget:.6g}")
print(f"derived mixing index n* = ceil({budget:.4g} / 1e-2) = {n_star}")

for n in sorted({1, 2, n_star, 2 * n_star}):
    val, _ = ky_fan_distance(spec,
                             lambda om: density_mix(pipeline(om)[1],
                                                    pipeline(om)[0], n),
                             lambda om: pipeline(om)[0], n_samples)
    marker = "  <- below target 1e-2" if n >= n_star else ""
    print(f"  ky fan distance(mix_n, w) at n = {n:2d}: {val:.6g}{marker}")

##############################################################################
# Concentration: sample a longer-period stationary field and estimate the
# free critical value on centered boxes of radius 2, 4, 8.  The spread
# across realizations shrinks as the box grows.

spec_s = wk.EnvSpec(kind="random_fourier", dimension=1, seed=7,
                    params={"k_max": 6, "amplitude": 0.5, "decay": 1.0,
                            "period": 16.0})
res = critical_value_stationary(mechanical_model(dim=1, field_bound=0.5),
                                spec_s, n_samples=8, box_radii=(2.0, 4.0, 8.0),
                                points_per_unit=24, tol_bisect=5e-3)
print(f"\nper-realization critical values, 8 samples (period-16 field):")
for j, r in enumerate(res.box_radii):
    col = res.estimates[:, j]
    print(f"  radius {r:4.1f}: mean {res.means[j]:+.4f}, "
          f"spread {res.spreads[j]:.4f}, "
          f"range [{col.min():+.4f}, {col.max():+.4f}]")
print("spread shrinks with the box: "
      + (" > ".join(f"{s:.4f}" for s in res.spreads)))
