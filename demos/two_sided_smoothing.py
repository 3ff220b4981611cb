"""
Two-sided smoothing of a strict subsolution with certificates
=============================================================

A strict critical subsolution built by mixing semigroup images is
Lipschitz but can carry kinks.  Composing one forward and one backward
semigroup step, T^-_t (T^+_s v), removes them: the backward step makes
the function semiconcave, the forward step semiconvex, and together they
pin the second differences on both sides -- a discrete stand-in for a
C^{1,1} bound.  The demo derives the admissible time window from the
model constants, runs the composition on a fine ladder, and prints the
five-way certificate: still a subsolution, curvature bounded, sup norm
moved by at most (t+s) R, unchanged on the Aubry mask, still strict off
it.
"""

import numpy as np

import weakkam as wk
from weakkam.aubry import build_library, build_w, detect_aubry
from weakkam.grid import GridSpec
from weakkam.hamiltonian import kappa, mechanical_model
from weakkam.semigroup import (build_kernel, discrete_critical_value,
                               refold_kernel)
from weakkam.subsol import build_strict_strictly_convex
from weakkam.tonelli import bernard_regularize, contraction_check, regular_window

##############################################################################
# Pipeline up to the strict subsolution (see the companion demos).

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
v = build_strict_strictly_convex(w, kern, 0.125, 6)

##############################################################################
# The admissible smoothing time comes from the characteristic flow: below
# t0 the time-t return map is a contraction perturbation of the identity,
# so forward and backward images stay single-valued.  The window bundles
# t0 with the constants that produced it, from the kernel's level and the
# sublevel radius kappa(c) and speed radius R(kappa(c)) the kernel holds.

win = regular_window(kern, 1.0)
print(f"window: t0 = {win.t0} = 2^{int(np.log2(win.t0))}")
print(f"  velocity radius rho = {win.rho:.6g}, field Lipschitz ell = {win.ell:.6g}")
print(f"  assembled curvature constant A = {win.a_const:.6g}")
for name, val in sorted(win.constraints.items()):
    print(f"  constraint {name}: {val:.6g} <= 1/4")

rep_c = contraction_check(win, model, env)
print(f"sampled Lip(R_t0 - id) = {rep_c.lipschitz:.6g} "
      f"-> {'PASS' if rep_c.passed else 'FAIL'}")

##############################################################################
# Smoothing needs ladder times <= t0, so rebuild the kernel at dt = t0.
# The smoothing derives its own bounds: the curvature certificate is
# checked against the larger of the window's assembled constant and the
# kernel's own one-step semiconcavity (which scales like 1/dt and dominates
# at this resolution), the sup move against (t+s) R(kappa(c)).

fine = refold_kernel(build_kernel(model, env, grid, dt=win.t0,
                                  theta=kern.theta), c)
w_reg, rep = bernard_regularize(v, fine, win.t0, win.t0, mask=mask.mask, d0=0.1,
                                strict_input=True, window=win)

##############################################################################
# The certificate, one line per guarantee.

flags = [("subsolution preserved", rep.subsolution_ok),
         ("two-sided curvature bound", rep.curvature_ok),
         ("sup-norm displacement", rep.sup_ok),
         ("fixed on the aubry mask", rep.mask_ok),
         ("strict off the mask", rep.strict_ok)]
for name, ok in flags:
    print(f"  {'PASS' if ok else 'FAIL'}  {name}")
print(f"second differences in [{rep.curvature.k_lower:.6g}, "
      f"{rep.curvature.k_upper:.6g}], bound {rep.curvature_bound:.6g}")
print(f"sup |smoothed - input| = {rep.sup_change:.3g} <= (t+s) R = {rep.sup_bound:.6g}")
print(f"mask agreement: {rep.mask_agreement!r}")
print(f"overall: {'PASS' if rep.passed else 'FAIL'} "
      f"(s = t = {rep.t}, warnings: {rep.warnings or 'none'})")
