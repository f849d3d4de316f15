"""The b -> infinity limit curve g_kappa(a) = P(a, kappa a).

As d2 grows the probe converges to a regularized lower incomplete gamma,
so the infimum problem splits into one curve per kappa:

  * kappa < 1: the curve decays to 0 (infimum 0, never attained),
  * kappa = 1: the curve decreases to 1/2 from above,
  * kappa > 1: the curve turns around and grows back to 1, leaving a
    positive interior minimum.
"""

from fconc import FParams, default_a_grid, limit_b, limit_curve_min, prob_leq_kappa_mean

a = default_a_grid()

print("minimum of g_kappa over a in [0.5, 1e4]:")
for kappa in (0.5, 0.9, 1.0, 1.05, 1.5, 3.0):
    mn, arg = limit_curve_min(kappa, a)
    print(f"  kappa = {kappa:<5g} min = {mn:.9e} at a = {arg:g}")

print("\nkappa = 1 curve creeping down toward 1/2:")
for ai in (0.5, 5.0, 50.0, 500.0, 5000.0, 10000.0):
    print(f"  g_1({ai:>7g}) = {float(limit_b(ai, 1.0)):.9f}")

# convergence of the finite-d2 probe to the curve, at a = 0.5 and kappa = 1
print("\nfinite d2 versus the limit at (a, kappa) = (0.5, 1):")
lim = float(limit_b(0.5, 1.0))
for d2 in (4, 16, 64, 256, 1024, 8192):
    v = prob_leq_kappa_mean(FParams(1, d2), 1.0)
    print(f"  d2 = {d2:>5}: probe = {v:.9f}   residual = {v - lim:.3e}")
print(f"  limit     : {lim:.9f}")
