"""Exhaustive infimum of the probe over the integer (d1, d2) grid.

Exhaustive means every cell is either evaluated or certified above the
minimum, with a margin of twice the incomplete beta's absolute error, so the
result matches evaluating every cell bit for bit. Far from kappa = 1 the
certificate is a lower bound on the cell's 16 x 16 block, or, inside a
16 x 16 block that bound could not skip, on the one row or one column of
the block that holds the cell: rows where the block's first d1 is at most
its first d2, columns elsewhere. Near kappa = 1, where block bounds are too
loose, the scan still prunes: it bounds a 64-cell run of a row by the probe
at min(kappa, 1) in the run's last cell. That rests on the paper's theorem
that the probe strictly decreases in d2 for kappa <= 1, which `fconc verify`
(check_monotone_b) tests on its own sample. Just above 1, as in the
kappa = 1.001 row below, that run bound lacks the step from P_1 to P_kappa,
and an increment bound adds it back: the Beta density at q_kappa times
q_kappa - q_1, which on rows with (kappa - 1)^2 d1/2 <= 1 is proven smallest
at a run's first cell.

The minimum moves with kappa: just above 1 it runs to the corner of the
grid (both caps binding), around kappa ~ 3 it prefers d1 = 1 with a large
d2, and for big kappa it settles on tiny degrees of freedom. Small caps
keep this demo quick; the full 1999 x 1999 reproduction is

    fconc table

which also prints the reference values and flags the one inconsistent row.
"""

import time

from fconc import GridSpec, grid_infimum, infimum

caps = GridSpec(d1_max=120, d2_max=120)
print(f"caps: d1 <= {caps.d1_max}, 3 <= d2 <= {caps.d2_max}\n")

for kappa in (0.5, 1.0, 1.001, 1.5, 3.0, 16.0):
    t0 = time.perf_counter()
    res = grid_infimum(kappa, caps)
    dt = time.perf_counter() - t0
    print(
        f"kappa = {kappa:<7g} min = {res.grid_min:.9f} at "
        f"(d1, d2) = ({res.argmin_d1}, {res.argmin_d2})   [{dt:.2f}s]"
    )

# The full probe adds the b -> infinity limit curve and, for kappa <= 1,
# the exact closed-form verdict that the grid numbers only approach.
print()
for kappa in (0.5, 1.0, 2.0):
    res = infimum(kappa, caps)
    verdict = "conjectured > 1/2" if res.exact_inf is None else f"= {res.exact_inf} (not attained)"
    print(
        f"kappa = {kappa:<4g} grid {res.grid_min:.6f}, limit curve {res.limit_min:.6f}, "
        f"combined {res.combined_inf_estimate:.6f}, exact infimum {verdict}"
    )
