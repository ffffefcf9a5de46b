"""The drift-field variational formula in action.

The tilted eigenvalue k_p equals the minimum over mean-zero drift fields
theta of the top eigenvalue of S_p(theta), the symmetric part of A_p after
the diagonal similarity that theta defines; in the continuum that is the
self-adjoint eigenvalue k_0(a, c + a (p + theta)^2).  The identity holds
for the discrete operator itself.  This demo evaluates that objective four
ways on one random medium:

  * theta = 0              -- a generic upper bound,
  * homogenized theta      -- attains the harmonic-mean lower bound
                              mean_c + p^2/mean(1/a) in the continuum's
                              quadratic form,
  * optimized theta        -- projected Newton descent, closing the gap to
                              the directly computed k_p,
  * closed-form theta      -- built from the +p/-p eigenfunctions; the exact
                              minimizer, equal to k_p to solver tolerance.
"""

import numpy as np

from kpplab import (DimerSpec, empirical_means, homogenized_theta, k0_with_theta,
                    k_p, minimize_theta, sample_realization, speed_from_kp,
                    theta_closed_form, zero_theta)

MASTER = 2026

spec = DimerSpec(a_plus=1.0, a_minus=1.0, c_plus=1.5, c_minus=0.5,
                 len1=1.0, len2=1.0, eps=0.1, length_dist="uniform",
                 jitter=0.3)
m = sample_realization(spec, MASTER, 0, 100.0, 0.005)

p_star = speed_from_kp(m, 0.3, 3.0, tol=1e-4).optimizer
p = 1.5 * p_star
kp = k_p(m, p, tol=1e-10).lam
em = empirical_means(m)
print(f"tilt p = 1.5 p* = {p:.4f}, direct k_p = {kp:.8f}")
print(f"homogenized lower bound mean_c + p^2/mean_inv_a = "
      f"{em.mean_c + p**2 / em.mean_inv_a:.8f}\n")

val0 = k0_with_theta(m, p, zero_theta(m), tol=1e-10)
print(f"theta = 0          : {val0:.8f}  (+{val0 - kp:.2e} above k_p)")

th_h = homogenized_theta(m, p)
val_h = k0_with_theta(m, p, th_h, tol=1e-10)
print(f"homogenized theta  : {val_h:.8f}  (+{val_h - kp:.2e})")

res = minimize_theta(m, p, max_iters=300)
print(f"optimized theta    : {res.k0_value:.8f}  "
      f"({res.gap_vs_direct:+.2e}, {res.iters} Newton steps, "
      f"{res.solves} eigen solves, {res.stop})")

th_star = theta_closed_form(m, p, tol=1e-10)
val_star = k0_with_theta(m, p, th_star, tol=1e-12)
print(f"closed-form theta  : {val_star:.8f}  ({val_star - kp:+.2e})")

print(f"\nsup|optimized - closed form| = "
      f"{np.max(np.abs(res.theta.theta - th_star.theta)):.3e}")
