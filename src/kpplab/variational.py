"""Variational formula for the tilted eigenvalue.

k_p equals the infimum over mean-zero bounded drift fields theta of the
self-adjoint eigenvalue k_0(a, c + a (p + theta)^2).  This module evaluates
that objective, minimizes it by projected gradient descent (the gradient
comes from first-order perturbation of the symmetric operator), and provides
two closed-form reference fields: the minimizer built from the eigenfunctions
of the +p and -p tilted operators, and the homogenized drift that attains the
harmonic-mean lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import medium as med
from . import operators as ops
from .operators import NoConvergence
from .results import NumericalFailure


class DegenerateTilt(NumericalFailure, ValueError):
    """Requested construction needs k_p strictly above k_0."""


@dataclass(frozen=True)
class ThetaField:
    """Mean-zero bounded drift field on the realization grid."""

    theta: np.ndarray
    mean: float
    sup_norm: float

    def __post_init__(self):
        self.theta.flags.writeable = False
        if self.sup_norm > 0 and abs(self.mean) > 1e-12 * self.sup_norm:
            raise ValueError("theta is not mean-zero after projection")

    @classmethod
    def from_raw(cls, values: np.ndarray, project: bool = True) -> "ThetaField":
        values = np.asarray(values, dtype=float)
        if project:
            values = values - np.mean(values)
        return cls(theta=values.copy(), mean=float(np.mean(values)),
                   sup_norm=float(np.max(np.abs(values))) if values.size else 0.0)


@dataclass(frozen=True)
class ThetaResult:
    """Outcome of the eigenvalue minimization over drift fields."""

    theta: ThetaField
    k0_value: float
    grad_norm: float
    iters: int
    gap_vs_direct: float  # k0_value - k_p from the direct tilted solve


def zero_theta(m: med.MediumRealization) -> ThetaField:
    return ThetaField.from_raw(np.zeros(m.N), project=False)


def k0_with_theta(m: med.MediumRealization, p: float, theta: ThetaField,
                  tol: float = 1e-8) -> float:
    """Objective of the variational formula: k_0(a, c + a (p + theta)^2)."""
    if theta.theta.shape != (m.N,):
        raise ValueError("theta grid does not match the realization")
    return _eigenpair(m, p, theta.theta, tol)[0]


def _eigenpair(m, p, theta, tol, v0=None):
    potential = m.c + m.a * (p + theta) ** 2
    op = ops.assemble_symmetric(m, potential)
    res = ops.principal_eigen(op, tol=tol, v0=v0)
    return res.lam, res.phi


def minimize_theta(m: med.MediumRealization, p: float,
                   init: ThetaField | None = None, tol: float = 1e-8,
                   max_iters: int = 600) -> ThetaResult:
    """Projected gradient descent on theta for the variational objective.

    The gradient of k_0 with respect to theta[i] is 2 a[i] (p + theta[i])
    alpha[i]^2 h, with alpha the L2-normalized positive eigenfunction
    (first-order perturbation of the symmetric operator); each step projects
    the gradient to zero mean and backtracks with the Armijo rule.  The
    objective is convex in theta (a monotone convex eigenvalue composed with
    the pointwise convex map theta -> a (p+theta)^2), so the limit is the
    global infimum.  Stops when the projected-gradient sup-norm drops below
    tol, or on objective stagnation at machine precision.
    """
    theta = (init.theta if init is not None else
             homogenized_theta(m, p).theta).copy()
    theta -= np.mean(theta)
    eig_tol = min(1e-10, tol)
    lam, phi = _eigenpair(m, p, theta, eig_tol)
    h = m.h
    grad_norm = np.inf
    step = 1.0
    momentum = np.zeros_like(theta)
    beta = 0.0
    stagnant = 0
    iters = 0
    for iters in range(1, max_iters + 1):
        norm = h * ops._dot(phi, phi)
        alpha_sq = phi * phi / norm
        grad = 2.0 * m.a * (p + theta) * alpha_sq * h
        grad -= np.mean(grad)
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm < tol:
            break
        # mean-zero descent direction preconditioned by the diagonal
        # curvature 2 a alpha^2 h (in whose metric the unit step is the
        # natural scale), plus heavy-ball momentum: the eigenvector-response
        # part of the Hessian makes the objective anisotropic and plain
        # descent contracts by only 1 - O(1/kappa) per sweep
        curv = 2.0 * m.a * alpha_sq * h
        curv = np.maximum(curv, 1e-4 * np.max(curv))
        mu = float(np.sum(grad / curv) / np.sum(1.0 / curv))
        direction = (grad - mu) / curv
        slope = ops._dot(grad, direction)
        step = min(step * 2.0, 1.0)
        lam_before = lam
        accepted = False
        for _ in range(40):
            cand = theta - step * direction + beta * momentum
            cand -= np.mean(cand)
            lam_new, phi_new = _eigenpair(m, p, cand, eig_tol, v0=phi)
            if lam_new <= lam - 1e-4 * step * slope:
                momentum = cand - theta
                theta, lam, phi = cand, lam_new, phi_new
                accepted = True
                beta = min(0.95, beta + 0.25)
                break
            if beta > 0.0:
                beta = 0.0  # drop momentum before shrinking the step
            else:
                step *= 0.5
        if not accepted or lam_before - lam < 1e-12 * max(abs(lam), 1.0):
            stagnant += 1
            if not accepted and iters == 1:
                raise NoConvergence(iters, grad_norm)
            if stagnant >= 3:
                break  # objective decrease at the eigenvalue-resolution floor
        else:
            stagnant = 0

    field = ThetaField.from_raw(theta, project=True)
    kp_direct = ops.k_p(m, p, tol=eig_tol).lam
    return ThetaResult(theta=field, k0_value=lam, grad_norm=grad_norm,
                       iters=iters, gap_vs_direct=lam - kp_direct)


def theta_gradient(m: med.MediumRealization, p: float, theta: ThetaField,
                   tol: float = 1e-12) -> np.ndarray:
    """Mean-projected eigenvalue gradient at theta (for gradient checks)."""
    lam, phi = _eigenpair(m, p, theta.theta, tol)
    alpha_sq = phi * phi / (m.h * ops._dot(phi, phi))
    grad = 2.0 * m.a * (p + theta.theta) * alpha_sq * m.h
    return grad - np.mean(grad)


def theta_closed_form(m: med.MediumRealization, p: float,
                      tol: float = 1e-8) -> ThetaField:
    """Exact minimizer built from the +p and -p eigenfunctions.

    theta = (-phi'/phi + psi'/psi)/2 where phi, psi are the positive
    eigenfunctions of the tilted operators with tilts +p and -p; log
    derivatives use centered differences on the periodic grid.  Requires
    k_p > k_0 + 10*tol (away from the degenerate flat piece of p -> k_p,
    where the minimizer comes from a scaling argument instead).
    """
    kp = ops.k_p(m, p, tol=tol)
    k0 = ops.k_p(m, 0.0, tol=tol)
    if not kp.lam > k0.lam + 10.0 * tol:
        raise DegenerateTilt(
            f"k_p = {kp.lam:g} is not above k_0 = {k0.lam:g} + 10*tol")
    km = ops.k_p(m, -p, tol=tol)
    log_phi = np.log(kp.phi)
    log_psi = np.log(km.phi)
    two_h = 2.0 * m.h
    dlog_phi = (np.roll(log_phi, -1) - np.roll(log_phi, 1)) / two_h
    dlog_psi = (np.roll(log_psi, -1) - np.roll(log_psi, 1)) / two_h
    return ThetaField.from_raw(0.5 * (-dlog_phi + dlog_psi), project=True)


def homogenized_theta(m: med.MediumRealization, p: float) -> ThetaField:
    """Drift attaining the harmonic-mean bound: p (1/(E[1/a] a) - 1).

    Minimizes the window average of a (p + theta)^2 over mean-zero theta;
    plugging it into the variational objective yields the homogenized lower
    bound mean_c + p^2 / mean(1/a).
    """
    mean_inv_a = float(np.mean(1.0 / m.a))
    return ThetaField.from_raw(p * (1.0 / (mean_inv_a * m.a) - 1.0), project=True)
