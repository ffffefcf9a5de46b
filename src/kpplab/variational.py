"""Variational formula for the tilted eigenvalue.

k_p equals the infimum over mean-zero bounded drift fields theta of the
self-adjoint eigenvalue k_0(a, c + a (p + theta)^2).  This module evaluates
that objective and minimizes it by a projected Newton descent: the gradient
comes from first-order perturbation of the symmetric operator and the
Hessian from second-order perturbation, and each Newton system is solved
directly, by one cyclic tridiagonal factorization and a rank-two
correction.  It also provides two closed-form reference fields: the minimizer
built from the eigenfunctions of the +p and -p tilted operators, and the
homogenized drift that attains the harmonic-mean lower bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import medium as med
from . import operators as ops
from .operators import NoConvergence
from .results import NumericalFailure
from .tridiag import NotPositiveDefinite, ShiftedSPDCyclicSolver


class DegenerateTilt(NumericalFailure, ValueError):
    """Requested construction needs k_p strictly above k_0."""


@dataclass(frozen=True)
class ThetaField:
    """Mean-zero bounded drift field on the realization grid.

    Raises ValueError unless |mean(theta)| <= 1e-12 * sup_norm.
    """

    theta: np.ndarray

    def __post_init__(self):
        self.theta.flags.writeable = False
        if abs(float(np.mean(self.theta))) > 1e-12 * self.sup_norm:
            raise ValueError("theta is not mean-zero")

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.theta))) if self.theta.size else 0.0

    @classmethod
    def from_raw(cls, values: np.ndarray, project: bool = True) -> "ThetaField":
        values = np.asarray(values, dtype=float)
        if project:
            values = values - np.mean(values)
        return cls(theta=values.copy())


@dataclass(frozen=True)
class ThetaResult:
    """Outcome of the eigenvalue minimization over drift fields."""

    theta: ThetaField
    k0_value: float
    grad_norm: float
    iters: int  # accepted Newton steps, of both descents after a restart
    kp_direct: float  # k_p from the direct tilted solve
    gap_vs_direct: float  # k0_value - kp_direct
    solves: int  # eigen solves made, the direct k_p included
    stop: str  # "converged", "stagnated" or "max_iters"
    # the start of the descent that gave the result: "homogenized" or
    # "closed_form" (the restart)
    start: str


def zero_theta(m: med.MediumRealization) -> ThetaField:
    return ThetaField.from_raw(np.zeros(m.N), project=False)


def k0_with_theta(m: med.MediumRealization, p: float, theta: ThetaField,
                  tol: float = 1e-8) -> float:
    """Objective of the variational formula: k_0(a, c + a (p + theta)^2)."""
    if theta.theta.shape != (m.N,):
        raise ValueError("theta grid does not match the realization")
    return _eigenpair(m, p, theta.theta, tol)[0]


def _eigenpair(m, p, theta, tol, v0=None, ceiling=np.inf):
    potential = m.c + m.a * (p + theta) ** 2
    op = ops.assemble_symmetric(m, potential)
    res = ops.principal_eigen(op, tol=tol, v0=v0, ceiling=ceiling)
    return res.lam, res.phi, op


def _gradient(m, p, theta, phi):
    """Unit eigenvector u, u b with b = 2 a (p + theta), and the gradient.

    First-order perturbation of the symmetric operator gives
    d k_0 / d theta[i] = u[i]^2 b[i]; it is returned projected to zero mean.
    """
    u = phi / np.sqrt(ops._dot(phi, phi))
    ub = 2.0 * m.a * (p + theta) * u
    grad = u * ub
    return u, ub, grad - np.mean(grad)


def minimize_theta(m: med.MediumRealization, p: float,
                   max_iters: int = 600) -> ThetaResult:
    """Projected Newton descent on theta for the variational objective.

    The objective is convex in theta (a monotone convex eigenvalue composed
    with the pointwise convex map theta -> a (p+theta)^2), so a descent that
    reaches a zero gradient has found the global infimum.  The descent
    starts from the homogenized drift and runs ``_descend``.  On a localized
    medium it can crawl: the top eigenvalue is a near-degenerate maximum
    over localized wells, and a Newton step lowers one well at a time.  So
    a descent that stops anything but "converged" is restarted once from
    ``theta_closed_form``, the minimizer built from the +p and -p tilted
    eigenfunctions, with the steps left of max_iters; of the two results
    the one with the lower eigenvalue is returned, and ``start`` names
    where its descent began.  A closed form that raises DegenerateTilt
    keeps the first result.  The direct k_p, a cold +p solve, is made once,
    before the descent, and the closed form reuses it.  ``iters`` counts
    the accepted Newton steps of both descents and ``solves`` every eigen
    solve made: the direct k_p, the closed form's k_0 and -p solves, and
    those of both descents.

    Every eigenvalue the descent reaches is certified (``principal_eigen``
    brackets the top eigenvalue), and each Newton step checks it again: the
    LDL^T factorization of (lam + delta) I - A exists exactly when lam is
    within delta of it.  That factorization, or the Newton system's, failing
    all the same raises NoConvergence.  The descents stop at a gradient
    sup-norm below 1e-8, and every eigen solve has tolerance 1e-10.
    max_iters below 0 raises ValueError.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be at least 0, got {max_iters}")
    tol, eig_tol = 1e-8, 1e-10
    kp = ops.k_p(m, p, tol=eig_tol)
    start = "homogenized"
    theta, lam, grad_norm, iters, solves, stop = _descend(
        m, p, homogenized_theta(m, p).theta, tol, max_iters, eig_tol)
    solves += 1  # k_p
    if stop != "converged":
        try:
            closed = _closed_form(m, p, kp, eig_tol)
        except DegenerateTilt:
            solves += 1  # k_0
        else:
            c_theta, c_lam, c_grad, c_iters, c_solves, c_stop = _descend(
                m, p, closed.theta, tol, max_iters - iters, eig_tol)
            iters += c_iters
            solves += 2 + c_solves
            if c_lam < lam:
                theta, lam, grad_norm, stop = c_theta, c_lam, c_grad, c_stop
                start = "closed_form"
    field = ThetaField.from_raw(theta, project=True)
    return ThetaResult(theta=field, k0_value=lam, grad_norm=grad_norm,
                       iters=iters, kp_direct=kp.lam,
                       gap_vs_direct=lam - kp.lam,
                       solves=solves, stop=stop, start=start)


def _descend(m, p, theta, tol, max_iters, eig_tol):
    """Projected Newton descent from theta, at most max_iters steps.

    Each Newton step certifies lam (``_shifted_factor``), solves the Newton
    system on the mean-zero subspace directly (``_newton_direction``) and
    takes an Armijo line search on the full step, first trying min(1, 4 x
    the last accepted step).  Stops when the projected-gradient sup-norm
    drops below tol ("converged"); "stagnated" when the line search finds no
    decrease along the Newton direction, or when the best gradient norm has
    not halved over the last 20 accepted steps; or after max_iters steps
    ("max_iters").  Returns (theta, lam, grad_norm, iters, solves, stop).
    """
    theta = theta - np.mean(theta)
    lam, phi, op = _eigenpair(m, p, theta, eig_tol)
    solves = 1
    floor = 1e-12 * max(abs(lam), 1.0)  # eigenvalue resolution
    step = 1.0
    best = deque(maxlen=21)  # best gradient norm so far, at each iterate
    grad_norm = np.inf
    stop = "max_iters"
    for iters in range(max_iters + 1):
        try:
            _shifted_factor(op.diag, op.sup, lam)
        except NotPositiveDefinite as exc:
            raise NoConvergence(iters, grad_norm) from exc
        u, ub, grad = _gradient(m, p, theta, phi)
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm < tol:
            stop = "converged"
            break
        best.append(min(grad_norm, best[-1]) if best else grad_norm)
        if len(best) == 21 and best[-1] > 0.5 * best[0]:
            stop = "stagnated"
            break
        if iters == max_iters:
            break
        try:
            direction = _newton_direction(op, lam, u, ub, 2.0 * m.a * u * u,
                                          grad)
        except NotPositiveDefinite as exc:
            raise NoConvergence(iters, grad_norm) from exc
        accepted, n = _line_search(m, p, theta, lam, phi, direction,
                                   ops._dot(grad, direction),
                                   min(1.0, 4.0 * step), eig_tol, floor)
        solves += n
        if accepted is None:
            stop = "stagnated"
            break
        step, theta, lam, phi, op = accepted
    return theta, lam, grad_norm, iters, solves, stop


def _shifted_factor(diag, off, lam):
    """LDL^T solver of (lam + delta) I - T, T the symmetric cyclic
    tridiagonal matrix with diagonal diag and off-diagonals off.

    The matrix is positive definite exactly when lam + delta lies above T's
    top eigenvalue, so for T = A, the symmetric operator, the constructor's
    NotPositiveDefinite says that lam is not A's top eigenvalue (to within
    delta).
    """
    delta = 1e-8 * max(abs(lam), 1.0)
    solver = ShiftedSPDCyclicSolver(diag, off)
    solver.factor(lam + delta)
    return solver


def _newton_direction(op, lam, u, ub, curv, grad):
    """Newton direction of the top eigenvalue at theta, by a direct solve.

    The Hessian of the simple top eigenvalue is H = C + 2 W R W, with
    C = diag(curv), curv = 2 a u^2 floored at 1e-4 of its max, W = diag(u b)
    and R = P M^{-1} P the reduced resolvent: M = (lam + delta) I - A as in
    ``_shifted_factor``, P = I - u u^T (the small delta keeps M nonsingular
    along u; every other eigenvalue of A lies below lam, so it barely
    changes R there).  The direction x solves H x + mu 1 = -grad with
    sum(x) = 0.  With y = M^{-1} P W x, x = -C^{-1} (grad + mu 1 + 2 W P y)
    and (M + 2 P K P) y = -P F (grad + mu 1), where K = diag((u b)^2 / C)
    and F = diag(u b / C).  M + 2K = (lam + delta) I - (A - 2K) is
    symmetric cyclic tridiagonal and positive definite, and is factored
    once; P K P - K = U S U^T, with U = [u, K u] and
    S = [[u.K u, -1], [-1, 0]], enters by a 2x2 Woodbury correction.  Four
    solves, on u, K u, P F grad and P F 1, give y for mu = 0 and per unit
    mu, and mu follows from sum(x) = 0.
    """
    c = np.maximum(curv, 1e-4 * np.max(curv))
    f = ub / c
    k = ub * f
    ku = k * u
    s = ops._dot(u, ku)
    k *= -2.0
    k += op.diag  # the diagonal of A - 2K
    solver = _shifted_factor(k, op.sup, lam)
    # separate N-vectors: one stacked 4 x N array raised theta_descent's
    # peak RSS by about 0.9 MB
    basis = [u.copy(), ku.copy()]  # U, then (M + 2K)^{-1} U
    rhs = [f * grad, f]  # P F grad and P F 1, then solved
    for r in rhs:
        r -= ops._dot(u, r) * u
    for col in basis + rhs:
        solver.solve_factored(col)
    gram = np.array([[ops._dot(v, col) for col in basis + rhs]
                     for v in (u, ku)])
    capacitance = np.array([[0.0, -0.5], [-0.5, -0.5 * s]]) + gram[:, :2]
    coef = np.linalg.solve(capacitance, gram[:, 2:])
    for z, (c0, c1), one in zip(rhs, coef.T, (grad, 1.0)):
        # z = (M + 2 P K P)^{-1} r, projected by P; then the x term it gives
        z -= c0 * basis[0]
        z -= c1 * basis[1]
        z -= ops._dot(u, z) * u
        z *= -2.0 * ub
        z += one
        z /= c
    x_g, x_1 = rhs  # x = -x_g - mu x_1
    return x_1 * (np.sum(x_g) / np.sum(x_1)) - x_g


def _line_search(m, p, theta, lam, phi, direction, slope, t, eig_tol, floor):
    """Armijo backtracking along direction from step t.

    Each trial solve gets the Armijo value lam + 1e-4 t slope as its
    ceiling, so a trial whose top eigenvalue lies above it stops as soon as
    the lower end of its Perron bracket proves so (AboveCeiling), and is
    rejected with that certified lower bound in place of its eigenvalue.
    After a rejected trial the step moves to the minimizer of the parabola
    through lam, slope and the trial value or bound, clipped to [0.1, 0.5]
    of the step; the parabola's curvature stays positive, because the
    bound exceeds lam + 1e-4 t slope.  Gives up after 20 trials, or once
    the decrease t |slope| the linear model predicts is below the
    eigenvalue resolution floor.  Returns (step, theta, lam, phi, op) of
    the accepted point, or None, and the number of eigen solves made.
    """
    solves = 0
    while solves < 20 and -t * slope > floor:
        cand = theta + t * direction
        cand -= np.mean(cand)
        solves += 1
        try:
            lam_t, phi_t, op_t = _eigenpair(m, p, cand, eig_tol, v0=phi,
                                            ceiling=lam + 1e-4 * t * slope)
        except ops.AboveCeiling as above:
            fit = -slope * t * t / (2.0 * (above.bound - lam - slope * t))
            t = min(max(fit, 0.1 * t), 0.5 * t)
        else:
            return (t, cand, lam_t, phi_t, op_t), solves
    return None, solves


def theta_gradient(m: med.MediumRealization, p: float, theta: ThetaField,
                   tol: float = 1e-12) -> np.ndarray:
    """Mean-projected eigenvalue gradient at theta (for gradient checks)."""
    _, phi, _ = _eigenpair(m, p, theta.theta, tol)
    return _gradient(m, p, theta.theta, phi)[2]


def theta_closed_form(m: med.MediumRealization, p: float,
                      tol: float = 1e-8) -> ThetaField:
    """Exact minimizer built from the +p and -p eigenfunctions.

    theta = (-phi'/phi + psi'/psi)/2 where phi, psi are the positive
    eigenfunctions of the tilted operators with tilts +p and -p; log
    derivatives use centered differences on the periodic grid.  Requires
    k_p > k_0 + 10*tol (away from the degenerate flat piece of p -> k_p,
    where the minimizer comes from a scaling argument instead).
    """
    return _closed_form(m, p, ops.k_p(m, p, tol=tol), tol)


def _closed_form(m, p, kp, tol):
    """theta_closed_form's field from kp, the cold +p solve at tol."""
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
