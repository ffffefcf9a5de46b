"""Variational formula for the tilted eigenvalue, exact on the grid.

For a positive periodic diagonal D, k_p = lam_1(D^-1 A_p D) is at most the
top eigenvalue of that matrix's symmetric part; A_p's transpose is A_{-p},
and at D = sqrt(phi_p / phi_{-p}) the left and right Perron vectors of
D^-1 A_p D coincide, so the bound is attained.  With
D[i+1] / D[i] = exp(-h theta[i]), theta a mean-zero drift on the N edges of
the periodic grid, k_p = min_theta lam_max(S_p(theta)): S_p(theta) keeps
A_p's diagonal and has off[i] = (sup[i] e^{-h theta[i]} +
sub[i+1] e^{h theta[i]}) / 2 on edge i, and its continuum limit is [BN1]'s
k_0(a, c + a (p + theta)^2).  This module minimizes that objective by a
projected Newton descent, each Newton system solved directly by one cyclic
tridiagonal factorization and a rank-two correction.  It also provides the
exact minimizer, built from the +p and -p eigenfunctions, and the
homogenized drift, which attains the harmonic-mean bound in the continuum.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import medium as med
from . import operators as ops
from .operators import NoConvergence
from .tridiag import NotPositiveDefinite, ShiftedSPDCyclicSolver


@dataclass(frozen=True)
class ThetaField:
    """Mean-zero bounded drift field on the N edges of the periodic grid:
    theta[i] lives on the edge from node i to node i + 1 (mod N).

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
    k0_value: float  # lam_max(S_p(theta)) at the returned theta
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
    """Objective of the variational formula: lam_max(S_p(theta)).

    It is at least k_p for every mean-zero theta, with equality at
    ``theta_closed_form``'s field; its continuum limit is
    k_0(a, c + a (p + theta)^2).
    """
    if theta.theta.shape != (m.N,):
        raise ValueError("theta grid does not match the realization")
    return _eigenpair(ops.assemble_tilted(m, p), theta.theta, tol)[0]


def _edges(a, theta):
    """Entries (i, i+1) and (i+1, i) of D^-1 A_p D on each edge i, a = A_p:
    sup[i] e^{-h theta[i]} and sub[i+1] e^{h theta[i]}."""
    grow = np.exp(a.h * theta)
    return a.sup / grow, np.roll(a.sub, -1) * grow


def _eigenpair(a, theta, tol, v0=None, ceiling=np.inf):
    off = 0.5 * np.add(*_edges(a, theta))
    op = ops.DiscreteOperator(N=a.N, h=a.h, sub=np.roll(off, 1), diag=a.diag,
                              sup=off, p=0.0)
    res = ops.principal_eigen(op, tol=tol, v0=v0, ceiling=ceiling)
    return res.lam, res.phi, op


def _gradient(a, theta, phi):
    """Unit eigenvector u, d[i] = d off[i] / d theta[i] and the gradient.

    d[i] = h (sub[i+1] e^{h theta[i]} - sup[i] e^{-h theta[i]}) / 2, and
    first-order perturbation gives d lam / d theta[i] = 2 d[i] u[i] u[i+1],
    returned projected to zero mean.
    """
    u = phi / np.sqrt(ops._dot(phi, phi))
    back, fwd = _edges(a, theta)
    d = (0.5 * a.h) * (fwd - back)
    grad = 2.0 * d * u * np.roll(u, -1)
    return u, d, grad - np.mean(grad)


def minimize_theta(m: med.MediumRealization, p: float,
                   max_iters: int = 600) -> ThetaResult:
    """Projected Newton descent on theta for the variational objective.

    The objective is convex in theta (lam_max is convex in the matrix and
    does not decrease as a nonnegative off-diagonal entry grows, and each
    entry is convex in its theta), so a descent that reaches a zero
    gradient has found the minimum, k_p itself.  A_p is assembled once;
    the descent starts from the homogenized drift and runs ``_descend``.  On a localized medium it can crawl: the top eigenvalue
    is a near-degenerate maximum over localized wells, and a Newton step
    lowers one well at a time.  So a descent that stops anything but
    "converged" is restarted once from ``theta_closed_form``, the exact
    minimizer, with the steps left of max_iters; of the two results the one
    with the lower eigenvalue is returned, and ``start`` names where its
    descent began.  The direct k_p, a cold +p solve, is made once, before
    the descent, and the closed form reuses it.  ``iters`` counts the
    accepted Newton steps of both descents and ``solves`` every eigen solve
    made: the direct k_p, the closed form's -p solve and both descents'.

    Every eigenvalue the descent reaches is certified (``principal_eigen``
    brackets the top eigenvalue), and each Newton step checks it again: the
    LDL^T factorization of (lam + delta) I - S_p(theta) exists exactly when
    lam is within delta of it.  That factorization, or the Newton system's,
    failing all the same raises NoConvergence.  The descents stop at a
    gradient sup-norm below 1e-8, and every eigen solve has tolerance
    1e-10.  max_iters below 0 raises ValueError.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be at least 0, got {max_iters}")
    tol, eig_tol = 1e-8, 1e-10
    kp = ops.k_p(m, p, tol=eig_tol)
    a = ops.assemble_tilted(m, p)
    start = "homogenized"
    theta, lam, grad_norm, iters, solves, stop = _descend(
        a, homogenized_theta(m, p).theta, tol, max_iters, eig_tol)
    solves += 1  # k_p
    if stop != "converged":
        c_theta, c_lam, c_grad, c_iters, c_solves, c_stop = _descend(
            a, _closed_form(m, p, kp, eig_tol).theta, tol, max_iters - iters,
            eig_tol)
        iters += c_iters
        solves += 1 + c_solves  # the closed form's -p solve
        if c_lam < lam:
            theta, lam, grad_norm, stop = c_theta, c_lam, c_grad, c_stop
            start = "closed_form"
    field = ThetaField.from_raw(theta, project=True)
    return ThetaResult(theta=field, k0_value=lam, grad_norm=grad_norm,
                       iters=iters, kp_direct=kp.lam,
                       gap_vs_direct=lam - kp.lam,
                       solves=solves, stop=stop, start=start)


def _descend(a, theta, tol, max_iters, eig_tol):
    """Projected Newton descent from theta on A_p = a, at most max_iters
    steps.

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
    lam, phi, op = _eigenpair(a, theta, eig_tol)
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
        u, d, grad = _gradient(a, theta, phi)
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
            direction = _newton_direction(op, lam, u, d, grad)
        except NotPositiveDefinite as exc:
            raise NoConvergence(iters, grad_norm) from exc
        accepted, n = _line_search(a, theta, lam, phi, direction,
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
    top eigenvalue, so for T = S_p(theta) the factorization's
    NotPositiveDefinite says that lam is not its top eigenvalue (to within
    delta).
    """
    delta = 1e-8 * max(abs(lam), 1.0)
    solver = ShiftedSPDCyclicSolver(diag.shape[0])
    solver.factor(lam + delta, diag, off)
    return solver


def _newton_direction(op, lam, u, d, grad):
    """Newton direction of the top eigenvalue at theta, by a direct solve.

    The Hessian of the simple top eigenvalue of S = S_p(theta) (op) is
    H = C + 2 G^T R G.  C is diagonal, C[i] = u^T (d^2 S / d theta[i]^2) u =
    2 h^2 u[i] u[i+1] off[i], floored at 1e-4 of its max.  G is the cyclic
    bidiagonal map whose column i is (dS / d theta[i]) u:
    (G q)[i] = d[i] u[i+1] q[i] + d[i-1] u[i-1] q[i-1].  R = P M^{-1} P is
    the reduced resolvent: M = (lam + delta) I - S as in ``_shifted_factor``,
    P = I - u u^T (the small delta keeps M nonsingular along u; every other
    eigenvalue of S lies below lam, so it barely changes R there).  The
    direction x solves H x + mu 1 = -grad with sum(x) = 0.  With
    y = M^{-1} P G x, x = -C^{-1} (grad + mu 1 + 2 G^T P y) and
    (M + 2 P K P) y = -P G C^{-1} (grad + mu 1), where K = G C^{-1} G^T is
    symmetric cyclic tridiagonal.  M + 2K = (lam + delta) I - (S - 2K) is
    positive definite and is factored once; P K P - K = U Q U^T, with
    U = [u, K u] and Q = [[u.K u, -1], [-1, 0]], enters by a 2x2 Woodbury
    correction.  Four solves, on u, K u, P G C^{-1} grad and P G C^{-1} 1,
    give y for mu = 0 and per unit mu, and mu follows from sum(x) = 0.
    """
    u_next = np.roll(u, -1)
    c = (2.0 * op.h * op.h) * u * u_next * op.sup
    c = np.maximum(c, 1e-4 * np.max(c))
    right, left = d * u_next, d * u  # edge i's weights at nodes i and i + 1
    right_c, left_c = right / c, left / c

    def spread(q):  # G C^{-1} q
        return right_c * q + np.roll(left_c * q, 1)

    ku = spread(2.0 * right * u)  # G^T u = 2 d u u_next
    solver = _shifted_factor(
        op.diag - 2.0 * (right * right_c + np.roll(left * left_c, 1)),
        op.sup - 2.0 * right * left_c, lam)  # (S - 2K)'s diagonals
    basis = [u.copy(), ku.copy()]  # U, then (M + 2K)^{-1} U
    rhs = [spread(grad), spread(1.0)]  # P G C^{-1} grad and 1, then solved
    for r in rhs:
        r -= ops._dot(u, r) * u
    for col in basis + rhs:
        solver.solve_factored(col)
    gram = np.array([[ops._dot(v, col) for col in basis + rhs]
                     for v in (u, ku)])
    capacitance = (np.array([[0.0, -0.5], [-0.5, -0.5 * ops._dot(u, ku)]])
                   + gram[:, :2])
    coef = np.linalg.solve(capacitance, gram[:, 2:])
    for z, (c0, c1) in zip(rhs, coef.T):
        # z = (M + 2 P K P)^{-1} r, projected by P
        z -= c0 * basis[0]
        z -= c1 * basis[1]
        z -= ops._dot(u, z) * u
    x_g, x_1 = [(one - 2.0 * (right * z + left * np.roll(z, -1))) / c
                for z, one in zip(rhs, (grad, 1.0))]  # x = -x_g - mu x_1
    return x_1 * (np.sum(x_g) / np.sum(x_1)) - x_g


def _line_search(a, theta, lam, phi, direction, slope, t, eig_tol, floor):
    """Armijo backtracking along direction from step t, on A_p = a.

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
            lam_t, phi_t, op_t = _eigenpair(a, cand, eig_tol, v0=phi,
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
    a = ops.assemble_tilted(m, p)
    _, phi, _ = _eigenpair(a, theta.theta, tol)
    return _gradient(a, theta.theta, phi)[2]


def theta_closed_form(m: med.MediumRealization, p: float,
                      tol: float = 1e-8) -> ThetaField:
    """Exact minimizer of the variational objective, from the +p and -p
    eigenfunctions.

    theta[i] = (l[i+1] - l[i]) / (2h) with l = log(phi_{-p} / phi_p), the
    drift of D = sqrt(phi_p / phi_{-p}): lam_max(S_p(theta)) equals k_p up
    to the two solves' tolerance tol, at every tilt.  The raw field sums to
    zero around the circle up to rounding, and is projected.
    """
    return _closed_form(m, p, ops.k_p(m, p, tol=tol), tol)


def _closed_form(m, p, kp, tol):
    """theta_closed_form's field from kp, the cold +p solve at tol."""
    log_ratio = np.log(ops.k_p(m, -p, tol=tol).phi)
    log_ratio -= np.log(kp.phi)
    return ThetaField.from_raw(
        (np.roll(log_ratio, -1) - log_ratio) / (2.0 * m.h), project=True)


def homogenized_theta(m: med.MediumRealization, p: float) -> ThetaField:
    """Drift attaining the harmonic-mean bound: p (1/(E[1/a] a) - 1).

    Minimizes the window average of a (p + theta)^2 over mean-zero theta;
    plugged into the objective's continuum limit it yields the homogenized
    lower bound mean_c + p^2 / mean(1/a).  The drift descent starts from it.
    """
    mean_inv_a = float(np.mean(1.0 / m.a))
    return ThetaField.from_raw(p * (1.0 / (mean_inv_a * m.a) - 1.0), project=True)
