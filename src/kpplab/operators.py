"""Discrete tilted operators on the periodized window and their Perron roots.

The exponentially tilted generator

    L_p u = (a u')' - 2 p a u' + (p^2 a - p a' + c) u

is discretized in flux/skew form on the X-periodic grid: diffusion uses the
half-node coefficients a_half, and the first-order term is split as
-2pau' = -p (au)' - p a u' + p a' u before central differencing, which folds
the p a' term into the potential.  Row i of the resulting cyclic tridiagonal
matrix reads

    sub[i]  = a_half[i-1/2] * (1/h^2 + p/h)
    sup[i]  = a_half[i+1/2] * (1/h^2 - p/h)
    diag[i] = -(a_half[i-1/2] + a_half[i+1/2]) / h^2 + p^2 a[i] + c[i]

This discretization makes the matrix for tilt -p the exact transpose of the
matrix for +p, so the even symmetry k_p = k_{-p} holds at solver tolerance on
every medium (a plain one-sided p*a[i]/h advection term satisfies it only up
to O(h^2) when a varies).  Off-diagonals are positive iff h|p| < 1, giving an
irreducible nonnegative matrix after a diagonal shift and hence a simple
Perron root with positive eigenvector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import medium as med
from .optimize import minimize_log
from .results import NumericalFailure, SpeedEstimate
from .tridiag import (CyclicTridiagonalSolver, NotPositiveDefinite,
                      ShiftedCyclicSolver, ShiftedSPDCyclicSolver)


class PositivityViolation(NumericalFailure, ValueError):
    """Tilt too large for the grid: an off-diagonal entry would be <= 0."""

    def __init__(self, p: float, h: float, row: int):
        super().__init__(
            f"off-diagonal positivity fails at row {row}: need h*|p| < 1, "
            f"got h={h:g}, p={p:g}")
        self.p = p
        self.h = h
        self.row = row


class NoConvergence(NumericalFailure, RuntimeError):
    """Eigen-solver iteration budget exhausted."""

    def __init__(self, max_iters: int, residual: float):
        super().__init__(
            f"no convergence after {max_iters} iterations "
            f"(last residual {residual:.3e})")
        self.max_iters = max_iters
        self.residual = residual


class AboveCeiling(Exception):
    """A symmetric solve stopped once its top eigenvalue was shown to exceed
    the caller's ceiling; ``bound`` is a Rayleigh quotient above it."""

    def __init__(self, bound: float):
        super().__init__(f"top eigenvalue >= {bound!r}, above the ceiling")
        self.bound = bound


@dataclass(frozen=True)
class DiscreteOperator:
    """Cyclic tridiagonal matrix of the tilted operator on one window."""

    N: int
    h: float
    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    p: float

    def __post_init__(self):
        for arr in (self.sub, self.diag, self.sup):
            arr.flags.writeable = False


def _matvec_into(op: DiscreteOperator, v: np.ndarray, out: np.ndarray,
                 tmp: np.ndarray) -> np.ndarray:
    """out = A v through slice shifts, using tmp as scratch; allocates nothing.

    Sums in the order (sub v[i-1] + diag v[i]) + sup v[i+1].
    """
    np.multiply(op.sub[1:], v[:-1], out=out[1:])
    out[0] = op.sub[0] * v[-1]
    np.multiply(op.diag, v, out=tmp)
    np.add(out, tmp, out=out)
    np.multiply(op.sup[:-1], v[1:], out=tmp[:-1])
    tmp[-1] = op.sup[-1] * v[0]
    return np.add(out, tmp, out=out)


@dataclass(frozen=True)
class EigenResult:
    """Principal eigenvalue with positive eigenfunction (max-normalized).

    ``iters`` counts inverse-iteration sweeps plus the Krylov dimension of
    each Arnoldi jump; ``refactorizations`` counts the shift updates after
    the first shift (every sweep factors afresh, so it no longer counts
    factorizations); ``jumps`` counts Arnoldi jumps.  ``cw_width`` is the
    final Collatz-Wielandt width max_i (A phi)_i/phi_i - min_i (A phi)_i/phi_i:
    both ``lam`` and the Perron root lie in that interval, so when the solve
    stopped on it the width bounds the eigenvalue error.
    """

    lam: float
    phi: np.ndarray
    residual: float
    iters: int
    refactorizations: int
    jumps: int
    cw_width: float

    def __post_init__(self):
        self.phi.flags.writeable = False

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "residual": self.residual,
            "iters": self.iters,
            "refactorizations": self.refactorizations,
            "jumps": self.jumps,
            "cw_width": self.cw_width,
        }


def _assemble(m: med.MediumRealization, p: float, zero_order: np.ndarray) -> DiscreteOperator:
    h = m.h
    if h * abs(p) >= 1.0:
        row = 0
        raise PositivityViolation(p, h, row)
    inv_h2 = 1.0 / (h * h)
    tilt = p / h
    ah_r = m.a_half                # a at i + 1/2
    ah_l = np.roll(m.a_half, 1)    # a at i - 1/2
    flux_l = ah_l * inv_h2
    flux_r = ah_r * inv_h2
    sub = flux_l + tilt * ah_l
    sup = flux_r - tilt * ah_r
    # the diagonal reuses the rounded flux terms so that row sums vanish
    # exactly (in floating point) when p = 0 and the zero-order term is 0
    diag = -(flux_l + flux_r) + (p * p) * m.a + zero_order
    return DiscreteOperator(N=m.N, h=h, sub=sub, diag=diag, sup=sup, p=p)


def assemble_tilted(m: med.MediumRealization, p: float) -> DiscreteOperator:
    """Matrix of L_p for the realization's own reaction-rate field c."""
    return _assemble(m, p, m.c)


def assemble_symmetric(m: med.MediumRealization, potential: np.ndarray) -> DiscreteOperator:
    """Self-adjoint p = 0 operator with a supplied zero-order coefficient.

    Used by the variational formula, where the potential is c + a (p+theta)^2.
    """
    potential = np.asarray(potential, dtype=float)
    if potential.shape != (m.N,):
        raise ValueError("potential has wrong shape")
    return _assemble(m, 0.0, potential)


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """Inner product by numpy's own loop, not BLAS.

    OpenBLAS hands a ddot on a sweep's 10^4-10^5 entries to its helper
    threads, so suite workers that each called it would put more busy
    threads than cores on the machine and run slower than one worker.
    """
    return float(np.einsum("i,i->", x, y))


def _arnoldi_jump(solver, v, dim):
    """One-shot Arnoldi on the shift-inverted operator, from vector v.

    Returns the dominant Ritz vector; a Krylov space of modest dimension
    resolves the near-degenerate clusters that stall plain inverse iteration.
    """
    Q = np.empty((dim + 1, v.shape[0]))
    Q[0] = v / np.sqrt(_dot(v, v))
    H = np.zeros((dim + 1, dim))
    m = dim
    for j in range(dim):
        w = solver.solve(Q[j])
        for _ in range(2):  # modified Gram-Schmidt with one reorthogonalization
            for i in range(j + 1):
                c = _dot(Q[i], w)
                H[i, j] += c
                w -= c * Q[i]
        beta = np.sqrt(_dot(w, w))
        H[j + 1, j] = beta
        if beta <= 1e-14 * max(1.0, abs(H[j, j])):
            m = j + 1
            break
        Q[j + 1] = w / beta
    theta, S = np.linalg.eig(H[:m, :m])
    k = int(np.argmax(np.abs(theta)))
    return np.einsum("i,ij->j", S[:, k].real, Q[:m])


def principal_eigen(op: DiscreteOperator, tol: float = 1e-8,
                    max_iters: int = 5000, v0: np.ndarray | None = None,
                    ceiling: float = np.inf) -> EigenResult:
    """Principal (Perron) eigenvalue and positive eigenfunction.

    Inverse (shift-invert) power iteration on sigma*I - A with the shift
    steered by Collatz-Wielandt bounds: for any positive vector v the Perron
    root lies in [cw_lo, cw_hi] = [min_i (Av)_i/v_i, max_i (Av)_i/v_i], so
    sigma can sit just above the upper bound, and the resolvent of the
    shifted matrix stays entrywise positive, keeping every iterate positive.
    Each sweep factors and solves at the current shift into buffers
    allocated once per call: a symmetric operator (p = 0, where sub[i+1] ==
    sup[i] bit for bit) by LDL^T, one pttrf and one two-column pttrs
    (ShiftedSPDCyclicSolver), a tilted one by one LAPACK dgtsv call
    (ShiftedCyclicSolver).  sigma > cw_hi >= lam1 keeps sigma I - A
    positive definite; should pttrf still refuse it, the solve raises
    NoConvergence.  When subdominant modes
    cluster against the Perron root (long windows), the sweep contracts by
    only 1 - O(gap) and a short Arnoldi run on a factorization at the
    current shift is used to jump across the cluster.  Converged when the
    residual ||A phi - lam phi||_inf / ||phi||_inf is < tol and either
    successive eigenvalue estimates differ by < tol or cw_hi - cw_lo < tol;
    the Rayleigh quotient lam also lies in [cw_lo, cw_hi], so the width test
    certifies |lam - lam1| < tol without a confirming sweep.

    For a symmetric operator every Rayleigh quotient is at most lam1, so a
    finite ``ceiling`` stops the solve with AboveCeiling as soon as a
    sweep's Rayleigh quotient exceeds it (a caller that only needs to know
    whether lam1 <= ceiling is spared the remaining sweeps); a solve that
    returns has lam <= ceiling.  A finite ceiling on a tilted operator
    raises ValueError.
    """
    symmetric = op.p == 0
    if ceiling < np.inf and not symmetric:
        raise ValueError("a ceiling bounds only a symmetric (p = 0) solve")
    n = op.N
    if np.any(op.sub <= 0) or np.any(op.sup <= 0):
        bad = int(np.argmax((op.sub <= 0) | (op.sup <= 0)))
        raise PositivityViolation(op.p, op.h, bad)

    rowsum = op.sub + op.diag + op.sup
    scale = max(1.0, float(np.max(np.abs(rowsum))))
    # rounding floor of the residual: ||A phi - lam phi|| cannot beat a few
    # ulps of the largest matrix entry
    tol_eff = max(tol, 128.0 * np.finfo(float).eps * float(np.max(np.abs(op.diag))))

    # the whole workspace of the sweep: the iterate, A v and one scratch vector
    v = np.empty(n)
    av = np.empty(n)
    tmp = np.empty(n)
    if v0 is None:
        v.fill(1.0)
    else:
        np.abs(np.asarray(v0, dtype=float), out=v)
    v /= np.max(v)

    def collatz_wielandt() -> tuple[float, float]:
        np.maximum(v, 1e-300, out=tmp)
        np.divide(av, tmp, out=tmp)
        return float(np.min(tmp)), float(np.max(tmp))

    _matvec_into(op, v, av, tmp)
    cw_lo, cw_hi = collatz_wielandt()
    width = max(cw_hi - cw_lo, 1e-15 * scale)
    sigma = cw_hi + max(0.01 * width, 1e-14 * scale)
    solver = (ShiftedSPDCyclicSolver(op.diag, op.sup) if symmetric
              else ShiftedCyclicSolver(op.sub, op.diag, op.sup))

    lam = 0.5 * (float(np.min(rowsum)) + cw_hi)
    lam_prev = np.inf
    resid = np.inf
    resid_prev = np.inf
    stall = 0
    jump_dim = 12
    iters = 0
    refactorizations = 0
    jumps = 0
    while iters < max_iters:
        iters += 1
        try:
            solver.solve(sigma, v, out=v)
        except NotPositiveDefinite as exc:
            raise NoConvergence(iters, resid) from exc
        np.abs(v, out=v)
        ymax = np.max(v)
        if not np.isfinite(ymax) or ymax == 0.0:
            raise NoConvergence(iters, resid)
        v /= ymax
        _matvec_into(op, v, av, tmp)
        cw_lo, cw_hi = collatz_wielandt()
        lam = _dot(v, av) / _dot(v, v)
        if lam > ceiling:
            raise AboveCeiling(lam)
        np.multiply(v, lam, out=tmp)
        np.subtract(av, tmp, out=tmp)
        np.abs(tmp, out=tmp)
        resid = float(np.max(tmp))
        if resid < tol_eff and (abs(lam - lam_prev) < tol_eff
                                or cw_hi - cw_lo < tol_eff):
            break
        lam_prev = lam

        # steer the shift toward the Perron root; cw_hi >= lam1 keeps it safe
        width = max(cw_hi - cw_lo, 1e-15 * scale)
        target = cw_hi + max(0.01 * width, 1e-14 * scale)
        if target < sigma - 1e-3 * (sigma - cw_hi):
            sigma = target
            refactorizations += 1

        ratio = resid / resid_prev if resid_prev < np.inf else 0.0
        resid_prev = resid
        if ratio > 0.55:
            stall += 1
        else:
            stall = 0
        if stall >= 4 and iters >= 4:
            stall = 0
            dim = min(jump_dim, n - 2, max_iters - iters)
            if dim >= 2:
                shifted = CyclicTridiagonalSolver(-op.sub, sigma - op.diag, -op.sup)
                u = _arnoldi_jump(shifted, v, dim)
                iters += dim
                jumps += 1
                umax = np.max(np.abs(u))
                if umax > 0 and np.all(np.isfinite(u)):
                    np.abs(u, out=v)
                    v /= umax
                jump_dim = min(jump_dim + 6, 30)
    else:
        raise NoConvergence(max_iters, resid)

    phi = v / np.max(v)
    if np.min(phi) <= 0:
        raise NoConvergence(iters, resid)
    return EigenResult(lam=lam, phi=phi, residual=resid, iters=iters,
                       refactorizations=refactorizations, jumps=jumps,
                       cw_width=cw_hi - cw_lo)


def k_p(m: med.MediumRealization, p: float, tol: float = 1e-8,
        v0: np.ndarray | None = None) -> EigenResult:
    """Principal eigenvalue k_p of the tilted operator on the window.

    Every call solves; ``v0`` only seeds the iteration (warm start).  A cold
    solve is deterministic, so asking for the same tilt again gives the same
    bits.
    """
    return principal_eigen(assemble_tilted(m, p), tol=tol, v0=v0)


def speed_from_kp(m: med.MediumRealization, p_lo: float = 0.2, p_hi: float = 5.0,
                  tol: float = 1e-4, eig_tol: float | None = None) -> SpeedEstimate:
    """Spreading speed from the eigenvalue formula w* = min_{p>0} k_p / p.

    One ``minimize_log`` search over p > 0 from the bracket [p_lo, p_hi]:
    the bracket is validated (the map must be decreasing at p_lo and
    increasing at p_hi) and expanded geometrically up to 8 times; Brent
    minimization then starts from the bracket's eigen solves and runs over
    log p to relative tolerance tol in p (about 8 solves in all).  The
    first eigen solve starts cold; each later one warm-starts from the
    eigenfunction at the lowest k_p / p found so far, the tilt the search
    closes in on, and the residual of each is kept for the error bar at
    the minimizer.
    The provenance counts the Perron sweeps of the whole search
    (``sweeps``, the sum of ``EigenResult.iters``).
    """
    if eig_tol is None:
        eig_tol = min(1e-8, tol * 1e-2)

    best_g = np.inf
    best_phi: np.ndarray | None = None
    residuals: dict[float, float] = {}
    sweeps = 0

    def g(p: float) -> float:
        nonlocal best_g, best_phi, sweeps
        res = k_p(m, p, tol=eig_tol, v0=best_phi)
        residuals[p] = res.residual
        sweeps += res.iters
        value = res.lam / p
        if value < best_g:
            best_g, best_phi = value, res.phi
        return value

    p_star, w, evals, spread = minimize_log(g, p_lo, p_hi, tol)
    resid = residuals[p_star]
    err = spread + resid / p_star
    return SpeedEstimate(
        value=w, method="eigen", optimizer=p_star, err=err,
        provenance={
            "realization_id": m.realization_id, "X": m.X, "h": m.h,
            "tol": tol, "eig_tol": eig_tol, "eig_residual": resid,
            "kp_evals": {repr(q): evals[q] * q for q in sorted(evals)},
            "sweeps": sweeps,
        })


def kp_curve(m: med.MediumRealization, ps, tol: float = 1e-8) -> np.ndarray:
    """Array of (p, k_p) rows for a grid of tilts."""
    return np.array([[p, k_p(m, p, tol=tol).lam] for p in ps])
