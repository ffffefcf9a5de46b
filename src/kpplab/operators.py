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

import math
from dataclasses import dataclass

import numpy as np

from . import medium as med
from .optimize import minimize_log
from .results import NumericalFailure, SpeedEstimate
from .tridiag import ShiftedCyclicSolver, ShiftedSPDCyclicSolver

MAX_ITERS = 5000  # shifted solves one principal_eigen call may make


class PositivityViolation(NumericalFailure, ValueError):
    """Tilt too large for the grid: an off-diagonal entry would be <= 0."""

    def __init__(self, p: float, h: float, row: int):
        super().__init__(
            f"off-diagonal positivity fails at row {row}: need h*|p| < 1, "
            f"got h={h:g}, p={p:g}")


class NoConvergence(NumericalFailure, RuntimeError):
    """A solve met a contradiction or spent its iteration budget.

    ``iters`` counts the iterations made when it was raised: a Perron
    solve's shifted solves, or a drift descent's steps.
    """

    def __init__(self, iters: int, residual: float):
        super().__init__(
            f"no convergence after {iters} iterations "
            f"(last residual {residual:.3e})")
        self.iters = iters


class AboveCeiling(Exception):
    """A solve stopped once its Perron root was shown to exceed the caller's
    ceiling.

    ``bound`` is the certified lower end of the solve's bracket, above the
    ceiling and at or below the root; ``iters`` and ``failed_tests`` count
    the shifted solves it made, as in EigenResult.  Control flow, not a
    NumericalFailure.
    """

    def __init__(self, bound: float, iters: int, failed_tests: int):
        super().__init__(f"Perron root >= {bound!r}, above the ceiling")
        self.bound = bound
        self.iters = iters
        self.failed_tests = failed_tests


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

    ``iters`` counts shifted solves, each one test of a shift against the
    Perron root, and ``failed_tests`` those whose shift the test placed at
    or below the root.  ``cw_width`` is the width of the final bracket
    [lo, hi] on the root: lam lies in it, so it bounds the eigenvalue error.
    ``residual`` is ||A phi - lam phi||_inf.
    """

    lam: float
    phi: np.ndarray
    residual: float
    iters: int
    failed_tests: int
    cw_width: float

    def __post_init__(self):
        self.phi.flags.writeable = False

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "residual": self.residual,
            "iters": self.iters,
            "failed_tests": self.failed_tests,
            "cw_width": self.cw_width,
        }


def _shift_into(src: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = src[i-1], cyclically: np.roll(src, 1) without the copy."""
    out[1:] = src[:-1]
    out[0] = src[-1]
    return out


def _assemble_into(m: med.MediumRealization, p: float, sub: np.ndarray,
                   diag: np.ndarray, sup: np.ndarray,
                   tmp: np.ndarray) -> DiscreteOperator:
    """Write the rows of the module docstring into sub, diag and sup, using
    tmp as scratch.

    Each entry is rounded as flux_l + (p/h) a_half[i-1/2],
    flux_r - (p/h) a_half[i+1/2] and (-(flux_l + flux_r) + p^2 a) + c, with
    flux_r = a_half[i+1/2] * (1/h^2) and flux_l[i] = flux_r[i-1], so
    buffers written over hold the same bits as fresh ones.
    """
    h = m.h
    if h * abs(p) >= 1.0:
        raise PositivityViolation(p, h, 0)
    tilt = p / h
    flux_r = np.multiply(m.a_half, 1.0 / (h * h), out=tmp)
    flux_l = _shift_into(flux_r, diag)
    np.multiply(tilt, _shift_into(m.a_half, sub), out=sub)  # a at i - 1/2
    np.add(flux_l, sub, out=sub)
    np.multiply(tilt, m.a_half, out=sup)
    np.subtract(flux_r, sup, out=sup)
    # the diagonal reuses the rounded flux terms so that row sums vanish
    # exactly (in floating point) when p = 0 and c = 0
    np.add(flux_l, flux_r, out=diag)
    np.negative(diag, out=diag)
    np.add(diag, np.multiply(p * p, m.a, out=tmp), out=diag)
    np.add(diag, m.c, out=diag)
    return DiscreteOperator(N=m.N, h=h, sub=sub, diag=diag, sup=sup, p=p)


def assemble_tilted(m: med.MediumRealization, p: float) -> DiscreteOperator:
    """Matrix of L_p for the realization's own reaction-rate field c."""
    return _assemble_into(m, p, np.empty(m.N), np.empty(m.N), np.empty(m.N),
                          np.empty(m.N))


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """Inner product by numpy's own loop, not BLAS.

    OpenBLAS hands a ddot on a sweep's 10^4-10^5 entries to its helper
    threads, so suite workers that each called it would put more busy
    threads than cores on the machine and run slower than one worker.
    """
    return float(np.einsum("i,i->", x, y))


class Workspace:
    """The buffers of Perron solves on N x N matrices, kept from one solve
    to the next; each solve takes its matrix as an argument.

    The sweep's vectors: the iterate v, A v and a scratch vector; built at
    the first test, a test's x and A x and the shifted solver of each kind
    (tilted or symmetric); and, built at k_p's first tilt, the diagonals
    k_p assembles into.  A solve overwrites them all, so the ``phi`` of an
    earlier solve through the same workspace changes.  A workspace serves
    one thread at a time.
    """

    def __init__(self, n: int):
        self.N = n
        self.v, self.av, self.tmp = np.empty(n), np.empty(n), np.empty(n)
        self.x = self.ax = self._diagonals = None
        self._solvers = {}

    def solver(self, symmetric: bool):
        """The shifted solver of each kind, built at its first use."""
        solver = self._solvers.get(symmetric)
        if solver is None:
            solver = self._solvers[symmetric] = (
                ShiftedSPDCyclicSolver(self.N) if symmetric
                else ShiftedCyclicSolver(self.N))
            if self.x is None:
                self.x, self.ax = np.empty_like(self.v), np.empty_like(self.v)
        return solver

    def diagonals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Three writable N-vectors, the same on every call."""
        if self._diagonals is None:
            self._diagonals = tuple(np.empty(self.N) for _ in range(3))
        for arr in self._diagonals:
            arr.flags.writeable = True  # the last tilt's operator froze them
        return self._diagonals


def principal_eigen(op: DiscreteOperator, tol: float = 1e-8,
                    v0: np.ndarray | None = None,
                    ceiling: float = np.inf, *,
                    ws: Workspace | None = None) -> EigenResult:
    """Principal (Perron) eigenvalue and positive eigenfunction.

    Certified bisection on the Perron root lam1 of A.  For any positive w,
    lam1 lies in the Collatz-Wielandt interval
    [min_i (Aw)_i/w_i, max_i (Aw)_i/w_i], and for a symmetric A (p = 0)
    above the Rayleigh quotient of w (Berman & Plemmons, Nonnegative
    Matrices in the Mathematical Sciences, ch. 2).  The bracket [lo, hi] on
    lam1 starts from these bounds of the start vector (ones when cold, a
    warm v0 floored to max(|v0|/max|v0|, 1e-200); a v0 that is not finite
    raises ValueError), intersected with those of ones, the extreme row
    sums of A.  Each step tests sigma = (lo + hi)/2 by one shifted solve
    x = (sigma I - A)^{-1} v:

    * p = 0, where sub[i+1] == sup[i] bit for bit: the LDL^T factorization
      of ShiftedSPDCyclicSolver (factor, then solve_factored on a copy of
      v) exists exactly when sigma > lam1, so NotPositiveDefinite fails the
      test.
    * p != 0: sigma I - A is an irreducible Z-matrix, and x from one dgtsv
      call (ShiftedCyclicSolver) is entrywise positive exactly when it is a
      nonsingular M-matrix, that is when sigma > lam1 (ibid., ch. 6).  A
      non-positive entry or a LinAlgError fails the test.

    A passed test sets hi = sigma, a failed one lo = sigma.  Whenever the
    solve returned a finite x, passed or failed, w = max(|x|/max|x|, 1e-200)
    is a positive vector, and the bracket is intersected with its bounds.
    Near the root x is dominated by -phi_1/(lam1 - sigma) below it and by
    phi_1/(sigma - lam1) above it, so either way w is nearly the Perron
    vector.  w becomes the iterate v (one inverse-iteration step) after a
    passed test always, after a failed one only when its Collatz-Wielandt
    interval is narrower than v's; far below the root x mixes signs, and
    the bounds of |x| are loose.  The two vectors swap buffers, so nothing
    is copied.  An x that is not finite (a cold test far below the root can
    overflow dgtsv) is skipped, and v stays.  Near the root the shift lies
    within the bracket width of lam1, so a passed step yields the Perron
    vector whatever the cluster of eigenvalues below it.  Once
    hi - lo < tol_eff, lam is lo at p = 0 (the larger of the Rayleigh
    quotient and the failed shifts) and (lo + hi)/2 otherwise; until the
    residual ||A v - lam v||_inf is below tol_eff too, the solve tests at
    hi.  tol_eff is tol raised to the rounding floor of the residual.

    A contradiction raises NoConvergence at once:
    * a test that fails at a shift at or above the certified upper bound
      hi (chained from the LinAlgError that failed it, if any);
    * a failed test whose w has its Collatz-Wielandt upper bound below
      sigma.  For sigma above the root, (A x)_i/x_i = sigma - v_i/x_i
      < sigma, so a passed test misread as failed, say through a
      rounding-level sign flip in a localized x, is caught at that test;
    * a closed bracket whose lam lies outside the Collatz-Wielandt interval
      of v.
    So does spending MAX_ITERS solves.

    The solve writes only into ``ws``, a Workspace of size op.N (a fresh
    one when None; another size raises ValueError): the returned ``phi`` is
    a view of one of its buffers, which the next solve through ``ws``
    overwrites.  The solver and the buffers of x and A x are built at the
    workspace's first test: a solve that its start bounds settle builds none.
    A finite ``ceiling`` stops the solve with AboveCeiling as soon as lo
    exceeds it, sparing a caller that only needs to know whether
    lam1 <= ceiling the remaining solves.  Every lo is certified, at any
    tilt: a Collatz-Wielandt minimum, a Rayleigh quotient at p = 0, or a
    failed shift.  A solve that returns has lo <= ceiling, so at p = 0
    lam <= ceiling; at p != 0 lam may exceed it by up to tol_eff/2.
    A tol that is not finite and > 0 raises ValueError before any solve.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    symmetric = op.p == 0
    if ws is None:
        ws = Workspace(op.N)
    elif ws.N != op.N:
        raise ValueError(f"ws is a workspace of size {ws.N}, not {op.N}")
    # fmin skips NaN entries, as the elementwise test does, and unlike that
    # test it builds no temporary next to the workspace
    if np.fmin.reduce(op.sub) <= 0 or np.fmin.reduce(op.sup) <= 0:
        bad = int(np.argmax((op.sub <= 0) | (op.sup <= 0)))
        raise PositivityViolation(op.p, op.h, bad)

    # the iterate v, A v and a scratch; a test's solution x and A x come
    # with the solver, at the first test
    v, av, tmp = ws.v, ws.av, ws.tmp

    # rounding floor of the residual: ||A phi - lam phi|| cannot beat a few
    # ulps of the largest matrix entry
    tol_eff = max(tol, 128.0 * np.finfo(float).eps
                  * float(np.max(np.abs(op.diag, out=tmp))))

    def bounds(w: np.ndarray, aw: np.ndarray) -> tuple[float, float] | None:
        """w = max(|w| / max|w|, 1e-200) in place, aw = A w, and w's
        Collatz-Wielandt interval; None if w is not finite."""
        np.abs(w, out=w)
        scale = float(np.max(w))
        if not math.isfinite(scale):
            return None
        np.divide(w, scale, out=w)
        np.maximum(w, 1e-200, out=w)
        _matvec_into(op, w, aw, tmp)
        np.divide(aw, w, out=tmp)
        return float(np.min(tmp)), float(np.max(tmp))

    # the bounds of ones, the extreme row sums, whatever the start vector
    rowsum = np.add(op.sub, op.diag, out=tmp)
    np.add(rowsum, op.sup, out=rowsum)
    lo, hi = float(np.min(rowsum)), float(np.max(rowsum))
    v[:] = 1.0 if v0 is None else v0
    start = bounds(v, av)
    if start is None:
        raise ValueError("v0 must be finite")
    cw_lo, cw_hi = start
    lo, hi = max(lo, cw_lo), min(hi, cw_hi)
    if symmetric:
        lo = max(lo, _dot(v, av) / _dot(v, v))
    resid = np.inf
    iters = failed = 0
    solver = None
    while True:
        if lo > ceiling:
            # raised unbound: an exception held in a local of this frame
            # would tie the frame, and its buffers, into a reference cycle
            raise AboveCeiling(lo, iters, failed)
        closed = hi - lo < tol_eff
        if closed:
            lam = min(lo, hi) if symmetric else 0.5 * (lo + hi)
            if not cw_lo <= lam <= cw_hi:
                raise NoConvergence(iters, resid)
            np.multiply(v, lam, out=tmp)
            np.subtract(av, tmp, out=tmp)
            np.abs(tmp, out=tmp)
            resid = float(np.max(tmp))
            if resid < tol_eff:
                break
        if iters == MAX_ITERS:
            raise NoConvergence(iters, resid)
        if solver is None:
            solver = ws.solver(symmetric)
            x, ax = ws.x, ws.ax
        sigma = hi if closed else 0.5 * (lo + hi)
        iters += 1
        # the exception is not kept past its except clause: its traceback
        # holds this frame, and the cycle would keep the buffers alive
        try:
            if symmetric:
                solver.factor(sigma, op.diag, op.sup)
                np.copyto(x, v)
                solver.solve_factored(x)
                passed = True
            else:
                solver.solve(sigma, op.sub, op.diag, op.sup, v, out=x)
                passed = np.min(x) > 0.0
        except np.linalg.LinAlgError as exc:
            if sigma >= hi:
                raise NoConvergence(iters, resid) from exc
            passed = False
            x_bounds = None
        else:
            x_bounds = bounds(x, ax)
        if passed:
            hi = sigma
        elif sigma >= hi:
            raise NoConvergence(iters, resid)
        else:
            failed += 1
            lo = sigma
        if x_bounds is None:
            continue
        x_lo, x_hi = x_bounds
        if not passed and x_hi < sigma:
            # the test put sigma at or below the root, the bounds of |x|
            # put the root below sigma: a passed test read as failed
            raise NoConvergence(iters, resid)
        lo, hi = max(lo, x_lo), min(hi, x_hi)
        if passed or x_hi - x_lo < cw_hi - cw_lo:
            v, x, av, ax = x, v, ax, av
            cw_lo, cw_hi = x_lo, x_hi
            if symmetric:
                lo = max(lo, _dot(v, av) / _dot(v, v))

    return EigenResult(lam=lam, phi=v.view(), residual=resid, iters=iters,
                       failed_tests=failed, cw_width=hi - lo)


def k_p(m: med.MediumRealization, p: float, tol: float = 1e-8,
        v0: np.ndarray | None = None, ceiling: float = np.inf, *,
        ws: Workspace | None = None) -> EigenResult:
    """Principal eigenvalue k_p of the tilted operator on the window.

    Every call solves; ``v0`` only seeds the iteration (warm start).  A cold
    solve is deterministic, so asking for the same tilt again gives the same
    bits.  ``ceiling`` is principal_eigen's: the solve stops with
    AboveCeiling once k_p is certified to exceed it.

    The matrix is assembled and solved in ``ws``, a Workspace of size m.N
    (a fresh one when None; another size raises ValueError), with the same
    bits either way; the returned ``phi`` is a view that the next solve
    through ``ws`` overwrites.
    """
    if ws is None:
        ws = Workspace(m.N)
    elif ws.N != m.N:
        raise ValueError(f"ws is a workspace of size {ws.N}, not {m.N}")
    op = _assemble_into(m, p, *ws.diagonals(), ws.tmp)
    return principal_eigen(op, tol=tol, v0=v0, ceiling=ceiling, ws=ws)


def speed_from_kp(m: med.MediumRealization, p_lo: float = 0.2, p_hi: float = 5.0,
                  tol: float = 1e-4, eig_tol: float | None = None) -> SpeedEstimate:
    """Spreading speed from the eigenvalue formula w* = min_{p>0} k_p / p.

    One ``minimize_log`` search over p > 0 from the bracket [p_lo, p_hi]:
    the bracket is validated (the map must be decreasing at p_lo and
    increasing at p_hi) and expanded geometrically up to 8 times; Brent
    minimization then runs over log p to relative tolerance tol in p.
    The search asks each point only whether k_p / p lies at or below a
    ceiling (the bracket's midpoint value, then Brent's best value), so
    each solve runs under ``ceiling * p`` and stops as soon as its
    certified lower bound on k_p clears it (AboveCeiling); the search then
    reads that bound / p in place of the value.  A point that beats the
    ceiling is solved to eig_tol, and so is the minimizer.  The first eigen
    solve starts cold; each later one warm-starts from the eigenfunction at
    the lowest k_p / p found so far, the tilt the search closes in on, and
    the residual of each is kept for the error bar at the minimizer.

    The search builds one Workspace and passes it to each of its k_p
    calls, so every tilt assembles and solves in it: the three diagonals,
    the sweep's vectors and one shifted solver with its LAPACK buffers.
    Each tilt overwrites the diagonals in place, with assemble_tilted's
    bits, so the search makes the same solves, to the bit, as one whose
    solves each allocate.  The search keeps one more buffer, the best warm
    start, into which a solve's eigenfunction is copied when its k_p / p
    becomes the lowest.

    The provenance keeps the exact k_p of every completed solve
    (``kp_evals``) and the bound of every point only bounded
    (``kp_bounds``), and counts the search's shifted solves (``sweeps``,
    stopped solves included), its failed tests (``failed_tests``) and the
    solves stopped at a ceiling (``stopped``).
    """
    if eig_tol is None:
        eig_tol = min(1e-8, tol * 1e-2)

    best_g = np.inf
    best_phi = np.empty(m.N)  # the eigenfunction at best_g, once there is one
    solved: dict[float, tuple[float, float]] = {}  # p -> (k_p, residual)
    bounds: dict[float, float] = {}  # p -> lower bound on k_p, if unsolved
    sweeps = failed = stopped = 0

    ws = Workspace(m.N)

    def g(p: float, ceiling: float) -> float:
        nonlocal best_g, sweeps, failed, stopped
        try:
            res = k_p(m, p, tol=eig_tol,
                      v0=best_phi if best_g < np.inf else None,
                      ceiling=ceiling * p, ws=ws)
        except AboveCeiling as above:
            sweeps += above.iters
            failed += above.failed_tests
            stopped += 1
            bounds[p] = above.bound
            # bound > ceiling * p; keep the quotient above ceiling through
            # the division's rounding
            return max(above.bound / p, math.nextafter(ceiling, math.inf))
        sweeps += res.iters
        failed += res.failed_tests
        solved[p] = (res.lam, res.residual)
        bounds.pop(p, None)
        value = res.lam / p
        if value < best_g:
            best_g = value
            np.copyto(best_phi, res.phi)
        return value

    p_star, w, _, spread = minimize_log(g, p_lo, p_hi, tol)
    resid = solved[p_star][1]
    err = spread + resid / p_star
    return SpeedEstimate(
        value=w, method="eigen", optimizer=p_star, err=err,
        provenance={
            "realization_id": m.realization_id, "X": m.X, "h": m.h,
            "tol": tol, "eig_tol": eig_tol, "eig_residual": resid,
            "kp_evals": {repr(q): solved[q][0] for q in sorted(solved)},
            "kp_bounds": {repr(q): bounds[q] for q in sorted(bounds)},
            "sweeps": sweeps, "failed_tests": failed, "stopped": stopped,
        })


def kp_curve(m: med.MediumRealization, ps, tol: float = 1e-8) -> np.ndarray:
    """Array of (p, k_p) rows for a grid of tilts.

    Each tilt is solved cold by k_p, in one Workspace of size m.N passed
    to every call.
    """
    ws = Workspace(m.N)
    return np.array([[p, k_p(m, p, tol=tol, ws=ws).lam] for p in ps])
