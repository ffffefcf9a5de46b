"""Tridiagonal linear solvers: LU (LAPACK gttrf/gttrs), cyclic (factored
once, or one gtsv per shifted solve), and LDL^T for symmetric positive
definite matrices (pttrf/pttrs)."""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack


class TridiagonalSolver:
    """LU factorization of a plain tridiagonal matrix, reusable across solves.

    Row i reads sub[i]*x[i-1] + diag[i]*x[i] + sup[i]*x[i+1]; sub[0] and
    sup[-1] are ignored.
    """

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray):
        n = diag.shape[0]
        if n < 2:
            raise ValueError("tridiagonal system needs n >= 2")
        dl, d, du, du2, ipiv, info = lapack.dgttrf(sub[1:], diag, sup[:-1])
        if info != 0:
            raise np.linalg.LinAlgError(f"gttrf failed (info={info})")
        self._fac = (dl, d, du, du2, ipiv)

    def solve(self, b: np.ndarray) -> np.ndarray:
        dl, d, du, du2, ipiv = self._fac
        x, info = lapack.dgttrs(dl, d, du, du2, ipiv, b)
        if info != 0:
            raise np.linalg.LinAlgError(f"gttrs failed (info={info})")
        return x


class SPDTridiagonalSolver:
    """LDL^T factorization of a symmetric positive definite tridiagonal matrix.

    diag holds the n diagonal entries and off the n - 1 entries beside it.
    The factor of a leading principal block is the leading part of the
    full factor, so solve(b) with len(b) = J <= n solves the leading J x J
    block exactly, reading only the first J factor entries.  The solve is
    in place, so a caller stepping in time allocates nothing per step.
    """

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        if diag.shape[0] < 2:
            raise ValueError("tridiagonal system needs n >= 2")
        d, e, info = lapack.dpttrf(diag, off)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"pttrf failed (info={info}): matrix not positive definite")
        self._d, self._e = d, e

    def solve(self, b: np.ndarray) -> None:
        """Overwrite b with the solution of the leading len(b) block.

        b must be a contiguous float64 vector: pttrs solves in its storage.
        """
        if b.dtype != np.float64 or not b.flags.c_contiguous:
            raise ValueError("b must be a contiguous float64 vector")
        j = b.shape[0]
        _, info = lapack.dpttrs(self._d[:j], self._e[:j - 1], b,
                                overwrite_b=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"pttrs failed (info={info})")


def _split_corners(sub0: float, sup_last: float, d: np.ndarray,
                   w: np.ndarray) -> float:
    """Split a cyclic matrix as M = T + w z^T, z = (1, 0, ..., 0, zn).

    M's corners are M[0, n-1] = sub0 and M[n-1, 0] = sup_last.  d holds M's
    diagonal on entry and T's on return; w (length n) is overwritten with the
    correction vector.  Returns zn.
    """
    if d[0] == 0.0:
        raise ValueError("corner splitting requires diag[0] != 0")
    gamma = -d[0]
    d[0] = d[0] - gamma
    d[-1] = d[-1] - sub0 * sup_last / gamma
    w.fill(0.0)
    w[0] = gamma
    w[-1] = sup_last
    return sub0 / gamma


def _denominator(q: np.ndarray, zn: float) -> float:
    """1 + z.q of the Sherman-Morrison step, with q = T^{-1} w."""
    denom = 1.0 + q[0] + zn * q[-1]
    if denom == 0.0:
        raise np.linalg.LinAlgError("singular cyclic correction")
    return denom


def _corrected(y: np.ndarray, q: np.ndarray, zn: float, denom: float,
               out: np.ndarray) -> np.ndarray:
    """Sherman-Morrison step: out = y - (z.y / denom) q, with y = T^{-1} b."""
    zy = y[0] + zn * y[-1]
    np.multiply(q, zy / denom, out=out)
    return np.subtract(y, out, out=out)


class CyclicTridiagonalSolver:
    """Cyclic tridiagonal solver via a rank-one corner correction.

    Row i couples x[i-1], x[i], x[i+1] with indices mod n, so the matrix has
    corner entries M[0, n-1] = sub[0] and M[n-1, 0] = sup[n-1].  The matrix is
    split as M = T + w z^T with T plain tridiagonal (Sherman-Morrison), and T
    is factorized once, for callers that solve many times with one matrix.
    """

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray):
        n = diag.shape[0]
        if n < 3:
            raise ValueError("cyclic tridiagonal system needs n >= 3")
        d = diag.copy()
        w = np.empty(n)
        self._zn = _split_corners(sub[0], sup[-1], d, w)
        self._inner = TridiagonalSolver(sub, d, sup)
        self._q = self._inner.solve(w)  # T^{-1} w
        self._denom = _denominator(self._q, self._zn)

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = self._inner.solve(b)
        return _corrected(y, self._q, self._zn, self._denom, np.empty_like(y))


class ShiftedCyclicSolver:
    """Solves (sigma I - A) x = b for a fixed cyclic tridiagonal A, any sigma.

    For a caller whose shift moves between solves (the Perron sweep): each
    solve factors and solves in one LAPACK dgtsv call on the two right-hand
    sides [b, w] of the corner split, where a CyclicTridiagonalSolver built
    for the same shift would spend a gttrf and two gttrs.  dgtsv runs
    gttrf's elimination and gttrs's substitution, so the result is the same
    to the last bit.  The LAPACK buffers are allocated here, once, and
    overwritten in place by every solve.
    """

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray):
        n = diag.shape[0]
        if n < 3:
            raise ValueError("cyclic tridiagonal system needs n >= 3")
        self._sub, self._diag, self._sup = sub, diag, sup
        self._dl = np.empty(n - 1)
        self._d = np.empty(n)
        self._du = np.empty(n - 1)
        self._rhs = np.empty((n, 2), order="F")

    def solve(self, sigma: float, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the solution into out (which may be b) and return it."""
        d, rhs = self._d, self._rhs
        np.negative(self._sub[1:], out=self._dl)
        np.subtract(sigma, self._diag, out=d)
        np.negative(self._sup[:-1], out=self._du)
        zn = _split_corners(-self._sub[0], -self._sup[-1], d, rhs[:, 1])
        rhs[:, 0] = b
        _, _, _, x, info = lapack.dgtsv(self._dl, d, self._du, rhs,
                                        overwrite_dl=1, overwrite_d=1,
                                        overwrite_du=1, overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"gtsv failed (info={info})")
        q = x[:, 1]
        return _corrected(x[:, 0], q, zn, _denominator(q, zn), out)
