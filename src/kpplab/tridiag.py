"""Tridiagonal linear solvers: LU (LAPACK gttrf/gttrs), cyclic, and LDL^T
for symmetric positive definite matrices (pttrf/pttrs)."""

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


class CyclicTridiagonalSolver:
    """Cyclic tridiagonal solver via a rank-one corner correction.

    Row i couples x[i-1], x[i], x[i+1] with indices mod n, so the matrix has
    corner entries M[0, n-1] = sub[0] and M[n-1, 0] = sup[n-1].  The matrix is
    split as M = T + w z^T with T plain tridiagonal (Sherman-Morrison), and T
    is factorized once.
    """

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray):
        n = diag.shape[0]
        if n < 3:
            raise ValueError("cyclic tridiagonal system needs n >= 3")
        if diag[0] == 0.0:
            raise ValueError("corner splitting requires diag[0] != 0")
        gamma = -diag[0]
        d = diag.copy()
        d[0] = diag[0] - gamma
        d[-1] = diag[-1] - sub[0] * sup[-1] / gamma
        self._inner = TridiagonalSolver(sub, d, sup)
        w = np.zeros(n)
        w[0] = gamma
        w[-1] = sup[-1]
        self._z0 = 1.0
        self._zn = sub[0] / gamma
        self._q = self._inner.solve(w)  # T^{-1} w
        self._denom = 1.0 + self._z0 * self._q[0] + self._zn * self._q[-1]
        if self._denom == 0.0:
            raise np.linalg.LinAlgError("singular cyclic correction")

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = self._inner.solve(b)
        zy = self._z0 * y[0] + self._zn * y[-1]
        return y - (zy / self._denom) * self._q
