"""Tridiagonal linear solvers: LU (LAPACK gttrf/gttrs), cyclic (factored
once, or one gtsv per shifted solve), and LDL^T for symmetric positive
definite matrices (pttrf/pttrs): plain, or cyclic and shifted, factored at
one shift for any number of solves.  The shifted solvers are tied to a
size, not a matrix: each call takes the matrix's diagonals.

gtsv, gttrf, gttrs, pttrf and pttrs are called through ctypes on the
addresses that scipy.linalg.cython_lapack exports.  A ctypes foreign call
releases the GIL for as long as LAPACK runs, where the f2py wrappers of
gtsv, gttrf, pttrf and pttrs hold it, so the suites' worker threads can
solve at the same time.  Each solver
owns its LAPACK buffers and builds its argument list once, so a solve
takes at most one new address and shares no scratch with another solver.

cython_lapack is loaded from its extension file under scipy's package
directory, by the name it has in scipy, without running
scipy.linalg/__init__: that import pulls in numpy.f2py, numpy.testing,
numpy.ma and scipy's array-API layer, none of which kpplab uses, and took
about half of ``import kpplab``'s time and a quarter of a small run's peak
RSS.  A later ``from scipy.linalg import cython_lapack`` returns the same
module.  When scipy.linalg is already imported, the ordinary import serves.
Loading the file loads scipy's own OpenBLAS, whose helper threads would
spin on a core for tens of milliseconds after load; when the caller set
neither OPENBLAS_NUM_THREADS nor OMP_NUM_THREADS, the load runs with
OPENBLAS_NUM_THREADS=1, and the variable is deleted again.  The five
routines are single-threaded, so no result changes, but scipy's BLAS stays
single-threaded for the rest of the process; SCIPY_BLAS_THREADS_PINNED
says whether this load pinned it.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import re
import sys

import numpy as np
import scipy

_LAPACK_MODULE = "scipy.linalg.cython_lapack"


def _load_cython_lapack():
    """scipy.linalg.cython_lapack, and whether loading it pinned scipy's
    OpenBLAS to one thread; ImportError if scipy has no such extension."""
    if "scipy.linalg" in sys.modules or _LAPACK_MODULE in sys.modules:
        from scipy.linalg import cython_lapack
        return cython_lapack, False
    paths = [os.path.join(base, "linalg", "cython_lapack" + suffix)
             for base in scipy.__path__
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"no {_LAPACK_MODULE} extension among {paths}")
    spec = importlib.util.spec_from_file_location(_LAPACK_MODULE, path)
    pin = ("OPENBLAS_NUM_THREADS" not in os.environ
           and "OMP_NUM_THREADS" not in os.environ)
    if pin:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        module = importlib.util.module_from_spec(spec)  # dlopens OpenBLAS
    finally:
        if pin:
            del os.environ["OPENBLAS_NUM_THREADS"]
    sys.modules[_LAPACK_MODULE] = module
    spec.loader.exec_module(module)
    return module, pin


cython_lapack, SCIPY_BLAS_THREADS_PINNED = _load_cython_lapack()

_capsule_name = ctypes.pythonapi.PyCapsule_GetName
_capsule_name.argtypes = [ctypes.py_object]
_capsule_name.restype = ctypes.c_char_p
_capsule_pointer = ctypes.pythonapi.PyCapsule_GetPointer
_capsule_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
_capsule_pointer.restype = ctypes.c_void_p


def _bind(name: str, signature: str):
    """ctypes function for the cython_lapack routine name, GIL released.

    signature is the routine's C prototype with "double" for Cython's
    mangled double type; a capsule whose prototype differs (an ILP64 build
    passes 64-bit ints) raises ImportError instead of corrupting memory.
    Every argument is a pointer, passed as an integer address.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    found = _capsule_name(capsule)
    if re.sub(r"__pyx_t_\w+_d \*", "double *", found.decode()) != signature:
        raise ImportError(f"cython_lapack.{name} has prototype {found!r}, "
                          f"expected {signature!r}")
    address = _capsule_pointer(capsule, found)
    nargs = signature.count("*")
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(address)


_dgtsv = _bind("dgtsv", "void (int *, int *, double *, double *, double *, "
                        "double *, int *, int *)")
_dgttrf = _bind("dgttrf", "void (int *, double *, double *, double *, "
                          "double *, int *, int *)")
_dgttrs = _bind("dgttrs", "void (char *, int *, int *, double *, double *, "
                          "double *, double *, int *, double *, int *, int *)")
_dpttrf = _bind("dpttrf", "void (int *, double *, double *, int *)")
_dpttrs = _bind("dpttrs", "void (int *, int *, double *, double *, double *, "
                          "int *, int *)")


class NotPositiveDefinite(np.linalg.LinAlgError):
    """The matrix handed to an LDL^T solver is not positive definite."""


def _address(a: np.ndarray) -> int:
    """Address of an array's data, for a LAPACK argument.

    Raises TypeError unless the array is C-contiguous and writable, which
    LAPACK assumes.  About 0.5 us, where ``a.ctypes.data`` costs 2.5 us.
    """
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def _check_diagonals(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                     n_min: int) -> int:
    """n, after checking that the three diagonals are vectors of one length
    n >= n_min: LAPACK reads n entries behind every pointer it is given."""
    n = diag.shape[0]
    if not np.shape(sub) == np.shape(sup) == diag.shape == (n,):
        raise ValueError("sub, diag and sup must be vectors of one length")
    if n < n_min:
        raise ValueError(f"tridiagonal system needs n >= {n_min}")
    return n


class TridiagonalSolver:
    """LU factorization of a plain tridiagonal matrix, reusable across solves.

    Row i reads sub[i]*x[i-1] + diag[i]*x[i] + sup[i]*x[i+1]; sub[0] and
    sup[-1] are ignored.  gttrf factors copies of the diagonals here, once,
    and the gttrs argument list is built around them; a solve adds only the
    address of its copy of b.  Both calls release the GIL.  A solver serves
    one thread at a time.
    """

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray):
        n = _check_diagonals(sub, diag, sup, 2)
        fac = (np.array(sub[1:], dtype=np.float64),
               np.array(diag, dtype=np.float64),
               np.array(sup[:-1], dtype=np.float64),
               np.empty(max(n - 2, 1)),          # du2
               np.empty(n, dtype=np.intc))       # ipiv
        self._fac = fac  # keeps the buffers behind the addresses alive
        self._trans = ctypes.c_char(b"N")
        self._n, self._nrhs, self._info = (ctypes.c_int(n), ctypes.c_int(1),
                                           ctypes.c_int(0))
        addr = ctypes.addressof
        fac_ptrs = [_address(a) for a in fac]
        _dgttrf(addr(self._n), *fac_ptrs, addr(self._info))
        if self._info.value != 0:
            raise np.linalg.LinAlgError(f"gttrf failed (info={self._info.value})")
        self._head = (addr(self._trans), addr(self._n), addr(self._nrhs),
                      *fac_ptrs)
        self._tail = (addr(self._n), addr(self._info))  # ldb = n, info

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.array(b, dtype=np.float64)
        if x.shape != (self._n.value,):
            raise ValueError("b must be a vector of the matrix's size")
        _dgttrs(*self._head, _address(x), *self._tail)
        if self._info.value != 0:
            raise np.linalg.LinAlgError(f"gttrs failed (info={self._info.value})")
        return x


class SPDTridiagonalSolver:
    """LDL^T factorization of a symmetric positive definite tridiagonal matrix.

    diag holds the n diagonal entries and off the n - 1 entries beside it.
    The factor of a leading principal block is the leading part of the
    full factor, so solve(b) with len(b) = J <= n solves the leading J x J
    block exactly, reading only the first J factor entries.  The solve is
    in place, so a caller stepping in time allocates nothing per step.
    pttrf factors copies of the diagonals here, once; a matrix that is not
    positive definite raises NotPositiveDefinite.  Both calls release the
    GIL.  A solver serves one thread at a time.
    """

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        n = diag.shape[0]
        if n < 2:
            raise ValueError("tridiagonal system needs n >= 2")
        if diag.shape != (n,) or np.shape(off) != (n - 1,):
            raise ValueError("diag must be a vector and off one entry shorter")
        self._fac = (np.array(diag, dtype=np.float64),
                     np.array(off, dtype=np.float64))
        self._size = n
        # n (the block's size on a solve, and ldb), nrhs, info
        self._n, self._nrhs, self._info = (ctypes.c_int(n), ctypes.c_int(1),
                                           ctypes.c_int(0))
        addr = ctypes.addressof
        d_ptr, e_ptr = (_address(a) for a in self._fac)
        _dpttrf(addr(self._n), d_ptr, e_ptr, addr(self._info))
        info = self._info.value
        if info > 0:
            raise NotPositiveDefinite(
                f"pttrf failed (info={info}): matrix not positive definite")
        if info != 0:
            raise np.linalg.LinAlgError(f"pttrf failed (info={info})")
        self._head = (addr(self._n), addr(self._nrhs), d_ptr, e_ptr)
        self._tail = (addr(self._n), addr(self._info))

    def solve(self, b: np.ndarray) -> None:
        """Overwrite b with the solution of the leading len(b) block.

        b must be a contiguous float64 vector: pttrs solves in its storage.
        """
        if (b.dtype != np.float64 or b.ndim != 1
                or not b.flags.c_contiguous):
            raise ValueError("b must be a contiguous float64 vector")
        j = b.shape[0]
        if not 1 <= j <= self._size:
            raise ValueError("b must hold 1 to n entries")
        self._n.value = j
        _dpttrs(*self._head, _address(b), *self._tail)
        if self._info.value != 0:
            raise np.linalg.LinAlgError(f"pttrs failed (info={self._info.value})")


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
    """Solves (sigma I - A) x = b for any cyclic tridiagonal n x n A and sigma.

    For a caller whose shift moves between solves (the Perron bisection):
    each solve factors and solves in one LAPACK dgtsv call on the two
    right-hand sides [b, w] of the corner split, where a CyclicTridiagonalSolver built
    for the same shift would spend a gttrf and two gttrs.  dgtsv runs
    gttrf's elimination and gttrs's substitution, so the result is the same
    to the last bit.  Each solve takes A's diagonals, as in
    CyclicTridiagonalSolver.  The LAPACK buffers and the dgtsv argument
    list are built here, once; every solve overwrites the buffers in place
    and calls dgtsv with the GIL released.  A solver serves one thread at a
    time.
    """

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("cyclic tridiagonal system needs n >= 3")
        self._dl = np.empty(n - 1)
        self._d = np.empty(n)
        self._du = np.empty(n - 1)
        # the right-hand sides [b, w] as rows: LAPACK's n x 2 column-major b
        self._rhs = np.empty((2, n))
        self._n, self._nrhs, self._info = (ctypes.c_int(n), ctypes.c_int(2),
                                           ctypes.c_int(0))
        addr = ctypes.addressof
        # ldb = n
        self._args = (addr(self._n), addr(self._nrhs), _address(self._dl),
                      _address(self._d), _address(self._du),
                      _address(self._rhs), addr(self._n), addr(self._info))

    def solve(self, sigma: float, sub: np.ndarray, diag: np.ndarray,
              sup: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the solution into out (which may be b) and return it;
        diagonals of another length than n raise ValueError."""
        d, rhs = self._d, self._rhs
        if _check_diagonals(sub, diag, sup, 3) != d.shape[0]:
            raise ValueError("diagonals of another size than the solver's")
        np.negative(sub[1:], out=self._dl)
        np.subtract(sigma, diag, out=d)
        np.negative(sup[:-1], out=self._du)
        zn = _split_corners(-sub[0], -sup[-1], d, rhs[1])
        rhs[0] = b
        _dgtsv(*self._args)
        if self._info.value != 0:
            raise np.linalg.LinAlgError(f"gtsv failed (info={self._info.value})")
        q = rhs[1]
        return _corrected(rhs[0], q, zn, _denominator(q, zn), out)


class ShiftedSPDCyclicSolver:
    """LDL^T solves of (sigma I - A) x = b for symmetric cyclic tridiagonal
    n x n matrices A, any sigma, each factorization certifying sigma I - A
    positive definite.

    A's diagonal diag holds n entries and off[i] couples nodes i and i + 1
    mod n, so off[n-1] is the corner entry.  The corner split of
    M = sigma I - A, M = T + w z^T, has z = w / gamma with
    gamma = -M[0, 0] < 0, so T = M + w w^T / |gamma| is positive definite
    whenever M is, and is factored by pttrf.  By Sherman-Morrison M is then
    positive definite exactly when 1 + z.T^{-1} w > 0.  Either test failing,
    or M[0, 0] <= 0, raises NotPositiveDefinite: sigma I - A is positive
    definite, that is sigma lies above A's top eigenvalue, exactly when
    factor(sigma, diag, off) returns.

    factor makes one pttrf and one pttrs (for T^{-1} w), and each
    solve_factored(b) after it one pttrs, in place: the symmetric Perron
    bisection factors at every shift and solves once, and a drift-descent
    Newton step factors twice (certifying its eigenvalue, then the Newton
    system's matrix) and solves four times.  The LAPACK buffers and
    argument lists are built here, once, and every call releases the GIL.
    A solver serves one thread at a time.
    """

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("cyclic tridiagonal system needs n >= 3")
        self._d = np.empty(n)
        self._e = np.empty(n - 1)
        self._q = np.empty(n)  # w, then q = T^{-1} w once factored
        self._scratch = np.empty(n)  # of the correction step
        self._n, self._one, self._info = (ctypes.c_int(n), ctypes.c_int(1),
                                          ctypes.c_int(0))
        self._zn = self._denom = 0.0
        addr = ctypes.addressof
        d_ptr, e_ptr = _address(self._d), _address(self._e)
        self._factor_args = (addr(self._n), d_ptr, e_ptr, addr(self._info))
        self._solve_head = (addr(self._n), addr(self._one), d_ptr, e_ptr)
        self._solve_tail = (addr(self._n), addr(self._info))  # ldb = n, info

    def _pttrs(self, b: np.ndarray) -> None:
        _dpttrs(*self._solve_head, _address(b), *self._solve_tail)
        if self._info.value != 0:
            raise np.linalg.LinAlgError(f"pttrs failed (info={self._info.value})")

    def factor(self, sigma: float, diag: np.ndarray, off: np.ndarray) -> None:
        """Factor sigma I - A for solve_factored; NotPositiveDefinite unless
        sigma lies above A's top eigenvalue.  Diagonals of another length
        than n raise ValueError."""
        d = self._d
        if not diag.shape == np.shape(off) == d.shape:
            raise ValueError("diag and off must have the solver's size")
        np.subtract(sigma, diag, out=d)
        np.negative(off[:-1], out=self._e)
        if not d[0] > 0.0:
            raise NotPositiveDefinite("cyclic matrix has diag[0] <= 0")
        corner = -off[-1]
        self._zn = _split_corners(corner, corner, d, self._q)
        _dpttrf(*self._factor_args)
        info = self._info.value
        if info > 0:
            raise NotPositiveDefinite(
                f"pttrf failed (info={info}): matrix not positive definite")
        if info != 0:
            raise np.linalg.LinAlgError(f"pttrf failed (info={info})")
        q = self._q
        self._pttrs(q)
        denom = 1.0 + q[0] + self._zn * q[-1]
        if not denom > 0.0:
            raise NotPositiveDefinite(
                f"cyclic correction denominator {denom:.3e} <= 0: "
                "matrix not positive definite")
        self._denom = denom

    def solve_factored(self, b: np.ndarray) -> None:
        """Overwrite b with (sigma I - A)^{-1} b at the last factored sigma.

        b must be a contiguous float64 vector of length n: pttrs solves in
        its storage.
        """
        if b.dtype != np.float64 or b.shape != self._d.shape:
            raise ValueError("b must be a float64 vector of the matrix's size")
        self._pttrs(b)
        zy = b[0] + self._zn * b[-1]
        np.multiply(self._q, zy / self._denom, out=self._scratch)
        np.subtract(b, self._scratch, out=b)
