"""The LAPACK kernels behind the tridiagonal solvers, called through ctypes."""

import ctypes
import threading
import time

import numpy as np
import pytest
from scipy.linalg import lapack

from kpplab import tridiag
from kpplab.tridiag import (CyclicTridiagonalSolver, NotPositiveDefinite,
                            ShiftedCyclicSolver, ShiftedSPDCyclicSolver,
                            TridiagonalSolver)


def _system(n, seed):
    """Random diagonally dominant tridiagonal diagonals (dl, d, du)."""
    rng = np.random.default_rng(seed)
    dl = rng.random(n - 1) - 0.5
    du = rng.random(n - 1) - 0.5
    d = 2.0 + rng.random(n)
    return dl, d, du


def _call(fn, *args):
    """Call a bound routine on arrays and C ints, passing their addresses."""
    fn(*[a.ctypes.data if isinstance(a, np.ndarray) else ctypes.addressof(a)
         for a in args])


@pytest.mark.parametrize("n", [3, 4, 1000])
def test_bound_routines_match_scipy_wrappers_bitwise(n):
    dl, d, du = _system(n, n)
    b = np.asfortranarray(np.random.default_rng(n + 1).random((n, 2)))
    n_c, nrhs, info = ctypes.c_int(n), ctypes.c_int(2), ctypes.c_int(0)

    # gtsv: factor and solve in one call, everything in place
    got = [a.copy() for a in (dl, d, du)] + [b.copy(order="F")]
    _call(tridiag._dgtsv, n_c, nrhs, *got, n_c, info)
    ref = lapack.dgtsv(dl, d, du, b)
    assert info.value == ref[-1] == 0
    for g, r in zip(got, ref[:-1]):
        assert np.array_equal(g, r)

    # gttrf, then gttrs on both right-hand sides
    fac = [a.copy() for a in (dl, d, du)] + [np.empty(max(n - 2, 1)),
                                            np.empty(n, dtype=np.intc)]
    _call(tridiag._dgttrf, n_c, *fac, info)
    ref_fac = lapack.dgttrf(dl, d, du)
    assert info.value == ref_fac[-1] == 0
    for g, r in zip(fac[:3] + [fac[3][:n - 2]], ref_fac[:4]):
        assert np.array_equal(g, r)
    assert np.array_equal(fac[4], ref_fac[4])
    x = b.copy(order="F")
    _call(tridiag._dgttrs, ctypes.c_char(b"N"), n_c, nrhs, *fac, x, n_c, info)
    x_ref, info_ref = lapack.dgttrs(*ref_fac[:5], b)
    assert info.value == info_ref == 0
    assert np.array_equal(x, x_ref)

    # and through the solver, for one right-hand side
    solver = TridiagonalSolver(np.r_[0.0, dl], d, np.r_[du, 0.0])
    assert np.array_equal(solver.solve(b[:, 0]), x_ref[:, 0])


def test_zero_pivot_raises_linalg_error():
    with pytest.raises(np.linalg.LinAlgError, match="gttrf"):
        TridiagonalSolver(np.zeros(3), np.zeros(3), np.zeros(3))
    # corner-free A with sigma - A = diag(1, 0, 1): T = diag(2, 0, 1) after
    # the corner split, so gtsv meets a zero pivot in row 2
    solver = ShiftedCyclicSolver(np.zeros(3), np.array([0.0, 1.0, 0.0]),
                                 np.zeros(3))
    with pytest.raises(np.linalg.LinAlgError, match="gtsv"):
        solver.solve(1.0, np.ones(3), np.empty(3))


@pytest.mark.parametrize("cls", [TridiagonalSolver, ShiftedCyclicSolver])
def test_diagonals_of_unequal_length_are_rejected(cls):
    # LAPACK would read past the end of the shorter one
    with pytest.raises(ValueError, match="one length"):
        cls(np.ones(4), np.ones(5), np.ones(5))


def test_right_hand_side_of_wrong_size_is_rejected():
    solver = TridiagonalSolver(np.ones(5), 4.0 * np.ones(5), np.ones(5))
    with pytest.raises(ValueError, match="size"):
        solver.solve(np.ones(4))


def test_bindings_are_foreign_calls_that_drop_the_gil():
    # a CFUNCTYPE call releases the GIL for the call's duration; a
    # PYFUNCTYPE one (flag FUNCFLAG_PYTHONAPI) keeps it
    assert ctypes.PYFUNCTYPE(None)._flags_ & ctypes._FUNCFLAG_PYTHONAPI
    for f in (tridiag._dgtsv, tridiag._dgttrf, tridiag._dgttrs,
              tridiag._dpttrf, tridiag._dpttrs):
        assert not type(f)._flags_ & ctypes._FUNCFLAG_PYTHONAPI


def _stall_ratio(fn, attempts=3):
    """Longest gap between the main thread's clock reads while fn runs in a
    worker thread, over fn's own time alone; the best of a few attempts.

    The worker waits until the main thread is reading the clock before it
    calls fn, so a GIL held from fn's first statement on counts as a stall
    (started at once, the worker would take the GIL while the main thread
    still sat in Thread.start, before its first read).
    """
    fn()  # fault the buffers in
    ratios = []
    for _ in range(attempts):
        t0 = time.perf_counter()
        fn()
        alone = time.perf_counter() - t0
        go = threading.Event()

        def run():
            go.wait()
            fn()

        worker = threading.Thread(target=run)
        stall = 0.0
        worker.start()
        last = time.perf_counter()
        go.set()
        while worker.is_alive():
            now = time.perf_counter()
            stall = max(stall, now - last)
            last = now
        worker.join(timeout=60.0)
        assert not worker.is_alive()
        ratios.append(stall / alone)
    return min(ratios)


def _big_cyclic(n=2 ** 22):
    # a GIL test times a long call, so that a scheduler slice the main thread
    # loses to another process is a small share of it
    rng = np.random.default_rng(7)
    sub = 1.0 + rng.random(n)
    sup = 1.0 + rng.random(n)
    diag = -(sub + sup) + rng.random(n)
    return sub, diag, sup, float(np.max(sub + diag + sup)) + 0.5


def test_shifted_solve_releases_the_gil():
    sub, diag, sup, sigma = _big_cyclic()
    solver = ShiftedCyclicSolver(sub, diag, sup)
    b, out = np.ones(diag.shape[0]), np.empty(diag.shape[0])
    assert _stall_ratio(lambda: solver.solve(sigma, b, out)) < 0.15


def test_cyclic_factorization_releases_the_gil():
    sub, diag, sup, sigma = _big_cyclic()
    assert _stall_ratio(
        lambda: CyclicTridiagonalSolver(-sub, sigma - diag, -sup)) < 0.15


def _spd_cyclic(n, seed):
    """Diagonals (diag, off) of a strictly diagonally dominant symmetric
    cyclic tridiagonal matrix; off[i] couples nodes i and i + 1 mod n."""
    rng = np.random.default_rng(seed)
    off = -(1.0 + rng.random(n))
    diag = np.abs(off) + np.abs(np.roll(off, 1)) + 0.5 + rng.random(n)
    return diag, off


def _factored(diag, off):
    """The solver of the matrix with diagonals (diag, off), as 0 I - A."""
    solver = ShiftedSPDCyclicSolver(-diag, -off)
    solver.factor(0.0)
    return solver


def _dense_cyclic(diag, off):
    n = diag.shape[0]
    idx = np.arange(n)
    dense = np.diag(diag)
    dense[idx, (idx + 1) % n] += off
    dense[(idx + 1) % n, idx] += off
    return dense


@pytest.mark.parametrize("n", [3, 4, 1000])
def test_spd_cyclic_solve_matches_dense(n):
    diag, off = _spd_cyclic(n, n)
    b = np.random.default_rng(n + 1).standard_normal(n)
    x = b.copy()
    _factored(diag, off).solve_factored(x)  # in place
    ref = np.linalg.solve(_dense_cyclic(diag, off), b)
    assert np.allclose(x, ref, rtol=1e-12, atol=1e-13 * np.max(np.abs(ref)))
    # a shifted solver factors afresh on every factor call, in the same
    # buffers
    sigma = 0.5
    a_diag, a_off = sigma - diag, -off  # sigma I - A is the matrix above
    solver = ShiftedSPDCyclicSolver(a_diag, a_off)
    for _ in range(2):
        solver.factor(sigma)
        x = b.copy()
        solver.solve_factored(x)
        assert np.allclose(x, ref, rtol=1e-12,
                           atol=1e-13 * np.max(np.abs(ref)))
    # and keeps its factorization for further solves
    x = b.copy()
    solver.solve_factored(x)
    assert np.allclose(x, ref, rtol=1e-12, atol=1e-13 * np.max(np.abs(ref)))


def test_spd_cyclic_solve_matches_pivoted_lu():
    # a symmetric Perron operator, p = 0, shifts near and far above its top
    # eigenvalue: the LDL^T and the dgtsv solves agree to rounding
    rng = np.random.default_rng(11)
    n = 1000
    off = 1.0 + rng.random(n)
    diag = -(off + np.roll(off, 1)) + rng.random(n)
    sub, sup = np.roll(off, 1), off
    ref_solver = ShiftedCyclicSolver(sub, diag, sup)
    solver = ShiftedSPDCyclicSolver(diag, off)
    lam_max = float(np.max(np.linalg.eigvalsh(_dense_cyclic(diag, off))))
    b = rng.random(n) + 0.1
    for sigma in (lam_max + 1e-2, lam_max + 0.5):
        ref = ref_solver.solve(sigma, b, np.empty(n))
        solver.factor(sigma)
        got = b.copy()
        solver.solve_factored(got)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _laplacian_shift(n, sigma):
    """Factor sigma I - A for the cyclic A = tridiag(1, -2, 1), whose top
    eigenvalue is 0 and whose next two are -2 + 2 cos(2 pi / n)."""
    ShiftedSPDCyclicSolver(np.full(n, -2.0), np.full(n, 1.0)).factor(sigma)


def test_spd_cyclic_rejects_a_shift_below_the_top_eigenvalue():
    # three eigenvalues of sigma I - A are negative, so the rank-one update
    # T = M + w w^T/|gamma| keeps two of them and pttrf fails
    with pytest.raises(NotPositiveDefinite, match="pttrf"):
        _laplacian_shift(1000, -1e-4)
    # one negative eigenvalue: T is positive definite and only the
    # Sherman-Morrison denominator (here -0.009) gives M away
    with pytest.raises(NotPositiveDefinite, match="denominator"):
        _laplacian_shift(4, -0.01)
    with pytest.raises(NotPositiveDefinite, match="diag"):
        _laplacian_shift(4, -2.0)
    # just above the top eigenvalue the factorization exists
    _laplacian_shift(4, 1e-8)
    assert issubclass(NotPositiveDefinite, np.linalg.LinAlgError)
    # a solver whose factorization failed factors again at another shift
    solver = ShiftedSPDCyclicSolver(np.full(1000, -2.0), np.full(1000, 1.0))
    with pytest.raises(NotPositiveDefinite):
        solver.factor(-1e-4)
    solver.factor(1e-8)
    solver.solve_factored(np.ones(1000))


def test_spd_cyclic_factorization_and_solve_release_the_gil():
    diag, off = _spd_cyclic(2 ** 22, 7)
    assert _stall_ratio(lambda: _factored(diag, off)) < 0.15
    solver = _factored(diag, off)
    b = np.ones(diag.shape[0])
    assert _stall_ratio(lambda: solver.solve_factored(b)) < 0.15

    def factor_and_solve():
        solver.factor(0.0)
        solver.solve_factored(b)

    assert _stall_ratio(factor_and_solve) < 0.15
