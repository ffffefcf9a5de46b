import ctypes
import gc
import math
import signal
import tracemalloc

import numpy as np
import pytest

from kpplab import medium as med
from kpplab import operators as ops
from kpplab import tridiag
from kpplab import variational as var
from kpplab.optimize import BracketFailure, minimize_log
from kpplab.tridiag import CyclicTridiagonalSolver, ShiftedCyclicSolver

from conftest import MASTER, constant_medium, dimer_medium, dimer_spec, trig_spec


def test_laplacian_stencil():
    m = constant_medium(a0=1.0, c0=1.0, X=10.0, h=0.01)
    op = ops.assemble_tilted(med.replace_c(m, np.zeros(m.N), "czero"), 0.0)
    assert np.all(op.sub == 1.0 / m.h**2)
    assert np.all(op.sup == 1.0 / m.h**2)
    assert np.all(op.diag == -2.0 / m.h**2)


def test_tilted_stencil_constant_coefficients():
    m = constant_medium(a0=1.0, c0=1.0, X=10.0, h=0.01)
    op = ops.assemble_tilted(m, 0.5)
    assert np.allclose(op.sub, 1.0 / 1e-4 + 0.5 / 0.01)
    assert np.allclose(op.sup, 1.0 / 1e-4 - 0.5 / 0.01)
    assert np.allclose(op.diag, -2.0 / 1e-4 + 1.25)


def test_row_sums_vanish_exactly_without_reaction():
    m = dimer_medium(X=20.0, h=0.01, a_plus=2.0, a_minus=1.0, eps=0.1)
    op = ops.assemble_tilted(med.replace_c(m, np.zeros(m.N), "czero"), 0.0)
    assert np.all(op.sub + op.sup + op.diag == 0.0)


def test_constant_operator_on_ones():
    m = constant_medium(a0=2.0, c0=0.7, X=10.0, h=0.02)
    for p in (0.0, 0.5, 1.5):
        op = ops.assemble_tilted(m, p)
        out = ops._matvec_into(op, np.ones(m.N), np.empty(m.N), np.empty(m.N))
        assert np.allclose(out, p * p * 2.0 + 0.7, rtol=0, atol=1e-11)


def test_positivity_violation():
    m = constant_medium(X=10.0, h=0.05)
    with pytest.raises(ops.PositivityViolation):
        ops.assemble_tilted(m, 25.0)  # h*p > 1


@pytest.mark.parametrize("a0,c0", [(1.0, 1.0), (4.0, 1.0), (1.0, 4.0)])
@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0])
def test_kp_closed_form_constants(a0, c0, p):
    m = constant_medium(a0=a0, c0=c0, X=50.0, h=0.02)
    res = ops.k_p(m, p, tol=1e-10)
    assert abs(res.lam - (c0 + a0 * p * p)) <= 1e-6
    assert res.residual <= 1e-8
    assert np.min(res.phi) > 0


def test_kp_matches_fine_grid_reference():
    # 2-periodic smoothed c in {0.5, 1.5}: coarse eigenvalue against an h/8
    # reference, 4 significant digits
    spec = dimer_spec(len1=1.0, len2=1.0, eps=0.4)
    coarse = med.sample_realization(spec, MASTER, 0, 8.0, 0.04)
    fine = med.sample_realization(spec, MASTER, 0, 8.0, 0.005)
    lam_c = ops.k_p(coarse, 0.0, tol=1e-11).lam
    lam_f = ops.k_p(fine, 0.0, tol=1e-11).lam
    assert abs(lam_c - lam_f) / abs(lam_f) < 5e-4


def test_rayleigh_quotients_bounded_by_lambda(rng):
    m = dimer_medium(X=50.0, h=0.02)
    op = ops.assemble_tilted(m, 0.0)
    res = ops.principal_eigen(op, tol=1e-10)

    av, tmp = np.empty(m.N), np.empty(m.N)

    def rayleigh_quotient(v):
        return float(np.dot(v, ops._matvec_into(op, v, av, tmp)) / np.dot(v, v))

    quotients = [rayleigh_quotient(rng.standard_normal(m.N)) for _ in range(200)]
    assert max(quotients) <= res.lam + 1e-10


def _dense(op):
    dense = np.diag(op.diag)
    idx = np.arange(op.N)
    dense[idx, (idx - 1) % op.N] += op.sub
    dense[idx, (idx + 1) % op.N] += op.sup
    return dense


@pytest.mark.parametrize("N", [10, 100])
@pytest.mark.parametrize("p", [0.0, 1.0])
def test_small_window_matches_dense_eigvals(N, p):
    h = 0.05
    m = dimer_medium(X=N * h, h=h, jitter=0.3)
    op = ops.assemble_tilted(m, p)
    res = ops.principal_eigen(op, tol=1e-12)
    ref = float(np.max(np.linalg.eigvals(_dense(op)).real))
    assert res.phi.shape == (N,)
    assert abs(res.lam - ref) <= 1e-9
    assert np.min(res.phi) > 0


def _shifted_systems():
    m = dimer_medium(X=40.0, h=0.02, jitter=0.3)
    for p in (0.0, 1.0):
        op = ops.assemble_tilted(m, p)
        rowsum = op.sub + op.diag + op.sup
        for gap in (1e-3, 0.5):  # near and far above every row sum
            yield op.sub, op.diag, op.sup, float(np.max(rowsum)) + gap
    rng = np.random.default_rng(3)
    yield rng.random(3) + 0.5, rng.random(3), rng.random(3) + 0.5, 4.0


@pytest.mark.parametrize("sub,diag,sup,sigma", list(_shifted_systems()),
                         ids=["p0_near", "p0_far", "p1_near", "p1_far", "n3"])
def test_shifted_solve_matches_factored_solver_bitwise(sub, diag, sup, sigma):
    b = np.random.default_rng(5).random(diag.shape[0]) + 0.1
    ref = CyclicTridiagonalSolver(-sub, sigma - diag, -sup).solve(b)
    solver = ShiftedCyclicSolver(diag.shape[0])
    out = np.empty_like(b)
    for _ in range(2):  # the buffers are overwritten in place on every solve
        assert np.array_equal(solver.solve(sigma, sub, diag, sup, b, out), ref)
    assert solver.solve(sigma, sub, diag, sup, b.copy(), out=b) is b
    assert np.array_equal(b, ref)


def _count_lapack(monkeypatch):
    """Calls of each bound tridiagonal LAPACK routine, counted from now on."""
    calls = {"dgtsv": 0, "dgttrf": 0, "dpttrf": 0, "dpttrs": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(tridiag, "_" + name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(tridiag, "_" + name, counted)
    return calls


def test_sweep_makes_one_gtsv_call_and_no_gttrf(monkeypatch):
    calls = _count_lapack(monkeypatch)
    m = dimer_medium(X=100.0, h=0.02, jitter=0.3)
    res = ops.principal_eigen(ops.assemble_tilted(m, 1.0), tol=1e-10)
    assert calls == {"dgtsv": res.iters, "dgttrf": 0, "dpttrf": 0,
                     "dpttrs": 0}


def test_symmetric_sweep_makes_one_pttrf_call_and_no_gtsv(monkeypatch):
    # p = 0: sub[i+1] == sup[i] bit for bit, so each sweep factors LDL^T
    calls = _count_lapack(monkeypatch)
    m = dimer_medium(X=100.0, h=0.02, jitter=0.3)
    op = ops.assemble_tilted(m, 0.0)
    assert np.array_equal(op.sub[1:], op.sup[:-1]) and op.sub[0] == op.sup[-1]
    res = ops.principal_eigen(op, tol=1e-10)
    assert calls["dgtsv"] == calls["dgttrf"] == 0
    # each factorization that pttrf completes makes one pttrs for T^{-1} w,
    # and each passed test one more for its solve; a failed test stops at
    # the first check it fails
    passed = res.iters - res.failed_tests
    assert calls["dpttrf"] <= res.iters
    assert 2 * passed <= calls["dpttrs"] <= calls["dpttrf"] + passed


def test_ceiling_stops_a_symmetric_solve_with_a_certified_bound():
    m = dimer_medium(X=100.0, h=0.02, jitter=0.3)
    op = ops.assemble_tilted(med.replace_c(m, m.c + 0.5 * m.a, "shift"),
                             0.0)
    cold = ops.principal_eigen(op, tol=1e-12)
    for ceiling in (cold.lam - 1e-2, cold.lam - 1e-6):
        with pytest.raises(ops.AboveCeiling) as stop:
            ops.principal_eigen(op, tol=1e-12, ceiling=ceiling)
        assert ceiling < stop.value.bound <= cold.lam + 1e-12
    # a ceiling above the top eigenvalue changes nothing
    res = ops.principal_eigen(op, tol=1e-12, ceiling=cold.lam + 1e-6)
    assert (res.lam, res.iters) == (cold.lam, cold.iters)


@pytest.mark.parametrize("p", [0.5, -0.5])
def test_ceiling_stops_a_tilted_solve_with_a_certified_bound(p):
    # at p != 0 the bracket's lower end comes from failed shifts and
    # Collatz-Wielandt minima, both certified lower bounds on k_p
    m = dimer_medium(X=100.0, h=0.02, jitter=0.3)
    op = ops.assemble_tilted(m, p)
    cold = ops.principal_eigen(op, tol=1e-12)
    for ceiling in (cold.lam - 1e-2, cold.lam - 1e-6):
        with pytest.raises(ops.AboveCeiling) as stop:
            ops.principal_eigen(op, tol=1e-12, ceiling=ceiling)
        assert ceiling < stop.value.bound <= cold.lam + 1e-12
        assert 0 <= stop.value.failed_tests <= stop.value.iters < cold.iters
    res = ops.principal_eigen(op, tol=1e-12, ceiling=cold.lam + 1e-6)
    assert (res.lam, res.iters) == (cold.lam, cold.iters)


@pytest.mark.parametrize("p", [0.0, 0.5])
def test_a_solve_stopped_before_its_first_test_builds_no_solver(
        monkeypatch, p):
    built = []

    def counted(cls):
        class Counted(cls):
            def __init__(self, *args):
                built.append(cls.__name__)
                super().__init__(*args)
        return Counted

    for cls in (ShiftedCyclicSolver, tridiag.ShiftedSPDCyclicSolver):
        monkeypatch.setattr(ops, cls.__name__, counted(cls))
    m = dimer_medium(X=100.0, h=0.02, jitter=0.3)
    op = ops.assemble_tilted(m, p)
    # the start bracket's lower end is the smallest row sum
    start_lo = float(np.min(op.sub + op.diag + op.sup))
    with pytest.raises(ops.AboveCeiling) as stop:
        ops.principal_eigen(op, tol=1e-10, ceiling=start_lo - 1.0)
    assert stop.value.iters == 0 and built == []
    ops.principal_eigen(op, tol=1e-10)
    assert len(built) == 1


def test_failed_ldlt_factorization_is_no_convergence(monkeypatch):
    def refusing(n, d, e, info):
        tridiag_pttrf(n, d, e, info)
        ctypes.c_int.from_address(info).value = 1  # as if a pivot were <= 0

    tridiag_pttrf = tridiag._dpttrf
    monkeypatch.setattr(tridiag, "_dpttrf", refusing)
    m = dimer_medium(X=20.0, h=0.02, jitter=0.3)
    with pytest.raises(ops.NoConvergence) as failure:
        ops.k_p(m, 0.0)
    assert isinstance(failure.value.__cause__, tridiag.NotPositiveDefinite)


def test_a_false_failed_test_is_caught_at_once(monkeypatch):
    # a rounding-level sign flip in x would read a passed test as failed and
    # put lo above the root; the Collatz-Wielandt bounds of |x| then lie
    # below the shift, and the solve stops there instead of testing at hi
    # until max_iters
    m = dimer_medium(X=100.0, h=0.02, jitter=0.3)
    op = ops.assemble_tilted(m, 1.0)
    top = ops.principal_eigen(op, tol=1e-10).lam
    solve = ShiftedCyclicSolver.solve
    flipped = []

    def flipping(self, sigma, sub, diag, sup, b, out):
        x = solve(self, sigma, sub, diag, sup, b, out)
        if sigma > top and not flipped:
            flipped.append(sigma)
            x[-1] = -x[-1]
        return x

    monkeypatch.setattr(ShiftedCyclicSolver, "solve", flipping)
    with pytest.raises(ops.NoConvergence) as failure:
        ops.principal_eigen(op, tol=1e-10)
    assert flipped and failure.value.iters < 100


def test_a_failed_test_whose_bounds_lie_below_its_shift_stops_there(
        monkeypatch):
    # for v > 0 and sigma above the root, (A x)_i / x_i = sigma - v_i / x_i
    # < sigma, so a negated x, read as a failed test, has its
    # Collatz-Wielandt upper bound below the shift: the solve raises at
    # that very test
    m = dimer_medium(X=100.0, h=0.02, jitter=0.3)
    op = ops.assemble_tilted(m, -0.5)
    cold = ops.principal_eigen(op, tol=1e-10)
    solve = ShiftedCyclicSolver.solve
    shifts = []

    def negating(self, sigma, sub, diag, sup, b, out):
        x = solve(self, sigma, sub, diag, sup, b, out)
        shifts.append(sigma)
        if sigma > cold.lam:
            np.negative(x, out=x)
        return x

    monkeypatch.setattr(ShiftedCyclicSolver, "solve", negating)
    with pytest.raises(ops.NoConvergence) as failure:
        ops.principal_eigen(op, tol=1e-10)
    assert shifts[-1] > cold.lam
    assert all(sigma <= cold.lam for sigma in shifts[:-1])
    assert failure.value.iters == len(shifts)


def test_a_failed_test_with_a_non_finite_solution_is_skipped(monkeypatch):
    # a cold test far below the root can overflow dgtsv to inf or NaN; its
    # x is then no start for bounds, and the solve goes on from v
    h = 0.05
    m = dimer_medium(X=120 * h, h=h, jitter=0.3)
    op = ops.assemble_tilted(m, 1.0)
    top = float(np.max(np.linalg.eigvals(_dense(op)).real))
    solve = ShiftedCyclicSolver.solve
    poisoned = []
    finite_rhs = []

    def poisoning(self, sigma, sub, diag, sup, b, out):
        finite_rhs.append(np.all(np.isfinite(b)))
        x = solve(self, sigma, sub, diag, sup, b, out)
        if np.min(x) <= 0.0:
            poisoned.append(sigma)
            x[len(x) // 2] = np.nan
            x[0] = np.inf
        return x

    monkeypatch.setattr(ShiftedCyclicSolver, "solve", poisoning)
    res = ops.principal_eigen(op, tol=1e-10)
    assert poisoned and res.failed_tests == len(poisoned)
    assert all(finite_rhs) and np.all(np.isfinite(res.phi))
    assert abs(res.lam - top) <= 1e-10
    monkeypatch.undo()
    with pytest.raises(ValueError, match="finite"):
        ops.principal_eigen(op, v0=np.full(m.N, np.nan))


@pytest.mark.parametrize("N", [100, 400])
def test_width_certified_stop_matches_dense_eigvals(N):
    # the solve stops once its bracket on the root is narrower than tol, so
    # the bracket's width bounds the eigenvalue error
    h, tol = 0.05, 1e-8
    m = dimer_medium(X=N * h, h=h, jitter=0.3)
    op = ops.assemble_tilted(m, 1.0)
    res = ops.principal_eigen(op, tol=tol)
    ref = float(np.max(np.linalg.eigvals(_dense(op)).real))
    assert res.cw_width < tol
    assert abs(res.lam - ref) <= tol


@pytest.mark.parametrize("p", [0.0, 1.0, -1.0])
def test_warm_start_from_the_second_eigenvector_finds_the_top(p):
    # |second eigenvector| is a positive start vector that is close to an
    # eigenpair below the top; the bracket still closes on the top
    h = 0.05
    m = dimer_medium(X=200 * h, h=h, jitter=0.3)
    op = ops.assemble_tilted(m, p)
    if p == 0.0:
        vals, vecs = np.linalg.eigh(_dense(op))
    else:
        vals, vecs = np.linalg.eig(_dense(op))
    order = np.argsort(vals.real)
    top, second = vals[order[-1]].real, vecs[:, order[-2]].real
    res = ops.principal_eigen(op, tol=1e-10, v0=second)
    assert abs(res.lam - top) <= 1e-10
    assert np.min(res.phi) > 0


def test_random_warm_starts_return_the_dense_top_eigenvalue():
    # whatever the positive start vector, even one whose entries span 300
    # decades (those below 1e-200 are floored), the returned eigenvalue is
    # the top one to within the solve's tol_eff
    rng = np.random.default_rng(11)
    h, tol = 0.05, 1e-10
    for stream in range(3):
        m = dimer_medium(X=120 * h, h=h, stream=stream, jitter=0.3)
        for p in (0.0, 0.5, -1.5):
            op = ops.assemble_tilted(m, p)
            top = float(np.max(np.linalg.eigvals(_dense(op)).real))
            tol_eff = max(tol, 128.0 * np.finfo(float).eps
                          * float(np.max(np.abs(op.diag))))
            for v0 in (rng.random(m.N) + 1e-3,
                       np.exp(rng.uniform(-700.0, 0.0, m.N))):
                res = ops.principal_eigen(op, tol=tol, v0=v0)
                assert abs(res.lam - top) <= tol_eff


def test_sweep_reductions_bypass_blas(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("BLAS reduction called from the solver hot path")

    for name in ("dot", "vdot", "inner"):
        monkeypatch.setattr(np, name, forbidden)
    monkeypatch.setattr(np.linalg, "norm", forbidden)

    # a long window whose eigenvalues cluster against the Perron root
    m = dimer_medium(X=1600.0, h=0.05, c_plus=3.0, c_minus=0.2, jitter=0.3)
    ops.principal_eigen(ops.assemble_tilted(m, 0.0), tol=1e-10)

    d = dimer_medium(X=20.0, h=0.02, eps=0.1, jitter=0.3)
    out = var.minimize_theta(d, 1.0, max_iters=2)
    assert out.iters == 2
    grad = var.theta_gradient(d, 1.0, out.theta)
    assert grad.shape == (d.N,)


def test_parity_exact_even_for_varying_a():
    media = [
        dimer_medium(X=100.0, h=0.02, a_plus=2.0, a_minus=1.0, jitter=0.3),
        med.sample_realization(trig_spec(), MASTER, 1, 100.0, 0.02),
    ]
    for m in media:
        for p in (0.5, 1.0, 1.7):
            kp = ops.k_p(m, p, tol=1e-10).lam
            km = ops.k_p(m, -p, tol=1e-10).lam
            assert abs(kp - km) <= 5e-8


def test_kp_convex_and_above_k0():
    m = dimer_medium(X=100.0, h=0.02, jitter=0.3)
    ps = np.linspace(-2.0, 2.0, 9)
    ks = np.array([ops.k_p(m, p, tol=1e-10).lam for p in ps])
    assert np.all(np.diff(ks, 2) >= -1e-7)
    k0 = ops.k_p(m, 0.0, tol=1e-10).lam
    assert np.all(ks >= k0 - 5e-8)


def test_window_mean_lower_bounds():
    m = dimer_medium(X=200.0, h=0.02, a_plus=2.0, a_minus=1.0, jitter=0.3)
    em = med.empirical_means(m)
    slack = 3.0 * float(np.std(m.c)) / np.sqrt(m.X / 2.0)
    k0 = ops.k_p(m, 0.0, tol=1e-10).lam
    assert k0 >= em.mean_c - 1e-10  # exact at the window level
    for p in (0.5, 1.0, 1.5):
        kp = ops.k_p(m, p, tol=1e-10).lam
        assert kp >= em.mean_c + p * p / em.mean_inv_a - slack


def test_eigenfunction_positive_with_stable_harnack_ratio():
    spec = dimer_spec(jitter=0.3)
    ratios = []
    for h in (0.02, 0.01):
        m = med.sample_realization(spec, MASTER, 2, 100.0, h)
        phi = ops.k_p(m, 1.0, tol=1e-10).phi
        assert np.min(phi) > 0
        ratios.append(np.max(phi) / np.min(phi))
    assert abs(np.log(ratios[0] / ratios[1])) < 0.2  # grid-independent


def test_diffusion_scaling_identity():
    m = dimer_medium(X=100.0, h=0.02, a_plus=2.0, a_minus=1.0, jitter=0.3)
    m0 = med.replace_c(m, np.zeros(m.N), "czero")
    c_const = 0.8
    mc = med.replace_c(m, np.full(m.N, c_const), "cconst")
    for kappa in (2.0, 3.0):
        lhs = ops.k_p(med.scale_a(mc, kappa), 1.0, tol=1e-10).lam
        rhs = kappa * ops.k_p(m0, 1.0, tol=1e-10).lam + c_const
        assert abs(lhs - rhs) <= 5e-8


def test_window_rescaling_identity():
    spec = dimer_spec(jitter=0.3)
    m = med.sample_realization(spec, MASTER, 0, 50.0, 0.02)
    for L in (2.0, 4.0):
        mL = med.rescale(m, L)
        fine = med.sample_realization(spec, MASTER, 0, 50.0, 0.02 / L)
        fine2 = med.replace_c(fine, L * L * fine.c, "L2c")
        for p in (0.7, 1.2):
            lhs = ops.k_p(mL, p, tol=1e-10).lam
            rhs = ops.k_p(fine2, p * L, tol=1e-10).lam / (L * L)
            assert abs(lhs - rhs) <= 5e-8


@pytest.mark.parametrize("a0,c0,w,pstar", [(1.0, 1.0, 2.0, 1.0),
                                           (4.0, 1.0, 4.0, 0.5)])
def test_speed_from_kp_constants(a0, c0, w, pstar):
    m = constant_medium(a0=a0, c0=c0, X=50.0, h=0.02)
    est = ops.speed_from_kp(m, 0.2, 5.0, tol=1e-4)
    assert abs(est.value - w) <= 1e-3
    assert abs(est.optimizer - pstar) <= 2e-3 * pstar
    assert est.method == "eigen"


def test_speed_bracket_expands():
    # optimum at p* = 1 sits far outside the initial bracket on both sides
    m = constant_medium(X=50.0, h=0.02)
    est_hi = ops.speed_from_kp(m, 3.0, 5.0, tol=1e-4)
    assert abs(est_hi.value - 2.0) <= 1e-3
    est_lo = ops.speed_from_kp(m, 0.01, 0.02, tol=1e-4)
    assert abs(est_lo.value - 2.0) <= 1e-3


def test_bracket_failure():
    # no interior minimum: increasing, decreasing, or increasing from the floor
    for f, floor in ((lambda x, ceiling: x, 0.0), (lambda x, ceiling: -x, 0.0),
                     (lambda x, ceiling: x, 1.0)):
        with pytest.raises(BracketFailure):
            minimize_log(f, 1.0, 2.0, 1e-4, floor=floor)
    with pytest.raises(ValueError):
        minimize_log(lambda x, ceiling: x, 1.0, 2.0, 1e-4, floor=1.5)


def _within(seconds, fn):
    """fn(), interrupted with TimeoutError once seconds have passed: a
    search that spins would otherwise never return."""
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, math.nan, math.inf])
def test_minimize_log_refuses_a_tolerance_it_cannot_meet(rel_tol):
    # at rel_tol <= 0 or NaN Brent's stopping test never passes, and the
    # search spins for ever; it is refused before any evaluation
    calls = []

    def f(x, ceiling):
        calls.append(x)
        if len(calls) > 1000:
            raise RuntimeError("the search does not stop")
        return x + 1.0 / x

    with pytest.raises(ValueError, match="rel_tol"):
        _within(5.0, lambda: minimize_log(f, 0.3, 3.0, rel_tol))
    assert calls == []


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_eigen_solves_refuse_a_tolerance_that_is_not_finite_and_positive(
        monkeypatch, tol):
    # a NaN tol made the stopping width NaN, so the bracket never closed and
    # the solve spent all MAX_ITERS shifted solves; every entry point refuses
    # such a tol before any solve
    def solve(*args):
        raise AssertionError("a refused tol reached a shifted solve")

    monkeypatch.setattr(ShiftedCyclicSolver, "solve", solve)
    monkeypatch.setattr(tridiag.ShiftedSPDCyclicSolver, "factor", solve)
    m = dimer_medium(X=20.0, h=0.02)
    for call in (lambda: ops.k_p(m, 0.5, tol=tol),
                 lambda: ops.kp_curve(m, [0.0, 0.5], tol=tol),
                 lambda: ops.speed_from_kp(m, 0.3, 3.0, eig_tol=tol)):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            call()


def test_minimize_log_from_bracket():
    calls = []

    def f(x, ceiling):
        calls.append(x)
        return x + 1.0 / x

    x, fx, evals, spread = minimize_log(f, 0.3, 3.0, 1e-4)
    assert abs(x - 1.0) <= 1e-4
    assert fx == evals[x] == min(evals.values())
    assert len(evals) <= 9
    assert len(calls) == len(set(calls)) == len(evals)
    pts = sorted(evals)
    i = pts.index(x)
    assert spread == max(evals[pts[i - 1]], evals[pts[i + 1]]) - fx > 0


def test_minimize_log_contracts_at_floor():
    # the minimum sits 1% above the floor and the bracket starts on it: f at
    # the floor undercuts the first midpoint, so hi must come down
    floor, x_star = 0.5, 0.505
    calls = []

    def f(x, ceiling):
        calls.append(x)
        return x / x_star + x_star / x

    x, fx, evals, _ = minimize_log(f, floor, 4.0, 1e-4, floor=floor)
    assert abs(x - x_star) <= 1e-4 * x_star
    assert fx == min(evals.values())
    assert min(evals) == floor
    assert len(calls) == len(set(calls)) == len(evals)


def _bounding(f, calls):
    """Objective that returns ceiling + 1e-3 whenever f(x) exceeds its
    ceiling, the loosest bound minimize_log's contract allows, and records
    each call as (x, ceiling, value)."""
    def g(x, ceiling):
        fx = f(x)
        value = fx if fx <= ceiling else min(ceiling + 1e-3, fx)
        calls.append((x, ceiling, value))
        return value
    return g


@pytest.mark.parametrize("lo,hi,floor", [(0.3, 3.0, 0.0), (0.01, 0.02, 0.0),
                                         (5.0, 8.0, 0.0), (0.5, 4.0, 0.5)])
def test_minimize_log_returns_an_exact_minimum_under_ceilings(lo, hi, floor):
    x_star = 0.505 if floor else 1.0

    def f(x):
        return x / x_star + x_star / x

    calls = []
    x, fx, evals, spread = minimize_log(_bounding(f, calls), lo, hi, 1e-4,
                                        floor=floor)
    assert abs(x - x_star) <= 1e-4 * x_star
    assert fx == f(x) == evals[x]
    # no bound is ever returned as the minimum: each call's value that
    # undercut its ceiling was exact, and every bound lies above fx
    assert all(v == f(q) for q, c, v in calls if v <= c)
    assert fx == min(evals.values())
    assert 0.0 <= spread <= max(f(q) for q in evals) - fx
    # the search took bounds in place of values
    assert any(v < f(q) for q, _, v in calls)


def test_minimize_log_solves_a_stale_floor_bound_again():
    # t = log x: the minimum sits at t = 0.35, the bracket [1, e^0.4] starts
    # on the floor.  The floor end is bounded under the first midpoint
    # (t = 0.2), hi doubles, and the new midpoint (t = 0.547) lies above
    # that bound; read as a value, the stale bound would contract hi to the
    # midpoint although f(lo) lies above it.  The floor end must be solved
    # again under the new ceiling instead.
    def f(x):
        return (math.log(x) - 0.35) ** 2 + 1.0

    calls = []
    lo, hi = 1.0, math.exp(0.4)
    x, fx, evals, _ = minimize_log(_bounding(f, calls), lo, hi, 1e-4,
                                   floor=lo)
    at_floor = [(c, v) for q, c, v in calls if q == lo]
    mid0, mid1 = math.sqrt(lo * hi), math.sqrt(lo * 2.0 * hi)
    assert [c for c, _ in at_floor] == [f(mid0), f(mid1)]
    stale = at_floor[0][1]
    assert f(mid0) < stale <= f(mid1) < f(lo)
    # the second evaluation clears the new midpoint, so no contraction
    assert at_floor[1][1] > f(mid1)
    assert abs(math.log(x) - 0.35) <= 1e-4
    assert fx == f(x)


def test_speed_search_solve_budget(monkeypatch):
    m = dimer_medium(X=50.0, h=0.02, eps=0.2, jitter=0.3)
    solves = []
    solve = ops.principal_eigen

    def counted(*args, **kwargs):
        try:
            res = solve(*args, **kwargs)
        except ops.AboveCeiling as above:
            solves.append((above.iters, above.failed_tests))
            raise
        solves.append((res.iters, res.failed_tests))
        return res

    monkeypatch.setattr(ops, "principal_eigen", counted)
    est = ops.speed_from_kp(m, 0.3, 3.0, tol=1e-4)
    monkeypatch.undo()
    prov = est.provenance
    exact, bounds = prov["kp_evals"], prov["kp_bounds"]
    assert len(exact) <= 10
    assert len(exact) + len(bounds) <= 12
    assert prov["sweeps"] <= 14
    assert not set(exact) & set(bounds)
    # the search's sweeps: a deterministic count that covers every solve,
    # the stopped ones included
    sweeps = prov["sweeps"]
    assert isinstance(sweeps, int)
    assert prov["stopped"] == len(solves) - len(exact) > 0
    assert sweeps == sum(i for i, _ in solves) >= len(exact)
    assert prov["failed_tests"] == sum(f for _, f in solves)
    assert ops.speed_from_kp(m, 0.3, 3.0, tol=1e-4).provenance == prov
    # kp_evals holds true k_p values, kp_bounds certified lower bounds
    eig_tol = prov["eig_tol"]
    for key, lam in exact.items():
        assert abs(lam - ops.k_p(m, float(key), tol=eig_tol).lam) <= eig_tol
    for key, bound in bounds.items():
        # at or below the cold solve's certified upper end on k_p
        cold = ops.k_p(m, float(key), tol=eig_tol)
        assert bound <= cold.lam + cold.cw_width
    assert est.value == exact[repr(est.optimizer)] / est.optimizer


def test_dimer_speed_strictly_above_homogeneous():
    m = dimer_medium(X=200.0, h=0.01, eps=0.2, jitter=0.3)
    est = ops.speed_from_kp(m, 0.3, 3.0, tol=1e-4)
    assert est.value > 2.0  # strict speedup from c-heterogeneity


def test_speed_search_memory_bounded():
    # a speed search keeps no eigenfunction once it returns: what it still
    # holds is well under two eigenfunction-sized arrays
    m = dimer_medium(X=100.0, h=0.02, jitter=0.3)
    tracemalloc.start()
    try:
        est = ops.speed_from_kp(m)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert est.value > 0
    assert held < 2 * 8 * m.N


def test_stopped_solves_leave_no_reference_cycle():
    # a failed symmetric test raises NotPositiveDefinite, and AboveCeiling
    # carries the stopped solve's traceback; an exception kept in a local of
    # the solve's frame ties that frame, and every buffer in it, into a
    # cycle that only the garbage collector frees
    m = dimer_medium(X=100.0, h=0.02, jitter=0.3)
    v0 = np.random.default_rng(0).random(m.N) + 0.1  # far from the root
    symmetric = med.replace_c(m, m.c + 0.5 * m.a, "shift")
    for op in (ops.assemble_tilted(symmetric, 0.0),
               ops.assemble_tilted(m, 0.5), ops.assemble_tilted(m, -0.5)):
        top = ops.principal_eigen(op, tol=1e-10).lam
        gc.disable()
        tracemalloc.start()
        try:
            stops = 0
            for ceiling in (top - 1e-2, top - 1e-4, top - 1e-6):
                try:
                    ops.principal_eigen(op, tol=1e-10, v0=v0, ceiling=ceiling)
                except ops.AboveCeiling:
                    stops += 1
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert stops == 3
        assert held < 8 * m.N


def test_speed_search_leaves_no_reference_cycle():
    # a whole search, its stopped solves included, frees every solve's
    # buffers by reference counting alone
    m = dimer_medium(X=100.0, h=0.02, jitter=0.3)
    gc.disable()
    tracemalloc.start()
    try:
        est = ops.speed_from_kp(m, 0.3, 3.0, tol=1e-4)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert est.provenance["stopped"] > 0
    assert held < 2 * 8 * m.N


def test_speed_search_builds_one_solver(monkeypatch):
    # every k_p of a search solves in the search's one workspace
    built = []

    class Counted(ShiftedCyclicSolver):
        def __init__(self, *args):
            built.append(len(built))
            super().__init__(*args)

    monkeypatch.setattr(ops, "ShiftedCyclicSolver", Counted)
    m = dimer_medium(X=100.0, h=0.02, jitter=0.3)
    est = ops.speed_from_kp(m, 0.3, 3.0, tol=1e-4)
    assert len(est.provenance["kp_evals"]) > 1 and built == [0]
    ops.kp_curve(m, [0.5, 1.0, 1.5])
    assert built == [0, 1]


def test_workspace_solves_match_fresh_solves(monkeypatch):
    # solves through one workspace, some stopped at a ceiling, leave nothing
    # behind that a later solve reads: each completed solve has the bits of
    # the same solve in fresh buffers
    m = dimer_medium(X=100.0, h=0.02, jitter=0.3)
    ws = ops.Workspace(m.N)
    warm = None
    for p, below in [(0.8, 1e-3), (1.3, None), (-0.6, None), (0.0, 1e-6),
                     (0.0, None), (2.0, 1e-2), (0.5, None), (1.3, None)]:
        fresh = ops.assemble_tilted(m, p)
        if below is not None:
            ceiling = ops.principal_eigen(fresh, tol=1e-10).lam - below
            with pytest.raises(ops.AboveCeiling):
                ops.k_p(m, p, tol=1e-10, v0=warm, ceiling=ceiling, ws=ws)
            continue
        ref = ops.principal_eigen(fresh, tol=1e-10, v0=warm)
        res = ops.k_p(m, p, tol=1e-10, v0=warm, ws=ws)
        assert (res.lam, res.iters, res.failed_tests, res.residual) == (
            ref.lam, ref.iters, ref.failed_tests, ref.residual)
        assert np.array_equal(res.phi, ref.phi)
        # the workspace's diagonals hold the tilt's matrix, bit for bit
        for got, want in zip(ws.diagonals(), (fresh.sub, fresh.diag,
                                              fresh.sup)):
            assert np.array_equal(got, want)
        warm = ref.phi
    # a workspace of another size is refused before any solve, and k_p
    # leaves its diagonals as they were
    kept = [arr.copy() for arr in ws.diagonals()]
    calls = _count_lapack(monkeypatch)
    small = dimer_medium(X=50.0, h=0.02, jitter=0.3)
    for p in (0.0, 0.5):
        with pytest.raises(ValueError, match="size"):
            ops.principal_eigen(ops.assemble_tilted(small, p), ws=ws)
        with pytest.raises(ValueError, match="size"):
            ops.k_p(small, p, ws=ws)
        with pytest.raises(ValueError, match="size"):
            ops.k_p(m, p, ws=ops.Workspace(small.N))
    assert all(n == 0 for n in calls.values())
    assert all(np.array_equal(a, b) for a, b in zip(ws.diagonals(), kept))


def test_one_workspace_serves_two_media_of_one_size():
    # a workspace is tied to a size, not to a medium: k_p on two media of
    # the same N, called alternately through one workspace, gives each
    # solve the bits of a fresh one
    media = [dimer_medium(X=100.0, h=0.02, jitter=0.3, stream=s)
             for s in (0, 1)]
    assert media[0].N == media[1].N
    assert not np.array_equal(media[0].c, media[1].c)
    ws = ops.Workspace(media[0].N)
    warm = [None, None]
    for p in (0.8, 0.0, -0.5, 1.3, 0.0):
        for i, m in enumerate(media):
            ref = ops.k_p(m, p, tol=1e-10, v0=warm[i])
            res = ops.k_p(m, p, tol=1e-10, v0=warm[i], ws=ws)
            assert (res.lam, res.iters, res.failed_tests, res.residual) == (
                ref.lam, ref.iters, ref.failed_tests, ref.residual)
            assert np.array_equal(res.phi, ref.phi)
            warm[i] = ref.phi


def test_returned_phi_is_not_a_shared_buffer():
    m = dimer_medium(X=100.0, h=0.02, jitter=0.3)
    first = ops.k_p(m, 0.5, tol=1e-10)
    kept = first.phi.copy()
    second = ops.k_p(m, 1.0, tol=1e-10, v0=first.phi)
    ops.speed_from_kp(m, 0.3, 3.0, tol=1e-4)
    third = ops.principal_eigen(ops.assemble_tilted(m, 0.7), tol=1e-10)
    assert np.array_equal(first.phi, kept)
    assert not np.shares_memory(first.phi, second.phi)
    assert not np.shares_memory(second.phi, third.phi)
    assert not first.phi.flags.writeable


def test_searches_in_one_workspace_match_fresh_buffers(monkeypatch):
    # a search's warm starts and a curve's cold rows read nothing a later
    # solve in the shared workspace overwrites: without the workspace, each
    # k_p in buffers of its own, every bit is the same
    m = dimer_medium(X=100.0, h=0.02, jitter=0.3)
    ps = [0.0, 1.2, -0.4, 0.0, 0.7]

    def run():
        est = ops.speed_from_kp(m, 0.3, 3.0, tol=1e-4)
        return ((est.value, est.optimizer, est.err, est.provenance),
                ops.kp_curve(m, ps, tol=1e-10).tolist())

    shared = run()
    k_p = ops.k_p

    def fresh(m, p, tol=1e-8, v0=None, ceiling=np.inf, *, ws=None):
        return k_p(m, p, tol=tol, v0=v0, ceiling=ceiling)

    monkeypatch.setattr(ops, "k_p", fresh)
    assert shared == run()
    assert shared[0][3]["kp_bounds"] and len(shared[0][3]["kp_evals"]) > 2


def test_eigenresult_serializes():
    m = constant_medium(X=20.0, h=0.02)
    res = ops.k_p(m, 1.0, tol=1e-8)
    d = res.to_dict()
    assert d["lambda"] == res.lam
    assert (d["iters"], d["failed_tests"], d["cw_width"]) == (
        res.iters, res.failed_tests, res.cw_width)
    assert "phi" not in d


def test_no_convergence_error(monkeypatch):
    m = dimer_medium(X=100.0, h=0.02, jitter=0.3)
    op = ops.assemble_tilted(m, 1.0)
    monkeypatch.setattr(ops, "MAX_ITERS", 2)
    with pytest.raises(ops.NoConvergence):
        ops.principal_eigen(op, tol=1e-10)
