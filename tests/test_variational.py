import numpy as np
import pytest

from kpplab import medium as med
from kpplab import operators as ops
from kpplab import variational as var
from kpplab.tridiag import ShiftedSPDCyclicSolver

from conftest import MASTER, constant_medium, dimer_medium, dimer_spec, trig_spec


def _assert_top_eigenvalue(m, p, theta, lam):
    """(lam + delta) I - A factors as LDL^T at theta, so lam is the top
    eigenvalue there to within the descent's delta."""
    op = ops.assemble_symmetric(m, m.c + m.a * (p + theta) ** 2)
    delta = 1e-8 * max(abs(lam), 1.0)
    ShiftedSPDCyclicSolver(op.diag, op.sup).factor(lam + delta)


def test_zero_theta_constant_potential():
    m = constant_medium(X=50.0, h=0.02)
    for p in (0.5, 1.0, 2.0):
        val = var.k0_with_theta(m, p, var.zero_theta(m), tol=1e-10)
        assert abs(val - (1.0 + p * p)) <= 1e-9


def test_theta_field_projection():
    raw = np.linspace(0.0, 1.0, 100)
    th = var.ThetaField.from_raw(raw)
    assert abs(float(np.mean(th.theta))) <= 1e-12 * th.sup_norm
    assert th.sup_norm == float(np.max(np.abs(raw - np.mean(raw))))
    with pytest.raises(ValueError):
        var.ThetaField(theta=raw.copy())
    with pytest.raises(ValueError):
        var.ThetaField(theta=np.ones(10))


def test_objective_upper_bounds_direct_eigenvalue(rng):
    m = dimer_medium(X=100.0, h=0.01, jitter=0.3)
    p = 1.3
    kp = ops.k_p(m, p, tol=1e-10).lam
    assert var.k0_with_theta(m, p, var.zero_theta(m), tol=1e-10) >= kp - 5e-10
    for _ in range(4):
        th = var.ThetaField.from_raw(rng.uniform(-0.4, 0.4, m.N))
        assert var.k0_with_theta(m, p, th, tol=1e-10) >= kp - 5e-10


def test_homogenized_theta_closed_form():
    m = constant_medium(X=50.0, h=0.02)
    assert np.max(np.abs(var.homogenized_theta(m, 1.0).theta)) <= 1e-14

    d = dimer_medium(X=100.0, h=0.01, a_plus=2.0, a_minus=1.0, eps=0.1)
    th = var.homogenized_theta(d, 1.0)
    em = med.empirical_means(d)
    # plateau values 1/(mean_inv_a * a) - 1; probe mid-plateau nodes
    mid_plus = int(round(0.5 / d.h))   # center of the first (a=2) block
    mid_minus = int(round(1.5 / d.h))
    assert abs(th.theta[mid_plus] - (1.0 / (em.mean_inv_a * 2.0) - 1.0)) < 5e-3
    assert abs(th.theta[mid_minus] - (1.0 / (em.mean_inv_a * 1.0) - 1.0)) < 5e-3
    # attains the harmonic-mean quadratic form value
    quad = float(np.mean(d.a * (1.0 + th.theta) ** 2))
    assert abs(quad - 1.0 / em.mean_inv_a) <= 5 * d.h


def test_closed_form_theta_achieves_kp():
    m = dimer_medium(X=100.0, h=0.005, eps=0.1, jitter=0.3)
    est = ops.speed_from_kp(m, 0.3, 3.0, tol=1e-4)
    p = 1.5 * est.optimizer
    kp = ops.k_p(m, p, tol=1e-10).lam
    th = var.theta_closed_form(m, p, tol=1e-10)
    val = var.k0_with_theta(m, p, th, tol=1e-12)
    assert abs(val - kp) <= 1e-3 * kp

    def dlog(phi):
        return (np.roll(np.log(phi), -1) - np.roll(np.log(phi), 1)) / (2.0 * m.h)

    # mean of the raw (unprojected) field telescopes around the circle
    raw = 0.5 * (-dlog(ops.k_p(m, p).phi) + dlog(ops.k_p(m, -p).phi))
    assert abs(float(np.mean(raw))) <= 1e-10


def test_closed_form_constant_medium_is_zero():
    m = constant_medium(X=50.0, h=0.02)
    th = var.theta_closed_form(m, 1.0, tol=1e-10)
    assert np.max(np.abs(th.theta)) <= 1e-6


def test_closed_form_requires_nondegenerate_tilt():
    m = constant_medium(X=50.0, h=0.02)
    with pytest.raises(var.DegenerateTilt):
        var.theta_closed_form(m, 1e-6, tol=1e-8)


def test_minimize_theta_homogeneous():
    m = constant_medium(X=50.0, h=0.02)
    res = var.minimize_theta(m, 1.0, max_iters=50)
    _assert_top_eigenvalue(m, 1.0, res.theta.theta, res.k0_value)
    assert abs(res.k0_value - 2.0) <= 1e-9
    assert abs(res.gap_vs_direct) <= 1e-9
    assert res.theta.sup_norm <= 1e-9


def test_minimize_theta_reaches_attainment_band():
    m = dimer_medium(X=100.0, h=0.005, eps=0.1, jitter=0.3)
    est = ops.speed_from_kp(m, 0.3, 3.0, tol=1e-4)
    p = 1.5 * est.optimizer
    kp = ops.k_p(m, p, tol=1e-10).lam
    res = var.minimize_theta(m, p, max_iters=300)
    _assert_top_eigenvalue(m, p, res.theta.theta, res.k0_value)
    rel = res.gap_vs_direct / kp
    assert -1e-6 <= rel <= 1e-3


def test_newton_descent_budget(monkeypatch):
    m = dimer_medium(X=100.0, h=0.005, eps=0.1, jitter=0.3)
    p = 1.5 * ops.speed_from_kp(m, 0.3, 3.0, tol=1e-4).optimizer
    kp = ops.k_p(m, p, tol=1e-10).lam
    calls = []
    solve = ops.principal_eigen

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ops, "principal_eigen", counted)
    res = var.minimize_theta(m, p, max_iters=300)
    assert len(calls) <= 60
    assert res.solves == len(calls)
    assert res.iters < 300
    assert res.stop == "converged"
    assert abs(res.gap_vs_direct / kp) <= 1e-6
    _assert_top_eigenvalue(m, p, res.theta.theta, res.k0_value)


def test_crawling_descent_restarts_from_the_closed_form():
    # the descent from the homogenized drift crawls on this medium, about
    # 31% above k_p, where its gradient norm stops halving; the restart from
    # the closed-form minimizer converges
    m = med.sample_realization(trig_spec(), MASTER, 0, 100.0, 0.02)
    p = 3.0 * ops.speed_from_kp(m, 0.3, 3.0, tol=1e-4).optimizer
    res = var.minimize_theta(m, p, max_iters=300)
    assert res.stop == "converged"
    assert res.start == "closed_form"
    assert abs(res.gap_vs_direct) / res.kp_direct <= 1e-4
    cold = var.k0_with_theta(m, p, res.theta, tol=1e-10)
    assert abs(res.k0_value - cold) <= 1e-9 * cold
    _assert_top_eigenvalue(m, p, res.theta.theta, res.k0_value)


def test_restart_solves_k_p_at_plus_p_once(monkeypatch):
    # the closed form's cold +p solve is the direct k_p: the restarted
    # descent solves it once, and kp_direct keeps its bits
    m = med.sample_realization(trig_spec(), MASTER, 0, 100.0, 0.02)
    p = 3.0 * ops.speed_from_kp(m, 0.3, 3.0, tol=1e-4).optimizer
    cold = []
    k_p = ops.k_p

    def counting(m, q, tol=1e-8, v0=None, ceiling=float("inf")):
        if v0 is None:
            cold.append(q)
        return k_p(m, q, tol=tol, v0=v0, ceiling=ceiling)

    monkeypatch.setattr(ops, "k_p", counting)
    res = var.minimize_theta(m, p, max_iters=300)
    monkeypatch.undo()
    assert res.start == "closed_form"
    assert cold.count(p) == 1
    assert res.kp_direct == ops.k_p(m, p, tol=1e-10).lam


def test_degenerate_closed_form_solves_k_p_at_plus_p_once(monkeypatch):
    # at a tilt this small the restart's closed form raises DegenerateTilt
    # and the first descent stands; its direct k_p is solved once, before
    # the descent, and the closed form adds only k_0
    m = dimer_medium(X=50.0, h=0.01)
    p = 1e-6
    descend = var._descend
    descents = []

    def stagnating(*args):
        *out, _ = descend(*args)
        descents.append(out[4])
        return (*out, "stagnated")

    cold = []
    k_p = ops.k_p

    def counting(m, q, tol=1e-8, v0=None, ceiling=float("inf")):
        if v0 is None:
            cold.append(q)
        return k_p(m, q, tol=tol, v0=v0, ceiling=ceiling)

    monkeypatch.setattr(var, "_descend", stagnating)
    monkeypatch.setattr(ops, "k_p", counting)
    res = var.minimize_theta(m, p, max_iters=300)
    monkeypatch.undo()
    assert (res.stop, res.start) == ("stagnated", "homogenized")
    assert cold == [p, 0.0]
    assert res.solves == descents[0] + 2
    assert res.kp_direct == ops.k_p(m, p, tol=1e-10).lam


def test_negative_max_iters_is_refused():
    m = constant_medium(X=50.0, h=0.02)
    with pytest.raises(ValueError, match="max_iters must be at least 0"):
        var.minimize_theta(m, 1.0, max_iters=-1)


def test_newton_direction_solves_the_projected_newton_system():
    # H = C + 2 W R W applied as a Hessian-vector product: C = diag(2 a u^2)
    # floored at 1e-4 of its max, W = diag(u b), R the reduced resolvent by
    # one solve with the factored (lam + delta) I - A, u projected out on
    # both sides; the direction solves H x = -g on the mean-zero subspace,
    # at the homogenized start and at a point after one full Newton step
    m = dimer_medium(X=100.0, h=0.005, eps=0.1, jitter=0.3)
    p = 1.5 * ops.speed_from_kp(m, 0.3, 3.0, tol=1e-4).optimizer
    theta = var.homogenized_theta(m, p).theta
    for _ in range(2):
        lam, phi, op = var._eigenpair(m, p, theta, 1e-10)
        u, ub, grad = var._gradient(m, p, theta, phi)
        curv = 2.0 * m.a * u * u
        x = var._newton_direction(op, lam, u, ub, curv, grad)
        c = np.maximum(curv, 1e-4 * np.max(curv))
        resolvent = var._shifted_factor(op.diag, op.sup, lam)
        y = ub * x
        y -= np.dot(u, y) * u
        resolvent.solve_factored(y)
        y -= np.dot(u, y) * u
        hx = c * x + 2.0 * ub * y
        residual = hx - np.mean(hx) + grad
        assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(grad)
        assert abs(np.mean(x)) <= 1e-12 * np.max(np.abs(x))
        assert np.dot(grad, x) < 0.0
        theta = theta + x - np.mean(x)


def test_newton_step_factors_twice_and_solves_four_times(monkeypatch):
    # each step certifies lam with one factorization of (lam + delta) I - A
    # and solves its Newton system with one of M + 2K and four solves; the
    # final iterate is certified too
    calls = {"factor": 0, "solve": 0}

    class Counted(ShiftedSPDCyclicSolver):
        def factor(self, sigma):
            calls["factor"] += 1
            super().factor(sigma)

        def solve_factored(self, b):
            calls["solve"] += 1
            super().solve_factored(b)

    monkeypatch.setattr(var, "ShiftedSPDCyclicSolver", Counted)
    m = dimer_medium(X=50.0, h=0.01, eps=0.1, jitter=0.3)
    p = 1.5
    *_, iters, _, stop = var._descend(m, p, var.homogenized_theta(m, p).theta,
                                      1e-8, 60, 1e-10)
    assert stop == "converged" and iters > 0
    assert calls == {"factor": 2 * iters + 1, "solve": 4 * iters}


def test_line_search_rejects_trials_at_their_armijo_ceiling(monkeypatch):
    # a step far past the minimum: each rejected trial stops once a
    # certified lower bound puts its top eigenvalue above the Armijo value
    m = dimer_medium(X=50.0, h=0.01, eps=0.1, jitter=0.3)
    p = 1.5
    theta = var.homogenized_theta(m, p).theta.copy()
    lam, phi, _ = var._eigenpair(m, p, theta, 1e-10)
    grad = var._gradient(m, p, theta, phi)[2]
    direction = -grad / np.max(np.abs(grad))
    trials = []
    solve = ops.principal_eigen

    def recorded(op, *args, ceiling, **kwargs):
        try:
            res = solve(op, *args, ceiling=ceiling, **kwargs)
        except ops.AboveCeiling as above:
            trials.append((op, ceiling, above.bound))
            raise
        trials.append((op, ceiling, res.lam))
        return res

    monkeypatch.setattr(ops, "principal_eigen", recorded)
    accepted, solves = var._line_search(m, p, theta, lam, phi, direction,
                                        ops._dot(grad, direction), 2.0, 1e-10,
                                        1e-12 * lam)
    assert accepted is not None and accepted[0] < 2.0
    assert solves == len(trials) >= 2
    *stopped, (_, ceiling, lam_t) = trials
    assert accepted[2] == lam_t <= ceiling
    for op, ceiling, bound in stopped:
        top = solve(op, tol=1e-10).lam  # the converged trial: also rejected
        assert ceiling < bound <= top + 1e-10


def test_minimize_from_closed_form_terminates_quickly():
    m = dimer_medium(X=100.0, h=0.005, eps=0.1, jitter=0.3)
    p = 1.5
    th = var.theta_closed_form(m, p, tol=1e-10)
    theta, lam, _, iters, _, _ = var._descend(m, p, th.theta, 1e-8, 60, 1e-10)
    _assert_top_eigenvalue(m, p, theta, lam)
    kp = ops.k_p(m, p, tol=1e-10).lam
    assert abs(lam - kp) <= 1e-3 * kp
    assert iters <= 10  # already essentially stationary


def test_newton_step_without_decrease_restarts_from_the_closed_form(
        monkeypatch):
    # a Newton step whose line search finds no decrease stops the descent
    # "stagnated", and the restart from the closed form converges
    m = dimer_medium(X=50.0, h=0.01, eps=0.1, jitter=0.3)
    p = 1.5
    searches = []
    line_search = var._line_search

    def refusing_once(*args):
        searches.append(1)
        if len(searches) == 1:
            return None, 0
        return line_search(*args)

    monkeypatch.setattr(var, "_line_search", refusing_once)
    res = var.minimize_theta(m, p, max_iters=300)
    assert res.stop == "converged"
    assert res.start == "closed_form"
    assert abs(res.gap_vs_direct) / res.kp_direct <= 1e-3
    _assert_top_eigenvalue(m, p, res.theta.theta, res.k0_value)


def test_objective_convex_along_segments(rng):
    m = dimer_medium(X=50.0, h=0.01, jitter=0.3)
    p = 1.2
    th1 = var.ThetaField.from_raw(rng.uniform(-0.5, 0.5, m.N))
    th2 = var.ThetaField.from_raw(rng.uniform(-0.5, 0.5, m.N))
    v1 = var.k0_with_theta(m, p, th1, tol=1e-10)
    v2 = var.k0_with_theta(m, p, th2, tol=1e-10)
    for t in (0.25, 0.5, 0.75):
        mix = var.ThetaField.from_raw(t * th1.theta + (1 - t) * th2.theta,
                                      project=False)
        vm = var.k0_with_theta(m, p, mix, tol=1e-10)
        assert vm <= t * v1 + (1 - t) * v2 + 5e-10


def test_gradient_matches_central_differences(rng):
    # coarse grid on purpose: the finite-difference numerator scales like
    # 2*delta*grad ~ 1e-10 while any eigenvalue carries an absolute floor of
    # eps * ||A|| ~ eps/h^2, so the probe is meaningful only when h is not
    # too small
    m = dimer_medium(X=24.0, h=0.05, eps=0.25, jitter=0.3)
    p = 1.5
    th = var.homogenized_theta(m, p)
    g = var.theta_gradient(m, p, th)
    delta = 1e-5
    for i in rng.integers(0, m.N, size=5):
        e = np.zeros(m.N)
        e[i] = 1.0
        e -= np.mean(e)
        lp = var.k0_with_theta(
            m, p, var.ThetaField.from_raw(th.theta + delta * e, project=False),
            tol=1e-14)
        lm = var.k0_with_theta(
            m, p, var.ThetaField.from_raw(th.theta - delta * e, project=False),
            tol=1e-14)
        fd = (lp - lm) / (2.0 * delta)
        an = float(np.dot(g, e))
        assert abs(fd - an) / max(abs(fd), abs(an)) <= 1e-4


def test_strictness_witness_for_nonconstant_c():
    # with a == 1 and heterogeneous c the variational value stays strictly
    # above the homogenized bound mean_c + p^2 by more than the slack; the
    # margin is widest at p = p* and the window must be long enough for the
    # slack to fall below it; on these long windows the eigenfunction
    # localizes and the descent from the homogenized drift crawls about 24%
    # above k_p until its restart from the closed form converges, so the
    # margin is checked on the direct k_p as well
    spec = dimer_spec(c_plus=3.0, c_minus=0.1, len1=1.0, len2=3.0, eps=0.2,
                      jitter=0.3)
    margins, kp_margins = [], []
    for s in range(2):
        m = med.sample_realization(spec, MASTER, s, 4000.0, 0.04)
        em = med.empirical_means(m)
        est = ops.speed_from_kp(m, 0.5, 4.0, tol=1e-3, eig_tol=1e-7)
        p = est.optimizer
        res = var.minimize_theta(m, p, max_iters=150)
        _assert_top_eigenvalue(m, p, res.theta.theta, res.k0_value)
        slack = 3.0 * float(np.std(m.c)) / np.sqrt(m.X / spec.corr_length)
        margins.append(res.k0_value - (em.mean_c + p * p) - slack)
        kp = res.k0_value - res.gap_vs_direct  # the direct tilted solve
        kp_margins.append(kp - (em.mean_c + p * p) - slack)
    assert all(v > 0 for v in margins)
    assert all(v > 0 for v in kp_margins)


def test_grid_mismatch_rejected():
    m = dimer_medium(X=50.0, h=0.01)
    wrong = var.ThetaField.from_raw(np.zeros(10))
    with pytest.raises(ValueError):
        var.k0_with_theta(m, 1.0, wrong)
