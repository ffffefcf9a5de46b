import numpy as np
import pytest
from scipy.linalg import solve_banded

from kpplab import medium as med
from kpplab import pde
from kpplab.tridiag import SPDTridiagonalSolver

from conftest import MASTER, constant_medium, dimer_medium


def test_reaction_spec_validation():
    with pytest.raises(ValueError):
        pde.ReactionSpec("bistable")
    m = constant_medium(c0=2.0, X=20.0, h=0.05)
    assert np.array_equal(pde.ReactionSpec().linear_rate(m), m.c)


def test_initial_datum_compact_and_bounded():
    m = constant_medium(X=200.0, h=0.05)
    u0 = pde.initial_datum(m)
    assert u0.min() >= 0.0 and u0.max() <= 1.0
    assert u0[int(100 / m.h):].max() == 0.0  # exactly zero far right
    assert u0[0] > 0.999


def test_front_position_interpolates():
    u = np.array([1.0, 1.0, 0.75, 0.25, 0.0])
    assert pde.front_position(u, 1.0) == pytest.approx(2.5)
    assert pde.front_position(np.zeros(5), 1.0) == 0.0


def test_homogeneous_front_speed():
    m = constant_medium(X=420.0, h=0.05)
    trace = pde.simulate(m, pde.ReactionSpec("logistic_c"), T=150.0, dt=0.05,
                         snapshot_every=1.0)
    est = pde.front_speed(trace, 0.5)
    assert 1.90 <= est.value <= 2.02
    # positions nondecreasing after the transient
    k = np.searchsorted(trace.times, 10.0)
    assert np.all(np.diff(trace.positions[k:]) >= 0)
    # state 1 fills in behind the front over the fit window
    assert np.all(trace.mass_left[len(trace.mass_left) // 2:] >= 0.95)


def test_fast_diffusion_front_speed():
    m = constant_medium(a0=4.0, X=700.0, h=0.05)
    trace = pde.simulate(m, pde.ReactionSpec("logistic_c"), T=150.0, dt=0.05,
                         snapshot_every=1.0)
    est = pde.front_speed(trace, 0.5)
    assert abs(est.value - 4.0) / 4.0 <= 0.025
    assert est.value <= 4.0 + 1e-6  # approaches from below


def test_solution_stays_in_unit_interval():
    m = dimer_medium(X=160.0, h=0.05, jitter=0.3)
    _, u = pde.simulate(m, pde.ReactionSpec("logistic_c"), T=40.0, dt=0.1,
                        snapshot_every=2.0, keep_final=True)
    assert u.min() >= 0.0 and u.max() <= 1.0


@pytest.mark.parametrize("m, dt, T", [
    (dimer_medium(X=160.0, h=0.05, jitter=0.3), 0.05, 40.0),  # dt/h^2 = 20
    # dt/h^2 = 1000: one step carries the tail thousands of nodes ahead, and
    # a block that grew by a fixed pad per step would hold the front back
    (constant_medium(c0=4.0, X=200.0, h=0.01), 0.1, 30.0),
    # the held bulk behind the front covers most of the window for most of
    # the run, so its coupling to the moving block is exercised throughout
    (dimer_medium(X=420.0, h=0.05, jitter=0.3), 0.05, 150.0),
], ids=["dimer", "wide_step", "dimer_long"])
def test_block_solve_matches_full_window_imex(m, dt, T):
    # reference: the same IMEX scheme on the whole window, every step one
    # banded LU solve of I - dt D with no-flux walls
    trace = pde.simulate(m, pde.ReactionSpec(), T=T, dt=dt, snapshot_every=1.0)
    fac = dt / (m.h * m.h)
    a_r = m.a_half.copy()
    a_r[-1] = 0.0
    a_l = np.concatenate([[0.0], a_r[:-1]])
    ab = np.zeros((3, m.N))
    ab[0, 1:] = -fac * a_r[:-1]
    ab[1] = 1.0 + fac * (a_l + a_r)
    ab[2, :-1] = -fac * a_l[1:]
    u = pde.initial_datum(m)
    every = int(round(1.0 / dt))
    positions = [pde.front_position(u, m.h)]
    for k in range(1, int(round(T / dt)) + 1):
        u = solve_banded((1, 1), ab, u + dt * m.c * u * (1.0 - u))
        if k % every == 0:
            positions.append(pde.front_position(u, m.h))
    assert len(positions) == len(trace.positions)
    assert np.max(np.abs(np.array(positions) - trace.positions)) <= 1e-9


def test_no_subnormal_tail():
    # the block stops past the tail, so u never holds a subnormal entry
    # (a full-window solve carries the datum's zero tail through that range)
    m = constant_medium(X=400.0, h=0.05)
    _, u = pde.simulate(m, pde.ReactionSpec(), T=5.0, dt=0.05,
                        keep_final=True)
    tiny = np.finfo(float).tiny
    assert np.count_nonzero((u != 0.0) & (np.abs(u) < tiny)) == 0
    assert u.min() >= 0.0


def test_held_bulk_shrinks_the_solved_block(monkeypatch):
    # criterion 3's configuration: the saturated bulk behind the front is
    # held, so a step solves well under the 0.69 N that the tail cut alone
    # leaves
    m = dimer_medium(X=400.0, h=0.05, jitter=0.3)
    sizes = []
    solve = SPDTridiagonalSolver.solve

    def counted(self, b):
        sizes.append(b.shape[0])
        solve(self, b)

    monkeypatch.setattr(SPDTridiagonalSolver, "solve", counted)
    pde.simulate(m, pde.ReactionSpec(), T=160.0, dt=0.05, snapshot_every=1.0)
    assert len(sizes) >= 3200
    assert np.mean(sizes) <= 0.55 * m.N


def test_held_bulk_does_not_depend_on_snapshots(monkeypatch):
    # the hold advances on a per-step check, so the final state is the same
    # bits whether the run records 60 snapshots or one
    m = dimer_medium(X=200.0, h=0.05, jitter=0.3)
    factored = []
    init = SPDTridiagonalSolver.__init__

    def counted(self, diag, off):
        factored.append(diag.shape[0])
        init(self, diag, off)

    monkeypatch.setattr(SPDTridiagonalSolver, "__init__", counted)
    finals = []
    for every in (1.0, 60.0):
        factored.clear()
        finals.append(pde.simulate(m, pde.ReactionSpec(), T=60.0, dt=0.05,
                                   snapshot_every=every, keep_final=True)[1])
        assert len(factored) > 1  # the held bulk moved during the run
    assert np.array_equal(finals[0], finals[1])


def test_spd_solver_full_and_leading_block():
    rng = np.random.default_rng(7)
    n = 9
    off = -rng.uniform(0.1, 1.0, n - 1)
    diag = 2.5 + rng.uniform(0.0, 1.0, n)
    A = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    solver = SPDTridiagonalSolver(diag, off)
    b = rng.standard_normal(n)
    for j in (n, 2, 5):  # the full system and two leading blocks
        x = b[:j].copy()
        solver.solve(x)
        assert np.allclose(x, np.linalg.solve(A[:j, :j], b[:j]), rtol=1e-13,
                           atol=1e-14)
    with pytest.raises(ValueError):
        solver.solve(b[::2])  # pttrs would solve in a copy
    with pytest.raises(np.linalg.LinAlgError):
        SPDTridiagonalSolver(np.array([1.0, 1.0]), np.array([2.0]))


def test_comparison_monotonicity_paired_seeds():
    # pointwise larger c travels faster than the summed error bars, on the
    # same realization
    for s in range(2):
        m = dimer_medium(X=420.0, h=0.05, stream=s, jitter=0.3)
        m_up = med.replace_c(m, m.c + 0.4, "shift")
        tr1 = pde.simulate(m, pde.ReactionSpec("logistic_c"), T=150.0, dt=0.05)
        tr2 = pde.simulate(m_up, pde.ReactionSpec("logistic_c"), T=130.0, dt=0.05)
        e1, e2 = pde.front_speed(tr1, 0.5), pde.front_speed(tr2, 0.5)
        assert e2.value - e1.value > e1.err + e2.err


def test_front_speed_synthetic_traces():
    t = np.linspace(0.0, 100.0, 101)
    exact = pde.FrontTrace(times=t, positions=2.0 * t,
                           mass_left=np.ones_like(t), X=400.0, h=0.05,
                           dt=0.05, realization_id=0)
    est = pde.front_speed(exact, 0.5)
    assert est.value == pytest.approx(2.0, abs=1e-12)
    assert est.err <= 1e-12

    drift = pde.FrontTrace(times=t, positions=2.0 * t + np.log(1.0 + t),
                           mass_left=np.ones_like(t), X=400.0, h=0.05,
                           dt=0.05, realization_id=0)
    est = pde.front_speed(drift, 0.5)
    t_mid = 70.0  # roughly the harmonic-mean time of the fit window
    assert 2.0 < est.value < 2.0 + 1.0 / t_mid
    assert est.err >= (est.value - 2.0) / 8.0  # error bar sees the drift


def test_too_few_snapshots():
    t = np.linspace(0.0, 10.0, 8)
    tr = pde.FrontTrace(times=t, positions=2 * t, mass_left=np.ones_like(t),
                        X=100.0, h=0.05, dt=0.05, realization_id=0)
    with pytest.raises(pde.TooFewSnapshots):
        pde.front_speed(tr, 0.5)
    with pytest.raises(ValueError):
        pde.front_speed(tr, 0.9)


def test_cfl_violation():
    m = constant_medium(c0=4.0, X=50.0, h=0.05)
    with pytest.raises(pde.CFLViolation):
        pde.simulate(m, pde.ReactionSpec("logistic_c"), T=1.0, dt=0.2)


def test_front_escape_guard():
    m = constant_medium(X=60.0, h=0.05)
    with pytest.raises(pde.FrontEscaped):
        pde.simulate(m, pde.ReactionSpec("logistic_c"), T=40.0, dt=0.05)


def test_negative_rate_rejected():
    m = constant_medium(c0=1.0, X=50.0, h=0.05)
    neg = med.replace_c(m, m.c - 1.5, "neg")
    with pytest.raises(ValueError, match="nonnegative"):
        pde.simulate(neg, pde.ReactionSpec("logistic_c"), T=1.0, dt=0.05)


def test_dichotomy_homogeneous():
    m = constant_medium(X=800.0, h=0.05)
    report = pde.dichotomy_check(m, pde.ReactionSpec("logistic_c"), 2.0,
                                 [0.2, 0.0], T=150.0, dt=0.1)
    by_delta = {r["delta"]: r for r in report}
    assert by_delta[0.2]["inside_ok"] is True
    assert by_delta[0.2]["outside_ok"] is True
    assert by_delta[0.0]["inside_ok"] is None
    with pytest.raises(pde.FrontEscaped):
        pde.dichotomy_check(m, pde.ReactionSpec("logistic_c"), 2.0, [0.2],
                            T=400.0, dt=0.1)
