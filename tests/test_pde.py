import numpy as np
import pytest

from kpplab import medium as med
from kpplab import pde

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
                            T=400.0)
