import json

import numpy as np
import pytest

from kpplab import freidlin as fr
from kpplab import medium as med
from kpplab import operators as ops

from conftest import MASTER, constant_medium, dimer_medium, dimer_spec


def test_mu_constant_medium():
    m = constant_medium(a0=1.0, c0=1.0, X=100.0, h=0.01)
    assert abs(fr.riccati_mu(m, 2.0) - 1.0) <= 1e-6
    assert abs(fr.riccati_mu(m, 5.0) - 2.0) <= 1e-6


def test_mu_long_window_does_not_overflow():
    # the one-period product is about e^2000, beyond the float range
    m = constant_medium(a0=1.0, c0=1.0, X=400.0, h=0.01)
    assert abs(fr.riccati_mu(m, 26.0) - 5.0) <= 1e-6


@pytest.mark.parametrize("n", [1, 2, 7, 8, 37])
def test_tree_product_matches_sequential_product(n):
    # the entrywise tree product against M[n-1] ... M[0] formed one matrix at
    # a time; non-commuting matrices, so a wrong order shows
    rng = np.random.default_rng(n)
    mats = rng.uniform(0.1, 2.0, size=(n, 2, 2))
    ref = np.eye(2)
    for mat in mats:
        ref = mat @ ref
    (p00, p01, p10, p11), log_scale = fr._tree_product(
        *(np.ascontiguousarray(mats[:, i, j]) for i in (0, 1) for j in (0, 1)))
    got = np.exp(log_scale) * np.array([[p00, p01], [p10, p11]])
    assert np.allclose(got, ref, rtol=64 * n * np.finfo(float).eps, atol=0)


def test_gamma_below_threshold():
    m = constant_medium()
    with pytest.raises(fr.GammaBelowThreshold):
        fr.riccati_mu(m, 1.02)  # below Lambda_1 + margin
    d = dimer_medium(X=50.0, h=0.02)
    lam1 = ops.k_p(d, 0.0, tol=1e-8).lam
    # above Lambda_1 + margin but below max c: square-root initializer fails
    gamma = (lam1 + fr.default_margin(lam1) + float(np.max(d.c))) / 2.0
    assert gamma > lam1 + fr.default_margin(lam1)
    with pytest.raises(fr.GammaBelowThreshold, match="max c"):
        fr.riccati_mu(d, gamma)


def test_duality_with_eigenvalues():
    m = dimer_medium(X=200.0, h=0.01, eps=0.2, jitter=0.3)
    for p in (0.8, 1.2, 1.8):
        kp = ops.k_p(m, p, tol=1e-10).lam
        mu = fr.riccati_mu(m, kp)
        assert abs(mu - p) <= 2e-3


def test_mu_curve_monotone_concave_positive():
    # mu is the inverse function of the convex increasing p -> k_p, hence
    # positive, strictly increasing and concave (the homogeneous closed form
    # sqrt((gamma - c)/a) shows the curvature sign directly)
    m = dimer_medium(X=100.0, h=0.01, eps=0.2, jitter=0.3)
    lam1 = ops.k_p(m, 0.0, tol=1e-8).lam
    lo = max(lam1 + 2 * fr.default_margin(lam1), float(np.max(m.c)) + 0.1)
    curve = fr.mu_curve(m, np.linspace(lo, lo + 4.0, 12))
    assert np.all(curve.mu > 0)
    assert np.all(np.diff(curve.mu) > 0)
    assert np.all(np.diff(curve.mu, 2) <= 1e-8)
    m_const = constant_medium(X=50.0, h=0.02)
    curve_c = fr.mu_curve(m_const, np.linspace(2.0, 6.0, 9))
    assert np.allclose(curve_c.mu, np.sqrt(curve_c.gamma - 1.0), atol=1e-6)
    assert np.all(np.diff(curve_c.mu, 2) < 0)


def test_mu_curve_csv(tmp_path):
    m = constant_medium(X=50.0, h=0.02)
    curve = fr.mu_curve(m, [2.0, 3.0, 4.0])
    path = curve.to_csv(tmp_path / "mu.csv")
    lines = path.read_text().splitlines()
    meta = json.loads(lines[0][2:])
    assert lines[0].startswith("# ")
    assert meta["realization_id"] == m.realization_id
    assert lines[1] == "gamma,mu"
    assert len(lines) == 5


@pytest.mark.parametrize("a0,w,gstar", [(1.0, 2.0, 2.0), (4.0, 4.0, 2.0)])
def test_speed_constants(a0, w, gstar):
    m = constant_medium(a0=a0, c0=1.0, X=100.0, h=0.01)
    est = fr.speed_freidlin(m, tol=1e-5)
    assert abs(est.value - w) <= 1e-3 * w
    assert abs(est.optimizer - gstar) <= 1e-2
    assert est.method == "freidlin"
    assert not est.provenance["bracket_at_exclusion_boundary"]


@pytest.mark.parametrize("contrast", [{}, {"c_plus": 3.0, "c_minus": 0.1}],
                         ids=["default", "high_contrast"])
def test_speed_agrees_with_eigen_route(contrast):
    # at high contrast the Lyapunov bracket starts on its exclusion floor with
    # the minimum just above it, so it must contract toward the floor
    m = dimer_medium(X=200.0, h=0.01, eps=0.2, jitter=0.3, **contrast)
    w_fr = fr.speed_freidlin(m, tol=1e-4).value
    w_kp = ops.speed_from_kp(m, 0.3, 3.0, tol=1e-4).value
    assert abs(w_fr - w_kp) / w_kp <= 1e-2


def test_speed_search_evaluation_budget():
    m = dimer_medium(X=50.0, h=0.02, eps=0.2, jitter=0.3)
    assert fr.speed_freidlin(m, tol=1e-4).provenance["evals"] <= 10


def test_speed_search_samples_fields_once(monkeypatch):
    # a and c are sampled at the cell midpoints once per speed (and once per
    # curve), not once per mu evaluation
    m = dimer_medium(X=50.0, h=0.02, eps=0.2, jitter=0.3)
    calls = []
    fields_at = med.fields_at

    def counting(m, xs):
        calls.append(xs.size)
        return fields_at(m, xs)

    monkeypatch.setattr(med, "fields_at", counting)
    est = fr.speed_freidlin(m, tol=1e-4)
    assert est.provenance["evals"] > 2
    assert len(calls) == 1
    calls.clear()
    fr.mu_curve(m, [3.0, 4.0, 5.0])
    assert len(calls) == 1
    calls.clear()
    fr.riccati_mu(m, 3.0)  # on its own it samples the fields itself
    assert len(calls) == 1


def test_mu_seed_spread_shrinks_with_window():
    spec = dimer_spec(eps=0.2, jitter=0.3)
    spreads = {}
    for X in (50.0, 100.0):
        vals = []
        for s in range(32):
            m = med.sample_realization(spec, MASTER, s, X, 0.02)
            vals.append(fr.riccati_mu(m, 2.5, lambda1_estimate=1.1))
        spreads[X] = np.std(vals) / np.mean(vals)
    assert spreads[100.0] < spreads[50.0]
