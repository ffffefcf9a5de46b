"""Acceptance gate: one test per criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Configurations are desk scale; the slowest criteria (cross-method
ensemble, homogenized-bound strictness, dichotomy) are sized to finish within
their stated budgets on two cores.
"""

import numpy as np
import pytest

from kpplab import freidlin as fr
from kpplab import medium as med
from kpplab import operators as ops
from kpplab import pde
from kpplab import speedlab as lab
from kpplab import variational as var

MASTER = 74250841

DIMER = {"kind": "dimer_random", "a_plus": 1.0, "a_minus": 1.0,
         "c_plus": 1.5, "c_minus": 0.5, "len1": 1.0, "len2": 1.0,
         "eps": 0.2, "length_dist": "uniform", "jitter": 0.3}


def _report(num: int, text: str, ok: bool):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


# -- 1 -----------------------------------------------------------------------

def test_criterion_01_homogeneous_oracle():
    """All three methods recover 2 sqrt(ac) for constant media."""
    cases = [(1.0, 1.0), (4.0, 1.0), (1.0, 4.0)]
    ok = True
    detail = []
    for a0, c0 in cases:
        w_exact = 2.0 * np.sqrt(a0 * c0)
        m = med.sample_realization(med.ConstantSpec(a0, c0), MASTER, 0,
                                   100.0, 0.02)
        w_eig = ops.speed_from_kp(m, 0.2, 5.0, tol=1e-4).value
        w_fr = fr.speed_freidlin(m, tol=1e-5).value
        x_pde = 700.0 if w_exact > 2.0 else 420.0
        mp = med.sample_realization(med.ConstantSpec(a0, c0), MASTER, 0,
                                    x_pde, 0.05)
        trace = pde.simulate(mp, pde.ReactionSpec("logistic_c"),
                             T=140.0, dt=0.05, snapshot_every=1.0)
        w_pde = pde.front_speed(trace, 0.5).value
        ok &= abs(w_eig - w_exact) / w_exact <= 0.005
        ok &= abs(w_fr - w_exact) / w_exact <= 0.005
        ok &= 0.0 <= (w_exact - w_pde) / w_exact <= 0.025  # one-sided low
        detail.append(f"(a={a0:g},c={c0:g}): eig {w_eig:.4f} "
                      f"fr {w_fr:.4f} pde {w_pde:.4f} vs {w_exact:g}")
    _report(1, "homogeneous oracle 2*sqrt(ac) -- " + "; ".join(detail), ok)


# -- 2 -----------------------------------------------------------------------

def test_criterion_02_kp_closed_form():
    """|k_p - (c + a p^2)| <= 1e-6 for constants, p in {0, 0.5, 1, 2}."""
    worst = 0.0
    for a0, c0 in [(1.0, 1.0), (4.0, 1.0), (1.0, 4.0)]:
        m = med.sample_realization(med.ConstantSpec(a0, c0), MASTER, 0,
                                   50.0, 0.02)
        for p in (0.0, 0.5, 1.0, 2.0):
            worst = max(worst, abs(ops.k_p(m, p, tol=1e-10).lam
                                   - (c0 + a0 * p * p)))
    _report(2, f"k_p closed form, worst |gap| = {worst:.2e} <= 1e-6",
            worst <= 1e-6)


# -- 3 -----------------------------------------------------------------------

def test_criterion_03_cross_method_agreement():
    """Dimer X=400, 16 seeds: eigen-vs-freidlin <= 1%, pde within 2.5%."""
    spec = med.spec_from_dict(DIMER)
    worst_ef, worst_pde = 0.0, 0.0
    for s in range(16):
        m = med.sample_realization(spec, MASTER, s, 400.0, 0.01)
        w_eig = ops.speed_from_kp(m, 0.3, 3.0, tol=1e-4).value
        w_fr = fr.speed_freidlin(m, tol=1e-4).value
        mp = med.sample_realization(spec, MASTER, s, 400.0, 0.05)
        trace = pde.simulate(mp, pde.ReactionSpec("logistic_c"), T=160.0,
                             dt=0.05, snapshot_every=1.0)
        w_pde = pde.front_speed(trace, 0.5).value
        worst_ef = max(worst_ef, abs(w_eig - w_fr) / w_eig)
        worst_pde = max(worst_pde, abs(w_eig - w_pde) / w_eig)
    ok = worst_ef <= 0.01 and worst_pde <= 0.025
    _report(3, f"cross-method agreement: eigen-freidlin {worst_ef:.2%}, "
               f"pde {worst_pde:.2%}", ok)


# -- 4 -----------------------------------------------------------------------

def test_criterion_04_legendre_duality():
    """|mu(k_p) - p| <= 2e-3 for 5 tilts on 4 realizations."""
    spec = med.spec_from_dict(DIMER)
    worst = 0.0
    for s in range(4):
        m = med.sample_realization(spec, MASTER, s, 200.0, 0.01)
        k0 = ops.k_p(m, 0.0, tol=1e-10).lam
        for p in (0.8, 1.0, 1.2, 1.5, 1.8):
            kp = ops.k_p(m, p, tol=1e-10).lam
            mu = fr.riccati_mu(m, kp, lambda1_estimate=k0)
            worst = max(worst, abs(mu - p))
    _report(4, f"Legendre duality, worst |mu(k_p) - p| = {worst:.2e} <= 2e-3",
            worst <= 2e-3)


# -- 5 -----------------------------------------------------------------------

def test_criterion_05_variational_attainment():
    """Variational formula attains k_p at p = 1.5 p*; gradient check."""
    spec = med.DimerSpec(a_plus=1.0, a_minus=1.0, c_plus=1.5, c_minus=0.5,
                         len1=1.0, len2=1.0, eps=0.1, length_dist="uniform",
                         jitter=0.3)
    ok = True
    gaps, closed = [], []
    for s in range(8):
        m = med.sample_realization(spec, MASTER, s, 100.0, 0.005)
        p_star = ops.speed_from_kp(m, 0.3, 3.0, tol=1e-4).optimizer
        p = 1.5 * p_star
        kp = ops.k_p(m, p, tol=1e-10).lam
        res = var.minimize_theta(m, p, max_iters=300)
        rel = res.gap_vs_direct / kp
        gaps.append(rel)
        ok &= -1e-6 <= rel <= 1e-3
        th = var.theta_closed_form(m, p, tol=1e-10)
        rel_closed = (var.k0_with_theta(m, p, th, tol=1e-12) - kp) / kp
        closed.append(rel_closed)
        ok &= abs(rel_closed) <= 1e-3

    # gradient check on a coarse grid: the FD numerator ~ 2*delta*grad must
    # stay above the eigenvalue resolution floor eps/h^2
    gspec = med.DimerSpec(a_plus=1.0, a_minus=1.0, c_plus=1.5, c_minus=0.5,
                          len1=1.0, len2=1.0, eps=0.25, length_dist="uniform",
                          jitter=0.3)
    gm = med.sample_realization(gspec, MASTER, 0, 24.0, 0.05)
    p = 1.5
    th = var.homogenized_theta(gm, p)
    g = var.theta_gradient(gm, p, th)
    rng = np.random.default_rng(5)
    delta = 1e-5
    worst_fd = 0.0
    for i in rng.integers(0, gm.N, size=5):
        e = np.zeros(gm.N)
        e[i] = 1.0
        e -= np.mean(e)
        lp = var.k0_with_theta(gm, p, var.ThetaField.from_raw(
            th.theta + delta * e, project=False), tol=1e-14)
        lm = var.k0_with_theta(gm, p, var.ThetaField.from_raw(
            th.theta - delta * e, project=False), tol=1e-14)
        fd = (lp - lm) / (2.0 * delta)
        an = float(np.dot(g, e))
        worst_fd = max(worst_fd, abs(fd - an) / max(abs(fd), abs(an)))
    ok &= worst_fd <= 1e-4
    _report(5, "variational attainment: optimizer rel gaps "
               f"[{min(gaps):+.1e}, {max(gaps):+.1e}] in [-1e-6, 1e-3]; "
               f"closed form worst {max(abs(v) for v in closed):.1e} <= 1e-3; "
               f"gradient check worst {worst_fd:.1e} <= 1e-4", ok)


# -- 6 -----------------------------------------------------------------------

def test_criterion_06_homogenized_bound():
    """Bound on 100% of 32 seeds across 3 ensembles; strictness > 3*slack."""
    trig_a = {"kind": "random_trig", "base_freqs": [0.7, 1.9],
              "amps_a": [0.25, 0.1], "amps_c": [0.3, 0.2],
              "a_min": 0.5, "c_min": 0.5}
    dimer_a = dict(DIMER, a_plus=2.0, a_minus=1.0, c_plus=1.0, c_minus=1.0)
    ok = True
    fracs = []
    for ensemble in (DIMER, dimer_a, trig_a):
        cfg = lab.make_config(ensemble=ensemble, X=400.0, h=0.02, seeds=32,
                              master_seed=MASTER, speed_tol=1e-4, tol=1e-7)
        rep = lab.suite_homogenized_bound(cfg, threads=2)
        bound_ok = [p["margin"] >= -max(p["slack"], 1e-6) for p in rep.points]
        fracs.append(float(np.mean(bound_ok)))
        ok &= all(bound_ok)

    strict_ens = {"kind": "dimer_random", "a_plus": 1.0, "a_minus": 1.0,
                  "c_plus": 2.0, "c_minus": 0.1, "len1": 2.0, "len2": 2.0,
                  "eps": 0.32, "length_dist": "uniform", "jitter": 0.3}
    cfg = lab.make_config(ensemble=strict_ens, X=51200.0, h=0.08, seeds=32,
                          master_seed=MASTER, speed_tol=5e-3, tol=1e-5,
                          p_lo=1.0, p_hi=1.4)
    rep = lab.suite_homogenized_bound(cfg, threads=2)
    strict = [v for v in rep.verdicts if "strict" in v.claim]
    assert strict, "strictness verdict missing"
    frac_strict = strict[0].details["fraction_ok"]
    ok &= strict[0].verdict == "verified"
    _report(6, f"homogenized bound: per-ensemble fractions {fracs} all 1.0; "
               f"strictness margin > 3*slack on {frac_strict:.0%} of seeds "
               f"(need >= 95%)", ok)


# -- 7 -----------------------------------------------------------------------

def test_criterion_07_diffusion_monotonicity():
    """k_p(kappa a, c) = kappa k_p(a, 0) + c to 5e-8; strict w* increase."""
    const_cfg = lab.make_config(
        ensemble={"kind": "constant", "a0": 1.0, "c0": 1.0},
        X=100.0, h=0.02, seeds=2, master_seed=MASTER, tol=1e-8,
        kappa_grid=[1.0, 2.0, 4.0])
    rep1 = lab.suite_diffusion_monotonicity(const_cfg)
    ws = [rep1.points[0]["w"][repr(k)] for k in (1.0, 2.0, 4.0)]
    ok = np.allclose(ws, [2.0, 2.0 * np.sqrt(2.0), 4.0], rtol=1e-3)

    trig_cfg = lab.make_config(
        ensemble={"kind": "random_trig", "base_freqs": [0.9, 1.7],
                  "amps_a": [0.3, 0.15], "amps_c": [0.0, 0.0],
                  "a_min": 0.7, "c_min": 1.0},
        X=200.0, h=0.02, seeds=6, master_seed=MASTER, tol=1e-8,
        kappa_grid=[1.0, 2.0, 4.0])
    rep2 = lab.suite_diffusion_monotonicity(trig_cfg, threads=2)
    gaps = [g for rep in (rep1, rep2) for p in rep.points
            for g in p["identity_gap"].values()]
    ok &= max(gaps) <= 5e-8
    ok &= rep1.all_verified and rep2.all_verified
    _report(7, f"diffusion linearity worst gap {max(gaps):.1e} <= 5e-8; "
               f"w* strictly increasing over kappa in {{1,2,4}}", ok)


# -- 8 -----------------------------------------------------------------------

def test_criterion_08_reaction_monotonicity():
    """Speed ordering under c -> c + shift; strict B-monotonicity."""
    cfg = lab.make_config(ensemble=DIMER, X=200.0, h=0.02, seeds=8,
                          master_seed=MASTER, B_grid=[0.0, 0.2, 0.4],
                          reaction_r=1.0, c_shift=0.5, speed_tol=1e-4)
    rep = lab.suite_reaction_monotonicity(cfg, threads=2)
    by_claim = {v.claim: v for v in rep.verdicts}
    order = by_claim["comparison w*(a, c) <= w*(a, c + shift)"]
    ordering_all = all(p["w_shifted"] - p["w_base"] > 0 for p in rep.points)
    mono = by_claim["B-monotonicity of w*(1, r + B (c - mean c))"]
    strict = by_claim["strict B-monotonicity for nonconstant c"]
    ok = (order.verdict == "verified" and ordering_all
          and mono.verdict == "verified" and strict.verdict == "verified")
    _report(8, "reaction monotonicity: ordering on all paired seeds, "
               f"B-grid strict increase margin {strict.margin:+.2e}", ok)


# -- 9 -----------------------------------------------------------------------

def test_criterion_09_scaling_monotonicity():
    """Rescaling identity to 5e-8 on {1,2,4}x{0.3,0.7,1.2}; w* monotone in L."""
    cfg = lab.make_config(ensemble=DIMER, X=100.0, h=0.02, seeds=8,
                          master_seed=MASTER, L_grid=[0.5, 1.0, 2.0, 4.0],
                          identity_p_grid=[0.3, 0.7, 1.2], tol=1e-8,
                          speed_tol=1e-4)
    rep = lab.suite_scaling_monotonicity(cfg, threads=2)
    gaps = [g for p in rep.points for gs in p["identity_gap"].values()
            for g in gs.values()]
    mono_ok = all(v.verdict == "verified" for v in rep.verdicts)
    ok = max(gaps) <= 5e-8 and mono_ok
    _report(9, f"scaling identity worst gap {max(gaps):.1e} <= 5e-8; "
               "w* nondecreasing (strict for a=1, c nonconstant)", ok)


# -- 10 ----------------------------------------------------------------------

def test_criterion_10_eigen_property_battery():
    """Parity, convexity, k_p >= k_0 and k_0 >= mean_c on 9-point p grids."""
    cfg = lab.make_config(ensemble=DIMER, X=200.0, h=0.02, seeds=8,
                          master_seed=MASTER, tol=1e-8,
                          p_grid=[-2.0, -1.5, -1.0, -0.5, 0.0,
                                  0.5, 1.0, 1.5, 2.0],
                          duality_p_grid=[1.0, 1.5])
    rep = lab.suite_eigen_properties(cfg, threads=2,
                                     include_variational=False)
    by_claim = {v.claim: v for v in rep.verdicts}
    parity = by_claim["parity of the eigenvalue in the tilt"]
    convex = by_claim["convexity of p -> k_p"]
    above = by_claim["zero tilt minimizes the eigenvalue"]
    meanc = by_claim["mean-reaction lower bound"]
    ok = all(v.verdict == "verified" for v in (parity, convex, above, meanc))
    worst_parity = -min(
        -abs(p["k_p"][repr(q)] - p["k_p"][repr(-q)])
        for p in rep.points for q in (0.5, 1.0, 1.5, 2.0))
    ok &= worst_parity <= 5e-8
    _report(10, f"eigen battery: parity worst {worst_parity:.1e} <= 5e-8, "
                "convexity >= -1e-6, k_p >= k_0, k_0 >= mean_c - slack", ok)


# -- 11 ----------------------------------------------------------------------

def test_criterion_11_spreading_dichotomy():
    """u ~ 1 inside and ~ 0 outside (1 +- 0.25) w* t at T=200, >= 7/8 seeds."""
    spec = med.spec_from_dict(DIMER)
    passed = 0
    for s in range(8):
        m_eig = med.sample_realization(spec, MASTER, s, 400.0, 0.02)
        w = ops.speed_from_kp(m_eig, 0.3, 3.0, tol=1e-3).value
        mp = med.sample_realization(spec, MASTER, s, 640.0, 0.05)
        rep = pde.dichotomy_check(mp, pde.ReactionSpec("logistic_c"), w,
                                  [0.25], T=200.0, dt=0.1)
        if rep[0]["inside_ok"] and rep[0]["outside_ok"]:
            passed += 1
    _report(11, f"spreading dichotomy holds on {passed}/8 seeds (need >= 7)",
            passed >= 7)


# -- 12 ----------------------------------------------------------------------

def test_criterion_12_reproducibility(tmp_path):
    """Suite re-runs yield byte-identical CSV/JSON payloads."""
    cfg = lab.make_config(ensemble=DIMER, X=60.0, h=0.02, seeds=2,
                          master_seed=MASTER,
                          p_grid=[-1.0, -0.5, 0.0, 0.5, 1.0],
                          duality_p_grid=[1.2])
    lab.run_suite("eigen_properties", cfg, out_dir=tmp_path / "a", threads=2)
    lab.run_suite("eigen_properties", cfg, out_dir=tmp_path / "b", threads=1)
    same = True
    for name in ("eigen_properties_report.json",
                 "eigen_properties_verdicts.csv"):
        same &= ((tmp_path / "a" / name).read_bytes()
                 == (tmp_path / "b" / name).read_bytes())
    _report(12, "byte-identical payloads across re-runs "
                "(including a thread-count change)", same)
