import json
from pathlib import Path

import numpy as np
import pytest

from kpplab import medium as med
from kpplab import speedlab as lab
from kpplab.manifest import file_sha, run_key

from conftest import MASTER

CONST_ENSEMBLE = {"kind": "constant", "a0": 1.0, "c0": 1.0}
DIMER_ENSEMBLE = {"kind": "dimer_random", "a_plus": 1.0, "a_minus": 1.0,
                  "c_plus": 1.5, "c_minus": 0.5, "len1": 1.0, "len2": 1.0,
                  "eps": 0.2, "length_dist": "uniform", "jitter": 0.3}


def small_config(**kw):
    base = dict(ensemble=DIMER_ENSEMBLE, X=100.0, h=0.02, seeds=3,
                master_seed=MASTER, speed_tol=1e-4)
    base.update(kw)
    return lab.make_config(**base)


def test_seed_pairing_contract():
    # stream s samples the same medium whatever the number of seeds
    r1 = lab.suite_homogenized_bound(small_config(seeds=1))
    r5 = lab.suite_homogenized_bound(small_config(seeds=5))
    assert r1.points[0]["w"] == r5.points[0]["w"]


def test_make_config_rejects_unknown_keys_and_no_seeds():
    # a misspelt key would otherwise run silently on its default
    with pytest.raises(ValueError, match="unknown config keys: seed$"):
        lab.make_config(seed=3)
    with pytest.raises(ValueError, match="pde.dtt"):
        lab.make_config(pde={"T": 10.0, "dtt": 0.1})
    # no seed means no points to judge: rejected before any suite runs
    with pytest.raises(ValueError, match="seeds must be at least 1"):
        small_config(seeds=0)
    assert lab.make_config(pde={"T": 10.0})["pde"]["dt"] == 0.05


def test_make_config_rejects_a_negative_descent_budget():
    with pytest.raises(ValueError,
                       match="attainment_max_iters must be at least 0"):
        lab.make_config(attainment_max_iters=-1)
    assert lab.make_config(attainment_max_iters=0)["attainment_max_iters"] == 0


def test_suite_homogenized_bound_homogeneous():
    cfg = small_config(ensemble=CONST_ENSEMBLE, X=100.0, seeds=3)
    rep = lab.suite_homogenized_bound(cfg)
    bound_verdict = rep.verdicts[0]
    assert bound_verdict.verdict == "verified"
    # equality within tolerance for constant coefficients
    assert all(abs(p["margin"]) <= 1e-5 for p in rep.points)
    assert len(rep.verdicts) == 1  # no strictness claim for constant c


def test_suite_homogenized_bound_dimer_holds():
    cfg = small_config(X=200.0, seeds=3)
    rep = lab.suite_homogenized_bound(cfg)
    assert rep.verdicts[0].verdict == "verified"
    assert all(p["margin"] > 0 for p in rep.points)


def test_suite_diffusion_monotonicity_constants():
    cfg = small_config(ensemble=CONST_ENSEMBLE, X=100.0, seeds=2,
                       kappa_grid=[1.0, 2.0, 4.0])
    rep = lab.suite_diffusion_monotonicity(cfg)
    assert rep.all_verified
    ws = [rep.points[0]["w"][repr(k)] for k in (1.0, 2.0, 4.0)]
    assert np.allclose(ws, [2.0, 2.0 * np.sqrt(2.0), 4.0], rtol=1e-3)
    gaps = [g for p in rep.points for g in p["identity_gap"].values()]
    assert max(gaps) <= 5e-8


def test_suite_diffusion_monotonicity_heterogeneous_a():
    cfg = small_config(
        ensemble={"kind": "random_trig", "base_freqs": [0.9, 1.7],
                  "amps_a": [0.3, 0.15], "amps_c": [0.0, 0.0],
                  "a_min": 0.7, "c_min": 1.0},
        X=100.0, seeds=3, kappa_grid=[1.0, 2.0])
    rep = lab.suite_diffusion_monotonicity(cfg)
    assert rep.all_verified


def test_suite_diffusion_rejects_nonconstant_c():
    cfg = small_config()
    with pytest.raises(ValueError, match="constant c"):
        lab.suite_diffusion_monotonicity(cfg)


def test_suite_reaction_monotonicity():
    cfg = small_config(X=200.0, seeds=3, B_grid=[0.0, 0.2, 0.4],
                       reaction_r=1.0, c_shift=0.5)
    rep = lab.suite_reaction_monotonicity(cfg)
    names = [v.claim for v in rep.verdicts]
    assert rep.verdicts[0].verdict == "verified"  # comparison under c + shift
    assert rep.verdicts[1].verdict == "verified"  # B-monotone
    assert rep.verdicts[2].verdict == "verified"  # strict for nonconstant c
    # B = 0 restores the homogeneous speed 2 sqrt(r)
    for p in rep.points:
        assert p["w_B"][repr(0.0)] == pytest.approx(2.0, abs=2e-3)


def test_suite_reaction_rejects_inadmissible_B():
    cfg = small_config(B_grid=[0.0, 5.0])
    with pytest.raises(ValueError, match="admissibility"):
        lab.suite_reaction_monotonicity(cfg)


def test_suite_reaction_constant_shift_closed_form():
    cfg = small_config(ensemble=CONST_ENSEMBLE, X=100.0, seeds=2,
                       B_grid=[0.0, 0.2], c_shift=0.5)
    rep = lab.suite_reaction_monotonicity(cfg)
    for p in rep.points:
        assert p["w_base"] == pytest.approx(2.0, abs=2e-3)
        assert p["w_shifted"] == pytest.approx(2.0 * np.sqrt(1.5), abs=2e-3)


def test_suite_scaling_monotonicity():
    cfg = small_config(X=60.0, h=0.02, seeds=3, L_grid=[0.5, 1.0, 2.0, 4.0],
                       identity_p_grid=[0.7, 1.2])
    rep = lab.suite_scaling_monotonicity(cfg)
    assert rep.all_verified
    gaps = [g for p in rep.points for gs in p["identity_gap"].values()
            for g in gs.values()]
    assert max(gaps) <= 5e-8
    for p in rep.points:
        ws = [p["w"][repr(L)] for L in (0.5, 1.0, 2.0, 4.0)]
        assert np.all(np.diff(ws) > 0)


def test_suite_eigen_properties_small():
    cfg = small_config(X=100.0, seeds=2,
                       p_grid=[-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5],
                       duality_p_grid=[1.0, 1.4])
    rep = lab.suite_eigen_properties(cfg, include_variational=False)
    assert rep.all_verified
    claims = {v.claim for v in rep.verdicts}
    assert "parity of the eigenvalue in the tilt" in claims
    assert "Lyapunov duality" in claims


def test_run_suite_writes_reproducible_payloads(tmp_path):
    cfg = small_config(X=60.0, seeds=2,
                       p_grid=[-1.0, -0.5, 0.0, 0.5, 1.0],
                       duality_p_grid=[1.2])

    def run(out, threads):
        return lab.run_suite("eigen_properties", cfg, out_dir=out,
                             threads=threads)

    rep1 = run(tmp_path / "run1", threads=1)
    rep2 = run(tmp_path / "run2", threads=2)
    assert rep1.manifest_hash == rep2.manifest_hash
    for name in ("eigen_properties_report.json", "eigen_properties_verdicts.csv"):
        b1 = (tmp_path / "run1" / name).read_bytes()
        b2 = (tmp_path / "run2" / name).read_bytes()
        assert b1 == b2
    # the payload keys: the fields of SuiteReport and of Verdict
    report = json.loads(
        (tmp_path / "run1" / "eigen_properties_report.json").read_text())
    assert set(report) == {"suite", "config", "points", "verdicts",
                           "manifest_hash"}
    assert report["suite"] == "eigen_properties"
    assert all(set(v) == {"claim", "inequality", "tolerance", "verdict",
                          "margin", "details"} for v in report["verdicts"])
    # each seed's descent says why it stopped and where it started
    assert all(p["attainment"]["stop"] in
               ("converged", "stagnated", "max_iters")
               and p["attainment"]["start"] in ("homogenized", "closed_form")
               for p in rep1.points)
    manifest = json.loads((tmp_path / "run1" / "manifest.json").read_text())
    # the report carries the manifest's run key: config snapshot and seed
    assert rep1.manifest_hash == manifest["run_key"] == run_key(
        {"suite": "eigen_properties", **cfg}, cfg["master_seed"])
    # the environment is recorded, and kept out of the run key
    assert manifest["environment"]["workers"] == 1
    assert json.loads((tmp_path / "run2" / "manifest.json").read_text())[
        "environment"]["workers"] == 2
    assert {"numpy", "scipy", "blas", "scipy_lapack", "OPENBLAS_NUM_THREADS",
            "OMP_NUM_THREADS", "cpu_count"} <= set(manifest["environment"])
    assert {o["path"] for o in manifest["outputs"]} == {
        "eigen_properties_report.json", "eigen_properties_verdicts.csv"}
    # recorded hashes match the bytes on disk
    for rec in manifest["outputs"]:
        assert file_sha(tmp_path / "run1" / rec["path"]) == rec["sha"]


@pytest.mark.parametrize("grids", [
    {},
    # a JSON config may give integer tilts: they hit the float grid keys
    {"p_grid": [-2, -1, 0, 1, 2], "duality_p_grid": [1, 1.5, 2]},
], ids=["default", "integer_grid"])
def test_eigen_properties_solves_each_cold_key_once(monkeypatch, grids):
    # k_0, the duality tilts on p_grid and the attainment k_p are read from
    # solves the seed already made
    from kpplab import operators as ops
    cfg = small_config(X=60.0, seeds=1, **grids)
    cold = []
    k_p = ops.k_p

    def counting(m, p, tol=1e-8, v0=None, ceiling=float("inf"), *, ws=None):
        if v0 is None:
            cold.append(float(p))
        return k_p(m, p, tol=tol, v0=v0, ceiling=ceiling, ws=ws)

    monkeypatch.setattr(ops, "k_p", counting)
    lab.suite_eigen_properties(cfg)
    on_grid = set(cfg["p_grid"])
    assert 0.0 in on_grid and on_grid & set(cfg["duality_p_grid"])
    assert len(cold) == len(set(cold))


@pytest.mark.parametrize("suite,ensemble,distinct", [
    ("reaction_monotonicity", DIMER_ENSEMBLE, 2),
    ("diffusion_monotonicity", CONST_ENSEMBLE, 2),
    # per seed: the seed's medium and the h/2 medium of the L=2 identity
    ("scaling_monotonicity", DIMER_ENSEMBLE, 4),
], ids=["reaction", "diffusion", "scaling"])
def test_suites_sample_each_medium_once(monkeypatch, suite, ensemble, distinct):
    # the stream-0 probe a suite validates its config on is the medium its
    # per-seed map uses for stream 0
    cfg = small_config(ensemble=ensemble, X=20.0, h=0.05, seeds=2,
                       kappa_grid=[1.0, 2.0], B_grid=[0.0, 0.2],
                       L_grid=[0.5, 1.0, 2.0])
    sampled = []
    sample = med.sample_realization

    def counting(spec, master_seed, stream_id, X, h):
        sampled.append((stream_id, X, h))
        return sample(spec, master_seed, stream_id, X, h)

    monkeypatch.setattr(med, "sample_realization", counting)
    lab.SUITES[suite](cfg)
    assert len(sampled) == len(set(sampled)) == distinct


def test_statistical_slack_values():
    spec = med.spec_from_dict(DIMER_ENSEMBLE)
    c = np.array([0.5, 1.5, 0.5, 1.5])
    slack = lab.statistical_slack(spec, c, 200.0)
    assert slack == pytest.approx(3.0 * 0.5 / np.sqrt(200.0 / 2.0))
    const = med.ConstantSpec(1.0, 1.0)
    assert lab.statistical_slack(const, np.ones(4), 200.0) == 0.0


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        lab.run_suite("nope", small_config())


@pytest.mark.parametrize("margins,verdict", [
    ([1.0, 2.0], "verified"),
    ([-0.1] + [1.0] * 9, "inconclusive"),  # a seed fails, the mean clears
    ([-1.0, -1.1, -0.9], "violated"),
    ([-1.0, 1.0], "inconclusive"),  # the CI straddles the gate
], ids=["verified", "seed_fails_mean_clears", "violated", "ci_straddles"])
def test_ensemble_verdict_outcomes(margins, verdict):
    v = lab._ensemble_verdict("claim", "margin > 0", margins, gate=0.0,
                              tolerance=0.0)
    assert v.verdict == verdict
    assert v.margin == float(np.mean(margins))
    assert v.details["fraction_ok"] == float(np.mean(np.array(margins) > 0))
