import json

import numpy as np
import pytest

from kpplab import cli
from kpplab import freidlin as fr
from kpplab import medium as med
from kpplab import operators as ops
from kpplab import pde
from kpplab import speedlab as lab
from kpplab import variational as var
from kpplab.optimize import BracketFailure
from kpplab.results import NumericalFailure


def write_config(tmp_path, **kw):
    cfg = {"ensemble": {"kind": "constant", "a0": 1.0, "c0": 1.0},
           "X": 100.0, "h": 0.02, "seeds": 2, "speed_tol": 1e-4,
           "pde": {"h": 0.05, "T": 35.0, "dt": 0.05, "snapshot_every": 1.0,
                   "fit_fraction": 0.5}}
    cfg.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, *argv, cfg=None):
    args = ["--out", str(tmp_path / "out")]
    if cfg:
        args += ["--config", cfg]
    return cli.main(args + list(argv))


class Sampled(Exception):
    pass


# the nine sampling commands and the (stream, h) of each medium they sample;
# without --w-star, dichotomy takes its default w* on the config grid
SAMPLING = {
    "medium sample": [(1, 0.02)],
    "eigen kp": [(1, 0.02)],
    "eigen speed": [(1, 0.02)],
    "freidlin mu": [(1, 0.02)],
    "freidlin speed": [(1, 0.02)],
    "variational minimize": [(1, 0.02)],
    "pde run": [(1, 0.05)],
    "pde speed": [(1, 0.05)],
    "pde dichotomy": [(1, 0.05), (1, 0.02)],
}


@pytest.mark.parametrize("command", SAMPLING)
def test_sampling_commands_take_stream(tmp_path, monkeypatch, command):
    expected = SAMPLING[command]
    sampled = []
    sample = med.sample_realization

    def recording(spec, master_seed, stream_id, X, h):
        sampled.append((stream_id, h))
        if len(sampled) == len(expected):
            raise Sampled  # the command has sampled all it needs
        return sample(spec, master_seed, stream_id, X, h)

    monkeypatch.setattr(med, "sample_realization", recording)
    with pytest.raises(Sampled):
        run(tmp_path, *command.split(), "--stream", "1",
            cfg=write_config(tmp_path))
    assert sampled == expected


def test_unknown_config_key_is_rejected_before_any_output(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "medium", "sample", cfg=write_config(tmp_path, seed=3))
    assert exc.value.code == 2
    assert ("kpplab: error: unknown config keys: seed"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,overrides,message", [
    (["medium", "sample"], {"ensemble": {"kind": "dimer_random", "a_plus": 2}},
     "bad dimer_random ensemble"),
    (["medium", "sample"], {"X": 10.0, "h": 0.03}, "is not integral"),
    (["suite", "diffusion_monotonicity"],
     {"ensemble": lab.DEFAULT_CONFIG["ensemble"]}, "requires constant c"),
    (["medium", "sample"], None, "cannot read --config"),
    (["medium", "sample"], "[1]", "--config must hold a JSON object"),
    (["medium", "sample"], {"X": "40"}, "config key X must be a number"),
    (["suite", "homogenized_bound"], {"seeds": 2.5},
     "config key seeds must be an integer"),
    (["medium", "sample"], {"seeds": True},
     "config key seeds must be an integer"),
    (["medium", "sample"], {"master_seed": 7.5},
     "config key master_seed must be an integer"),
    (["medium", "sample"], {"ensemble": "dimer"},
     "config key ensemble must be an object"),
    (["medium", "sample"], {"kappa_grid": [1.0, "2"]},
     "config key kappa_grid must be a list of numbers"),
    (["medium", "sample"], {"pde": {"dt": "0.05"}},
     "config key pde.dt must be a number"),
], ids=["bad_ensemble", "bad_grid", "refused_suite", "missing_config",
        "not_an_object", "string_X", "float_seeds", "bool_seeds",
        "float_master_seed", "string_ensemble", "string_in_grid",
        "string_pde_value"])
def test_refused_input_is_a_usage_error(tmp_path, capsys, argv, overrides,
                                        message):
    # one usage line and exit code 2, and nothing written; None stands for
    # a config file that does not exist, a string for the file's whole text
    if overrides is None:
        cfg = str(tmp_path / "missing.json")
    elif isinstance(overrides, str):
        (tmp_path / "config.json").write_text(overrides)
        cfg = str(tmp_path / "config.json")
    else:
        cfg = write_config(tmp_path, **overrides)
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv, cfg=cfg)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "kpplab: error: " in err and message in err
    assert not (tmp_path / "out").exists()


def test_negative_descent_budget_is_a_usage_error(tmp_path, capsys):
    # refused before the descent starts: one error line, exit code 2
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "variational", "minimize", "--p", "1.0",
            "--max-iters", "-1", cfg=write_config(tmp_path))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "kpplab: error: max_iters must be at least 0, got -1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["variational", "minimize", "--max-iters", "-1"],
    ["pde", "dichotomy", "--deltas", "-0.5", "--w-star", "2"],
    ["eigen", "kp", "--p-count", "-1"],
    ["freidlin", "mu", "--gamma-count", "-1"],
], ids=["descent_budget", "dichotomy_delta", "kp_count", "gamma_count"])
def test_refused_argument_leaves_no_output_directory(tmp_path, capsys, argv):
    # --out is made only at a command's first write, after its inputs are
    # checked
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv, cfg=write_config(tmp_path))
    assert exc.value.code == 2
    assert "kpplab: error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_medium_sample(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(tmp_path, "medium", "sample", cfg=cfg) == 0
    assert (tmp_path / "out" / "medium_0.kppm").exists()
    assert (tmp_path / "out" / "medium_0.kppm.json").exists()
    assert "mean_c=1" in capsys.readouterr().out


def test_eigen_kp_and_speed(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(tmp_path, "eigen", "kp", "--p", "1.0", cfg=cfg) == 0
    out = capsys.readouterr().out
    assert "k_p(p=1)" in out
    kp = json.loads((tmp_path / "out" / "kp.json").read_text())
    assert abs(kp["lambda"] - 2.0) < 1e-9
    assert (kp["p"], kp["N"], kp["h"], kp["X"]) == (1.0, 5000, 0.02, 100.0)
    curve = (tmp_path / "out" / "kp_curve.dat").read_text().splitlines()
    assert curve[0].startswith("#")
    assert len(curve) > 5

    assert run(tmp_path, "eigen", "speed", cfg=cfg) == 0
    data = json.loads((tmp_path / "out" / "speed_eigen.json").read_text())
    assert set(data) == {"value", "method", "err", "optimizer", "provenance"}
    assert abs(data["value"] - 2.0) < 1e-3
    assert kp["realization_id"] == data["provenance"]["realization_id"]


def test_tol_sets_the_eigen_tolerance_of_eigen_speed(tmp_path):
    cfg = write_config(tmp_path)
    assert run(tmp_path, "--tol", "1e-9", "eigen", "speed", cfg=cfg) == 0
    data = json.loads((tmp_path / "out" / "speed_eigen.json").read_text())
    assert data["provenance"]["eig_tol"] == 1e-9


def test_freidlin_commands(tmp_path):
    cfg = write_config(tmp_path)
    assert run(tmp_path, "freidlin", "mu", "--gamma-count", "5", cfg=cfg) == 0
    header = (tmp_path / "out" / "mu_curve.csv").read_text().splitlines()[0]
    assert set(json.loads(header[2:])) == {
        "lambda1_estimate", "margin", "realization_id", "X", "h", "ode_step"}
    assert (tmp_path / "out" / "mu_curve.dat").exists()
    assert run(tmp_path, "freidlin", "speed", cfg=cfg) == 0
    data = json.loads((tmp_path / "out" / "speed_freidlin.json").read_text())
    assert abs(data["value"] - 2.0) < 1e-3


def test_freidlin_mu_solves_lambda1_once(tmp_path, monkeypatch):
    calls = []
    k_p = ops.k_p

    def counting(m, p, *args, **kwargs):
        calls.append(p)
        return k_p(m, p, *args, **kwargs)

    monkeypatch.setattr(ops, "k_p", counting)
    cfg = write_config(tmp_path)
    assert run(tmp_path, "freidlin", "mu", "--gamma-count", "5", cfg=cfg) == 0
    assert calls == [0.0]


def test_variational_minimize(tmp_path, capsys):
    cfg = write_config(tmp_path, X=50.0)
    assert run(tmp_path, "variational", "minimize", "--p", "1.0",
               "--max-iters", "40", cfg=cfg) == 0
    summary = json.loads((tmp_path / "out" / "theta_summary.json").read_text())
    assert abs(summary["k0_value"] - 2.0) < 1e-6
    assert summary["stop"] == "converged"
    assert f"{summary['solves']} eigen solves, converged" in capsys.readouterr().out
    theta = np.frombuffer((tmp_path / "out" / "theta.f64").read_bytes(),
                          dtype="<f8")
    assert theta.shape[0] == summary["N"]

    # the gap is taken against the k_p the summary reports
    dimer = write_config(tmp_path, X=50.0, ensemble={
        "kind": "dimer_random", "a_plus": 1.0, "a_minus": 1.0, "c_plus": 1.5,
        "c_minus": 0.5, "len1": 1.0, "len2": 1.0, "eps": 0.2})
    assert run(tmp_path, "variational", "minimize", "--p", "1.0",
               "--max-iters", "40", cfg=dimer) == 0
    summary = json.loads((tmp_path / "out" / "theta_summary.json").read_text())
    assert summary["gap_vs_direct"] == summary["k0_value"] - summary["k_p_direct"]


def test_pde_commands(tmp_path):
    cfg = write_config(tmp_path)
    assert run(tmp_path, "pde", "run", cfg=cfg) == 0
    front = (tmp_path / "out" / "front.csv").read_text().splitlines()
    assert front[0] == "t,position,mass_left"
    assert run(tmp_path, "pde", "speed", cfg=cfg) == 0
    data = json.loads((tmp_path / "out" / "speed_pde.json").read_text())
    assert 1.85 <= data["value"] <= 2.02

    big = write_config(tmp_path, X=700.0)
    assert run(tmp_path, "pde", "dichotomy", "--w-star", "2.0", "--T", "120.0",
               "--deltas", "0.25", cfg=big) == 0
    report = json.loads((tmp_path / "out" / "dichotomy.json").read_text())
    assert report[0]["inside_ok"] and report[0]["outside_ok"]


def test_suite_and_report(tmp_path, capsys):
    cfg = write_config(tmp_path, seeds=2)
    code = run(tmp_path, "suite", "homogenized_bound", cfg=cfg)
    assert code == 0
    out = capsys.readouterr().out
    assert "verified" in out
    assert (tmp_path / "out" / "manifest.json").exists()

    assert run(tmp_path, "report", str(tmp_path / "out")) == 0
    out = capsys.readouterr().out
    assert "\n  suite homogenized_bound:\n    [    verified] " in out
    assert "sha" in out
    assert "  workers 1\n" in out
    assert f"  numpy {np.__version__}\n" in out
    assert "OPENBLAS_NUM_THREADS" in out


def test_report_without_a_manifest_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "report", str(tmp_path / "nothing"))
    assert exc.value.code == 2
    assert ("kpplab: error: cannot read the run's manifest"
            in capsys.readouterr().err)


@pytest.mark.parametrize("manifest", ["{}", "[]", '{"run_key": "k"}'])
def test_report_on_a_manifest_without_its_fields_is_a_usage_error(
        tmp_path, capsys, manifest):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text(manifest)
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "report", str(run_dir))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.strip().splitlines()
    assert errors[-1].startswith("kpplab: error: cannot read the run's manifest")
    assert "Traceback" not in captured.err


MANIFEST = {"run_key": "k", "tool_version": "0", "started_at": "s",
            "finished_at": "f", "master_seed": 1, "outputs": []}


@pytest.mark.parametrize("report", [
    "{}", "not json", "[]", '{"suite": "s", "verdicts": [{}]}',
    '{"suite": "s", "verdicts": [{"verdict": "verified", "claim": "c", '
    '"margin": "0"}]}'],
    ids=["no_fields", "not_json", "list", "verdict_fields", "string_margin"])
def test_report_on_a_bad_suite_report_is_a_usage_error(tmp_path, capsys,
                                                       report):
    # a bad *_report.json is refused as a whole: nothing of the run is
    # printed, and one error line names the file
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text(json.dumps(MANIFEST))
    (run_dir / "a_report.json").write_text(
        '{"suite": "a", "verdicts": []}')
    (run_dir / "b_report.json").write_text(report)
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "report", str(run_dir))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.strip().splitlines()
    assert errors[-1].startswith(
        "kpplab: error: cannot read the run's b_report.json")
    assert "Traceback" not in captured.err


def stub_suite(verdict):
    """A suite that returns one verdict of the given kind."""
    def suite(config, threads=1):
        return lab.SuiteReport(suite="stub", config=config, points=[],
                               verdicts=[lab.Verdict("claim", "margin > 0",
                                                     0.0, verdict, 0.0)])
    return suite


@pytest.mark.parametrize("verdict,code", [("violated", 2),
                                          ("inconclusive", 3)])
def test_suite_exit_code_follows_its_verdict(tmp_path, capsys, monkeypatch,
                                             verdict, code):
    monkeypatch.setitem(lab.SUITES, "stub", stub_suite(verdict))
    assert run(tmp_path, "suite", "stub", cfg=write_config(tmp_path)) == code
    assert f"[{verdict:>12}] claim: " in capsys.readouterr().out


def test_seed_overrides_the_master_seed(tmp_path, monkeypatch):
    monkeypatch.setitem(lab.SUITES, "stub", stub_suite("verified"))
    assert run(tmp_path, "--seed", "123", "suite", "stub",
               cfg=write_config(tmp_path, master_seed=7)) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["master_seed"] == 123
    assert manifest["config"]["master_seed"] == 123


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, threads):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "--threads", threads, "suite", "homogenized_bound")
    assert exc.value.code == 2
    assert "--threads: must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_numerical_failure_exit_code(tmp_path, capsys):
    # front escapes the tiny window: exit code 4
    cfg = write_config(tmp_path, X=60.0,
                       pde={"h": 0.05, "T": 100.0, "dt": 0.05,
                            "snapshot_every": 1.0, "fit_fraction": 0.5})
    assert run(tmp_path, "pde", "speed", cfg=cfg) == 4
    assert "numerical failure" in capsys.readouterr().err


def test_numerical_failure_family():
    for cls, base in [(ops.NoConvergence, RuntimeError),
                      (ops.PositivityViolation, ValueError),
                      (BracketFailure, RuntimeError),
                      (fr.GammaBelowThreshold, ValueError),
                      (pde.CFLViolation, ValueError),
                      (pde.FrontEscaped, RuntimeError),
                      (pde.TooFewSnapshots, ValueError),
                      (var.NoConvergence, RuntimeError),
                      (var.DegenerateTilt, ValueError)]:
        assert issubclass(cls, NumericalFailure) and issubclass(cls, base)


def test_too_few_snapshots_exit_code(tmp_path, capsys):
    # T / snapshot_every leaves fewer than 10 snapshots in the fit window
    cfg = write_config(tmp_path, pde={"h": 0.05, "T": 35.0, "dt": 0.05,
                                      "snapshot_every": 5.0,
                                      "fit_fraction": 0.5})
    assert run(tmp_path, "pde", "speed", cfg=cfg) == 4
    assert "numerical failure" in capsys.readouterr().err


def test_bracket_failure_exit_code(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise BracketFailure(1.0, 2.0, 8)

    monkeypatch.setattr(fr, "speed_freidlin", fail)
    cfg = write_config(tmp_path)
    assert run(tmp_path, "freidlin", "speed", cfg=cfg) == 4
    assert "numerical failure" in capsys.readouterr().err
