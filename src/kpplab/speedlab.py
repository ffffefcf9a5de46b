"""Theorem-verification suites over ensembles of sampled media.

A run config is a plain JSON-able dict; see DEFAULT_CONFIG for the knobs.
Seeds are paired across parameter values (stream ids 0..S-1 regardless of the
parameter grid, common random numbers), so monotonicity claims compare the
same realizations.  "Almost sure" statements become ensemble claims with
three-valued verdicts: verified, violated, or inconclusive when the
confidence interval straddles the gate.  A suite's report payload is
``dataclasses.asdict`` of its SuiteReport, verdicts included.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import freidlin as fr
from . import medium as med
from . import operators as ops
from . import variational as var
from .manifest import environment, run_key, utc_now, write_manifest
from .results import SpeedEstimate, write_json

DEFAULT_CONFIG: dict = {
    "ensemble": {"kind": "dimer_random", "a_plus": 1.0, "a_minus": 1.0,
                 "c_plus": 1.5, "c_minus": 0.5, "len1": 1.0, "len2": 1.0,
                 "eps": 0.2, "length_dist": "uniform", "jitter": 0.3},
    "X": 400.0,
    "h": 0.01,
    "seeds": 8,
    "master_seed": 20260810,
    "tol": 1e-8,
    "p_lo": 0.3,
    "p_hi": 3.0,
    "speed_tol": 1e-4,
    "pde": {"h": 0.05, "T": 160.0, "dt": 0.05, "snapshot_every": 1.0,
            "fit_fraction": 0.5},
    "kappa_grid": [1.0, 2.0, 4.0],
    "B_grid": [0.0, 0.2, 0.4],
    "reaction_r": 1.0,
    "c_shift": 0.5,
    "L_grid": [0.5, 1.0, 2.0, 4.0],
    "identity_p_grid": [0.3, 0.7, 1.2],
    "p_grid": [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0],
    "duality_p_grid": [0.8, 1.0, 1.2, 1.5, 1.8],
    "attainment_max_iters": 300,
}


def _check_type(key: str, value, default) -> None:
    """Refuse a value whose type differs from its default's: an integer, a
    number (a bool is neither), a list of numbers or an object."""
    def number(v, kind=(int, float)) -> bool:
        return isinstance(v, kind) and not isinstance(v, bool)

    if isinstance(default, dict):
        ok, kind = isinstance(value, dict), "an object"
    elif isinstance(default, list):
        ok = isinstance(value, list) and all(map(number, value))
        kind = "a list of numbers"
    elif isinstance(default, int):
        ok, kind = number(value, int), "an integer"
    else:
        ok, kind = number(value), "a number"
    if not ok:
        raise ValueError(f"config key {key} must be {kind}, got {value!r}")


def make_config(**overrides) -> dict:
    """DEFAULT_CONFIG with overrides; a ``pde`` dict merges into its defaults.

    Raises ValueError naming any key DEFAULT_CONFIG does not have (at the
    top level or in ``pde``), so that a misspelt key cannot run silently on
    its default, or any value of another type than its default's, for
    ``seeds`` below 1 and for a negative ``attainment_max_iters``.
    """
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    unknown = sorted(set(overrides) - set(cfg))
    pde = overrides.get("pde")
    if isinstance(pde, dict):
        unknown += [f"pde.{k}" for k in sorted(set(pde) - set(cfg["pde"]))]
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for k, v in overrides.items():
        _check_type(k, v, cfg[k])
        cfg[k] = {**cfg[k], **v} if k == "pde" else v
    for k, v in cfg["pde"].items():
        _check_type(f"pde.{k}", v, DEFAULT_CONFIG["pde"][k])
    if cfg["seeds"] < 1:
        raise ValueError(f"seeds must be at least 1, got {cfg['seeds']!r}")
    if cfg["attainment_max_iters"] < 0:
        raise ValueError("attainment_max_iters must be at least 0, got "
                         f"{cfg['attainment_max_iters']!r}")
    return cfg


def _spec(cfg: dict) -> med.EnsembleSpec:
    return med.spec_from_dict(cfg["ensemble"])


def _realization(cfg: dict, stream_id: int,
                 h: float | None = None) -> med.MediumRealization:
    return med.sample_realization(_spec(cfg), cfg["master_seed"], stream_id,
                                  cfg["X"], cfg["h"] if h is None else h)


def statistical_slack(spec: med.EnsembleSpec, c_values: np.ndarray, X: float) -> float:
    """Allowance for comparing window averages against ensemble quantities.

    3 * (window std of c) / sqrt(X / corr_length), with the correlation-length
    proxy taken from the ensemble kind (block period for dimers, longest mode
    for trigonometric media).  Zero for constant media.
    """
    std = float(np.std(c_values))
    if std == 0.0:
        return 0.0
    return 3.0 * std / np.sqrt(X / spec.corr_length)


def _per_seed(config: dict, one, threads: int,
              probe: med.MediumRealization | None = None) -> list[dict]:
    """Run one(m, stream) on the realization of each stream 0..seeds-1.

    ``probe``, when given, is stream 0's realization, already sampled by the
    suite, and is used as it is.  Results come back in stream order whatever
    the thread count, each dict tagged with its "stream".  With threads > 1
    the seeds run on a thread pool: the Perron and Hessian solves release
    the GIL in LAPACK (see ``tridiag``) and numpy's loops release it too,
    so the workers compute at the same time.  Each speed search builds its
    own workspace (operators.TiltWorkspace) and passes it to its k_p calls,
    and each other solve makes its own buffers, so no workspace is shared
    between threads.
    """
    def task(stream):
        m = (probe if stream == 0 and probe is not None
             else _realization(config, stream))
        return {"stream": stream, **one(m, stream)}

    streams = range(config["seeds"])
    if threads <= 1:
        return [task(s) for s in streams]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(task, streams))


def _is_const(arr: np.ndarray) -> bool:
    """Whether a field is constant up to rounding, relative to its size."""
    return bool(np.ptp(arr) <= 1e-12 * np.max(np.abs(arr)))


def _grid_diffs(points: list[dict], key: str, grid: list) -> list:
    """Successive differences of each point's values along a parameter grid."""
    return [d for p in points for d in np.diff([p[key][repr(g)] for g in grid])]


def _eigen_speed(cfg, m) -> SpeedEstimate:
    return ops.speed_from_kp(m, cfg["p_lo"], cfg["p_hi"],
                             tol=cfg["speed_tol"],
                             eig_tol=min(cfg["tol"], 1e-7))


# ---------------------------------------------------------------------------
# suite machinery
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    claim: str
    inequality: str
    tolerance: float
    verdict: str  # verified | violated | inconclusive
    margin: float
    details: dict = field(default_factory=dict)


@dataclass
class SuiteReport:
    suite: str
    config: dict
    points: list
    verdicts: list[Verdict]
    manifest_hash: str = ""

    @property
    def all_verified(self) -> bool:
        return all(v.verdict == "verified" for v in self.verdicts)

    @property
    def any_violated(self) -> bool:
        return any(v.verdict == "violated" for v in self.verdicts)


def _ensemble_verdict(claim, inequality, margins, gate, tolerance,
                      frac_required=1.0) -> Verdict:
    """Three-valued verdict for per-seed margins against a gate.

    verified: required fraction of seeds clears the gate; violated: the
    ensemble mean sits below the gate by more than its CI; inconclusive
    otherwise (CI straddles the gate).
    """
    margins = np.asarray(margins, dtype=float)
    ok = margins > gate
    frac = float(np.mean(ok))
    mean = float(np.mean(margins))
    ci = (1.96 * float(np.std(margins, ddof=1) / np.sqrt(margins.size))
          if margins.size > 1 else 0.0)
    det = {"gate": gate, "fraction_ok": frac, "mean_margin": mean,
           "ci95": ci, "n": int(margins.size)}
    if frac >= frac_required:
        verdict = "verified"
    elif mean - ci > gate:
        verdict = "inconclusive"  # seeds fail but the mean clears the gate
    elif mean + ci < gate:
        verdict = "violated"
    else:
        verdict = "inconclusive"
    return Verdict(claim=claim, inequality=inequality, tolerance=tolerance,
                   verdict=verdict, margin=mean - gate, details=det)


def _gap_verdict(claim: str, gap: str, gaps, tol: float) -> Verdict:
    """Verdict that every gap of an exact identity stays within 5*tol."""
    return _ensemble_verdict(claim, f"{gap} <= 5*tol", [-g for g in gaps],
                             gate=-5.0 * tol, tolerance=5.0 * tol)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_homogenized_bound(config: dict, threads: int = 1) -> SuiteReport:
    """Speed never falls below the harmonic-mean homogenized speed.

    Per seed, compares the eigen-method w* against 2 sqrt(mean_c/mean_inv_a)
    computed from the same window.  Strictness (margin beyond 3x the
    statistical slack) is asserted only when a is constant and c is not.
    """
    spec = _spec(config)

    def one(m, stream_id):
        em = med.empirical_means(m)
        bound = 2.0 * np.sqrt(em.mean_c / em.mean_inv_a)
        est = _eigen_speed(config, m)
        return {"w": est.value, "p_star": est.optimizer, "bound": bound,
                "slack": statistical_slack(spec, m.c, m.X),
                "margin": est.value - bound,
                "a_const": _is_const(m.a), "c_const": _is_const(m.c)}

    points = _per_seed(config, one, threads)
    # the slack is purely statistical and vanishes for constant media, where
    # the only play left is optimizer tolerance; keep a numeric floor
    slack = points[0]["slack"]
    floor = max(slack, 1e-6)
    verdicts = [_ensemble_verdict(
        "homogenized lower bound",
        "w* >= 2*sqrt(mean_c/mean_inv_a) - slack",
        [p["margin"] for p in points], gate=-floor, tolerance=floor)]
    if points and points[0]["a_const"] and not points[0]["c_const"]:
        verdicts.append(_ensemble_verdict(
            "strict bound for constant a, nonconstant c",
            "w* - 2*sqrt(mean_c/mean_inv_a) > 3*slack",
            [p["margin"] for p in points], gate=3.0 * slack, tolerance=slack,
            frac_required=0.95))
    return SuiteReport(suite="homogenized_bound", config=config, points=points,
                       verdicts=verdicts)


def suite_diffusion_monotonicity(config: dict, threads: int = 1) -> SuiteReport:
    """kappa -> w*(kappa a, c) increases when c is constant.

    Also checks the exact linearity k_p(kappa a, c) = kappa k_p(a, 0) + c at
    the assembled-matrix level (tolerance 5*tol).  Configs with nonconstant c
    are rejected: the monotonicity can fail in that generality.
    """
    probe = _realization(config, 0)
    if not _is_const(probe.c):
        raise ValueError("suite_diffusion_monotonicity requires constant c")
    c_val = float(probe.c[0])
    kappas = list(config["kappa_grid"])
    tol = config["tol"]
    eig_tol = min(tol, 1e-10)
    p_id = config["identity_p_grid"][len(config["identity_p_grid"]) // 2]

    def one(m, stream_id):
        rec = {"w": {}, "identity_gap": {}}
        m0 = med.replace_c(m, np.zeros(m.N), "czero")
        for kappa in kappas:
            mk = med.scale_a(m, kappa)
            rec["w"][repr(kappa)] = _eigen_speed(config, mk).value
            lhs = ops.k_p(mk, p_id, tol=eig_tol).lam
            rhs = kappa * ops.k_p(m0, p_id, tol=eig_tol).lam + c_val
            rec["identity_gap"][repr(kappa)] = abs(lhs - rhs)
        return rec

    points = _per_seed(config, one, threads, probe)
    verdicts = [_gap_verdict(
        "diffusion linearity identity",
        "|k_p(kappa a, c) - kappa k_p(a, 0) - c|",
        [g for p in points for g in p["identity_gap"].values()], tol)]
    noise = 3.0 * config["speed_tol"]
    verdicts.append(_ensemble_verdict(
        "speed increases with diffusion (constant c)",
        "w*(kappa2 a) > w*(kappa1 a) for kappa2 > kappa1, beyond paired noise",
        _grid_diffs(points, "w", kappas), gate=noise, tolerance=noise))
    return SuiteReport(suite="diffusion_monotonicity", config=config,
                       points=points, verdicts=verdicts)


def suite_reaction_monotonicity(config: dict, threads: int = 1) -> SuiteReport:
    """Larger reaction means faster fronts; zero-mean perturbations help.

    Part 1: per paired seed, w*(a, c + shift) >= w*(a, c) for shift >= 0.
    Part 2: with a == 1 and g the window-demeaned c, B -> w* of rate
    r + B*(c - mean_c) is nondecreasing on the B grid (strictly increasing
    beyond paired noise when c is nonconstant); B values at or above the
    admissibility threshold B* are rejected.
    """
    shift = float(config["c_shift"])
    if shift < 0:
        raise ValueError("c_shift must be nonnegative")
    r = float(config["reaction_r"])
    b_grid = [float(b) for b in config["B_grid"]]

    probe = _realization(config, 0)
    demeaned = probe.c - float(np.mean(probe.c))
    b_star = r / abs(float(np.min(demeaned))) if np.min(demeaned) < 0 else np.inf
    if max(b_grid) >= b_star:
        raise ValueError(f"B grid reaches the admissibility threshold B*={b_star:g}")

    def one(m, stream_id):
        w_base = _eigen_speed(config, m).value
        w_shift = _eigen_speed(
            config, med.replace_c(m, m.c + shift, "cshift")).value
        dem = m.c - float(np.mean(m.c))
        w_b = {}
        for b in b_grid:
            mb = med.replace_c(m, r + b * dem, "bdem")
            w_b[repr(b)] = _eigen_speed(config, mb).value
        return {"w_base": w_base, "w_shifted": w_shift, "w_B": w_b}

    points = _per_seed(config, one, threads, probe)
    noise = 3.0 * config["speed_tol"]
    verdicts = [_ensemble_verdict(
        "comparison w*(a, c) <= w*(a, c + shift)",
        "w*(c + shift) - w*(c) >= 0 on all paired seeds",
        [p["w_shifted"] - p["w_base"] for p in points],
        gate=-noise, tolerance=noise)]
    b_diffs = _grid_diffs(points, "w_B", b_grid)
    verdicts.append(_ensemble_verdict(
        "B-monotonicity of w*(1, r + B (c - mean c))",
        "w* nondecreasing across the B grid on paired seeds",
        b_diffs, gate=-noise, tolerance=noise))
    if not _is_const(probe.c):
        verdicts.append(_ensemble_verdict(
            "strict B-monotonicity for nonconstant c",
            "w* increases across the B grid beyond paired noise",
            b_diffs, gate=noise, tolerance=noise))
    return SuiteReport(suite="reaction_monotonicity", config=config,
                       points=points, verdicts=verdicts)


def suite_scaling_monotonicity(config: dict, threads: int = 1) -> SuiteReport:
    """Coarser media are faster: L -> w*(a_L, c_L) is nondecreasing.

    Verifies the exact rescaling identity k_p(a_L, c_L) =
    k_{pL}(a, L^2 c) / L^2 at 5*tol per (L, p) sample (the right side is
    evaluated on the parent sampled at spacing h/L, the same physical points
    the rescaled window uses), then checks monotonicity of w* over the L
    grid on paired seeds; strict increase is asserted only for constant a
    with nonconstant c and reported otherwise.
    """
    l_grid = [float(v) for v in config["L_grid"]]
    id_ls = [v for v in l_grid if v >= 1.0] or l_grid
    tol = config["tol"]
    eig_tol = min(tol, 1e-10)

    def one(m, stream_id):
        rec = {"w": {}, "identity_gap": {}}
        for L in l_grid:
            mL = med.rescale(m, L)
            rec["w"][repr(L)] = _eigen_speed(config, mL).value
            if L in id_ls:
                gaps = {}
                # at L = 1 the fine grid is the seed's own medium
                fine = (m if L == 1.0 else
                        _realization(config, stream_id, h=config["h"] / L))
                fine2 = med.replace_c(fine, L * L * fine.c, "scalesq")
                for p in config["identity_p_grid"]:
                    lhs = ops.k_p(mL, p, tol=eig_tol).lam
                    rhs = ops.k_p(fine2, p * L, tol=eig_tol).lam / (L * L)
                    gaps[repr(p)] = abs(lhs - rhs)
                rec["identity_gap"][repr(L)] = gaps
        return rec

    probe = _realization(config, 0)
    points = _per_seed(config, one, threads, probe)
    verdicts = [_gap_verdict(
        "window rescaling identity",
        "|k_p(a_L, c_L) - k_{pL}(a, L^2 c)/L^2|",
        [g for p in points for gs in p["identity_gap"].values()
         for g in gs.values()], tol)]
    noise = 3.0 * config["speed_tol"]
    diffs = _grid_diffs(points, "w", l_grid)
    verdicts.append(_ensemble_verdict(
        "speed nondecreasing under coarsening",
        "w*(a_L, c_L) nondecreasing over the L grid on paired seeds",
        diffs, gate=-noise, tolerance=noise))
    if _is_const(probe.a) and not _is_const(probe.c):
        verdicts.append(_ensemble_verdict(
            "strict increase for constant a, nonconstant c",
            "w* increases across the L grid beyond paired noise",
            diffs, gate=noise, tolerance=noise))
    return SuiteReport(suite="scaling_monotonicity", config=config,
                       points=points, verdicts=verdicts)


def suite_eigen_properties(config: dict, threads: int = 1,
                           include_variational: bool = True) -> SuiteReport:
    """Property battery for the eigenvalue map p -> k_p on one ensemble.

    Parity k_p = k_{-p}; convexity of p -> k_p; k_p >= k_0; the window-mean
    lower bounds k_0 >= mean_c and k_p >= mean_c + p^2/mean_inv_a (with
    statistical slack); Lyapunov duality mu(k_p) = p where gamma = k_p is
    admissible; attainment of the variational formula at p = 1.5 p*.

    The lower attainment gate (min_theta k_0 - k_p)/k_p >= -1e-6 assumes
    h <= 0.01: the discrete variational value sits an O(h^2) offset below
    the discrete k_p, and a converged descent on the default dimer reads
    about -1.56e-6 at h = 0.02.
    """
    p_grid = [float(p) for p in config["p_grid"]]
    tol = config["tol"]
    eig_tol = min(tol, 1e-10)
    spec = _spec(config)

    def one(m, stream_id):
        em = med.empirical_means(m)
        kp = {repr(p): ops.k_p(m, p, tol=eig_tol).lam for p in p_grid}

        def cold_kp(p):  # read from the grid when p is on it
            key = repr(float(p))
            return kp[key] if key in kp else ops.k_p(m, p, tol=eig_tol).lam

        k0 = cold_kp(0.0)
        rec = {"k_p": kp, "k0": k0,
               "mean_c": em.mean_c, "mean_inv_a": em.mean_inv_a,
               "slack": statistical_slack(spec, m.c, m.X)}
        c_max = float(np.max(m.c))
        dual = {}
        for p in config["duality_p_grid"]:
            lam = cold_kp(p)
            if lam > c_max + fr.default_margin(k0):
                mu = fr.riccati_mu(m, lam, lambda1_estimate=k0)
                dual[repr(p)] = abs(mu - p)
        rec["duality_gap"] = dual
        if include_variational:
            est = _eigen_speed(config, m)
            p_att = 1.5 * est.optimizer
            res = var.minimize_theta(m, p_att,
                                     max_iters=config["attainment_max_iters"])
            rec["attainment"] = {"p": p_att,
                                 "rel_gap": res.gap_vs_direct / res.kp_direct,
                                 "iters": res.iters, "stop": res.stop,
                                 "start": res.start}
        return rec

    points = _per_seed(config, one, threads)
    verdicts = [_gap_verdict(
        "parity of the eigenvalue in the tilt", "|k_p - k_{-p}|",
        [abs(p["k_p"][repr(q)] - p["k_p"][repr(-q)])
         for p in points for q in p_grid if q > 0 and -q in p_grid], tol)]
    second = []
    for p in points:
        ks = np.array([p["k_p"][repr(q)] for q in p_grid])
        second.extend(np.diff(ks, 2))
    verdicts.append(_ensemble_verdict(
        "convexity of p -> k_p", "second differences >= -1e-6",
        second, gate=-1e-6, tolerance=1e-6))
    above = [p["k_p"][repr(q)] - p["k0"] for p in points for q in p_grid]
    verdicts.append(_ensemble_verdict(
        "zero tilt minimizes the eigenvalue", "k_p >= k_0 - 5*tol",
        above, gate=-5.0 * tol, tolerance=5.0 * tol))
    k0_lb = [p["k0"] - p["mean_c"] + p["slack"] for p in points]
    verdicts.append(_ensemble_verdict(
        "mean-reaction lower bound", "k_0 >= mean_c - slack",
        k0_lb, gate=0.0, tolerance=points[0]["slack"]))
    homog = [p["k_p"][repr(q)] - (p["mean_c"] + q * q / p["mean_inv_a"])
             + p["slack"] for p in points for q in p_grid]
    verdicts.append(_ensemble_verdict(
        "homogenized eigenvalue bound",
        "k_p >= mean_c + p^2/mean_inv_a - slack",
        homog, gate=0.0, tolerance=points[0]["slack"]))
    duality = [-g for p in points for g in p["duality_gap"].values()]
    if duality:
        verdicts.append(_ensemble_verdict(
            "Lyapunov duality", "|mu(k_p) - p| <= 2e-3",
            duality, gate=-2e-3, tolerance=2e-3))
    if include_variational:
        att = [p["attainment"]["rel_gap"] for p in points]
        verdicts.append(_ensemble_verdict(
            "variational attainment (upper side)",
            "(min_theta k_0 - k_p)/k_p <= 1e-3",
            [-a for a in att], gate=-1e-3, tolerance=1e-3))
        verdicts.append(_ensemble_verdict(
            "variational attainment (lower side)",
            "(min_theta k_0 - k_p)/k_p >= -1e-6",
            att, gate=-1e-6, tolerance=1e-6))
    return SuiteReport(suite="eigen_properties", config=config, points=points,
                       verdicts=verdicts)


SUITES = {
    "homogenized_bound": suite_homogenized_bound,
    "diffusion_monotonicity": suite_diffusion_monotonicity,
    "reaction_monotonicity": suite_reaction_monotonicity,
    "scaling_monotonicity": suite_scaling_monotonicity,
    "eigen_properties": suite_eigen_properties,
}


def run_suite(name: str, config: dict, out_dir: str | Path | None = None,
              threads: int = 1) -> SuiteReport:
    """Run a named suite, optionally persisting payloads and a manifest."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    started_at = utc_now()
    snapshot = {"suite": name, **config}
    report = SUITES[name](config, threads=threads)
    report.manifest_hash = run_key(snapshot, config["master_seed"])
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        payload = write_json(out / f"{name}_report.json", asdict(report))
        csv_path = out / f"{name}_verdicts.csv"
        lines = ["claim,verdict,margin,tolerance"]
        lines += [f"\"{v.claim}\",{v.verdict},{v.margin!r},{v.tolerance!r}"
                  for v in report.verdicts]
        csv_path.write_text("\n".join(lines) + "\n")
        write_manifest(out, snapshot, config["master_seed"], started_at,
                       environment(threads), [payload, csv_path])
    return report
