"""Command-line interface.

Each sampling command (medium, eigen, freidlin, variational and pde) takes
``--stream`` and writes its payloads into ``--out``; the pde commands sample
the stream's medium on the config's ``pde`` grid, the others on its ``h``.
A config file may only name keys the default config has.

Exit codes: 0 success, 2 a suite verdict was violated or the input was
refused (a usage error: an unreadable or invalid config, a config a suite
does not accept, an argument a command refuses or an unreadable run to
report; nothing is written), 3 a suite was inconclusive,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import freidlin as fr
from . import medium as med
from . import operators as ops
from . import pde
from . import speedlab as lab
from . import variational as var
from .results import NumericalFailure, write_json

EXIT_OK = 0
EXIT_VIOLATED = 2
EXIT_INCONCLUSIVE = 3
EXIT_NUMERICAL = 4


def _load_config(args) -> dict:
    overrides = {}
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read --config: {exc}") from None
        overrides = json.loads(text)
        if not isinstance(overrides, dict):
            raise ValueError("--config must hold a JSON object")
    cfg = lab.make_config(**overrides)
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    if args.tol is not None:
        cfg["tol"] = args.tol
    return cfg


def _setup(args, pde_grid: bool = False):
    """(cfg, m): the config and the stream's medium.

    The medium is sampled on cfg["pde"]["h"] when pde_grid is set, else on
    cfg["h"].
    """
    cfg = _load_config(args)
    m = lab._realization(cfg, args.stream,
                         cfg["pde"]["h"] if pde_grid else None)
    return cfg, m


def _out_dir(args) -> Path:
    """The --out directory, made just before a command's first write, so
    that input a command refuses leaves nothing behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _front_trace(cfg: dict, m) -> pde.FrontTrace:
    pcfg = cfg["pde"]
    return pde.simulate(m, pde.ReactionSpec("logistic_c"), T=pcfg["T"],
                        dt=pcfg["dt"], snapshot_every=pcfg["snapshot_every"])


def _write_dat(path: Path, rows, header: str) -> Path:
    lines = [f"# {header}"]
    lines += [" ".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def cmd_medium_sample(args) -> int:
    _, m = _setup(args)
    path = med.save_realization(m,
                                _out_dir(args) / f"medium_{args.stream}.kppm")
    em = med.empirical_means(m)
    print(f"wrote {path} (N={m.N}, X={m.X:g}, h={m.h:g}); "
          f"mean_c={em.mean_c:.6g} mean_a={em.mean_a:.6g} "
          f"mean_inv_a={em.mean_inv_a:.6g}")
    return EXIT_OK


def cmd_eigen_kp(args) -> int:
    cfg, m = _setup(args)
    ps = np.linspace(args.p_min, args.p_max, args.p_count)
    curve = ops.kp_curve(m, ps, tol=cfg["tol"])
    res = ops.k_p(m, args.p, tol=cfg["tol"])
    out = _out_dir(args)
    _write_dat(out / "kp_curve.dat", curve, "p  k_p")
    write_json(out / "kp.json", {
        **res.to_dict(), "p": args.p, "N": m.N, "h": m.h, "X": m.X,
        "realization_id": m.realization_id})
    print(f"k_p(p={args.p:g}) = {res.lam!r}  residual={res.residual:.2e} "
          f"iters={res.iters}")
    return EXIT_OK


def cmd_eigen_speed(args) -> int:
    cfg, m = _setup(args)
    est = lab._eigen_speed(cfg, m)
    rows = sorted((float(k), v) for k, v in est.provenance["kp_evals"].items())
    out = _out_dir(args)
    _write_dat(out / "kp_curve.dat", rows, "p  k_p")
    write_json(out / "speed_eigen.json", asdict(est))
    print(f"w* = {est.value!r} at p* = {est.optimizer!r} (err {est.err:.2e})")
    return EXIT_OK


def cmd_freidlin_mu(args) -> int:
    cfg, m = _setup(args)
    lam1 = ops.k_p(m, 0.0, tol=cfg["tol"]).lam
    lo = (args.gamma_min if args.gamma_min is not None
          else fr.gamma_floor(m, lam1))
    hi = args.gamma_max if args.gamma_max is not None else 4.0 * lo
    gammas = np.linspace(lo, hi, args.gamma_count)
    curve = fr.mu_curve(m, gammas, lambda1_estimate=lam1)
    out = _out_dir(args)
    curve.to_csv(out / "mu_curve.csv")
    _write_dat(out / "mu_curve.dat",
               np.column_stack([curve.gamma, curve.mu]), "gamma  mu")
    print(f"mu curve on [{lo:g}, {hi:g}] written "
          f"(Lambda_1 ~ {curve.lambda1_estimate:.6g})")
    return EXIT_OK


def cmd_freidlin_speed(args) -> int:
    cfg, m = _setup(args)
    est = fr.speed_freidlin(m, tol=cfg["speed_tol"])
    write_json(_out_dir(args) / "speed_freidlin.json", asdict(est))
    print(f"w* = {est.value!r} at gamma* = {est.optimizer!r} "
          f"(mu* = {est.provenance['mu_star']:.6g})")
    return EXIT_OK


def cmd_variational_minimize(args) -> int:
    cfg, m = _setup(args)
    if args.p is not None:
        p = args.p
    else:
        p = 1.5 * lab._eigen_speed(cfg, m).optimizer
    res = var.minimize_theta(m, p, max_iters=args.max_iters)
    out = _out_dir(args)
    theta_path = out / "theta.f64"
    theta_path.write_bytes(np.ascontiguousarray(
        res.theta.theta, dtype="<f8").tobytes())
    summary = {
        "p": p, "k0_value": res.k0_value, "k_p_direct": res.kp_direct,
        "gap_vs_direct": res.gap_vs_direct, "grad_norm": res.grad_norm,
        "iters": res.iters, "solves": res.solves, "stop": res.stop,
        "start": res.start,
        "theta_sup_norm": res.theta.sup_norm,
        "theta_file": theta_path.name, "N": m.N, "h": m.h, "X": m.X,
        "realization_id": m.realization_id,
    }
    write_json(out / "theta_summary.json", summary)
    print(f"min theta value = {res.k0_value!r} vs k_p = {res.kp_direct!r} "
          f"(gap {res.gap_vs_direct:.3e}, {res.iters} Newton steps, "
          f"{res.solves} eigen solves, {res.stop} from {res.start})")
    return EXIT_OK


def cmd_pde_run(args) -> int:
    cfg, m = _setup(args, pde_grid=True)
    trace = _front_trace(cfg, m)
    out = _out_dir(args)
    trace.to_csv(out / "front.csv")
    _write_dat(out / "front.dat",
               np.column_stack([trace.times, trace.positions]), "t  position")
    print(f"front trace with {trace.times.size} snapshots written")
    return EXIT_OK


def cmd_pde_speed(args) -> int:
    cfg, m = _setup(args, pde_grid=True)
    est = pde.front_speed(_front_trace(cfg, m), cfg["pde"]["fit_fraction"])
    write_json(_out_dir(args) / "speed_pde.json", asdict(est))
    print(f"fitted front speed = {est.value!r} +- {est.err:.3g}")
    return EXIT_OK


def cmd_pde_dichotomy(args) -> int:
    cfg, m = _setup(args, pde_grid=True)
    if args.w_star is not None:
        w = args.w_star
    else:
        w = lab._eigen_speed(cfg, lab._realization(cfg, args.stream)).value
    report = pde.dichotomy_check(m, pde.ReactionSpec("logistic_c"), w,
                                 args.deltas, T=args.T, dt=cfg["pde"]["dt"])
    write_json(_out_dir(args) / "dichotomy.json", report)
    for rec in report:
        print(rec)
    ok = all(r["inside_ok"] and r["outside_ok"]
             for r in report if r["inside_ok"] is not None)
    return EXIT_OK if ok else EXIT_VIOLATED


def cmd_suite(args) -> int:
    cfg = _load_config(args)
    report = lab.run_suite(args.name, cfg, out_dir=args.out,
                           threads=args.threads)
    for v in report.verdicts:
        print(f"[{v.verdict:>12}] {v.claim}: margin {v.margin:+.3e} "
              f"(tol {v.tolerance:g})")
    if report.any_violated:
        return EXIT_VIOLATED
    if not report.all_verified:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_report(args) -> int:
    run_dir = Path(args.run_id)
    source = "manifest"
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text())
        lines = [f"run {manifest['run_key']} (tool {manifest['tool_version']})",
                 f"  started  {manifest['started_at']}",
                 f"  finished {manifest['finished_at']}",
                 f"  master_seed {manifest['master_seed']}"]
        lines += [f"  {key} {value}"
                  for key, value in manifest.get("environment", {}).items()]
        lines += [f"  output {rec['path']}  sha {rec['sha']}"
                  for rec in manifest["outputs"]]
        for path in sorted(run_dir.glob("*_report.json")):
            source = path.name
            data = json.loads(path.read_text())
            lines.append(f"  suite {data['suite']}:")
            lines += [f"    [{v['verdict']:>12}] {v['claim']} "
                      f"margin {v['margin']:+.3e}" for v in data["verdicts"]]
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read the run's {source}: {exc}") from None
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"cannot read the run's {source}: it lacks a field "
                         f"({type(exc).__name__}: {exc})") from None
    print("\n".join(lines))
    return EXIT_OK


def _worker_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kpplab",
        description="Spreading speeds of 1-D KPP fronts in heterogeneous media")
    ap.add_argument("--config", help="JSON config file (merged over defaults)")
    ap.add_argument("--seed", type=int, help="master seed override")
    ap.add_argument("--out", default="runs/latest", help="output directory")
    ap.add_argument("--threads", type=_worker_count, default=1,
                    help="worker threads of a suite (at least 1)")
    ap.add_argument("--tol", type=float, help="eigen tolerance override")
    sub = ap.add_subparsers(dest="command", required=True)
    # the parent parser of every command that samples a medium
    stream = argparse.ArgumentParser(add_help=False)
    stream.add_argument("--stream", type=int, default=0)

    p_med = sub.add_parser("medium", help="medium generation")
    med_sub = p_med.add_subparsers(dest="subcommand", required=True)
    p = med_sub.add_parser("sample", parents=[stream],
                           help="sample and persist one realization")
    p.set_defaults(fn=cmd_medium_sample)

    p_eig = sub.add_parser("eigen", help="tilted-operator eigenvalues")
    eig_sub = p_eig.add_subparsers(dest="subcommand", required=True)
    p = eig_sub.add_parser("kp", parents=[stream],
                           help="k_p at one tilt plus a (p, k_p) curve")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--p-min", type=float, default=0.2)
    p.add_argument("--p-max", type=float, default=2.0)
    p.add_argument("--p-count", type=int, default=10)
    p.set_defaults(fn=cmd_eigen_kp)
    p = eig_sub.add_parser("speed", parents=[stream],
                           help="w* by eigenvalue minimization")
    p.set_defaults(fn=cmd_eigen_speed)

    p_fr = sub.add_parser("freidlin", help="Lyapunov-exponent route")
    fr_sub = p_fr.add_subparsers(dest="subcommand", required=True)
    p = fr_sub.add_parser("mu", parents=[stream], help="mu(gamma) curve")
    p.add_argument("--gamma-min", type=float)
    p.add_argument("--gamma-max", type=float)
    p.add_argument("--gamma-count", type=int, default=25)
    p.set_defaults(fn=cmd_freidlin_mu)
    p = fr_sub.add_parser("speed", parents=[stream],
                          help="w* by gamma/mu minimization")
    p.set_defaults(fn=cmd_freidlin_speed)

    p_var = sub.add_parser("variational", help="drift-field optimization")
    var_sub = p_var.add_subparsers(dest="subcommand", required=True)
    p = var_sub.add_parser("minimize", parents=[stream],
                           help="minimize k_0(a, c + a(p+theta)^2)")
    p.add_argument("--p", type=float)
    p.add_argument("--max-iters", type=int, default=300)
    p.set_defaults(fn=cmd_variational_minimize)

    p_pde = sub.add_parser("pde", help="direct front simulation")
    pde_sub = p_pde.add_subparsers(dest="subcommand", required=True)
    p = pde_sub.add_parser("run", parents=[stream],
                           help="integrate and record the front trace")
    p.set_defaults(fn=cmd_pde_run)
    p = pde_sub.add_parser("speed", parents=[stream],
                           help="fitted front speed")
    p.set_defaults(fn=cmd_pde_speed)
    p = pde_sub.add_parser("dichotomy", parents=[stream],
                           help="probe u at (1 +- delta) w* T")
    p.add_argument("--w-star", type=float)
    p.add_argument("--T", type=float, default=150.0)
    p.add_argument("--deltas", type=float, nargs="+", default=[0.25])
    p.set_defaults(fn=cmd_pde_dichotomy)

    p = sub.add_parser("suite", help="run a verification suite")
    p.add_argument("name", choices=sorted(lab.SUITES))
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("report", help="summarize a previous run directory")
    p.add_argument("run_id", help="run directory containing manifest.json")
    p.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # refused input: a usage error
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
