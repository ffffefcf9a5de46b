"""One round of one workload, in a fresh interpreter.

Started by run.py, never by hand.  Prints one JSON line: the set-up time,
the timed body's wall and CPU time, the process's peak RSS, the outcome of
every realization and the environment.  A fresh interpreter per round keeps
kpplab's module-global eigen memo from turning one round's solves into the
next round's hits, and makes ``ru_maxrss`` this round's own high-water mark.

With ``--trace-file`` the round runs with the tracer installed, writes its
spans there and adds a direct probe of the tridiagonal solvers on the
workload's own matrices (``operators`` and ``pde`` bind the solver classes at
import, so they cannot be wrapped).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_kpplab():
    if not (SRC / "kpplab" / "__init__.py").is_file():
        sys.exit(f"kpplab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import kpplab
    if Path(kpplab.__file__).resolve().parent != SRC / "kpplab":
        sys.exit(f"imported kpplab from {kpplab.__file__}, not from {SRC}")


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)  # counts every thread
    return ru.ru_utime + ru.ru_stime


def environment() -> dict:
    import importlib.util
    import os

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": sys.version.split()[0],
    }


def median_us(fn, min_reps: int = 5, min_s: float = 0.2) -> float:
    """Median wall time of fn() in microseconds over at least min_reps calls."""
    times = []
    t_end = time.perf_counter() + min_s
    while len(times) < min_reps or time.perf_counter() < t_end:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e6 * statistics.median(times)


def tridiag_probe(probe) -> dict:
    """Median factor and solve times on the workload's assembled matrices.

    The cyclic system is the Perron sweep's sigma*I - A(p) with sigma one
    above the largest Gershgorin row bound; the plain system is the IMEX
    diffusion matrix I - dt*D with no-flux walls.  Bytes per plain solve are
    computed, not measured: four factor arrays of doubles, int32 pivots, the
    right-hand side read and the solution written once each.
    """
    import numpy as np

    from kpplab import operators as ops
    from kpplab.tridiag import CyclicTridiagonalSolver, TridiagonalSolver

    op = ops.assemble_tilted(probe.medium, probe.p)
    sigma = float(np.max(np.abs(op.sub) + op.diag + np.abs(op.sup))) + 1.0
    args = (-op.sub, sigma - op.diag, -op.sup)
    cyc = CyclicTridiagonalSolver(*args)
    b = np.ones(op.N)

    md = probe.diffusion_medium
    fac = probe.dt / (md.h * md.h)
    a_r = md.a_half.copy()
    a_l = np.roll(md.a_half, 1)
    a_l[0] = 0.0
    a_r[-1] = 0.0
    plain = TridiagonalSolver(-fac * a_l, 1.0 + fac * (a_l + a_r), -fac * a_r)
    u = np.linspace(1.0, 0.0, md.N)
    solve_us = median_us(lambda: plain.solve(u))
    nbytes = md.N * (4 * 8 + 4 + 2 * 8)
    return {
        "tridiag.cyclic_factor_us": median_us(lambda: CyclicTridiagonalSolver(*args)),
        "tridiag.cyclic_solve_us": median_us(lambda: cyc.solve(b)),
        "tridiag.solve_us": solve_us,
        "tridiag.solve_bytes_computed": nbytes,
        "tridiag.solve_gbps_computed": nbytes / (solve_us * 1e3),
        "tridiag.cyclic_n": op.N,
        "tridiag.solve_n": md.N,
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--master-seed", type=int, required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before spawning")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file", default="")
    args = ap.parse_args(argv)

    _import_kpplab()
    import workloads
    rnd = workloads.Round(args.master_seed, args.threads,
                          workloads.SIZES[args.size][args.workload])
    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace_file:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    # CLOCK_MONOTONIC is system-wide, so it spans the parent and this process
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    cpu0, t0 = _cpu_s(), time.perf_counter()
    outcomes = wl.run(rnd)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"setup_s": setup_s, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss_mb,
           "outcomes": [vars(o) for o in outcomes], "env": environment()}
    if tracer is not None:
        tracer.uninstall()
        Path(args.trace_file).write_text(json.dumps(tracer.spans))
        called = {s["name"] for s in tracer.spans}
        missing = [q for q in wl.layers if q not in called]
        if missing:
            sys.exit(f"{args.workload}: no call caught by the wrappers of "
                     f"{', '.join(missing)} (a refactor bypasses them, or the "
                     "round failed before reaching them)")
        out["probe"] = tridiag_probe(wl.probe(rnd))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
