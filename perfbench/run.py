"""kpplab benchmark: one workload, closed loop, one fresh process per round.

Run from the repository root:

    python3 perfbench/run.py --workload cross_method --seed 1 --seconds 20 --trace 0

Rounds (see workloads.py) run back to back, each in its own interpreter,
until the next one would end after ``--seconds``; at least one runs.  Round r
samples its media from master seed ``seed + (r << 32)``, so round 0 uses the
seed itself and the same seed always gives the same inputs.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json:

* setup_s: from spawning a round's interpreter to its first timed call
  (interpreter start, ``import kpplab``, config and seed generation); the
  median over every round plus set-up-only starts, at least five in all.
* realizations_per_s: a round's realizations over the wall time of its
  timed body; the median over the rounds.
* cpu_s_per_realization: user plus system CPU of a round process over its
  body (``getrusage(RUSAGE_SELF)`` counts BLAS helper threads), per
  realization; the median over the rounds.
* peak_rss_mb: the largest ``ru_maxrss`` of a round process, in 2^20 bytes.
* success_rate: 1 - fail_rate, the share of realizations that neither raised
  nor failed their gate.  fail_rate itself is printed as a comment line and
  as ``failed`` / ``attempted``; a metric that reads 0 cannot be gated as a
  share of its median.

``--trace 1`` runs the rounds with spans around kpplab's public functions
(spans.py), then round 0 again untraced to measure the tracing overhead and,
for a pooled workload, untraced at threads=1 for the pool speed-up, and
prints the per-layer metrics.  Span files go to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The benchmark pins no
BLAS threads: it records OPENBLAS_NUM_THREADS and OMP_NUM_THREADS as found.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# worker threads per workload (the suite's thread pool; 1 = no pool)
THREADS = {"cross_method": 1, "ensemble_t2": 2, "theta_descent": 1}
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # every run must end within 180 s


class RoundFailed(RuntimeError):
    pass


def round_seed(seed: int, r: int) -> int:
    return seed + (r << 32)


def spawn(deadline: float, workload: str, master_seed: int, threads: int,
          size: str, trace_file: str = "", setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--master-seed", str(master_seed), "--threads", str(threads),
           "--size", size, "--trace-file", trace_file]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RoundFailed("run time limit reached before the round started")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        # on timeout, subprocess.run kills the worker and waits for it
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"round exceeded the run time limit ({exc.timeout:.0f} s)")
    if proc.returncode != 0:
        raise RoundFailed(f"worker exited with {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(args, deadline: float, trace: bool) -> list[dict]:
    """Closed loop of rounds until the next one would end after --seconds."""
    rounds = []
    start = time.monotonic()
    while True:
        r = len(rounds)
        trace_file = str(OUT / f"{args.workload}-{args.seed}-r{r}.json") if trace else ""
        res = spawn(deadline, args.workload, round_seed(args.seed, r),
                    THREADS[args.workload], args.size, trace_file)
        res["trace_file"] = trace_file
        rounds.append(res)
        elapsed = time.monotonic() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            return rounds


def end_to_end(args, deadline: float, rounds: list[dict]) -> dict:
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(deadline, args.workload, round_seed(args.seed, 0),
                            THREADS[args.workload], args.size,
                            setup_only=True)["setup_s"])
    n = [len(r["outcomes"]) for r in rounds]
    ok = sum(o["failure"] is None for r in rounds for o in r["outcomes"])
    return {
        "setup_s": statistics.median(setups),
        "realizations_per_s": statistics.median(
            k / r["wall_s"] for k, r in zip(n, rounds)),
        "cpu_s_per_realization": statistics.median(
            r["cpu_s"] / k for k, r in zip(n, rounds)),
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
        "success_rate": ok / sum(n),
    }


def per_layer(args, deadline: float, rounds: list[dict]) -> dict:
    from spans import layer_metrics

    threads = THREADS[args.workload]
    span_lists = [json.loads(Path(r["trace_file"]).read_text()) for r in rounds]
    metrics = layer_metrics(span_lists)
    probes = [r["probe"] for r in rounds]
    for key in probes[0]:
        metrics[key] = statistics.median(p[key] for p in probes)

    seed0 = round_seed(args.seed, 0)
    plain = spawn(deadline, args.workload, seed0, threads, args.size)
    metrics["trace.overhead_frac"] = (rounds[0]["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    metrics["speedlab.speedup_t2_vs_t1"] = 0.0  # 0: no pool to compare
    if threads > 1:
        t1 = spawn(deadline, args.workload, seed0, 1, args.size)
        metrics["speedlab.speedup_t2_vs_t1"] = t1["wall_s"] / plain["wall_s"]
        print(f"# threads=1 repeat of round 0: {t1['wall_s']:.3f} s, "
              f"threads={threads}: {plain['wall_s']:.3f} s")
    print(f"# tridiag probe sizes: cyclic n={probes[0]['tridiag.cyclic_n']}, "
          f"plain n={probes[0]['tridiag.solve_n']}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(THREADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny windows for the benchmark's own test")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        OUT.mkdir(exist_ok=True)
    try:
        rounds = run_rounds(args, deadline, bool(args.trace))
        measure = per_layer if args.trace else end_to_end
        values = measure(args, deadline, rounds)
    except RoundFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    env = dict(rounds[0]["env"], workload=args.workload, seed=args.seed,
               threads=THREADS[args.workload], size=args.size)
    print("# env " + json.dumps(env, sort_keys=True))
    attempted = failed = 0
    for r, res in enumerate(rounds):
        outs = res["outcomes"]
        attempted += len(outs)
        print(f"# round {r}: master_seed={round_seed(args.seed, r)} "
              f"realizations={len(outs)} wall={res['wall_s']:.3f} s "
              f"cpu={res['cpu_s']:.3f} s rss={res['rss_mb']:.1f} MB")
        for o in outs:
            if o["failure"] is not None:
                failed += 1
                print(f"# failure: round={r} master_seed={round_seed(args.seed, r)} "
                      f"stream={o['stream']} {o['failure']}")
    print(f"# fail_rate {failed / attempted} ({failed} of {attempted} realizations)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
