"""Spans around kpplab's public functions, and the per-layer metrics from them.

The tracer rebinds module attributes of the package, so the calls kpplab
makes through its own module globals are caught as well as the benchmark's.
Each span keeps its name, start, end, parent span, thread and seed (the
stream id of the medium the thread last sampled).  Spans stay in memory
until the round ends.  A span's self time is its duration minus the part of
it that its child spans cover.

Only ``Tracer.install`` imports kpplab, so the parent process can compute
the per-layer metrics from the span files its workers wrote.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time


def _iters(bound, result):
    return {"iters": result.iters}


def _steps(bound, result):
    trace = result[0] if isinstance(result, tuple) else result
    return {"steps": int(round(trace.times[-1] / trace.dt))}


def _theta(bound, result):
    return {"iters": result.iters, "max_iters": bound.arguments["max_iters"]}


def _threads(bound, result):
    return {"threads": bound.arguments["threads"]}


# "module.function" -> what the span records from the call's result
TRACED = {
    "medium.sample_realization": None,
    "operators.principal_eigen": _iters,
    "operators.k_p": None,
    "operators.speed_from_kp": None,
    "freidlin.riccati_mu": None,
    "freidlin.speed_freidlin": None,
    "pde.simulate": _steps,
    "pde.front_speed": None,
    "variational.minimize_theta": _theta,
    "speedlab.suite_homogenized_bound": _threads,
}


class Tracer:
    """Records a span for every call of the functions named in TRACED."""

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []
        self.t0 = time.perf_counter()

    def install(self) -> None:
        for qual, annotate in TRACED.items():
            mod_name, fn_name = qual.split(".")
            module = importlib.import_module(f"kpplab.{mod_name}")
            fn = getattr(module, fn_name)
            self._saved.append((module, fn_name, fn))
            setattr(module, fn_name, self._wrap(qual, fn, annotate))

    def uninstall(self) -> None:
        for module, fn_name, fn in reversed(self._saved):
            setattr(module, fn_name, fn)
        self._saved.clear()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, qual, fn, annotate):
        sig = inspect.signature(fn)
        is_sample = qual == "medium.sample_realization"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if is_sample:
                self._local.seed = int(bound.arguments["stream_id"])
            stack = self._stack()
            # a pool thread's outermost span hangs under the span the main
            # thread has open, i.e. the suite that submitted the task
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            with self._lock:
                span = {"id": len(self.spans), "name": qual, "parent": parent,
                        "thread": threading.get_ident(),
                        "seed": getattr(self._local, "seed", None),
                        "start": time.perf_counter() - self.t0}
                self.spans.append(span)
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter() - self.t0
                stack.pop()
            if annotate is not None:
                span.update(annotate(bound, result))
            return result

        return traced


# ---------------------------------------------------------------------------
# per-layer metrics (computed in the parent from the spans of all rounds)
# ---------------------------------------------------------------------------

def _covered(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanIndex:
    """Spans of one round, indexed by name and by parent."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.children: dict[int, list[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                self.children.setdefault(s["parent"], []).append(s)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_time(self, span: dict) -> float:
        kids = [(max(c["start"], span["start"]), min(c["end"], span["end"]))
                for c in self.children.get(span["id"], [])]
        return (span["end"] - span["start"]) - _covered(
            [k for k in kids if k[1] > k[0]])

    def descendants(self, span: dict, name: str) -> int:
        n, todo = 0, list(self.children.get(span["id"], []))
        while todo:
            c = todo.pop()
            n += c["name"] == name
            todo.extend(self.children.get(c["id"], []))
        return n

    def busy_frac(self, suite: dict) -> float:
        """Per-seed spans summed, over (threads x suite wall)."""
        by_seed: dict[tuple, tuple[float, float]] = {}
        for c in self.children.get(suite["id"], []):
            key = (c["thread"], c["seed"])
            lo, hi = by_seed.get(key, (c["start"], c["end"]))
            by_seed[key] = (min(lo, c["start"]), max(hi, c["end"]))
        busy = sum(hi - lo for lo, hi in by_seed.values())
        wall = suite["end"] - suite["start"]
        return busy / (suite["threads"] * wall) if wall > 0 else 0.0


def _dur(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rounds: list[list[dict]]) -> dict[str, float]:
    """Per-layer totals over the traced rounds; 0 where a layer is not called."""
    idx = [SpanIndex(spans) for spans in rounds]

    def named(name):
        return [(i, s) for i in idx for s in i.named(name)]

    def spans(name):
        return [s for _, s in named(name)]

    sample = spans("medium.sample_realization")
    eigen = spans("operators.principal_eigen")
    kp = named("operators.k_p")
    speed = named("operators.speed_from_kp")
    mu = spans("freidlin.riccati_mu")
    fspeed = named("freidlin.speed_freidlin")
    sim = spans("pde.simulate")
    theta = named("variational.minimize_theta")
    suites = named("speedlab.suite_homogenized_bound")

    steps = sum(s.get("steps", 0) for s in sim)
    theta_iters = sum(s.get("iters", 0) for _, s in theta)
    return {
        "medium.calls": len(sample),
        "medium.sample_s": _dur(sample),
        "operators.eigen_calls": len(eigen),
        "operators.eigen_s": _dur(eigen),
        "operators.eigen_ms_per_call": 1e3 * _ratio(_dur(eigen), len(eigen)),
        "operators.eigen_iters_per_call": _ratio(
            sum(s.get("iters", 0) for s in eigen), len(eigen)),
        "operators.eigen_failures": sum("error" in s for s in eigen),
        "operators.kp_calls": len(kp),
        "operators.kp_memo_hit_ratio": _ratio(
            sum(not i.descendants(s, "operators.principal_eigen") for i, s in kp),
            len(kp)),
        "operators.kp_self_s": sum(i.self_time(s) for i, s in kp),
        "operators.speed_calls": len(speed),
        "operators.speed_s": _dur(s for _, s in speed),
        "operators.speed_self_s": sum(i.self_time(s) for i, s in speed),
        "operators.solves_per_speed": _ratio(
            sum(i.descendants(s, "operators.principal_eigen") for i, s in speed),
            len(speed)),
        "freidlin.mu_calls": len(mu),
        "freidlin.mu_s": _dur(mu),
        "freidlin.mu_ms_per_call": 1e3 * _ratio(_dur(mu), len(mu)),
        "freidlin.speed_s": _dur(s for _, s in fspeed),
        "freidlin.speed_self_s": sum(i.self_time(s) for i, s in fspeed),
        "freidlin.evals_per_speed": _ratio(
            sum(i.descendants(s, "freidlin.riccati_mu") for i, s in fspeed),
            len(fspeed)),
        "freidlin.failures": sum("error" in s for s in mu)
        + sum("error" in s for _, s in fspeed),
        "pde.simulate_s": _dur(sim),
        "pde.steps": steps,
        "pde.step_us": 1e6 * _ratio(_dur(sim), steps),
        "pde.front_speed_s": _dur(spans("pde.front_speed")),
        "variational.minimize_s": _dur(s for _, s in theta),
        "variational.minimize_self_s": sum(i.self_time(s) for i, s in theta),
        "variational.iters": _ratio(theta_iters, len(theta)),
        "variational.eigen_calls_per_iter": _ratio(
            sum(i.descendants(s, "operators.principal_eigen") for i, s in theta),
            theta_iters),
        "variational.capped_frac": _ratio(
            sum(s.get("iters") == s.get("max_iters") for _, s in theta),
            len(theta)),
        "speedlab.suite_s": _dur(s for _, s in suites),
        "speedlab.pool_busy_frac": _ratio(
            sum(i.busy_frac(s) for i, s in suites), len(suites)),
    }

