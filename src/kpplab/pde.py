"""Direct time integration of the reaction-diffusion front, with tracking.

IMEX stepping: the flux-form diffusion is treated implicitly, the KPP
reaction explicitly.  The explicit reaction is monotone under the CFL bound
dt <= 0.5/max f_s(x,0), and the implicit diffusion matrix I - dt D is a
symmetric M-matrix with unit row sums, so u stays in [0, 1] without
clipping.  I - dt D is strictly diagonally dominant, hence positive definite:
it is factored as LDL^T (LAPACK pttrf) and each step is one pttrs solve.

Each step solves only the active block [lo, J) of the window, with u = 0
beyond it and u held behind it.  J runs TAIL_PAD nodes past the last node
where u is at or above the step's floor and grows as the tail spreads.  The
floor at step k of nsteps is max(TAIL_FLOOR, TAIL_EPS (1 + dt
max c)^-(nsteps - k)): a value dropped at step k grows by at most 1 + dt
max c per explicit reaction step, and the implicit diffusion step does not
raise the sup norm, so by the end of the run it would stay below TAIL_EPS.
The LDL^T factor of a leading block is the leading part of the factor of
the whole matrix, so the block solve is the exact solve with u held at 0
from node J on.  One implicit step can carry the tail far past the pad
(thousands of nodes when dt/h^2 is large), so a step whose solution is
still at or above the floor at the block's last node is redone on a block
twice as long: the zero held at J then never reaches the front, whatever h
and dt.  What the block drops is the tail below the floor, which the full
solve would carry down through the subnormal range, where each
floating-point operation stalls.

Behind the front u settles next to the stable state 1 and the step hardly
moves it, so the nodes [0, lo) are held: both swap buffers keep their
values, and each step solves the trailing principal block of I - dt D from
lo on, whose leading blocks are the active blocks [lo, J), so the tail rule
above applies to it unchanged.  The held node lo - 1 enters the first row's
right-hand side through its off-diagonal coupling.  lo sits SAT_PAD nodes
behind the first node with 1 - u > SAT_TOL; it moves, and the block is
factored again by one pttrf, only when it can advance by at least
SAT_STRIDE nodes.  Every step checks that, whatever the snapshot cadence,
at the cost of one comparison while the front is less than a stride ahead
and of an O(SAT_STRIDE) minimum at most.  The hold is safe: u = 1 is a
fixed point of the step (the reaction vanishes and the rows of I - dt D sum
to 1), and near it the step is a sup-norm contraction (under the CFL bound
the reaction's slope 1 - dt c (2u - 1) lies in [0, 1] for u >= 1/2, and the
implicit solve does not raise the sup norm), so holding a node within
SAT_TOL of 1 changes u behind the front by O(SAT_TOL).

On criterion 3's media (X=400, h=0.05, dt=0.05, T=160) the mean solved
block is 0.69 N under the tail rule alone and 0.46 N with the hold, which
refactors 19 times a run.  Against the full-window solve, front positions
move by at most 1.5e-11 on a dimer (X=420, T=150) and 7e-11 at dt/h^2 =
1000; against the block solve without the hold, criterion 3's front speeds
move by at most 4.4e-14 relative.

The window is [0, X] with no-flux (reflecting) walls; the initial datum is a
smoothed indicator of [0, 5] and the front is the rightmost 0.5-level
crossing, which is nondecreasing in time after the initial transient.  (A
periodized window would wrap the left edge of the datum into a second,
leftward front invading from x = X, which would corrupt both the front trace
and any dichotomy probe ahead of the main front, so the time integrator is
the one place the window is not treated as periodic.)  Runs abort before the
front reaches 0.9 X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import medium as med
from .results import NumericalFailure, SpeedEstimate
from .tridiag import SPDTridiagonalSolver

TAIL_FLOOR = 1e-280  # u below this past the front's tail is dropped
TAIL_EPS = 1e-20  # bound at time T on what the dropped tail could grow to
TAIL_PAD = 32  # nodes kept past the last node at or above the floor
SAT_TOL = 1e-12  # nodes with 1 - u at most this behind the front are held
SAT_PAD = 64  # active nodes kept behind the first node not within SAT_TOL
SAT_STRIDE = 256  # the held bulk grows by at least this many nodes a move


class CFLViolation(NumericalFailure, ValueError):
    """Time step too large for the explicit reaction."""

    def __init__(self, dt: float, dt_max: float):
        super().__init__(f"dt={dt:g} exceeds reaction CFL bound {dt_max:g}")


class FrontEscaped(NumericalFailure, RuntimeError):
    """The front entered the guard band near the right wall."""

    def __init__(self, t_reached: float):
        super().__init__(f"front reached 0.9 X at t={t_reached:g}")


class TooFewSnapshots(NumericalFailure, ValueError):
    """Fit window contains fewer than 10 snapshots."""


@dataclass(frozen=True)
class ReactionSpec:
    """KPP reaction term f(x, u) = c(x) u (1 - u) (kind "logistic_c").

    It vanishes at u = 0 and u = 1 and is dominated by its linearization at
    0 whenever c is nonnegative.  Other rates, such as r + B (c - mean c),
    enter through the medium (``medium.replace_c``).
    """

    kind: str = "logistic_c"

    def __post_init__(self):
        if self.kind != "logistic_c":
            raise ValueError(f"unknown reaction kind {self.kind!r}")

    def linear_rate(self, m: med.MediumRealization) -> np.ndarray:
        """f_s(x, 0) on the grid."""
        return m.c


@dataclass(frozen=True)
class FrontTrace:
    """Front positions over time plus the invaded-region sanity statistic."""

    times: np.ndarray
    positions: np.ndarray
    mass_left: np.ndarray  # min of u over [0, position/2] per snapshot
    X: float
    h: float
    dt: float
    realization_id: int

    def __post_init__(self):
        for arr in (self.times, self.positions, self.mass_left):
            arr.flags.writeable = False

    def to_csv(self, path) -> None:
        lines = ["t,position,mass_left"]
        lines += [f"{t!r},{p!r},{q!r}" for t, p, q in
                  zip(self.times, self.positions, self.mass_left)]
        from pathlib import Path
        Path(path).write_text("\n".join(lines) + "\n")


def initial_datum(m: med.MediumRealization) -> np.ndarray:
    """Smoothed indicator of [0, 5] (tanh profile of width 1), in [0, 1].

    The right tail underflows to exactly zero within a few tens of length
    units, so the datum is compactly supported up to machine precision.
    """
    return np.clip(0.5 * (1.0 + np.tanh(5.0 - m.x)), 0.0, 1.0)


def front_position(u: np.ndarray, h: float) -> float:
    """Rightmost x with u >= 0.5, linearly interpolated between nodes."""
    above = np.flatnonzero(u >= 0.5)
    if above.size == 0:
        return 0.0
    i = int(above[-1])
    if i == u.shape[0] - 1:
        return i * h
    # interpolate the downward crossing between nodes i and i+1
    return (i + (u[i] - 0.5) / (u[i] - u[i + 1])) * h


def _diffusion_matrix(m: med.MediumRealization,
                      dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of I - dt D, flux-form D with no-flux walls.

    The flux coefficients at the two ends are zero, so the rows sum to 1 and
    the solve is a Markov smoothing step.
    """
    fac = dt / (m.h * m.h)
    a_r = m.a_half.copy()
    a_l = np.roll(m.a_half, 1)
    a_l[0] = 0.0
    a_r[-1] = 0.0
    return 1.0 + fac * (a_l + a_r), -fac * a_r[:-1]


def _last_above_floor(u: np.ndarray, start: int, floor: float) -> int:
    """Last index i >= start with u[i] >= floor (start if none)."""
    # argmax stops at the first True of the reversed comparison
    above = u[start:][::-1] >= floor
    i = int(above.argmax()) if above.size else 0
    return u.shape[0] - 1 - i if above.size and above[i] else start


def _held_edge(u: np.ndarray, lo: int, j: int) -> int:
    """Start of the active block once nodes [lo, j) have stepped.

    SAT_PAD nodes behind the first node at or past lo with 1 - u > SAT_TOL,
    or lo while that start would advance by less than SAT_STRIDE.  A step
    that leaves lo costs one comparison and at most one O(SAT_STRIDE)
    minimum; only a move scans on, and a move refactors the block anyway.
    """
    level = 1.0 - SAT_TOL
    reach = lo + SAT_STRIDE + SAT_PAD  # the first such node must lie here on
    if reach > j or u[reach - 1] < level or u[lo:reach].min() < level:
        return lo
    below = u[reach:j] < level
    first = reach + int(below.argmax()) if below.any() else j
    return first - SAT_PAD


def simulate(m: med.MediumRealization, f: ReactionSpec, T: float,
             dt: float, snapshot_every: float = 1.0,
             keep_final: bool = False):
    """Integrate the front problem to time T in steps of dt (CFLViolation
    above 0.5 / max c) and record the front trace.

    Aborts with FrontEscaped before the front reaches 0.9 X.  With
    keep_final=True returns (trace, u_final) for level probing.
    """
    rate = f.linear_rate(m)
    if np.min(rate) < 0:
        raise ValueError("effective reaction rate must be nonnegative (KPP)")
    rate_max = float(np.max(rate))
    dt_max = 0.5 / rate_max if rate_max > 0 else np.inf
    if dt > dt_max:
        raise CFLViolation(dt, dt_max)

    diag, off = _diffusion_matrix(m, dt)
    solver = SPDTridiagonalSolver(diag, off)  # of the block [lo, n)
    n = m.N
    u = initial_datum(m)
    rhs = np.zeros(n)  # u and rhs swap each step; both stay 0 from J on
    lo, held = 0, 0.0  # u and rhs agree on [0, lo); held: node lo - 1's term
    growth = np.empty(n)
    dt_rate = dt * rate
    every = max(1, int(round(snapshot_every / dt)))
    nsteps = int(round(T / dt))
    gain = 1.0 + dt * rate_max  # bound on a perturbation's growth per step

    def tail_floor(k: int) -> float:
        return max(TAIL_FLOOR, TAIL_EPS * gain ** -(nsteps - k))

    last = _last_above_floor(u, 0, tail_floor(0))
    j = min(n, last + 1 + TAIL_PAD)
    guard = 0.9 * m.X

    times, positions, masses = [0.0], [front_position(u, m.h)], [1.0]
    for k in range(1, nsteps + 1):
        floor = tail_floor(k)
        while True:
            # rhs = u + dt c u (1 - u) on the block, then one in-place solve
            uj, bj, gj = u[lo:j], rhs[lo:j], growth[lo:j]
            np.multiply(dt_rate[lo:j], uj, out=gj)
            np.subtract(1.0, uj, out=bj)
            gj *= bj
            np.add(uj, gj, out=bj)
            bj[0] -= held
            solver.solve(bj)
            if j == n or bj[-1] < floor:
                break
            # the step carried the tail to the block's edge, where the zero
            # held at J would cut it: redo it on a block twice as long
            j = min(n, 2 * j)
        u, rhs = rhs, u
        last = _last_above_floor(u[:j], last, floor)
        j = max(j, min(n, last + 1 + TAIL_PAD))
        edge = _held_edge(u, lo, j)
        if edge > lo:
            rhs[lo:edge] = u[lo:edge]
            lo = edge
            held = off[lo - 1] * u[lo - 1]
            solver = SPDTridiagonalSolver(diag[lo:], off[lo:])
        if k % every == 0 or k == nsteps:
            t = k * dt
            pos = front_position(u, m.h)
            if pos >= guard:
                raise FrontEscaped(t)
            half = max(1, int(pos / (2.0 * m.h)))
            times.append(t)
            positions.append(pos)
            masses.append(float(np.min(u[:half])))
    trace = FrontTrace(times=np.asarray(times), positions=np.asarray(positions),
                       mass_left=np.asarray(masses), X=m.X, h=m.h, dt=dt,
                       realization_id=m.realization_id)
    if keep_final:
        return trace, u
    return trace


def front_speed(trace: FrontTrace, fit_fraction: float = 0.5) -> SpeedEstimate:
    """Least-squares front speed over the last fit_fraction of the time range.

    The error bar is the larger of the regression standard error and the
    drift between the slope over the full fit window and over its second
    half (the KPP logarithmic delay makes fitted slopes approach the true
    speed from below).
    """
    if not (0 < fit_fraction <= 0.5):
        raise ValueError("fit_fraction must lie in (0, 0.5]")
    t, x = trace.times, trace.positions
    t_lo = t[-1] - fit_fraction * (t[-1] - t[0])
    sel = t >= t_lo
    if int(np.count_nonzero(sel)) < 10:
        raise TooFewSnapshots(f"only {int(np.count_nonzero(sel))} snapshots in fit window")

    def fit(ts, xs):
        A = np.vstack([ts, np.ones_like(ts)]).T
        coef, res, _, _ = np.linalg.lstsq(A, xs, rcond=None)
        dof = max(ts.size - 2, 1)
        var = float(res[0]) / dof if res.size else 0.0
        tvar = float(np.sum((ts - ts.mean()) ** 2))
        return float(coef[0]), float(np.sqrt(var / tvar)) if tvar > 0 else 0.0

    slope, stderr = fit(t[sel], x[sel])
    t_half = t[-1] - 0.5 * fit_fraction * (t[-1] - t[0])
    sel2 = t >= t_half
    slope2, _ = fit(t[sel2], x[sel2]) if int(np.count_nonzero(sel2)) >= 3 else (slope, 0.0)
    err = max(stderr, abs(slope2 - slope))
    return SpeedEstimate(
        value=slope, method="pde", optimizer=None, err=err,
        provenance={"realization_id": trace.realization_id, "X": trace.X,
                    "h": trace.h, "dt": trace.dt,
                    "fit_fraction": fit_fraction,
                    "t_range": [float(t[0]), float(t[-1])]})


def dichotomy_check(m: med.MediumRealization, f: ReactionSpec, w_star: float,
                    deltas, T: float, dt: float) -> list[dict]:
    """Probe the spreading dichotomy at time T.

    For each delta > 0, report u(T, (1-delta) w* T) (should be near 1) and
    u(T, (1+delta) w* T) (should be near 0); verdicts use the 0.9 / 0.1
    thresholds.  delta == 0 is reported without a verdict (the dichotomy is
    an open condition on either side of w*).
    """
    deltas = [float(d) for d in deltas]
    if any(d < 0 for d in deltas):
        raise ValueError("deltas must be nonnegative")
    x_max = max((1.0 + d) * w_star * T for d in deltas)
    if x_max >= 0.9 * m.X:
        raise FrontEscaped(T)
    _, u = simulate(m, f, T, dt=dt, snapshot_every=max(1.0, T / 50.0),
                    keep_final=True)
    out = []
    for d in deltas:
        x_in = (1.0 - d) * w_star * T
        x_out = (1.0 + d) * w_star * T
        u_in = float(np.interp(x_in, m.x, u))
        u_out = float(np.interp(x_out, m.x, u))
        rec = {"delta": d, "x_inside": x_in, "u_inside": u_in,
               "x_outside": x_out, "u_outside": u_out}
        if d == 0.0:
            rec["inside_ok"] = None
            rec["outside_ok"] = None
        else:
            rec["inside_ok"] = bool(u_in >= 0.9)
            rec["outside_ok"] = bool(u_out <= 0.1)
        out.append(rec)
    return out
