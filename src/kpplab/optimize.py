"""One-dimensional minimization of a function of a positive variable."""

from __future__ import annotations

import math

from .results import NumericalFailure

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
# the bracket's ends move by this factor, at most _MAX_EXPAND times in all
_GROW = 2.0
_MAX_EXPAND = 8


class BracketFailure(NumericalFailure, RuntimeError):
    """Raised when geometric bracket expansion fails to enclose a minimum."""

    def __init__(self, lo: float, hi: float, expansions: int):
        super().__init__(
            f"no interior minimum bracketed in [{lo:g}, {hi:g}] "
            f"after {expansions} expansions"
        )


def minimize_log(f, lo: float, hi: float, rel_tol: float, floor: float = 0.0):
    """Minimum of a unimodal f over x > floor, bracketed and then Brent in log x.

    The objective is called as f(x, ceiling).  It returns f(x) whenever
    f(x) <= ceiling; otherwise it may return any certified lower bound in
    (ceiling, f(x)], so an evaluation that only has to show that x is
    worse than the ceiling can stop early.  An objective that ignores the
    ceiling and always returns f(x) meets this contract.  A value at or
    below its ceiling is therefore exact; one above it is read as a lower
    bound.  A stored value is reused when it settles the comparison at
    hand (it is exact, or a bound above the new ceiling); otherwise the
    point is evaluated again under the new ceiling.

    Bracket: starting from floor <= lo < hi (lo > 0), f at the geometric
    midpoint sqrt(lo hi) must undercut f at both ends.  The midpoint is
    evaluated first and exactly (no ceiling), then each end with its value
    as the ceiling, so every branch below rests on exact values or on
    bounds that clear the midpoint.  While the midpoint does not undercut
    both ends, an end whose value is not above the midpoint's moves out: lo
    halves its distance to floor and hi doubles.  Once lo sits on floor and
    f(lo) is still not above the midpoint, the minimum lies in [floor, mid],
    so hi contracts to mid instead.  After 8 such moves BracketFailure is
    raised.

    Brent: parabolic interpolation through the three best points, with a
    golden-section step whenever the parabola is not trusted, run over
    t = log x on the bracket.  Both speed objectives are a cosh in the log of
    their variable in a homogeneous medium (c/p + a p = 2 sqrt(ac)
    cosh(log p - log p*)), which a parabola in t fits and one in x does not.
    The search starts at the bracket's best interior point among those
    evaluated exactly, with lo and hi as the other two points, so the first
    step is the parabola through known values.  Each trial is evaluated
    with the current best value as its ceiling: a trial that beats it is
    exact, and one that does not narrows the bracket as before, its bound
    standing in for its value in the parabola.  It stops when the bracket
    around the best point is narrower than rel_tol in t, a relative rel_tol
    in x.

    Returns (x_min, f_min, evals, spread).  x_min and f_min come from an
    exact evaluation.  evals maps every evaluated point to its last value,
    exact or bound; every bound lies above f_min.  spread is the largest
    value at the evaluated neighbours of x_min (x_min included) minus
    f_min; where a neighbour holds a bound, it is computed from that lower
    bound.
    """
    if not (0.0 <= floor <= lo < hi and lo > 0.0):
        raise ValueError("minimize_log needs 0 <= floor <= lo < hi and lo > 0")
    # each evaluated point -> (value, the ceiling it was evaluated under)
    known: dict[float, tuple[float, float]] = {}

    def exact(x: float) -> bool:
        fx_, ceiling = known[x]
        return fx_ <= ceiling

    def at(x: float, ceiling: float) -> float:
        if x not in known or not (exact(x) or known[x][0] > ceiling):
            known[x] = (f(x, ceiling), ceiling)
        return known[x][0]

    expansions = 0
    while True:
        mid = math.sqrt(lo * hi)
        f_mid = at(mid, math.inf)
        f_lo, f_hi = at(lo, f_mid), at(hi, f_mid)
        if f_mid < f_lo and f_mid < f_hi:
            break
        if expansions >= _MAX_EXPAND:
            raise BracketFailure(lo, hi, expansions)
        if lo == floor and f_lo <= f_mid:
            hi = mid
        else:
            if f_lo <= f_mid:
                lo = floor + (lo - floor) / _GROW
            if f_hi <= f_mid:
                hi *= _GROW
        expansions += 1

    # a, b, x, w, v and u below are logs; xs maps each log to its point
    xs = {math.log(q): q for q in known}

    def value(t: float, ceiling: float) -> float:
        return at(xs.setdefault(t, math.exp(t)), ceiling)

    a, b = math.log(lo), math.log(hi)
    x = min((q for q in xs if a < q < b and exact(xs[q])),
            key=lambda q: known[xs[q]][0])
    w, v = a, b
    fx, fw, fv = (known[xs[q]][0] for q in (x, w, v))
    d = e = b - a
    tol1 = 0.25 * rel_tol
    while True:
        xm = 0.5 * (a + b)
        if abs(x - xm) <= 2.0 * tol1 - 0.5 * (b - a):
            break
        # vertex x + p/q of the parabola through v, w and x
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        p, q = (-p, q) if q > 0.0 else (p, -q)
        e_prev, e = e, d
        # trust a step inside (a, b) shorter than half the one before last
        if (abs(e_prev) > tol1 and abs(p) < abs(0.5 * q * e_prev)
                and q * (a - x) < p < q * (b - x)):
            d = p / q
            if min(x + d - a, b - x - d) < 2.0 * tol1:
                d = math.copysign(tol1, xm - x)
        else:
            e = (a - x) if x >= xm else (b - x)
            d = _CGOLD * e
        u = x + d if abs(d) >= tol1 else x + math.copysign(tol1, d)
        fu = value(u, fx)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu

    x_min = xs[x]
    evals = {q: known[q][0] for q in sorted(known)}
    pts = list(evals)
    i = pts.index(x_min)
    spread = max(evals[q] for q in pts[max(0, i - 1):i + 2]) - fx
    return x_min, fx, evals, spread
