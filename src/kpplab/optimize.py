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
        self.lo = lo
        self.hi = hi
        self.expansions = expansions


def minimize_log(f, lo: float, hi: float, rel_tol: float, floor: float = 0.0):
    """Minimum of a unimodal f over x > floor, bracketed and then Brent in log x.

    Bracket: starting from floor <= lo < hi (lo > 0), f at the geometric
    midpoint sqrt(lo hi) must undercut f at both ends.  While it does not,
    an end whose value is not above the midpoint's moves out: lo halves its
    distance to floor and hi doubles.  Once lo sits on floor and f(lo) is
    still not above the midpoint, the minimum lies in [floor, mid], so hi
    contracts to mid instead.  After 8 such moves BracketFailure is raised.

    Brent: parabolic interpolation through the three best points, with a
    golden-section step whenever the parabola is not trusted, run over
    t = log x on the bracket.  Both speed objectives are a cosh in the log of
    their variable in a homogeneous medium (c/p + a p = 2 sqrt(ac)
    cosh(log p - log p*)), which a parabola in t fits and one in x does not.
    The search starts at the bracket's best interior point, with lo and hi
    as the other two points, so the first step is the parabola through known
    values.  It stops when the bracket around the best point is narrower
    than rel_tol in t, a relative rel_tol in x.  No point is evaluated twice.

    Returns (x_min, f_min, evals, spread): evals maps every evaluated point
    to its value, and spread is the largest value at the evaluated
    neighbours of x_min (x_min included) minus f_min.
    """
    if not (0.0 <= floor <= lo < hi and lo > 0.0):
        raise ValueError("minimize_log needs 0 <= floor <= lo < hi and lo > 0")
    evals: dict[float, float] = {}

    def cached(x: float) -> float:
        if x not in evals:
            evals[x] = f(x)
        return evals[x]

    expansions = 0
    while True:
        mid = math.sqrt(lo * hi)
        f_lo, f_mid, f_hi = cached(lo), cached(mid), cached(hi)
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
    xs = {math.log(q): q for q in evals}

    def value(t: float) -> float:
        return cached(xs.setdefault(t, math.exp(t)))

    a, b = math.log(lo), math.log(hi)
    x = min((q for q in xs if a < q < b), key=value)
    w, v = a, b
    fx, fw, fv = value(x), value(w), value(v)
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
        fu = value(u)
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
    pts = sorted(evals)
    i = pts.index(x_min)
    spread = max(evals[q] for q in pts[max(0, i - 1):i + 2]) - fx
    return x_min, fx, evals, spread
