"""One-dimensional bracketing and Brent minimization."""

from __future__ import annotations

import math

from .results import NumericalFailure

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0


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


def bracket_min(f, lo: float, hi: float, grow: float = 2.0, max_expand: int = 8,
                lo_floor: float = 0.0):
    """Expand [lo, hi] geometrically until the midpoint value undercuts both ends.

    The map must be decreasing at lo and increasing at hi for a valid bracket;
    each side is expanded at most max_expand times, the left one never below
    lo_floor.  Returns (lo, hi, evals) where evals is a dict of cached f values.
    """
    evals: dict[float, float] = {}

    def fv(x: float) -> float:
        if x not in evals:
            evals[x] = f(x)
        return evals[x]

    expansions = 0
    while True:
        mid = math.sqrt(lo * hi) if lo > 0 else 0.5 * (lo + hi)
        f_lo, f_mid, f_hi = fv(lo), fv(mid), fv(hi)
        if f_mid < f_lo and f_mid < f_hi:
            return lo, hi, evals
        if expansions >= max_expand:
            raise BracketFailure(lo, hi, expansions)
        if f_lo <= f_mid:
            # still decreasing toward lo: push the left end down
            lo = max(lo_floor + (lo - lo_floor) / grow, lo_floor)
            if lo == lo_floor:
                lo = lo_floor + (hi - lo_floor) * 1e-6
        if f_hi <= f_mid:
            hi = hi * grow if hi > 0 else hi + (hi - lo)
        expansions += 1


def brent_min(f, lo: float, hi: float, evals: dict, rel_tol: float = 1e-4,
              max_iters: int = 200):
    """Brent minimization of a unimodal f of a positive variable, in its log.

    Parabolic interpolation through the three best points, with a
    golden-section step whenever the parabola is not trusted, run over
    t = log x on the bracket 0 < lo < hi from bracket_min.  Both speed
    objectives are a cosh in the log of their variable in a homogeneous
    medium (c/p + a p = 2 sqrt(ac) cosh(log p - log p*)), which a parabola in
    t fits and one in x does not.  The search starts at the best point of
    ``evals`` inside (lo, hi), with lo and hi as the other two points, so the
    first step is the parabola through known values; no point is evaluated
    twice, and evals stays keyed by the points evaluated (the bracket's own
    keys, not exp(log x)).  It stops when the bracket around the best point
    is narrower than rel_tol in t, a relative rel_tol in x.  Returns
    (x_min, f_min, evals) with evals the dict of all evaluated points.
    """
    if not 0.0 < lo < hi:
        raise ValueError("brent_min needs a bracket 0 < lo < hi")
    # a, b, x, w, v and u below are logs; xs maps each log to its point
    xs = {math.log(x): x for x in evals}

    def value(t: float) -> float:
        x = xs.setdefault(t, math.exp(t))
        if x not in evals:
            evals[x] = f(x)
        return evals[x]

    a, b = math.log(lo), math.log(hi)
    x = min((q for q in xs if a < q < b), key=value)
    w, v = a, b
    fx, fw, fv = value(x), value(w), value(v)
    d = e = b - a
    tol1 = 0.25 * rel_tol
    for _ in range(max_iters):
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
    return xs[x], fx, evals
