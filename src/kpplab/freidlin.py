"""Lyapunov-exponent route to the spreading speed.

For gamma above the self-adjoint principal eigenvalue, the linear problem
(a phi')' + c phi = gamma phi has a unique positive decaying solution whose
exponential decay rate mu(gamma) is computed here without ever forming phi.
On the periodized window, mu is the Floquet exponent of the problem: the
pair (phi, a phi') is carried across each short cell of the window by the
exact 2x2 propagator of the constant-coefficient equation, and mu is the log
of the spectral radius of the product over one period, divided by X.  The
speed is the minimum of gamma / mu(gamma).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import medium as med
from . import operators as ops
from .optimize import minimize_log
from .results import NumericalFailure, SpeedEstimate


class GammaBelowThreshold(NumericalFailure, ValueError):
    """gamma too low: below Lambda_1 + margin or not above max c."""


def default_margin(lambda1: float) -> float:
    return 0.05 * abs(lambda1) + 1e-3


def gamma_floor(m: med.MediumRealization, lambda1: float) -> float:
    """Lower end of the Lyapunov speed search: Lambda_1 + 2*margin, never
    below the max-c exclusion threshold max c + margin."""
    margin = default_margin(lambda1)
    return max(lambda1 + 2.0 * margin, float(np.max(m.c)) + margin)


def _lambda1(m: med.MediumRealization, tol: float = 1e-8) -> float:
    return ops.k_p(m, 0.0, tol=tol).lam


def _cell_fields(m: med.MediumRealization):
    """Cell width and a, c at the midpoints of the ceil(X / (h/2)) cells."""
    n = int(np.ceil(m.X / (m.h / 2.0)))
    step = m.X / n
    xs = step * (np.arange(n) + 0.5)
    return step, *med.fields_at(m, xs)


def riccati_mu(m: med.MediumRealization, gamma: float,
               lambda1_estimate: float | None = None,
               cells=None) -> float:
    """Lyapunov exponent mu(gamma) from the transfer-matrix product.

    The window is split into n = ceil(X / (h/2)) cells, at most h/2 wide,
    with a and c frozen at each cell midpoint.  A cell of width s maps
    (phi, a phi') by the exact propagator

        [[cosh ks, sinh ks / (a k)], [a k sinh ks, cosh ks]]

    with k = sqrt((gamma - c) / a), which has determinant 1 and positive
    entries.  The n matrices are multiplied by the renormalized pairwise
    tree product of ``_tree_product``, so windows whose product exceeds the
    float range stay finite.  mu = log rho(P) / X, rho the spectral
    radius of the one-period product P; the determinant is 1, so the growing
    and the decaying solutions share the rate.  Requires gamma > Lambda_1 +
    margin and gamma > max c (GammaBelowThreshold otherwise).  A caller
    that evaluates several gamma passes the samples ``_cell_fields(m)`` as
    cells, so the fields are sampled once, not once per gamma.
    """
    lam1 = _lambda1(m) if lambda1_estimate is None else lambda1_estimate
    margin = default_margin(lam1)
    if gamma <= lam1 + margin:
        raise GammaBelowThreshold(
            f"gamma={gamma:g} <= Lambda_1 + margin = {lam1 + margin:g}")
    c_max = float(np.max(m.c))
    if gamma <= c_max:
        raise GammaBelowThreshold(
            f"gamma={gamma:g} <= max c = {c_max:g}: cells would oscillate")

    step, a, c = _cell_fields(m) if cells is None else cells
    k = np.sqrt((gamma - c) / a)
    cosh, sinh = np.cosh(k * step), np.sinh(k * step)
    (p00, p01, p10, p11), log_scale = _tree_product(
        cosh, sinh / (a * k), a * k * sinh, cosh)
    trace, det = p00 + p11, p00 * p11 - p01 * p10
    rho = 0.5 * (trace + np.sqrt(max(trace * trace - 4.0 * det, 0.0)))
    return float((log_scale + np.log(rho)) / m.X)


def _tree_product(m00: np.ndarray, m01: np.ndarray, m10: np.ndarray,
                  m11: np.ndarray) -> tuple[tuple[float, ...], float]:
    """Ordered product M[n-1] ... M[1] M[0] of n 2x2 matrices, renormalized.

    The matrices are given by their four entry arrays.  Pairwise tree
    reduction: cell j + 1 acts after cell j, and an odd leftover stays last.
    Each product is formed entry by entry on the arrays (several times faster
    than a batched (n, 2, 2) matmul); after each level every partial product
    is divided by its largest entry and the log of that scale is summed, so
    products beyond the float range stay finite.  Returns the four entries of
    the scaled product and the log of the scale divided out.
    """
    log_scale = 0.0
    while len(m00) > 1:
        b00, b01, b10, b11 = m00[1::2], m01[1::2], m10[1::2], m11[1::2]
        a00, a01, a10, a11 = m00[:-1:2], m01[:-1:2], m10[:-1:2], m11[:-1:2]
        q = [b00 * a00 + b01 * a10, b00 * a01 + b01 * a11,
             b10 * a00 + b11 * a10, b10 * a01 + b11 * a11]
        if len(m00) % 2:
            q = [np.append(qi, mi[-1]) for qi, mi in zip(q, (m00, m01, m10, m11))]
        # the entries are positive, so the largest one is the scale
        scale = np.maximum(np.maximum(q[0], q[1]), np.maximum(q[2], q[3]))
        log_scale += float(np.log(scale).sum())
        m00, m01, m10, m11 = (np.divide(qi, scale, out=qi) for qi in q)
    return (float(m00[0]), float(m01[0]), float(m10[0]), float(m11[0])), log_scale


@dataclass(frozen=True)
class MuCurve:
    """mu(gamma) samples on an increasing grid, with provenance.

    mu is positive, strictly increasing and concave in gamma: it is the
    inverse function of the convex increasing tilt-to-eigenvalue map, and the
    homogeneous closed form sqrt((gamma - c)/a) shows the curvature sign.
    """

    gamma: np.ndarray
    mu: np.ndarray
    lambda1_estimate: float
    margin: float
    realization_id: int
    X: float
    h: float
    ode_step: float  # h/2, the cells' nominal width

    def __post_init__(self):
        self.gamma.flags.writeable = False
        self.mu.flags.writeable = False
        if np.any(np.diff(self.gamma) <= 0):
            raise ValueError("gamma grid must be strictly increasing")
        if np.any(self.mu <= 0):
            raise ValueError("mu values must be positive")

    def to_csv(self, path: str | Path) -> Path:
        path = Path(path)
        meta = asdict(self)
        del meta["gamma"], meta["mu"]
        lines = ["# " + json.dumps(meta, sort_keys=True), "gamma,mu"]
        lines += [f"{g!r},{u!r}" for g, u in zip(self.gamma, self.mu)]
        path.write_text("\n".join(lines) + "\n")
        return path


def mu_curve(m: med.MediumRealization, gammas,
             lambda1_estimate: float | None = None) -> MuCurve:
    """mu(gamma) on the given grid; Lambda_1 is solved unless it is given."""
    lam1 = _lambda1(m) if lambda1_estimate is None else lambda1_estimate
    cells = _cell_fields(m)
    gammas = np.asarray(sorted(float(g) for g in gammas))
    mus = np.array([riccati_mu(m, g, lambda1_estimate=lam1, cells=cells)
                    for g in gammas])
    return MuCurve(gamma=gammas, mu=mus, lambda1_estimate=lam1,
                   margin=default_margin(lam1), realization_id=m.realization_id,
                   X=m.X, h=m.h, ode_step=m.h / 2.0)


def speed_freidlin(m: med.MediumRealization, tol: float = 1e-4) -> SpeedEstimate:
    """Spreading speed via the Lyapunov formula w* = min_{gamma} gamma/mu(gamma).

    The objective is written over x = gamma - Lambda_1 > 0, in which it is a
    cosh in log x for a homogeneous medium (gamma - Lambda_1 = a mu^2).  One
    ``minimize_log`` search: the bracket starts at x_0 = gamma_0 - Lambda_1,
    with gamma_0 from ``gamma_floor``, and x_0 > 0 is also its floor, so
    while the objective at x_0 is not above the bracket's midpoint the
    bracket contracts toward x_0; otherwise it grows geometrically.  Brent minimization, seeded with the
    bracket's values, runs over log x to relative tolerance tol in x (about
    8-9 mu evaluations).  The returned provenance records the
    number of mu evaluations and whether the minimizer sat against the
    exclusion boundary.
    """
    lam1 = _lambda1(m)
    gamma_lo = gamma_floor(m, lam1)
    x_lo = gamma_lo - lam1
    cells = _cell_fields(m)

    # one mu is a single product, with nothing to stop early: the ceiling
    # minimize_log passes is ignored, and every value is exact
    def g(x: float, ceiling: float) -> float:
        gamma = lam1 + x
        return gamma / riccati_mu(m, gamma, lambda1_estimate=lam1,
                                  cells=cells)

    x_star, w, evals, spread = minimize_log(
        g, x_lo, 2.0 * gamma_lo + 1.0 - lam1, tol, floor=x_lo)
    gamma_star = lam1 + x_star
    mu_star = gamma_star / w
    err = spread + tol * w
    at_boundary = x_star <= x_lo * (1.0 + 2.0 * tol)
    return SpeedEstimate(
        value=w, method="freidlin", optimizer=gamma_star, err=err,
        provenance={
            "realization_id": m.realization_id, "X": m.X, "h": m.h,
            "tol": tol, "ode_step": m.h / 2.0, "mu_star": mu_star,
            "lambda1_estimate": lam1, "gamma_lo": gamma_lo,
            "evals": len(evals),
            "bracket_at_exclusion_boundary": bool(at_boundary),
        })

