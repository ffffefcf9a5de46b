"""Seeded realizations of heterogeneous diffusion/reaction coefficient fields.

A realization holds gridded fields a, c on a window [0, X) treated as
X-periodic (the finite-volume surrogate for the infinite line).  Three
ensemble kinds are supported:

* ``constant``      -- homogeneous a0, c0.
* ``dimer_random``  -- alternating blocks of two phases (the classic
                       two-phase patchy landscape), C2-smoothed edges; with
                       fixed block lengths the field is periodic.
* ``random_trig``   -- a positive floor plus random-phase cosine modes
                       snapped to the window so the field is exactly
                       X-periodic.

Plateau fields (constant media are a single block) are smoothed by
convolving each plateau jump with a C1 bump (quartic kernel) of width eps,
so the fields are C2.  Both fields are evaluated analytically in one pass on
the window's sorted grid (mapped by x -> x/scale into the profile's window
when rescaled); this makes rescaling exact at shared sample points and keeps
plateau floors exact.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import numpy.random  # lazy in numpy 2; imported here, not in the first sampling

from .hashutil import canonical_json, content_hash64, hash64
from .results import write_json

FORMAT_MAGIC = b"KPPM"
FORMAT_VERSION = 2

# header: magic, version, N, h, X, master_seed, stream_id, realization_id, scale
_HEADER = struct.Struct("<4sHQddQQQd")


# ---------------------------------------------------------------------------
# ensemble specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantSpec:
    """Homogeneous medium a = a0, c = c0."""

    a0: float
    c0: float
    kind: str = field(default="constant", init=False)

    def __post_init__(self):
        if self.a0 <= 0 or self.c0 <= 0:
            raise ValueError("constant ensemble requires a0 > 0 and c0 > 0")

    @property
    def corr_length(self) -> float:
        return 1.0


@dataclass(frozen=True)
class DimerSpec:
    """Random two-phase medium with alternating i.i.d. block lengths.

    Blocks alternate between phase (+): (a_plus, c_plus) with mean length len1
    and phase (-): (a_minus, c_minus) with mean length len2.  With
    length_dist="fixed" the lengths are exactly len1/len2 (the field is then
    (len1+len2)-periodic); with "uniform" each length is jittered by
    U(-jitter, +jitter).
    """

    a_plus: float
    a_minus: float
    c_plus: float
    c_minus: float
    len1: float
    len2: float
    eps: float
    length_dist: str = "fixed"
    jitter: float = 0.0
    kind: str = field(default="dimer_random", init=False)

    def __post_init__(self):
        for name in ("a_plus", "a_minus", "c_plus", "c_minus", "len1", "len2", "eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.length_dist not in ("fixed", "uniform"):
            raise ValueError("length_dist must be 'fixed' or 'uniform'")
        if self.length_dist == "uniform":
            if not (0 < self.jitter < min(self.len1, self.len2)):
                raise ValueError("jitter must lie in (0, min(len1, len2))")
        elif self.jitter != 0.0:
            raise ValueError("jitter requires length_dist='uniform'")

    @property
    def corr_length(self) -> float:
        return self.len1 + self.len2


@dataclass(frozen=True)
class RandomTrigSpec:
    """Random-phase trigonometric medium above positive floors.

    a(x) = a_min + sum_m amps_a[m] * (1 + cos(k_m x + phi_m)) and likewise for
    c with an independent phase draw.  Each nonnegative cosine term keeps the
    floors exact.  The requested base_freqs are snapped to the nearest nonzero
    multiple of 2*pi/X at sampling time so the field is exactly X-periodic.
    """

    base_freqs: tuple[float, ...]
    amps_a: tuple[float, ...]
    amps_c: tuple[float, ...]
    a_min: float
    c_min: float
    kind: str = field(default="random_trig", init=False)

    def __post_init__(self):
        object.__setattr__(self, "base_freqs", tuple(float(f) for f in self.base_freqs))
        object.__setattr__(self, "amps_a", tuple(float(v) for v in self.amps_a))
        object.__setattr__(self, "amps_c", tuple(float(v) for v in self.amps_c))
        m = len(self.base_freqs)
        if m < 1:
            raise ValueError("random_trig needs at least one mode")
        if len(self.amps_a) != m or len(self.amps_c) != m:
            raise ValueError("amplitude vectors must match base_freqs length")
        if self.a_min <= 0 or self.c_min <= 0:
            raise ValueError("floors a_min and c_min must be positive")
        if any(f <= 0 for f in self.base_freqs):
            raise ValueError("base frequencies must be positive")
        if any(v < 0 for v in self.amps_a + self.amps_c):
            raise ValueError("amplitudes must be nonnegative")

    @property
    def corr_length(self) -> float:
        return 2.0 * np.pi / min(self.base_freqs)


EnsembleSpec = ConstantSpec | DimerSpec | RandomTrigSpec

_SPEC_KINDS = {
    "constant": ConstantSpec,
    "dimer_random": DimerSpec,
    "random_trig": RandomTrigSpec,
}


def spec_from_dict(d: dict) -> EnsembleSpec:
    """Spec of an ``asdict(spec)`` dict; ValueError for a bad kind or params."""
    d = dict(d)
    kind = d.pop("kind", None)
    cls = _SPEC_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown ensemble kind {kind!r}")
    try:
        return cls(**d)
    except TypeError as exc:
        raise ValueError(f"bad {kind} ensemble: {exc}") from None


# ---------------------------------------------------------------------------
# continuous field profiles (deterministic functions of spec, seed, window)
# ---------------------------------------------------------------------------

def _smooth_step(u: np.ndarray) -> np.ndarray:
    # integral of the quartic bump (15/16)(1-u^2)^2; maps [-1,1] -> [0,1], C2
    return 0.5 + (15.0 / 16.0) * (u - 2.0 * u**3 / 3.0 + u**5 / 5.0)


class _PiecewiseProfile:
    """X-periodic plateau field with C2-smoothed jumps.

    starts[j] is the left endpoint of block j (starts[0] == 0); block j holds
    (a_vals[j], c_vals[j]) until the next start, the last block wrapping to X.
    Every jump (including the wrap at 0/X) is smoothed over [e-eps/2, e+eps/2]
    by the quartic-kernel step; the smoothed field stays inside the plateau
    range because the step response is monotone.
    """

    def __init__(self, starts, a_vals, c_vals, eps, X):
        self.starts = np.asarray(starts, dtype=float)
        self.a_vals = np.asarray(a_vals, dtype=float)
        self.c_vals = np.asarray(c_vals, dtype=float)
        self.eps = float(eps)
        self.X = float(X)
        prev_a = np.roll(self.a_vals, 1)
        prev_c = np.roll(self.c_vals, 1)
        self.jump_a = self.a_vals - prev_a
        self.jump_c = self.c_vals - prev_c

    def fields(self, x):
        """(a, c) at the ascending points x of [0, X)."""
        half = self.eps / 2.0
        block = np.searchsorted(self.starts, x, side="right") - 1
        # every smoothing zone [image - half, image + half] of every jump of a
        # or c, its images one period left and right included, in the order
        # (jump, image); np.add.at then sums each field's overlaps in that
        # order, and a zone where only the other field jumps adds +-0.0
        live = (self.jump_a != 0.0) | (self.jump_c != 0.0)
        images = (self.starts[live, None]
                  + np.array([-self.X, 0.0, self.X])).ravel()
        i0 = np.searchsorted(x, images - half, side="left")
        i1 = np.searchsorted(x, images + half, side="right")
        count = np.maximum(i1 - i0, 0)
        first = np.cumsum(count) - count
        pos = np.arange(int(count.sum())) + np.repeat(i0 - first, count)
        u = (x[pos] - np.repeat(images, count)) / half
        step = _smooth_step(u) - (u >= 0.0)
        jump = np.repeat(np.repeat(np.flatnonzero(live), 3), count)

        def one(vals, jumps):
            add = np.zeros_like(x)
            np.add.at(add, pos, jumps[jump] * step)
            # the monotone step response keeps the exact field inside the
            # plateau range; clipping removes only last-ulp rounding dust so
            # the declared floors hold exactly
            return np.clip(vals[block] + add, np.min(vals), np.max(vals))

        return one(self.a_vals, self.jump_a), one(self.c_vals, self.jump_c)


class _TrigProfile:
    def __init__(self, ks, amps_a, phases_a, amps_c, phases_c, a_min, c_min):
        self.ks = np.asarray(ks, dtype=float)
        self.amps_a = np.asarray(amps_a, dtype=float)
        self.phases_a = np.asarray(phases_a, dtype=float)
        self.amps_c = np.asarray(amps_c, dtype=float)
        self.phases_c = np.asarray(phases_c, dtype=float)
        self.a_min = float(a_min)
        self.c_min = float(c_min)

    def fields(self, x):
        """(a, c) at the points x."""
        a = np.full_like(x, self.a_min)
        c = np.full_like(x, self.c_min)
        for k, amp_a, ph_a, amp_c, ph_c in zip(
                self.ks, self.amps_a, self.phases_a, self.amps_c, self.phases_c):
            kx = k * x
            a += amp_a * (1.0 + np.cos(kx + ph_a))
            c += amp_c * (1.0 + np.cos(kx + ph_c))
        return a, c


def _build_profile(spec: EnsembleSpec, child_seed: int, X: float):
    """Continuous X-periodic profile; a pure function of (spec, seed, X)."""
    rng = np.random.Generator(np.random.PCG64(child_seed))
    if isinstance(spec, ConstantSpec):
        # one block: no jumps, so no smoothing zones
        return _PiecewiseProfile([0.0], [spec.a0], [spec.c0], 0.0, X)
    if isinstance(spec, DimerSpec):
        # draw alternating block lengths until the window is covered by an
        # even count, then tile the circle exactly (lengths scaled by X/total,
        # a 1 - O(corr/X) distortion) so the two phases alternate across the
        # wrap as well; a truncated wrap would occasionally fuse two
        # same-phase blocks into an artificial double-width patch that can
        # dominate the principal eigenvalue.  The lengths are drawn in
        # batches of block pairs: uniform(size=k) yields the doubles of k
        # scalar draws, and cumsum adds in the order of a running total, so
        # the blocks are those of drawing one length at a time
        pairs = int(X / (spec.len1 + spec.len2)) + 8
        lengths = np.empty(0)
        while True:
            batch = np.tile(np.array([spec.len1, spec.len2], dtype=float), pairs)
            if spec.length_dist == "uniform":
                batch += rng.uniform(-spec.jitter, spec.jitter, size=batch.size)
            lengths = np.concatenate((lengths, batch))
            totals = np.cumsum(lengths)
            # the sum can land a rounding error short of X: count that as
            # covered; the count of blocks must be even
            covered = np.flatnonzero(totals[1::2] >= X * (1.0 - 1e-9))
            if covered.size:
                n = 2 * int(covered[0]) + 2
                break
        factor = X / float(totals[n - 1])
        starts = np.concatenate(([0.0], totals[:n - 1])) * factor
        plus_phase = np.arange(n) % 2 == 0
        a_vals = np.where(plus_phase, spec.a_plus, spec.a_minus)
        c_vals = np.where(plus_phase, spec.c_plus, spec.c_minus)
        return _PiecewiseProfile(starts, a_vals, c_vals, spec.eps, X)
    if isinstance(spec, RandomTrigSpec):
        ns = [max(1, round(f * X / (2.0 * np.pi))) for f in spec.base_freqs]
        ks = [2.0 * np.pi * n / X for n in ns]
        m = len(ks)
        phases_a = rng.uniform(0.0, 2.0 * np.pi, size=m)
        phases_c = rng.uniform(0.0, 2.0 * np.pi, size=m)
        return _TrigProfile(ks, spec.amps_a, phases_a, spec.amps_c, phases_c,
                            spec.a_min, spec.c_min)
    raise TypeError(f"unsupported spec {type(spec)!r}")


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MediumRealization:
    """One sampled medium on an X-periodic window with N = X/h nodes.

    Arrays are read-only; a_half[i] is the flux coefficient at node i + 1/2,
    the arithmetic mean of the neighbouring node values of a, computed here
    and nowhere else, so that the serialized (a, c) pair reconstructs the
    realization exactly.
    ``scale`` records accumulated rescalings x -> x/scale of the parent
    profile (scale == 1 for a fresh sample).
    """

    h: float
    X: float
    N: int
    a: np.ndarray
    c: np.ndarray
    master_seed: int
    stream_id: int
    realization_id: int
    ensemble: EnsembleSpec | None
    scale: float = 1.0
    a_half: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "a_half", 0.5 * (self.a + np.roll(self.a, -1)))
        for arr in (self.a, self.c, self.a_half):
            arr.flags.writeable = False
        if np.any(self.a <= 0) or np.any(self.a_half <= 0):
            raise ValueError("diffusion field must be strictly positive")

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.N) * self.h


@dataclass(frozen=True)
class EmpiricalMeans:
    """Window (Birkhoff) averages of c, a and 1/a."""

    mean_c: float
    mean_a: float
    mean_inv_a: float


def _make_realization(spec, master_seed, stream_id, X, h, scale, profile,
                      rid) -> MediumRealization:
    n = int(round(X / h))
    # the grid of [0, X) maps into the profile's window [0, X / scale),
    # ascending; dividing by scale == 1.0 is exact
    a, c = profile.fields(np.arange(n) * h / scale)
    return MediumRealization(
        h=float(h), X=float(X), N=n, a=a, c=c,
        master_seed=int(master_seed), stream_id=int(stream_id),
        realization_id=rid, ensemble=spec, scale=float(scale),
    )


def _grid_nodes(X: float, h: float) -> int:
    """Node count N = X/h of a valid window grid.

    X and h must be positive, X/h integral and N at least 8.
    """
    if not (X > 0 and h > 0):
        raise ValueError(f"X and h must be positive, got X={X!r}, h={h!r}")
    n = X / h
    if abs(n - round(n)) > 1e-9 * max(1.0, n):
        raise ValueError(f"X/h = {n!r} is not integral")
    if int(round(n)) < 8:
        raise ValueError("window must contain at least 8 nodes")
    return int(round(n))


def sample_realization(spec: EnsembleSpec, master_seed: int, stream_id: int,
                       X: float, h: float) -> MediumRealization:
    """Sample one realization; a deterministic function of all its arguments.

    The child seed is hash64(master_seed, stream_id).  X/h must be integral
    with at least 8 nodes, and for the dimer kind the smoothing width must
    satisfy eps >= 4h so the transition layers are resolved.
    """
    _grid_nodes(X, h)
    if isinstance(spec, DimerSpec) and spec.eps < 4.0 * h:
        raise ValueError(
            f"smoothing width eps={spec.eps:g} < 4h={4 * h:g} is unresolved")
    child_seed = hash64(master_seed, stream_id)
    profile = _build_profile(spec, child_seed, X)
    rid = content_hash64(
        canonical_json(asdict(spec)),
        canonical_json([int(master_seed), int(stream_id)]),
        np.float64(X).tobytes(), np.float64(h).tobytes(),
    )
    return _make_realization(spec, master_seed, stream_id, X, h, 1.0, profile, rid)


def _profile_for(m: MediumRealization):
    if m.ensemble is None:
        raise ValueError("realization has no ensemble spec; cannot rebuild profile")
    child_seed = hash64(m.master_seed, m.stream_id)
    return _build_profile(m.ensemble, child_seed, m.X / m.scale)


def rescale(m: MediumRealization, L: float) -> MediumRealization:
    """Return the rescaled medium a_L(x) = a(x/L), c_L(x) = c(x/L).

    The parent profile is re-sampled at x/L on an L*N-node grid with the same
    spacing h (window length L*X), which must be a valid window grid (see
    ``_grid_nodes``).  At shared sample points the child fields equal the
    parent fields exactly.
    """
    _grid_nodes(m.X * L, m.h)
    profile = _profile_for(m)
    rid = content_hash64(
        np.uint64(m.realization_id).tobytes(), b"rescale", np.float64(L).tobytes())
    return _make_realization(
        m.ensemble, m.master_seed, m.stream_id, m.X * L, m.h,
        m.scale * L, profile, rid)


def empirical_means(m: MediumRealization) -> EmpiricalMeans:
    """Trapezoid window averages of c, a and 1/a.

    On a uniform periodic grid the trapezoid rule reduces to the plain node
    mean.  The invariant mean_a * mean_inv_a >= 1 (Cauchy-Schwarz) holds up to
    rounding.
    """
    return EmpiricalMeans(
        mean_c=float(np.mean(m.c)),
        mean_a=float(np.mean(m.a)),
        mean_inv_a=float(np.mean(1.0 / m.a)),
    )


def replace_c(m: MediumRealization, new_c: np.ndarray, tag: str) -> MediumRealization:
    """Derived realization with the reaction-rate field replaced.

    Used by suites that evaluate eigenvalues for modified zero-order terms
    (e.g. L^2 * c, demeaned c, c + shift).  The derived realization has a new
    id and no generating profile, so it cannot be rescaled further.  It
    shares the read-only field a with m.
    """
    new_c = np.ascontiguousarray(new_c, dtype=float)
    if new_c.shape != (m.N,):
        raise ValueError("replacement c has wrong shape")
    rid = content_hash64(
        np.uint64(m.realization_id).tobytes(), tag.encode(), new_c.tobytes())
    return replace(m, c=new_c, realization_id=rid, ensemble=None)


def scale_a(m: MediumRealization, kappa: float) -> MediumRealization:
    """Derived realization with the diffusion field scaled by kappa > 0.

    It shares the read-only field c with m.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    rid = content_hash64(
        np.uint64(m.realization_id).tobytes(), b"scale_a",
        np.float64(kappa).tobytes())
    return replace(m, a=kappa * m.a, realization_id=rid, ensemble=None)


def fields_at(m: MediumRealization,
              xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, c) at arbitrary points by periodic linear interpolation of the grid."""
    t = np.mod(np.asarray(xs, dtype=float), m.X) / m.h
    floor = np.floor(t)
    i0 = floor.astype(np.int64) % m.N
    i1 = (i0 + 1) % m.N
    frac = t - floor
    keep = 1.0 - frac
    return m.a[i0] * keep + m.a[i1] * frac, m.c[i0] * keep + m.c[i1] * frac


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def realization_bytes(m: MediumRealization) -> bytes:
    """Binary container: header then little-endian f64 arrays a, c."""
    head = _HEADER.pack(FORMAT_MAGIC, FORMAT_VERSION, m.N, m.h, m.X,
                        m.master_seed, m.stream_id, m.realization_id, m.scale)
    body = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes()
                    for arr in (m.a, m.c))
    return head + body


def save_realization(m: MediumRealization, path: str | Path) -> Path:
    """Write the binary container plus a JSON sidecar with the EnsembleSpec."""
    path = Path(path)
    path.write_bytes(realization_bytes(m))
    sidecar = {
        "ensemble": asdict(m.ensemble) if m.ensemble is not None else None,
        "master_seed": m.master_seed,
        "stream_id": m.stream_id,
        "realization_id": m.realization_id,
        "X": m.X,
        "h": m.h,
        "scale": m.scale,
    }
    write_json(path.with_suffix(path.suffix + ".json"), sidecar)
    return path


def load_realization(path: str | Path) -> MediumRealization:
    """Read a realization back; arrays are authoritative, the sidecar supplies
    the EnsembleSpec needed to rebuild the generating profile for rescaling."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != FORMAT_MAGIC:
        raise ValueError("not a KPPM container")
    if len(raw) < _HEADER.size:
        raise ValueError(f"KPPM header truncated: {len(raw)} of {_HEADER.size} bytes")
    _, version, n, h, X, master_seed, stream_id, rid, scale = _HEADER.unpack_from(raw)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported KPPM version {version} "
                         f"(this build reads version {FORMAT_VERSION})")
    if _grid_nodes(X, h) != n:
        raise ValueError(f"KPPM header has N={n}, but X/h = {X / h!r}")
    if len(raw) != _HEADER.size + 16 * n:
        raise ValueError(f"KPPM body holds {len(raw) - _HEADER.size} bytes, "
                         f"expected {16 * n} for N={n}")
    body = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).astype(float)
    a, c = body[:n], body[n:]
    spec = None
    sidecar_path = path.with_suffix(path.suffix + ".json")
    if sidecar_path.exists():
        meta = json.loads(sidecar_path.read_text())
        if meta.get("ensemble") is not None:
            spec = spec_from_dict(meta["ensemble"])
    return MediumRealization(
        h=h, X=X, N=n, a=a, c=c,
        master_seed=master_seed, stream_id=stream_id, realization_id=rid,
        ensemble=spec, scale=scale)
